//! The service-mix job corpus: seeded synthetic `.bench` circuits drawn from
//! the same generator as the committed `circuits/synth_*.bench` corpus,
//! each with a mission spec that forces two inputs and masks one output.

use crate::stats::splitmix64;
use netlist::frontend::bench::write_bench;
use netlist::{NetId, Netlist, NetlistBuilder};

/// Generates a deterministic random combinational circuit at a requested
/// scale: the generator behind the committed `circuits/synth_*.bench` files
/// (pinned byte for byte by this package's `corpus` test). Every generated
/// gate is folded into an output cone, so nothing is trivially
/// unobservable.
pub fn synth_circuit(
    name: &str,
    inputs: usize,
    outputs: usize,
    base_gates: usize,
    seed: u64,
) -> Netlist {
    let mut b = NetlistBuilder::new(name);
    let mut pool: Vec<NetId> = (0..inputs).map(|i| b.input(format!("in{i}"))).collect();
    let mut rng = seed;
    for g in 0..base_gates {
        let a = pool[(splitmix64(&mut rng) % pool.len() as u64) as usize];
        let c = pool[(splitmix64(&mut rng) % pool.len() as u64) as usize];
        let y = match g % 6 {
            0 => b.and2(a, c),
            1 => b.nand2(a, c),
            2 => b.or2(a, c),
            3 => b.nor2(a, c),
            4 => b.xor2(a, c),
            _ => b.not(a),
        };
        pool.push(y);
    }
    // Fold every dangling net into one of the outputs, round-robin, so the
    // whole circuit is observable.
    let heads: Vec<NetId> = pool
        .iter()
        .copied()
        .filter(|&n| b.netlist().loads_of(n).is_empty())
        .collect();
    let mut buckets: Vec<Vec<NetId>> = vec![Vec::new(); outputs];
    for (i, head) in heads.into_iter().enumerate() {
        buckets[i % outputs].push(head);
    }
    for (i, bucket) in buckets.into_iter().enumerate() {
        let src = match bucket.len() {
            0 => pool[i % pool.len()],
            1 => bucket[0],
            _ => b.xor(&bucket),
        };
        // Each primary output is driven through a buffer onto a net carrying
        // the port's name, so `OUTPUT(outN)` stays stable for specs.
        let named = b.netlist_mut().add_net(format!("out{i}"));
        b.netlist_mut().add_cell(
            netlist::CellKind::Buf,
            format!("u_out{i}"),
            &[src],
            Some(named),
        );
        b.output(format!("out{i}"), named);
    }
    b.finish()
}

/// The committed corpus: name, inputs, outputs, base gates, seed — port
/// counts of the ISCAS-85 circuits the files stand in for.
pub const COMMITTED: [(&str, usize, usize, usize, u64); 3] = [
    ("synth_c432", 36, 7, 145, 0x0432),
    ("synth_c880", 60, 26, 340, 0x0880),
    ("synth_c1355", 41, 32, 490, 0x1355),
];

/// One identification job as a caller submits it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// The `.bench` source text.
    pub circuit: String,
    /// The mission spec: two forced inputs, one masked output.
    pub constraints: String,
}

impl JobSpec {
    /// The `POST /jobs` body: the circuit and spec under the daemon's
    /// default (product) proof configuration.
    pub fn body(&self) -> String {
        online_untestable::JsonValue::Object(vec![
            (
                "circuit".to_string(),
                online_untestable::JsonValue::string(&self.circuit),
            ),
            ("format".to_string(), "bench".into()),
            (
                "constraints".to_string(),
                online_untestable::JsonValue::string(&self.constraints),
            ),
        ])
        .to_string()
    }
}

/// The shape of a caller's `index`-th fresh job: inputs, outputs and base
/// gates spread evenly over the c432–c1355 ranges (32–64 inputs, 8–32
/// outputs, 300–600 base gates) by a low-discrepancy sequence. Every seed
/// thus draws the same mix of sizes; the circuit structure and the spec are
/// what the seed varies.
pub fn job_shape(caller: u64, index: usize) -> (usize, usize, usize) {
    // The R3 sequence: powers of the inverse of the plastic-like constant
    // 1.2207…, the most evenly spread additive recurrence in three
    // dimensions.
    const ALPHA: [f64; 3] = [0.819_172_513_4, 0.671_043_606_7, 0.549_700_477_9];
    let n = index as f64 + 1.0 + caller as f64 * 0.5;
    let spread = |dim: usize, low: usize, high: usize| {
        low + ((n * ALPHA[dim]).fract() * (high - low + 1) as f64) as usize
    };
    (spread(0, 32, 64), spread(1, 8, 32), spread(2, 300, 600))
}

/// A fresh job of the given shape whose circuit structure and spec (two
/// forced inputs, one masked output) are drawn from `seed`.
pub fn fresh_job(seed: u64, (inputs, outputs, base_gates): (usize, usize, usize)) -> JobSpec {
    let mut rng = seed;
    let mut draw = |low: u64, high: u64| low + splitmix64(&mut rng) % (high - low + 1);
    let circuit_seed = draw(0, u64::MAX - 1);
    let forced_low = draw(0, inputs as u64 - 1);
    let forced_high = (forced_low + draw(1, inputs as u64 - 1)) % inputs as u64;
    let masked = draw(0, outputs as u64 - 1);
    let name = format!("job_{seed:016x}");
    let netlist = synth_circuit(&name, inputs, outputs, base_gates, circuit_seed);
    let circuit = write_bench(&netlist).expect("synthetic circuits are bench-expressible");
    JobSpec {
        circuit,
        constraints: format!("force in{forced_low} 0\nforce in{forced_high} 1\nmask out{masked}\n"),
    }
}

/// One caller's submissions, in order: fresh jobs, and every fourth
/// submission a resubmission of one of this caller's earlier fresh jobs
/// (verbatim, so the result cache answers it; the closed loop guarantees the
/// earlier job finished first).
#[derive(Clone, Debug)]
pub struct CallerPlan {
    /// The distinct jobs this caller submits fresh.
    pub fresh: Vec<JobSpec>,
    /// Submission order: indices into `fresh`, with a flag marking a
    /// resubmission.
    pub order: Vec<(usize, bool)>,
}

/// The submissions of caller `caller` for a run of `jobs` submissions.
pub fn caller_plan(seed: u64, caller: u64, jobs: usize) -> CallerPlan {
    let mut rng = seed ^ caller.wrapping_mul(0xA24B_AED4_963E_E407);
    let mut fresh = Vec::new();
    let mut order = Vec::with_capacity(jobs);
    for k in 0..jobs {
        if k % 4 == 3 {
            let earlier = (splitmix64(&mut rng) % fresh.len() as u64) as usize;
            order.push((earlier, true));
        } else {
            let shape = job_shape(caller, fresh.len());
            fresh.push(fresh_job(splitmix64(&mut rng), shape));
            order.push((fresh.len() - 1, false));
        }
    }
    CallerPlan { fresh, order }
}
