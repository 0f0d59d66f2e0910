//! CI perf-regression gate: replays the five committed performance
//! workloads in a quick configuration and fails (exit code 1) when the
//! measured wall-clock regresses past `regression_factor` × the committed
//! number.
//!
//! * `BENCH_faultsim.json` → the SBST fault-simulation campaign on the
//!   industrial SoC (`post.campaign_wall_clock_s`);
//! * `BENCH_flow.json` → the staged identification pipeline on the reduced
//!   SoC (`measured.flow_wall_clock_s`);
//! * `BENCH_flow.json` → the PODEM/SAT proof portfolio over the full
//!   survivor set (`proof_throughput.proof_wall_clock_s`), timed as the
//!   `atpg-proof` phase of the pipeline run above — the same
//!   single-threaded portfolio over the same worklist, so the survivors are
//!   proven once;
//! * `BENCH_flow.json` → the SAT escalation alone over the PODEM aborts
//!   (`sat_throughput.sat_wall_clock_s`);
//! * `BENCH_flow.json` → the PODEM layer alone: the same survivor set with
//!   the SAT escalation off (`proof_throughput.podem_only.proof_wall_clock_s`),
//!   the pass whose aborts are the SAT escalation's worklist.
//!
//! The verdict counts it checks belong to the engine epoch
//! `BENCH_flow.json` records (`workload.engine_epoch`); the gate refuses to
//! run when that differs from `atpg::ENGINE_EPOCH`.
//!
//! Run with `cargo run --release -p bench --bin perf_smoke`. Refresh the
//! committed numbers by re-running the `fault_sim_throughput`,
//! `flow_pipeline`, `proof_throughput` and `sat_throughput` benches (the
//! PODEM-only time is this gate's own `podem_only` line) and editing the
//! JSON files.

use atpg::{ProofConfig, ENGINE_EPOCH};
use bench::{
    industrial_soc, quick_pipeline_config, replay_faultsim_campaign, small_soc, FAULTSIM_SAMPLE,
    FAULTSIM_SEED,
};
use online_untestable::flow::IdentificationFlow;
use online_untestable::JsonValue;
use std::time::Instant;

/// Gate threshold used when `BENCH_flow.json` does not record one.
const DEFAULT_REGRESSION_FACTOR: f64 = 2.0;

struct Gate {
    name: &'static str,
    committed_s: f64,
    measured_s: f64,
}

impl Gate {
    fn passes(&self, factor: f64) -> bool {
        self.measured_s <= self.committed_s * factor
    }
}

/// The committed number at the key path `keys` of the JSON file `path`.
fn read_reference(path: &str, keys: &[&str]) -> f64 {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read committed numbers from {path}: {e}"));
    let doc = JsonValue::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    keys.iter()
        .try_fold(&doc, |node, key| node.get(key))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("{path} does not record {}", keys.join(".")))
}

fn main() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let faultsim_json = format!("{root}/BENCH_faultsim.json");
    let flow_json = format!("{root}/BENCH_flow.json");

    let factor = std::fs::read_to_string(&flow_json)
        .ok()
        .and_then(|text| JsonValue::parse(&text).ok())
        .and_then(|doc| doc.get("perf_smoke")?.get("regression_factor")?.as_f64())
        .unwrap_or(DEFAULT_REGRESSION_FACTOR);

    println!("perf-smoke gate (fail when measured > {factor:.1}x committed)");
    println!();

    // The committed verdict counts below belong to one engine epoch: an
    // engine that moved budget-limited verdicts bumps the epoch, and its
    // counts must be re-recorded under the new epoch, never compared with
    // (or recorded against) the old one's.
    let committed_epoch = read_reference(&flow_json, &["workload", "engine_epoch"]) as u64;
    if committed_epoch != ENGINE_EPOCH {
        eprintln!(
            "perf-smoke gate failed: BENCH_flow.json records verdict counts for engine epoch \
             {committed_epoch}, but this build is engine epoch {ENGINE_EPOCH} — re-run the \
             flow_pipeline, proof_throughput and sat_throughput benches and re-record them."
        );
        std::process::exit(1);
    }

    // Gate 1: the fault-simulation campaign of BENCH_faultsim.json. The
    // detection count is checked against the committed workload first — a
    // simulator that got faster by skipping work must fail the gate, not
    // pass it.
    let soc = industrial_soc();
    let campaign = replay_faultsim_campaign(&soc, FAULTSIM_SAMPLE, FAULTSIM_SEED);
    println!(
        "fault_sim_throughput    : {} faults, {} detected, {:.3} s",
        campaign.faults,
        campaign.detected,
        campaign.wall_clock.as_secs_f64()
    );
    let committed_detected =
        read_reference(&faultsim_json, &["workload", "faults_detected"]) as usize;
    if campaign.detected != committed_detected {
        eprintln!(
            "perf-smoke gate failed: the campaign detected {} faults but BENCH_faultsim.json \
             records {committed_detected} for this exact seeded workload — the fault simulator's \
             behaviour changed, not just its speed.",
            campaign.detected
        );
        std::process::exit(1);
    }
    let gate_faultsim = Gate {
        name: "fault_sim_throughput",
        committed_s: read_reference(&faultsim_json, &["post", "campaign_wall_clock_s"]),
        measured_s: campaign.wall_clock.as_secs_f64(),
    };

    // Gate 2: the staged identification pipeline of BENCH_flow.json.
    let small = small_soc();
    let flow = IdentificationFlow::new(quick_pipeline_config());
    let start = Instant::now();
    let report = flow.run(&small).expect("identification flow");
    let flow_elapsed = start.elapsed();
    println!(
        "flow_pipeline           : {} faults classified untestable, {:.3} s",
        report.total_untestable(),
        flow_elapsed.as_secs_f64()
    );
    let committed_untestable =
        read_reference(&flow_json, &["workload", "untestable_total"]) as usize;
    if report.total_untestable() != committed_untestable {
        eprintln!(
            "perf-smoke gate failed: the pipeline classified {} faults untestable but \
             BENCH_flow.json records {committed_untestable} for this configuration — the flow's \
             classifications changed, not just its speed.",
            report.total_untestable()
        );
        std::process::exit(1);
    }
    let gate_flow = Gate {
        name: "flow_pipeline",
        committed_s: read_reference(&flow_json, &["measured", "flow_wall_clock_s"]),
        measured_s: flow_elapsed.as_secs_f64(),
    };

    // Gate 3: the proof-stage throughput of BENCH_flow.json's
    // proof_throughput section — the accelerated engine over the full
    // survivor set of the reduced SoC, read off gate 2's run: its
    // `atpg-proof` phase is that exact workload. The proven count is checked
    // against the committed workload first, so an engine that got faster by
    // proving less (or by upgrading aborts) fails the gate instead of
    // passing it.
    let proof_phase = report
        .phase("atpg-proof")
        .expect("the pipeline runs the proof stage");
    let engines = report
        .engine_breakdown
        .expect("the proof stage reports its engines");
    let proven = engines.proven_total();
    println!(
        "proof_throughput        : {} survivors, {} proven ({} by SAT), {} aborted, {:.3} s \
         ({:.3} ms per proven fault)",
        engines.test_exists_total() + proven + engines.aborted_total(),
        proven,
        engines.sat_proven,
        engines.aborted_total(),
        proof_phase.duration.as_secs_f64(),
        proof_phase.duration.as_secs_f64() * 1e3 / proven.max(1) as f64
    );
    let committed_proven = read_reference(&flow_json, &["proof_throughput", "proven"]) as usize;
    if proven != committed_proven {
        eprintln!(
            "perf-smoke gate failed: the proof stage proved {proven} faults but BENCH_flow.json \
             records {committed_proven} for this exact workload — the engine's verdicts \
             changed, not just its speed."
        );
        std::process::exit(1);
    }
    let gate_proof = Gate {
        name: "proof_throughput",
        committed_s: read_reference(&flow_json, &["proof_throughput", "proof_wall_clock_s"]),
        measured_s: proof_phase.duration.as_secs_f64(),
    };

    // Gate 5, run before gate 4 because its aborts are gate 4's worklist:
    // the PODEM layer alone — the committed PODEM configuration over the
    // full survivor set with the SAT escalation off. Its proven and aborted
    // counts are checked first: an engine that got faster by deciding
    // differently must fail, not pass.
    let campaign = bench::ProofCampaign::prepare();
    let podem = campaign.run_podem_only();
    println!(
        "podem_only              : {} survivors, {} proven, {} aborted, {:.3} s",
        campaign.survivors(),
        podem.proven,
        podem.aborted.len(),
        podem.wall_clock.as_secs_f64()
    );
    let committed_podem_proven =
        read_reference(&flow_json, &["proof_throughput", "podem_only", "proven"]) as usize;
    let committed_podem_aborted =
        read_reference(&flow_json, &["proof_throughput", "podem_only", "aborted"]) as usize;
    if (podem.proven, podem.aborted.len()) != (committed_podem_proven, committed_podem_aborted) {
        eprintln!(
            "perf-smoke gate failed: PODEM alone proved {} faults and aborted {} but \
             BENCH_flow.json records {committed_podem_proven} and {committed_podem_aborted} for \
             this exact workload — the engine's decisions changed, not just its speed.",
            podem.proven,
            podem.aborted.len()
        );
        std::process::exit(1);
    }
    let gate_podem = Gate {
        name: "podem_only",
        committed_s: read_reference(
            &flow_json,
            &["proof_throughput", "podem_only", "proof_wall_clock_s"],
        ),
        measured_s: podem.wall_clock.as_secs_f64(),
    };

    // Gate 4: the SAT escalation alone — the first SAT_STAGE_SLICE faults
    // the committed PODEM configuration aborts on, replayed through one
    // single-threaded SAT prover (the sat_throughput bench replays the full
    // worklist; the slice keeps the gate a smoke test). The proven
    // count is checked first for the same reason as the other workloads: a
    // solver that got faster by concluding less must fail, not pass.
    let worklist = podem.aborted;
    let slice = &worklist[..bench::SAT_STAGE_SLICE.min(worklist.len())];
    let sat = campaign.run_sat_stage(slice, ProofConfig::default().sat_conflict_limit);
    println!(
        "sat_throughput          : {} of {} PODEM aborts, {} proven, {} testable, {} unresolved, \
         {:.3} s",
        sat.attempted,
        worklist.len(),
        sat.proven,
        sat.test_exists,
        sat.unresolved,
        sat.wall_clock.as_secs_f64()
    );
    let committed_sat_proven = read_reference(&flow_json, &["sat_throughput", "proven"]) as usize;
    if sat.proven != committed_sat_proven {
        eprintln!(
            "perf-smoke gate failed: the SAT stage proved {} faults but BENCH_flow.json \
             records {committed_sat_proven} for this exact workload — the solver's verdicts \
             changed, not just its speed.",
            sat.proven
        );
        std::process::exit(1);
    }
    let gate_sat = Gate {
        name: "sat_throughput",
        committed_s: read_reference(&flow_json, &["sat_throughput", "sat_wall_clock_s"]),
        measured_s: sat.wall_clock.as_secs_f64(),
    };

    println!();
    let mut failed = false;
    for gate in [gate_faultsim, gate_flow, gate_proof, gate_sat, gate_podem] {
        let verdict = if gate.passes(factor) { "PASS" } else { "FAIL" };
        println!(
            "{verdict} {name:<22} measured {measured:.3} s vs committed {committed:.3} s (limit {limit:.3} s)",
            name = gate.name,
            measured = gate.measured_s,
            committed = gate.committed_s,
            limit = gate.committed_s * factor,
        );
        failed |= !gate.passes(factor);
    }
    if failed {
        eprintln!();
        eprintln!(
            "perf-smoke gate failed: a workload regressed more than {factor:.1}x past its \
             committed wall-clock. If the regression is intentional, re-measure with \
             `cargo bench -p bench --bench fault_sim_throughput` / `--bench flow_pipeline` / \
             `--bench proof_throughput` / `--bench sat_throughput` (and this gate's \
             podem_only line) and update BENCH_faultsim.json / BENCH_flow.json."
        );
        std::process::exit(1);
    }
    println!();
    println!("perf-smoke gate passed.");
}
