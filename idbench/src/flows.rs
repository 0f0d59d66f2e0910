//! The soc-flow workload: `IdentificationFlow::run` on `SocBuilder::small()`
//! with the product defaults of `FlowConfig::full_pipeline()`, the proof
//! stage over a seeded sample of the SBST survivors on two workers.
//!
//! The untraced run times set-up (`SocBuilder::build`) and the flow. The
//! traced run repeats that untraced flow, then runs the same work traced:
//! screening and simulation through `run_with_faults` with the proof stage
//! off, followed by the call-by-call replay of the proof stage
//! ([`crate::replay`]). The replay's tally must equal the untraced
//! breakdown, and a seeded sample of its proofs is audited by the other
//! engine.

use crate::replay::{as_report, audit, replay};
use crate::stats::{deterministic_shuffle, median, peak_rss_mb, quantile};
use crate::trace::Recorder;
use crate::{work_dir, Args, Gate, Inject, Outcome};
use atpg::proof::{EngineBreakdown, EngineOutcome, ProofEngine};
use atpg::ProofOutcome;
use cpu::soc::{Soc, SocBuilder};
use faultmodel::{FaultList, StuckAt};
use online_untestable::{FlowConfig, IdentificationFlow, IdentificationReport, ProofStageConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Proof-stage workers (the flow's `ProofStageConfig::threads`).
const WORKERS: usize = 2;

/// `SocBuilder::build` repetitions per set-up thread; `setup_s` is the
/// median over every build of both threads.
const SETUP_BUILDS: usize = 51;
const SETUP_THREADS: usize = 2;

/// Proofs per engine the traced run's audit re-proves.
const AUDIT_PER_ENGINE: usize = 48;

/// Screening stages, in flow order (everything before `sbst-sim`).
const RULE_PHASES: [&str; 5] = [
    "baseline",
    "scan",
    "debug-control",
    "debug-observe",
    "memory-map",
];

/// Proof-sample faults per second of run length: the sample depends only on
/// the arguments, never on how fast the machine is.
const FAULTS_PER_SECOND: usize = 80;

/// The product defaults with the proof stage sampled and fanned out.
pub fn flow_config(sample: usize, seed: u64) -> FlowConfig {
    FlowConfig {
        proof: ProofStageConfig {
            threads: WORKERS,
            max_faults: Some(sample),
            sample_seed: Some(seed),
            ..ProofStageConfig::default()
        },
        ..FlowConfig::full_pipeline()
    }
}

/// Builds the SoC [`SETUP_BUILDS`] times on each of [`SETUP_THREADS`]
/// threads at once, so the set-up median samples both processors: a lone
/// thread stays on one, and on a shared host the two can run at different
/// speeds for minutes. Returns one SoC with every build's wall-clock.
fn build_soc(rec: &mut Recorder) -> (Soc, Vec<f64>) {
    let builds: Vec<(Soc, Vec<(Instant, Instant)>)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..SETUP_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut soc = None;
                    let mut spans = Vec::with_capacity(SETUP_BUILDS);
                    for _ in 0..SETUP_BUILDS {
                        drop(soc.take());
                        let start = Instant::now();
                        let built = SocBuilder::small().build();
                        spans.push((start, Instant::now()));
                        soc = Some(built);
                    }
                    (soc.expect("at least one build"), spans)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("set-up thread panicked"))
            .collect()
    });
    let mut times = Vec::with_capacity(SETUP_THREADS * SETUP_BUILDS);
    let mut last = None;
    for (soc, spans) in builds {
        for (start, end) in spans {
            rec.record("cpu.build", "", start, end, None, 0, 0);
            times.push((end - start).as_secs_f64());
        }
        last = Some(soc);
    }
    (last.expect("at least one set-up thread"), times)
}

/// Checks an untraced report: counts sum to the fault universe, the proof
/// stage saw the whole sample, and nothing aborted for a non-deterministic
/// reason. Books the sample's verdicts as the run's operations.
fn check_report(report: &IdentificationReport, soc: &Soc, sample: usize, gate: &mut Gate) {
    let universe = FaultList::full_universe(&soc.netlist).len();
    let breakdown = report.engine_breakdown.unwrap_or_default();
    let verdicts =
        breakdown.test_exists_total() + breakdown.proven_total() + breakdown.aborted_total();
    gate.attempt(verdicts.max(1) as u64);
    if report.total_faults != universe || report.counts.total() != universe {
        gate.fail(
            verdicts.max(1) as u64,
            format!(
                "report counts {} / total {} do not sum to the {universe}-fault universe",
                report.counts.total(),
                report.total_faults
            ),
        );
    }
    let survivors = report
        .phase("sbst-sim")
        .map_or(0, |phase| phase.undetected_after);
    if verdicts != sample.min(survivors) {
        gate.fail(
            1,
            format!("proof stage produced {verdicts} verdicts for a {sample}-fault sample"),
        );
    }
    if breakdown.aborted_timeout + breakdown.aborted_panicked > 0 {
        gate.fail(
            (breakdown.aborted_timeout + breakdown.aborted_panicked) as u64,
            "proof stage aborted faults on a timeout or a panic".to_string(),
        );
    }
}

/// Runs the soc-flow workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut rec = Recorder::new(Instant::now());
    let (soc, builds) = build_soc(&mut rec);
    let sample = FAULTS_PER_SECOND * args.seconds as usize;
    let flow = IdentificationFlow::new(flow_config(sample, args.seed));

    let start = Instant::now();
    let report = flow
        .run(&soc)
        .map_err(|e| format!("identification flow: {e}"))?;
    let identify = start.elapsed();
    let peak_rss = peak_rss_mb(None).ok_or("cannot read VmHWM from /proc")?;
    eprintln!("{report}");

    let mut gate = Gate::default();
    check_report(&report, &soc, sample, &mut gate);
    let mut metrics = BTreeMap::new();
    if !args.trace {
        let identify_ms = identify.as_secs_f64() * 1e3;
        metrics.insert("setup_s", median(&builds));
        metrics.insert("identify_s", identify.as_secs_f64());
        metrics.insert("job_p50_ms", identify_ms);
        metrics.insert("job_p90_ms", identify_ms);
        metrics.insert("peak_rss_mb", peak_rss);
        return Ok(Outcome {
            gate,
            metrics,
            traced: false,
            mix_failures: Vec::new(),
        });
    }

    // The same work, traced: screening and simulation, then the replay.
    let root = rec.open("identify", None, 0);
    let screen_start = Instant::now();
    let screen_flow = IdentificationFlow::new(FlowConfig {
        run_atpg_proof: false,
        ..flow_config(sample, args.seed)
    });
    let (screen, master) = screen_flow
        .run_with_faults(&soc)
        .map_err(|e| format!("screening flow: {e}"))?;
    rec.record(
        "flow.screen",
        "",
        screen_start,
        Instant::now(),
        Some(root),
        0,
        0,
    );
    let proof = rec.open("proof", Some(root), 0);
    let constraints = flow
        .mission_constraints(&soc)
        .map_err(|e| format!("mission constraints: {e}"))?;
    let mut faults: Vec<StuckAt> = master.undetected().map(|(_, fault)| fault).collect();
    deterministic_shuffle(&mut faults, args.seed);
    faults.truncate(sample);
    let mut replayed = replay(
        &soc.netlist,
        &constraints,
        &faults,
        WORKERS,
        &mut rec,
        proof,
        0,
    );
    rec.close(proof);
    rec.close(root);
    let traced = rec.spans()[root].duration();

    if args.inject == Some(Inject::FlipVerdict) {
        let victim = replayed
            .outcomes
            .iter()
            .position(|o| o.engine == ProofEngine::Podem && o.outcome == ProofOutcome::TestExists)
            .ok_or("no PODEM test to flip")?;
        replayed.outcomes[victim] =
            EngineOutcome::concluded(ProofOutcome::ProvenUntestable, ProofEngine::Podem);
    }
    let tally = EngineBreakdown::from_outcomes(&replayed.outcomes);
    if report.engine_breakdown != Some(as_report(&tally)) {
        gate.fail(
            1,
            format!(
                "replay tally {tally:?} differs from the untraced breakdown {:?}",
                report.engine_breakdown
            ),
        );
    }
    let audited = audit(
        &soc.netlist,
        &constraints,
        &faults,
        &replayed.outcomes,
        args.seed,
        AUDIT_PER_ENGINE,
    );
    gate.attempt(audited.checked as u64);
    if !audited.wrong.is_empty() {
        gate.fail(
            audited.wrong.len() as u64,
            format!(
                "{} audited proofs have a test: {:?}",
                audited.wrong.len(),
                audited.wrong
            ),
        );
    }
    eprintln!(
        "audit: {} proofs re-proven by the other engine, {} wrong, {} inconclusive",
        audited.checked,
        audited.wrong.len(),
        audited.inconclusive
    );

    let phase_time = |names: &[&str]| -> f64 {
        screen
            .phases
            .iter()
            .filter(|p| names.contains(&p.name.as_str()))
            .map(|p| p.duration.as_secs_f64())
            .sum()
    };
    let sim = screen.phase("sbst-sim");
    let before_sim = screen
        .phases
        .iter()
        .take_while(|p| p.name != "sbst-sim")
        .last()
        .map_or(0, |p| p.undetected_after);
    metrics.insert("cpu.build_s", median(&builds));
    metrics.insert("netlist.cells", soc.netlist.num_cells() as f64);
    metrics.insert("rules.busy_s", phase_time(&RULE_PHASES));
    metrics.insert(
        "rules.classified",
        screen
            .phases
            .iter()
            .filter(|p| RULE_PHASES.contains(&p.name.as_str()))
            .map(|p| p.newly_classified as f64)
            .sum(),
    );
    metrics.insert("fault_sim.busy_s", phase_time(&["sbst-sim"]));
    metrics.insert("fault_sim.faults", before_sim as f64);
    metrics.insert(
        "fault_sim.detected",
        sim.map_or(0.0, |p| p.newly_classified as f64),
    );
    proof_metrics(&rec, faults.len(), replayed.provers, &mut metrics);
    metrics.insert(
        "unresolved",
        replayed
            .outcomes
            .iter()
            .filter(|o| o.outcome == ProofOutcome::Aborted)
            .count() as f64,
    );
    metrics.insert("failed_share", gate.failed_share());
    metrics.insert(
        "trace.overhead",
        traced.as_secs_f64() / identify.as_secs_f64(),
    );

    let mix_failures = flow_mix_check(&metrics);
    let path = work_dir()?.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    rec.write_json(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(Outcome {
        gate,
        metrics,
        traced: true,
        mix_failures,
    })
}

/// The proof, PODEM and SAT layer metrics of the replays recorded in `rec`,
/// which proved `faults` faults through `provers` collapse-class provers.
pub fn proof_metrics(
    rec: &Recorder,
    faults: usize,
    provers: usize,
    metrics: &mut BTreeMap<&'static str, f64>,
) {
    let secs = |d: Duration| d.as_secs_f64();
    let podem_calls: Vec<_> = rec.named("podem").collect();
    let sat_calls: Vec<_> = rec.named("sat").collect();
    let sat_ms: Vec<f64> = sat_calls
        .iter()
        .map(|s| s.duration().as_secs_f64() * 1e3)
        .collect();
    let sat_time = |tag: &str| -> f64 {
        sat_calls
            .iter()
            .filter(|s| s.tag == tag)
            .map(|s| secs(s.duration()))
            .sum()
    };
    let count = |calls: &[&crate::trace::Span], tag: &str| {
        calls.iter().filter(|s| s.tag == tag).count() as f64
    };
    // Idle: every pass's workers × its wall-clock, minus the engine calls.
    let calls: f64 = ["podem", "podem.new", "sat", "sat.new"]
        .iter()
        .flat_map(|name| rec.named(name))
        .map(|s| secs(s.duration()))
        .sum();
    let spans = rec.spans();
    let worker_time: f64 = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "proof.pass")
        .map(|(id, pass)| {
            let workers = spans
                .iter()
                .filter(|s| s.name == "proof.worker" && s.parent == Some(id))
                .count();
            workers as f64 * secs(pass.duration())
        })
        .sum();
    let podem_aborted = count(&podem_calls, "aborted");
    let sat_concluded = count(&sat_calls, "test_exists") + count(&sat_calls, "proven");
    metrics.insert(
        "proof.busy_s",
        secs(rec.busy(&["proof", "proof.schedule", "proof.pass", "proof.worker"])),
    );
    metrics.insert("proof.faults", faults as f64);
    metrics.insert(
        "proof.engine_calls",
        (podem_calls.len() + sat_calls.len()) as f64,
    );
    metrics.insert(
        "proof.collapse_ratio",
        provers as f64 / faults.max(1) as f64,
    );
    metrics.insert("proof.idle_s", (worker_time - calls).max(0.0));
    metrics.insert("podem.calls", podem_calls.len() as f64);
    metrics.insert("podem.busy_s", secs(rec.busy(&["podem", "podem.new"])));
    metrics.insert(
        "podem.backtracks",
        podem_calls.iter().map(|s| s.work as f64).sum(),
    );
    metrics.insert("podem.aborted", podem_aborted);
    metrics.insert(
        "podem.yield",
        1.0 - podem_aborted / podem_calls.len().max(1) as f64,
    );
    metrics.insert("sat.calls", sat_calls.len() as f64);
    metrics.insert("sat.busy_s", secs(rec.busy(&["sat", "sat.new"])));
    metrics.insert("sat.busy_s.test_exists", sat_time("test_exists"));
    metrics.insert("sat.busy_s.proven", sat_time("proven"));
    metrics.insert("sat.busy_s.aborted", sat_time("aborted"));
    metrics.insert("sat.test_exists", count(&sat_calls, "test_exists"));
    metrics.insert("sat.proven", count(&sat_calls, "proven"));
    metrics.insert("sat.aborted", count(&sat_calls, "aborted"));
    metrics.insert(
        "sat.yield",
        if sat_calls.is_empty() {
            0.0
        } else {
            sat_concluded / sat_calls.len() as f64
        },
    );
    metrics.insert("sat.call_p50_ms", quantile(&sat_ms, 0.5));
    metrics.insert("sat.call_p90_ms", quantile(&sat_ms, 0.9));
}

/// The layer mix soc-flow was chosen for: SAT is the largest layer.
fn flow_mix_check(metrics: &BTreeMap<&'static str, f64>) -> Vec<String> {
    let get = |name: &str| metrics.get(name).copied().unwrap_or(0.0);
    let sat = get("sat.busy_s");
    [
        "rules.busy_s",
        "fault_sim.busy_s",
        "proof.busy_s",
        "podem.busy_s",
    ]
    .into_iter()
    .filter(|layer| get(layer) >= sat)
    .map(|layer| {
        format!(
            "sat.busy_s {sat:.3} s is not above {layer} {:.3} s",
            get(layer)
        )
    })
    .collect()
}
