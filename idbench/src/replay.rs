//! The traced proof replay and the cross-engine audit.
//!
//! The replay re-runs the flow's proof stage call by call: the same seeded
//! sample, the same `faultmodel::collapse_with_barriers` schedule (one prover
//! per class, concluded verdicts expand, members of aborted classes are
//! proven individually), the same 16-fault chunks on the same number of
//! workers, and per fault `atpg::Podem::prove` with escalation to
//! `atpg::SatProver::prove` on abort. Every engine construction and every
//! call gets a span. Verdicts are scheduling-independent, so the replay's
//! tally must equal the untraced run's engine breakdown.

use crate::stats::deterministic_shuffle;
use crate::trace::Recorder;
use atpg::proof::{EngineBreakdown, EngineOutcome, ProofEngine};
use atpg::{AbortReason, ConstraintSet, Podem, PodemConfig, ProofOutcome, SatProver, SatVerdict};
use faultmodel::{collapse_with_barriers, FaultList, StuckAt};
use netlist::Netlist;
use online_untestable::{ProofEngineBreakdown, ProofStageConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Faults a worker claims per cursor bump, as in `atpg::proof`.
const CHUNK: usize = 16;

/// PODEM budget for re-proving SAT proofs in the audit: 32× the product
/// default, so a wrong UNSAT has room to meet a test.
pub const AUDIT_BACKTRACKS: usize = 1_024;

/// The result of one replay.
#[derive(Debug)]
pub struct Replay {
    /// One verdict per input fault, in input order.
    pub outcomes: Vec<EngineOutcome>,
    /// Collapse classes, i.e. the faults proven in the first pass.
    pub provers: usize,
}

/// The product-default engine budgets of the flow's proof stage.
#[derive(Clone, Copy)]
struct Budgets {
    podem: PodemConfig,
    conflicts: u64,
}

impl Budgets {
    fn product_defaults() -> Self {
        let stage = ProofStageConfig::default();
        Budgets {
            podem: PodemConfig {
                backtrack_limit: stage.backtrack_limit,
                cone_clip: stage.cone_clip,
                scoap_guidance: stage.use_scoap,
                x_path_check: stage.use_x_path,
            },
            conflicts: stage.sat_conflict_limit,
        }
    }
}

/// A worker's engines, built lazily on first use like the proof stage's.
#[derive(Default)]
struct Engines<'a> {
    podem: Option<Podem<'a>>,
    sat: Option<SatProver<'a>>,
}

/// Where a worker records its spans.
struct Sink<'r> {
    rec: &'r mut Recorder,
    parent: usize,
    scope: u64,
}

fn verdict_tag(outcome: ProofOutcome) -> &'static str {
    match outcome {
        ProofOutcome::TestExists => "test_exists",
        ProofOutcome::ProvenUntestable => "proven",
        ProofOutcome::Aborted => "aborted",
    }
}

/// One fault on the portfolio, as `atpg::proof` proves it without a budget.
fn prove_one<'a>(
    netlist: &'a Netlist,
    constraints: &ConstraintSet,
    budgets: Budgets,
    engines: &mut Engines<'a>,
    fault: StuckAt,
    sink: &mut Sink<'_>,
) -> EngineOutcome {
    let podem = match &mut engines.podem {
        Some(podem) => podem,
        slot => {
            let start = Instant::now();
            let podem = Podem::new(netlist, constraints, budgets.podem).expect("design levelizes");
            sink.rec.record(
                "podem.new",
                "",
                start,
                Instant::now(),
                Some(sink.parent),
                sink.scope,
                0,
            );
            slot.insert(podem)
        }
    };
    let start = Instant::now();
    let outcome = podem.prove(fault);
    let end = Instant::now();
    let backtracks = podem.last_backtracks() as u64;
    sink.rec.record(
        "podem",
        verdict_tag(outcome),
        start,
        end,
        Some(sink.parent),
        sink.scope,
        backtracks,
    );
    if outcome != ProofOutcome::Aborted {
        return EngineOutcome::concluded(outcome, ProofEngine::Podem);
    }
    let sat = match &mut engines.sat {
        Some(sat) => sat,
        slot => {
            let start = Instant::now();
            let sat =
                SatProver::new(netlist, constraints, budgets.conflicts).expect("design levelizes");
            sink.rec.record(
                "sat.new",
                "",
                start,
                Instant::now(),
                Some(sink.parent),
                sink.scope,
                0,
            );
            slot.insert(sat)
        }
    };
    let start = Instant::now();
    let verdict = sat.prove(fault);
    let end = Instant::now();
    let (result, tag) = match verdict {
        SatVerdict::TestExists => (
            EngineOutcome::concluded(ProofOutcome::TestExists, ProofEngine::Sat),
            "test_exists",
        ),
        SatVerdict::ProvenUntestable => (
            EngineOutcome::concluded(ProofOutcome::ProvenUntestable, ProofEngine::Sat),
            "proven",
        ),
        SatVerdict::Aborted => (
            EngineOutcome::aborted(
                ProofEngine::Sat,
                sat.last_abort_reason().unwrap_or(AbortReason::Conflicts),
            ),
            "aborted",
        ),
        SatVerdict::Unsupported => (
            EngineOutcome::aborted(ProofEngine::Podem, AbortReason::Unsupported),
            "unsupported",
        ),
    };
    sink.rec
        .record("sat", tag, start, end, Some(sink.parent), sink.scope, 0);
    result
}

/// Proves the faults at `worklist` positions, 16-fault chunks claimed from a
/// shared cursor. Below two workers the caller's `single` engines are used
/// (and kept across passes), as the proof stage does.
#[allow(clippy::too_many_arguments)]
fn fan_out<'a>(
    netlist: &'a Netlist,
    constraints: &ConstraintSet,
    budgets: Budgets,
    faults: &[StuckAt],
    worklist: &[usize],
    threads: usize,
    single: &mut Engines<'a>,
    rec: &mut Recorder,
    parent: usize,
    scope: u64,
) -> Vec<(usize, EngineOutcome)> {
    if worklist.is_empty() {
        return Vec::new();
    }
    let workers = threads.min(worklist.len().div_ceil(CHUNK)).max(1);
    if workers == 1 {
        let worker = rec.open("proof.worker", Some(parent), scope);
        let mut sink = Sink {
            rec: &mut *rec,
            parent: worker,
            scope,
        };
        let out = worklist
            .iter()
            .map(|&i| {
                (
                    i,
                    prove_one(netlist, constraints, budgets, single, faults[i], &mut sink),
                )
            })
            .collect();
        rec.close(worker);
        return out;
    }
    let cursor = AtomicUsize::new(0);
    let chunks = worklist.len().div_ceil(CHUNK);
    let epoch = rec.epoch();
    let finished: Vec<(Vec<(usize, EngineOutcome)>, Recorder)> = std::thread::scope(|scope_| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope_.spawn(|| {
                    let mut local = Recorder::new(epoch);
                    let worker = local.open("proof.worker", None, scope);
                    let mut engines = Engines::default();
                    let mut out = Vec::new();
                    let mut sink = Sink {
                        rec: &mut local,
                        parent: worker,
                        scope,
                    };
                    loop {
                        let chunk = cursor.fetch_add(1, Ordering::Relaxed);
                        if chunk >= chunks {
                            break;
                        }
                        let end = ((chunk + 1) * CHUNK).min(worklist.len());
                        for &i in &worklist[chunk * CHUNK..end] {
                            let verdict = prove_one(
                                netlist,
                                constraints,
                                budgets,
                                &mut engines,
                                faults[i],
                                &mut sink,
                            );
                            out.push((i, verdict));
                        }
                    }
                    local.close(worker);
                    (out, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(worklist.len());
    for (verdicts, local) in finished {
        out.extend(verdicts);
        rec.adopt(local, parent);
    }
    out
}

/// Replays the proof stage over `faults` (the seeded sample, in sample
/// order) on `threads` workers, recording spans under `parent`.
pub fn replay(
    netlist: &Netlist,
    constraints: &ConstraintSet,
    faults: &[StuckAt],
    threads: usize,
    rec: &mut Recorder,
    parent: usize,
    scope: u64,
) -> Replay {
    let budgets = Budgets::product_defaults();
    let schedule = rec.open("proof.schedule", Some(parent), scope);
    let list = FaultList::from_faults(faults.to_vec());
    let collapsed = collapse_with_barriers(netlist, &list, |net| {
        constraints.forced_nets.contains_key(&net)
    });
    let mut prover_of_class: Vec<Option<usize>> = vec![None; list.len()];
    let mut class_of = Vec::with_capacity(faults.len());
    let mut provers = Vec::new();
    for (i, &fault) in faults.iter().enumerate() {
        let class = collapsed.representative_of(list.index_of(fault).expect("fault in its list"));
        class_of.push(class);
        if prover_of_class[class].is_none() {
            prover_of_class[class] = Some(i);
            provers.push(i);
        }
    }
    rec.close(schedule);

    let mut outcomes: Vec<Option<EngineOutcome>> = vec![None; faults.len()];
    let mut single = Engines::default();
    let pass = rec.open("proof.pass", Some(parent), scope);
    for (i, verdict) in fan_out(
        netlist,
        constraints,
        budgets,
        faults,
        &provers,
        threads,
        &mut single,
        rec,
        pass,
        scope,
    ) {
        outcomes[i] = Some(verdict);
    }
    rec.close(pass);
    let mut second_pass = Vec::new();
    for i in 0..faults.len() {
        let prover = prover_of_class[class_of[i]].expect("every class has a prover");
        if prover == i {
            continue;
        }
        let representative = outcomes[prover].expect("provers concluded in the first pass");
        if representative.outcome == ProofOutcome::Aborted {
            second_pass.push(i);
        } else {
            outcomes[i] = Some(representative);
        }
    }
    let pass = rec.open("proof.pass", Some(parent), scope);
    for (i, verdict) in fan_out(
        netlist,
        constraints,
        budgets,
        faults,
        &second_pass,
        threads,
        &mut single,
        rec,
        pass,
        scope,
    ) {
        outcomes[i] = Some(verdict);
    }
    rec.close(pass);
    Replay {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every fault got a verdict"))
            .collect(),
        provers: provers.len(),
    }
}

/// A replay tally in the report's schema (`IdentificationReport` carries
/// the same counters as its own type), so it compares with `==` and
/// serializes like a served report's `engine_breakdown`.
pub fn as_report(tally: &EngineBreakdown) -> ProofEngineBreakdown {
    ProofEngineBreakdown {
        podem_test_exists: tally.podem_test_exists,
        podem_proven: tally.podem_proven,
        podem_aborted: tally.podem_aborted,
        sat_test_exists: tally.sat_test_exists,
        sat_proven: tally.sat_proven,
        sat_aborted: tally.sat_aborted,
        aborted_backtracks: tally.aborted_backtracks,
        aborted_conflicts: tally.aborted_conflicts,
        aborted_timeout: tally.aborted_timeout,
        aborted_panicked: tally.aborted_panicked,
        aborted_unsupported: tally.aborted_unsupported,
    }
}

/// The cross-engine audit of a seeded sample of proofs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Audit {
    /// Proofs re-proven by the other engine.
    pub checked: usize,
    /// Proofs the other engine found a test for: wrong verdicts.
    pub wrong: Vec<StuckAt>,
    /// Proofs the other engine could not conclude within its budget.
    pub inconclusive: usize,
}

/// Re-proves up to `per_engine` seeded-sampled `ProvenUntestable` verdicts
/// of each engine with the other one: PODEM proofs with `SatProver` at the
/// product conflict budget, SAT proofs with `Podem` at
/// [`AUDIT_BACKTRACKS`]. A `TestExists` from the second engine marks the
/// verdict wrong.
pub fn audit(
    netlist: &Netlist,
    constraints: &ConstraintSet,
    faults: &[StuckAt],
    outcomes: &[EngineOutcome],
    seed: u64,
    per_engine: usize,
) -> Audit {
    let proofs_by = |engine: ProofEngine| {
        let mut picked: Vec<usize> = outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.outcome == ProofOutcome::ProvenUntestable && o.engine == engine)
            .map(|(i, _)| i)
            .collect();
        deterministic_shuffle(&mut picked, seed);
        picked.truncate(per_engine);
        picked
    };
    let budgets = Budgets::product_defaults();
    let mut result = Audit::default();
    let mut tally = |fault: StuckAt, found_test: bool, concluded: bool| {
        result.checked += 1;
        if found_test {
            result.wrong.push(fault);
        } else if !concluded {
            result.inconclusive += 1;
        }
    };
    let podem_proofs = proofs_by(ProofEngine::Podem);
    if !podem_proofs.is_empty() {
        let mut sat =
            SatProver::new(netlist, constraints, budgets.conflicts).expect("design levelizes");
        for i in podem_proofs {
            let verdict = sat.prove(faults[i]);
            tally(
                faults[i],
                verdict == SatVerdict::TestExists,
                verdict == SatVerdict::ProvenUntestable,
            );
        }
    }
    let sat_proofs = proofs_by(ProofEngine::Sat);
    if !sat_proofs.is_empty() {
        let config = PodemConfig {
            backtrack_limit: AUDIT_BACKTRACKS,
            ..budgets.podem
        };
        let mut podem = Podem::new(netlist, constraints, config).expect("design levelizes");
        for i in sat_proofs {
            let outcome = podem.prove(faults[i]);
            tally(
                faults[i],
                outcome == ProofOutcome::TestExists,
                outcome == ProofOutcome::ProvenUntestable,
            );
        }
    }
    result
}
