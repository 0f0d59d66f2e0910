//! Campaign-survivability regression suite: deterministic failure injection
//! (panics, stalls, corrupted SAT models), cooperative deadlines and
//! cancellation, and the checkpoint/resume contract — an interrupted
//! campaign, resumed from its checkpoint, must classify the fault
//! population bit-identically to an uninterrupted run and re-prove only the
//! faults the interrupted run never concluded.

use atpg::{
    campaign_fingerprint, prove_faults, AbortReason, CampaignOutcome, CancelToken, Checkpoint,
    ConstraintSet, EngineBreakdown, FailurePlan, ProofConfig, ProofEngine, ProofOutcome, SatProver,
    SatVerdict,
};
use faultmodel::{FaultList, StuckAt};
use netlist::{NetId, Netlist, NetlistBuilder};
use std::path::PathBuf;
use std::time::Duration;

/// A moderately sized pseudo-random combinational circuit (deterministic
/// spec → deterministic netlist): enough reconvergence for a mix of
/// testable and redundant faults, small enough to prove in milliseconds.
fn build_circuit(gates: usize) -> Netlist {
    let mut b = NetlistBuilder::new("robustness");
    let inputs: Vec<NetId> = (0..6).map(|i| b.input(format!("in{i}"))).collect();
    let mut signals = inputs;
    let mut state = 0x9e37_79b9u64;
    for i in 0..gates {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let code = (state >> 33) as usize;
        let a = signals[code % signals.len()];
        let c = signals[(code / 7 + i) % signals.len()];
        let g = match code % 6 {
            0 => b.and2(a, c),
            1 => b.or2(a, c),
            2 => b.xor2(a, c),
            3 => b.nand2(a, c),
            4 => b.nor2(a, c),
            _ => b.mux2(a, c, signals[(code / 11) % signals.len()]),
        };
        signals.push(g);
    }
    for (i, &net) in signals.iter().rev().take(3).enumerate() {
        b.output(format!("out{i}"), net);
    }
    b.finish()
}

fn universe(netlist: &Netlist) -> Vec<StuckAt> {
    FaultList::full_universe(netlist).faults().to_vec()
}

/// A self-cleaning temp file path, unique per test and process.
struct TempCheckpoint(PathBuf);

impl TempCheckpoint {
    fn new(tag: &str) -> Self {
        TempCheckpoint(std::env::temp_dir().join(format!(
            "untestable-robustness-{}-{tag}.ckpt",
            std::process::id()
        )))
    }
}

impl Drop for TempCheckpoint {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// Whether any fault came back a timeout abort.
fn deadline_hit(campaign: &CampaignOutcome) -> bool {
    EngineBreakdown::from_outcomes(&campaign.outcomes).deadline_hit()
}

fn sequential_config() -> ProofConfig {
    ProofConfig {
        threads: 1,
        use_sat: true,
        ..ProofConfig::default()
    }
}

#[test]
fn injected_panic_is_isolated_and_the_campaign_survives() {
    let netlist = build_circuit(30);
    let constraints = ConstraintSet::full_scan();
    let faults = universe(&netlist);
    for threads in [1, 3] {
        let config = ProofConfig {
            threads,
            use_collapse: false, // every input index reaches an engine
            ..sequential_config()
        };
        let campaign = prove_faults(
            &netlist,
            &constraints,
            &faults,
            &ProofConfig {
                failure_plan: Some(FailurePlan {
                    panic_on: Some(3),
                    ..FailurePlan::default()
                }),
                ..config.clone()
            },
        )
        .unwrap();

        let poisoned = &campaign.outcomes[3];
        assert_eq!(poisoned.outcome, ProofOutcome::Aborted, "{threads} threads");
        assert_eq!(
            poisoned.reason,
            Some(AbortReason::Panicked),
            "{threads} threads"
        );

        // Every other fault concluded exactly as a clean run concludes it:
        // the panic neither lost the campaign nor leaked poisoned engine
        // state.
        let clean = prove_faults(&netlist, &constraints, &faults, &config).unwrap();
        for (i, (injected, reference)) in campaign.outcomes.iter().zip(&clean.outcomes).enumerate()
        {
            if i == 3 {
                continue;
            }
            assert_eq!(
                injected, reference,
                "fault {i} diverged after the panic ({threads} threads)"
            );
        }
    }
}

#[test]
fn injected_stall_is_cut_by_the_stage_deadline() {
    let netlist = build_circuit(20);
    let constraints = ConstraintSet::full_scan();
    let faults = universe(&netlist);
    let config = ProofConfig {
        use_collapse: false,
        failure_plan: Some(FailurePlan {
            stall_on: Some(0),
            ..FailurePlan::default()
        }),
        stage_timeout: Some(Duration::from_millis(100)),
        ..sequential_config()
    };
    let campaign = prove_faults(&netlist, &constraints, &faults, &config).unwrap();
    assert_eq!(campaign.outcomes[0].outcome, ProofOutcome::Aborted);
    assert_eq!(campaign.outcomes[0].reason, Some(AbortReason::Timeout));
    assert!(deadline_hit(&campaign));
    // The stall consumed the whole stage budget, so everything after it is a
    // timeout abort too — and never a fabricated proof.
    for outcome in &campaign.outcomes[1..] {
        assert_eq!(outcome.outcome, ProofOutcome::Aborted);
        assert_eq!(outcome.reason, Some(AbortReason::Timeout));
    }
}

#[test]
fn stall_with_no_budget_limits_gives_up_instead_of_wedging() {
    let netlist = build_circuit(8);
    let constraints = ConstraintSet::full_scan();
    let faults = universe(&netlist);
    let config = ProofConfig {
        use_collapse: false,
        failure_plan: Some(FailurePlan {
            stall_on: Some(1),
            ..FailurePlan::default()
        }),
        ..sequential_config()
    };
    let campaign = prove_faults(&netlist, &constraints, &faults, &config).unwrap();
    assert_eq!(campaign.outcomes[1].reason, Some(AbortReason::Timeout));
    // Only the stalled fault is lost; an unlimited budget keeps on going.
    assert!(campaign
        .outcomes
        .iter()
        .enumerate()
        .all(|(i, o)| i == 1 || o.outcome != ProofOutcome::Aborted));
}

#[test]
fn corrupted_sat_model_is_rejected_by_the_replay_not_trusted() {
    let netlist = build_circuit(30);
    let constraints = ConstraintSet::full_scan();
    let faults = universe(&netlist);
    // Any mission-testable fault has a SAT model; corrupt it and the
    // mandatory simulation replay must catch the lie and withhold the
    // verdict instead of reporting a test that does not detect the fault.
    let mut sat = SatProver::new(&netlist, &constraints, 20_000).unwrap();
    let mut rejected = 0;
    for &fault in faults.iter().take(60) {
        if sat.prove(fault) != SatVerdict::TestExists {
            continue;
        }
        sat.corrupt_next_model();
        match sat.prove(fault) {
            // The replay caught the lie and withheld the verdict.
            SatVerdict::Aborted => {
                assert_eq!(sat.last_abort_reason(), Some(AbortReason::Unsupported));
                // The corruption is single-shot: the next attempt is clean.
                assert_eq!(sat.prove(fault), SatVerdict::TestExists);
                rejected += 1;
            }
            // The bit-flipped pattern coincidentally also detects the fault;
            // the replay verified it, so reporting the test is honest.
            SatVerdict::TestExists => {}
            other => panic!("corrupted model for {fault:?} produced {other:?}"),
        }
    }
    assert!(rejected > 0, "no corrupted model was caught by the replay");
}

#[test]
fn clause_limit_guard_declines_oversized_encodings() {
    let netlist = build_circuit(30);
    let constraints = ConstraintSet::full_scan();
    let fault = universe(&netlist)[0];
    let mut sat = SatProver::new(&netlist, &constraints, 20_000).unwrap();
    sat.set_clause_limit(1);
    assert_eq!(sat.prove(fault), SatVerdict::Unsupported);
    assert_eq!(sat.last_abort_reason(), Some(AbortReason::Unsupported));
}

#[test]
fn pre_cancelled_token_aborts_the_whole_campaign_as_timeouts() {
    let netlist = build_circuit(20);
    let constraints = ConstraintSet::full_scan();
    let faults = universe(&netlist);
    let token = CancelToken::new();
    token.cancel();
    let config = ProofConfig {
        cancel: Some(token),
        ..sequential_config()
    };
    let campaign = prove_faults(&netlist, &constraints, &faults, &config).unwrap();
    assert!(deadline_hit(&campaign));
    for outcome in &campaign.outcomes {
        assert_eq!(outcome.outcome, ProofOutcome::Aborted);
        assert_eq!(outcome.reason, Some(AbortReason::Timeout));
    }
}

/// The tentpole contract: interrupt a campaign mid-flight, resume from its
/// checkpoint, and the merged classification is bit-identical to an
/// uninterrupted run — with only the unconcluded faults re-proven.
#[test]
fn interrupted_campaign_resumes_bit_identical_from_checkpoint() {
    let netlist = build_circuit(40);
    let constraints = ConstraintSet::full_scan();
    let faults = universe(&netlist);
    // Collapse off + one thread makes the interruption point exact: faults
    // before the stall conclude, the stall eats the cancellation, faults
    // after it are never attempted.
    let config = ProofConfig {
        use_collapse: false,
        ..sequential_config()
    };
    let stall_at = faults.len() / 2;

    let reference = prove_faults(&netlist, &constraints, &faults, &config).unwrap();
    assert!(!deadline_hit(&reference));

    let path = TempCheckpoint::new("interrupt-resume");
    let journalled = ProofConfig {
        checkpoint: Some(path.0.clone()),
        ..config.clone()
    };

    // --- Interrupted run: stall mid-campaign, cancel from another thread.
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            token.cancel();
        })
    };
    let interrupted = prove_faults(
        &netlist,
        &constraints,
        &faults,
        &ProofConfig {
            failure_plan: Some(FailurePlan {
                stall_on: Some(stall_at),
                ..FailurePlan::default()
            }),
            cancel: Some(token),
            ..journalled.clone()
        },
    )
    .unwrap();
    canceller.join().unwrap();
    assert_eq!(interrupted.from_checkpoint, 0);
    assert!(deadline_hit(&interrupted));
    assert_eq!(
        interrupted.outcomes[stall_at].reason,
        Some(AbortReason::Timeout)
    );

    // Everything the interrupted run *did* conclude matches the reference.
    let concluded: Vec<usize> = interrupted
        .outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.outcome != ProofOutcome::Aborted)
        .map(|(i, _)| i)
        .collect();
    assert!(
        !concluded.is_empty(),
        "interruption landed before any proof"
    );
    assert!(concluded.len() < faults.len(), "nothing was interrupted");
    for &i in &concluded {
        assert_eq!(interrupted.outcomes[i], reference.outcomes[i]);
    }

    // --- Resumed run: same campaign, fresh budget, same checkpoint file.
    // Timeout aborts are never persisted: what the file holds, keyed by the
    // campaign fingerprint, is exactly the interrupted run's deterministic
    // verdicts.
    let persisted = interrupted
        .outcomes
        .iter()
        .filter(|o| {
            o.outcome != ProofOutcome::Aborted || o.reason.is_some_and(|r| r.is_deterministic())
        })
        .count();
    let fingerprint = campaign_fingerprint(&netlist, &constraints, &config);
    let checkpoint = Checkpoint::create_or_resume(&path.0, fingerprint).unwrap();
    assert_eq!(checkpoint.loaded(), persisted);
    drop(checkpoint);
    let resumed = prove_faults(&netlist, &constraints, &faults, &journalled).unwrap();

    // Only the unconcluded faults were re-proven…
    assert_eq!(resumed.from_checkpoint, persisted);
    assert!(resumed.from_checkpoint > 0);
    assert!(resumed.from_checkpoint < faults.len());
    // …and the merged classification is bit-identical to the uninterrupted
    // run: same ProofOutcome, same abort reasons, for every fault.
    assert_eq!(resumed.outcomes.len(), reference.outcomes.len());
    for (i, (merged, single)) in resumed.outcomes.iter().zip(&reference.outcomes).enumerate() {
        assert_eq!(
            merged.outcome, single.outcome,
            "fault {i} classified differently after resume"
        );
        assert_eq!(
            merged.reason, single.reason,
            "fault {i} abort reason diverged"
        );
    }
    assert!(!deadline_hit(&resumed));
}

/// Resume also replays the collapse schedule: with collapsing on, a resumed
/// campaign still classifies identically to an uninterrupted one, also when
/// several workers share the pre-seeded result slots.
#[test]
fn resume_replays_the_collapse_schedule() {
    let netlist = build_circuit(40);
    let constraints = ConstraintSet::full_scan();
    let faults = universe(&netlist);
    for threads in [1, 3] {
        let config = ProofConfig {
            threads,
            ..sequential_config() // collapse on
        };
        let reference = prove_faults(&netlist, &constraints, &faults, &config).unwrap();

        let path = TempCheckpoint::new(&format!("collapse-resume-{threads}"));
        let journalled = ProofConfig {
            checkpoint: Some(path.0.clone()),
            ..config
        };
        {
            // Interrupt with a stalled representative early in the schedule.
            let token = CancelToken::new();
            let canceller = {
                let token = token.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(30));
                    token.cancel();
                })
            };
            prove_faults(
                &netlist,
                &constraints,
                &faults,
                &ProofConfig {
                    failure_plan: Some(FailurePlan {
                        stall_on: Some(faults.len() / 3),
                        ..FailurePlan::default()
                    }),
                    cancel: Some(token),
                    ..journalled.clone()
                },
            )
            .unwrap();
            canceller.join().unwrap();
        }

        let resumed = prove_faults(&netlist, &constraints, &faults, &journalled).unwrap();
        for (i, (merged, single)) in resumed.outcomes.iter().zip(&reference.outcomes).enumerate() {
            assert_eq!(
                merged.outcome, single.outcome,
                "fault {i} classified differently after collapse-scheduled resume ({threads} threads)"
            );
        }
    }
}

#[test]
fn fault_timeout_bounds_each_fault_but_not_the_campaign() {
    let netlist = build_circuit(20);
    let constraints = ConstraintSet::full_scan();
    let faults = universe(&netlist);
    // A generous per-fault limit concludes everything; the budget machinery
    // along the hot path must not perturb verdicts.
    let unbounded = prove_faults(&netlist, &constraints, &faults, &sequential_config()).unwrap();
    let bounded = prove_faults(
        &netlist,
        &constraints,
        &faults,
        &ProofConfig {
            fault_timeout: Some(Duration::from_secs(30)),
            ..sequential_config()
        },
    )
    .unwrap();
    assert_eq!(unbounded.outcomes, bounded.outcomes);
    assert!(!deadline_hit(&bounded));
    // Engine attribution sanity: the portfolio produced real work.
    assert!(bounded
        .outcomes
        .iter()
        .any(|o| o.engine == ProofEngine::Podem));
}

#[test]
fn an_empty_worklist_still_creates_the_checkpoint() {
    let netlist = build_circuit(8);
    let constraints = ConstraintSet::full_scan();
    let path = TempCheckpoint::new("empty-worklist");
    let config = ProofConfig {
        checkpoint: Some(path.0.clone()),
        ..sequential_config()
    };
    let campaign = prove_faults(&netlist, &constraints, &[], &config).unwrap();
    assert!(campaign.outcomes.is_empty());
    let fingerprint = campaign_fingerprint(&netlist, &constraints, &config);
    let text = std::fs::read_to_string(&path.0).unwrap();
    assert!(
        text.contains(&format!("fingerprint {fingerprint:016x}")),
        "{text:?}"
    );
}
