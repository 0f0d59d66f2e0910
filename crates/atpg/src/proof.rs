//! Parallel untestability proofs: a work-claiming fan-out of the
//! constraint-aware PODEM engine over a fault population.
//!
//! This is the engine behind the identification flow's *proof stage*: after
//! the structural rules have screened the obviously dead logic and the fault
//! simulator has dropped everything the SBST suite detects, the surviving
//! undetected faults are handed to PODEM under the mission [`ConstraintSet`]
//! (tied debug/test inputs are decision-forbidden, masked observation outputs
//! never enter the D-frontier). A fault whose decision space is exhausted is
//! [`ProofOutcome::ProvenUntestable`]; a fault whose backtrack budget runs out
//! is [`ProofOutcome::Aborted`] and stays potentially testable.
//!
//! Three multiplicative per-fault reductions keep the run fast (all on by
//! default): the PODEM engines clip every search to the fault's fanout cone
//! (with an incrementally maintained good machine) and steer it with SCOAP
//! measures (see [`PodemConfig`]), and the
//! worklist itself is *collapse-scheduled* ([`ProofConfig::use_collapse`]):
//! structurally equivalent faults ([`faultmodel::collapse`]) share one proof
//! attempt — the class representative is proven and a **concluded** verdict
//! (`TestExists` / `ProvenUntestable`) expands to every member, since
//! equivalent faults have identical faulty functions under any constraint
//! environment. An `Aborted` representative expands to nothing: the
//! remaining members are proven individually in a second pass, so a
//! backtrack-budget give-up can never masquerade as a class-wide verdict.
//!
//! The faults go through the one work-claiming fan-out the fault simulator
//! ([`crate::fault_sim`]) also uses: the caller's thread and the scoped
//! threads claim chunks of faults from a shared cursor, and each worker
//! keeps its own [`Podem`] engine (and therefore its own reusable simulation
//! buffers) for the whole campaign, across both collapse passes. Every
//! per-fault outcome is independent of scheduling — the multi-threaded run
//! classifies *identically* to the single-threaded one.
//!
//! With [`ProofConfig::use_sat`] the fan-out becomes a **portfolio**: each
//! fault runs PODEM under its backtrack budget first, and an abort escalates
//! to the SAT backend ([`crate::cnf`]) — the cone-clipped fault machine is
//! encoded into CNF and handed to the CDCL core under
//! [`ProofConfig::sat_conflict_limit`]. `Unsat` is a completed untestability
//! proof, a model is a simulation-verified test, and conflict-budget
//! exhaustion keeps the abort (never conflated with a verdict). Each verdict
//! records the engine that produced it ([`EngineOutcome`]), and the CNF is
//! built deterministically, so the portfolio keeps the thread-invariance
//! guarantee.
//!
//! The fan-out is also the campaign's *survivability* layer
//! ([`CampaignOptions`]): a [`Budget`] bounds the run with a
//! cooperative cancel token, a whole-stage deadline and a per-fault
//! wall-clock limit (expiry turns a hang into an
//! [`AbortReason::Timeout`] verdict, never a lost run); each per-fault proof
//! runs under `catch_unwind`, so an engine bug on one cone records
//! [`AbortReason::Panicked`] for that fault while the campaign continues;
//! and an optional [`Checkpoint`] persists
//! verdicts incrementally so an interrupted campaign resumes by re-proving
//! only what never concluded. The checkpoint is applied by pre-seeding the
//! result slots *before* scheduling and the collapse classes are computed
//! over the full population, so a resumed run replays the uninterrupted
//! schedule exactly — the merged classification is bit-identical.

use crate::budget::{AbortReason, Budget, CancelToken, FailurePlan};
use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::cnf::{SatProver, SatVerdict};
use crate::constant::ConstraintSet;
use crate::fanout::{fan_out, workers_for};
use crate::json::JsonValue;
use crate::podem::{Podem, PodemConfig, ProofOutcome};
use faultmodel::{collapse_with_barriers, FaultList, StuckAt};
use netlist::{graph, Netlist};
use std::fmt;
use std::time::Instant;

/// Faults claimed per cursor bump: small enough to balance a skewed workload
/// (aborts cost orders of magnitude more than quick proofs), large enough to
/// amortise the atomic traffic.
const CHUNK: usize = 16;

/// Configuration of a parallel proof run.
#[derive(Clone, Copy, Debug)]
pub struct ProofConfig {
    /// Backtrack budget per fault (see [`PodemConfig::backtrack_limit`]);
    /// searches that exhaust it come back [`ProofOutcome::Aborted`].
    pub backtrack_limit: usize,
    /// Worker threads to fan the faults out across; `0` uses the machine's
    /// available parallelism. The outcome vector is identical regardless.
    pub threads: usize,
    /// Prove one representative per structural equivalence class and expand
    /// concluded verdicts across the class (aborts never expand; their class
    /// members are proven individually instead).
    pub use_collapse: bool,
    /// Clip every PODEM search to the fault's cones (see
    /// [`PodemConfig::cone_clip`]).
    pub cone_clip: bool,
    /// Steer the PODEM searches with SCOAP testability measures (see
    /// [`PodemConfig::scoap_guidance`]).
    pub use_scoap: bool,
    /// Prune hopeless branches with the X-path check (see
    /// [`PodemConfig::x_path_check`]). Off reproduces the pre-acceleration
    /// reference engine exactly.
    pub use_x_path: bool,
    /// Escalate PODEM aborts to the SAT backend ([`crate::cnf`]): the
    /// cone-clipped fault machine is encoded into CNF and the CDCL core
    /// attempts the verdict the search engine gave up on. Off by default so
    /// the engine-level behaviour (and abort semantics) is unchanged unless
    /// a caller opts into the portfolio.
    pub use_sat: bool,
    /// Conflict budget per SAT escalation; exhaustion keeps the fault
    /// aborted. `u64::MAX` is effectively unbounded.
    pub sat_conflict_limit: u64,
    /// Deterministic failure injection for the robustness regression suite
    /// (see [`FailurePlan`]); `None` — the default — injects nothing.
    /// Production callers leave this unset.
    pub failure_plan: Option<FailurePlan>,
}

impl Default for ProofConfig {
    fn default() -> Self {
        ProofConfig {
            backtrack_limit: 32,
            threads: 0,
            use_collapse: true,
            cone_clip: true,
            use_scoap: true,
            use_x_path: true,
            use_sat: false,
            sat_conflict_limit: 20_000,
            failure_plan: None,
        }
    }
}

impl ProofConfig {
    fn podem_config(&self) -> PodemConfig {
        PodemConfig {
            backtrack_limit: self.backtrack_limit,
            cone_clip: self.cone_clip,
            scoap_guidance: self.use_scoap,
            x_path_check: self.use_x_path,
        }
    }

    fn resolve_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// The engine that produced a fault's final verdict in the portfolio.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ProofEngine {
    /// The PODEM search engine (also recorded when a SAT escalation declined
    /// the fault as unsupported, leaving PODEM's abort in place).
    Podem,
    /// The SAT (CDCL) proof backend — including escalations whose conflict
    /// budget ran out, which stay `Aborted` but are attributed to the SAT
    /// attempt.
    Sat,
}

/// A per-fault verdict tagged with the engine that produced it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EngineOutcome {
    /// The verdict.
    pub outcome: ProofOutcome,
    /// The engine responsible for it. A collapse-expanded member carries its
    /// class representative's engine: that is the proof that covers it.
    pub engine: ProofEngine,
    /// Why an [`Aborted`](ProofOutcome::Aborted) verdict gave up; `None` for
    /// concluded verdicts.
    pub reason: Option<AbortReason>,
}

impl EngineOutcome {
    /// A concluded verdict (no abort reason).
    pub fn concluded(outcome: ProofOutcome, engine: ProofEngine) -> Self {
        debug_assert_ne!(outcome, ProofOutcome::Aborted, "aborts carry a reason");
        EngineOutcome {
            outcome,
            engine,
            reason: None,
        }
    }

    /// An aborted verdict with its reason.
    pub fn aborted(engine: ProofEngine, reason: AbortReason) -> Self {
        EngineOutcome {
            outcome: ProofOutcome::Aborted,
            engine,
            reason: Some(reason),
        }
    }
}

/// Per-engine tally of a portfolio run: how the final verdicts split between
/// the PODEM search and the SAT escalations. A fault is attributed to the
/// engine that produced its final verdict — PODEM when it concluded within
/// its backtrack budget, SAT when PODEM aborted and the SAT escalation
/// concluded (or itself ran out of conflicts).
///
/// This is the identification report's `engine_breakdown`: its `Display`
/// row and [`to_json`](Self::to_json) object are what the human report,
/// `untestable --json` and the identification service print.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineBreakdown {
    /// PODEM verdicts: test exists.
    pub podem_test_exists: usize,
    /// PODEM verdicts: proven untestable.
    pub podem_proven: usize,
    /// PODEM verdicts: aborted (includes SAT escalations declined as
    /// unsupported).
    pub podem_aborted: usize,
    /// SAT verdicts: test exists (model replayed through simulation).
    pub sat_test_exists: usize,
    /// SAT verdicts: proven untestable (UNSAT under the mission assumptions).
    pub sat_proven: usize,
    /// SAT escalations whose conflict budget ran out: still aborted.
    pub sat_aborted: usize,
    /// Aborts that exhausted the PODEM backtrack budget.
    pub aborted_backtracks: usize,
    /// Aborts that exhausted the SAT conflict budget.
    pub aborted_conflicts: usize,
    /// Aborts from a wall-clock limit or a campaign cancellation — the
    /// deadline-hit count.
    pub aborted_timeout: usize,
    /// Aborts from a caught per-fault engine panic.
    pub aborted_panicked: usize,
    /// Aborts kept because the SAT encoding declined the fault.
    pub aborted_unsupported: usize,
}

impl EngineBreakdown {
    /// Tallies a slice of engine-tagged outcomes.
    pub fn from_outcomes(outcomes: &[EngineOutcome]) -> Self {
        let mut b = EngineBreakdown::default();
        for o in outcomes {
            let slot = match (o.engine, o.outcome) {
                (ProofEngine::Podem, ProofOutcome::TestExists) => &mut b.podem_test_exists,
                (ProofEngine::Podem, ProofOutcome::ProvenUntestable) => &mut b.podem_proven,
                (ProofEngine::Podem, ProofOutcome::Aborted) => &mut b.podem_aborted,
                (ProofEngine::Sat, ProofOutcome::TestExists) => &mut b.sat_test_exists,
                (ProofEngine::Sat, ProofOutcome::ProvenUntestable) => &mut b.sat_proven,
                (ProofEngine::Sat, ProofOutcome::Aborted) => &mut b.sat_aborted,
            };
            *slot += 1;
            if let Some(reason) = o.reason {
                let slot = match reason {
                    AbortReason::Backtracks => &mut b.aborted_backtracks,
                    AbortReason::Conflicts => &mut b.aborted_conflicts,
                    AbortReason::Timeout => &mut b.aborted_timeout,
                    AbortReason::Panicked => &mut b.aborted_panicked,
                    AbortReason::Unsupported => &mut b.aborted_unsupported,
                };
                *slot += 1;
            }
        }
        b
    }

    /// Faults proven untestable by either engine.
    pub fn proven_total(&self) -> usize {
        self.podem_proven + self.sat_proven
    }

    /// Faults neither engine could conclude.
    pub fn aborted_total(&self) -> usize {
        self.podem_aborted + self.sat_aborted
    }

    /// Faults shown testable in mission mode by either engine.
    pub fn test_exists_total(&self) -> usize {
        self.podem_test_exists + self.sat_test_exists
    }

    /// Aborts attributed to a wall-clock deadline or cancellation — the
    /// "stage deadline hit" signal callers use to pick an exit status.
    pub fn deadline_hit(&self) -> bool {
        self.aborted_timeout > 0
    }

    /// The per-engine breakdown as a JSON object — one key per counter,
    /// the shared schema of `untestable --json` and the identification
    /// service.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "podem_test_exists".to_string(),
                self.podem_test_exists.into(),
            ),
            ("podem_proven".to_string(), self.podem_proven.into()),
            ("podem_aborted".to_string(), self.podem_aborted.into()),
            ("sat_test_exists".to_string(), self.sat_test_exists.into()),
            ("sat_proven".to_string(), self.sat_proven.into()),
            ("sat_aborted".to_string(), self.sat_aborted.into()),
            (
                "aborts".to_string(),
                JsonValue::Object(vec![
                    ("backtracks".to_string(), self.aborted_backtracks.into()),
                    ("conflicts".to_string(), self.aborted_conflicts.into()),
                    ("timeout".to_string(), self.aborted_timeout.into()),
                    ("panicked".to_string(), self.aborted_panicked.into()),
                    ("unsupported".to_string(), self.aborted_unsupported.into()),
                ]),
            ),
            ("deadline_hit".to_string(), self.deadline_hit().into()),
        ])
    }

    fn has_abort_reasons(&self) -> bool {
        self.aborted_backtracks
            + self.aborted_conflicts
            + self.aborted_timeout
            + self.aborted_panicked
            + self.aborted_unsupported
            > 0
    }
}

impl fmt::Display for EngineBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PODEM {} proven / {} testable / {} aborted; SAT {} proven / {} testable / {} aborted",
            self.podem_proven,
            self.podem_test_exists,
            self.podem_aborted,
            self.sat_proven,
            self.sat_test_exists,
            self.sat_aborted
        )?;
        if self.has_abort_reasons() {
            write!(
                f,
                "; aborts: {} backtracks / {} conflicts / {} timeout / {} panicked / {} unsupported",
                self.aborted_backtracks,
                self.aborted_conflicts,
                self.aborted_timeout,
                self.aborted_panicked,
                self.aborted_unsupported
            )?;
        }
        Ok(())
    }
}

/// One worker's engines, built lazily on first use and kept for the whole
/// campaign, across both collapse passes: construction is design-sized
/// (SCOAP, baseline propagation). The SAT engine is built on the worker's
/// first PODEM abort, so the common all-concluded path never pays for it.
#[derive(Default)]
struct Engines<'a> {
    podem: Option<Podem<'a>>,
    sat: Option<SatProver<'a>>,
}

/// What every worker of one [`prove_faults`] run shares.
struct Campaign<'a> {
    netlist: &'a Netlist,
    constraints: &'a ConstraintSet,
    faults: &'a [StuckAt],
    config: &'a ProofConfig,
    budget: &'a Budget,
    checkpoint: Option<&'a Checkpoint>,
}

/// Proves fault `index` on the portfolio: PODEM first, SAT escalation on
/// abort (when enabled).
fn prove_one<'a>(
    campaign: &Campaign<'a>,
    engines: &mut Engines<'a>,
    index: usize,
) -> EngineOutcome {
    let Campaign {
        netlist,
        constraints,
        faults,
        config,
        budget,
        ..
    } = *campaign;
    let deadline = budget.fault_deadline(Instant::now());
    let interrupt = budget.cancel.as_ref().map(CancelToken::flag);
    if let Some(plan) = config.failure_plan {
        if plan.panic_on == Some(index) {
            panic!("injected engine panic on fault index {index}");
        }
        if plan.stall_on == Some(index) {
            // A simulated hang: block until a budget limit trips. With no
            // limit configured nothing ever would, so give up immediately
            // instead of wedging the harness.
            if budget.cancel.is_none() && deadline.is_none() {
                return EngineOutcome::aborted(ProofEngine::Podem, AbortReason::Timeout);
            }
            loop {
                if budget.stage_stopped() || deadline.is_some_and(|d| Instant::now() >= d) {
                    return EngineOutcome::aborted(ProofEngine::Podem, AbortReason::Timeout);
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }
    let fault = faults[index];
    let podem = engines.podem.get_or_insert_with(|| {
        Podem::new(netlist, constraints, config.podem_config())
            .expect("levelization already validated")
    });
    podem.set_search_limits(interrupt.clone(), deadline);
    let outcome = podem.prove(fault);
    if outcome != ProofOutcome::Aborted {
        return EngineOutcome::concluded(outcome, ProofEngine::Podem);
    }
    if podem.last_search_interrupted() {
        // A wall-clock give-up must not escalate: the SAT attempt would blow
        // the very deadline that stopped the search.
        return EngineOutcome::aborted(ProofEngine::Podem, AbortReason::Timeout);
    }
    if !config.use_sat {
        return EngineOutcome::aborted(ProofEngine::Podem, AbortReason::Backtracks);
    }
    let sat = engines.sat.get_or_insert_with(|| {
        SatProver::new(netlist, constraints, config.sat_conflict_limit)
            .expect("levelization already validated")
    });
    sat.set_search_limits(interrupt, deadline);
    if config
        .failure_plan
        .is_some_and(|p| p.bogus_sat_model_on == Some(index))
    {
        sat.corrupt_next_model();
    }
    match sat.prove(fault) {
        SatVerdict::TestExists => {
            EngineOutcome::concluded(ProofOutcome::TestExists, ProofEngine::Sat)
        }
        SatVerdict::ProvenUntestable => {
            EngineOutcome::concluded(ProofOutcome::ProvenUntestable, ProofEngine::Sat)
        }
        SatVerdict::Aborted => EngineOutcome::aborted(
            ProofEngine::Sat,
            sat.last_abort_reason().unwrap_or(AbortReason::Conflicts),
        ),
        // The encoding declined (outside its exactness preconditions): keep
        // PODEM's abort untouched.
        SatVerdict::Unsupported => {
            EngineOutcome::aborted(ProofEngine::Podem, AbortReason::Unsupported)
        }
    }
}

/// [`prove_one`] under per-fault panic isolation and the stage budget.
///
/// A stage-stopped budget short-circuits to an
/// [`AbortReason::Timeout`] verdict; a panic inside the engines is caught,
/// recorded as [`AbortReason::Panicked`], and the (possibly poisoned —
/// PODEM's reusable buffers are moved out during a search) engines are
/// dropped so the next fault rebuilds them from scratch.
fn prove_guarded<'a>(
    campaign: &Campaign<'a>,
    engines: &mut Engines<'a>,
    index: usize,
) -> EngineOutcome {
    if campaign.budget.stage_stopped() {
        return EngineOutcome::aborted(ProofEngine::Podem, AbortReason::Timeout);
    }
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        prove_one(campaign, engines, index)
    }));
    attempt.unwrap_or_else(|_| {
        *engines = Engines::default();
        EngineOutcome::aborted(ProofEngine::Podem, AbortReason::Panicked)
    })
}

/// Proves every fault of `worklist` (indices into the campaign's faults)
/// whose result slot is still empty — a slot pre-seeded from the
/// checkpoint is skipped — and fills its slot. Each fresh verdict is
/// appended to the checkpoint by its worker as it concludes, so an
/// interruption loses at most the faults in flight.
fn prove_worklist<'a>(
    campaign: &Campaign<'a>,
    worklist: &[usize],
    engines: &mut [Engines<'a>],
    results: &mut [Option<EngineOutcome>],
) {
    let todo: Vec<usize> = worklist
        .iter()
        .copied()
        .filter(|&i| results[i].is_none())
        .collect();
    let verdicts = fan_out(&todo, CHUNK, engines, |engines, &i| {
        let verdict = prove_guarded(campaign, engines, i);
        if let Some(cp) = campaign.checkpoint {
            cp.record(campaign.faults[i], verdict);
        }
        verdict
    });
    for (i, verdict) in todo.into_iter().zip(verdicts) {
        results[i] = Some(verdict);
    }
}

/// Why a proof campaign could not run to completion.
#[derive(Clone, Debug)]
pub enum CampaignError {
    /// The combinational logic is cyclic; no engine can be built.
    Cyclic(graph::CombinationalLoop),
    /// The checkpoint file could not be opened, parsed, or written.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Cyclic(e) => write!(f, "{e}"),
            CampaignError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<CheckpointError> for CampaignError {
    fn from(e: CheckpointError) -> Self {
        CampaignError::Checkpoint(e)
    }
}

/// How one [`prove_faults`] run is bounded and journalled. The default is
/// an unlimited budget and no checkpoint.
#[derive(Clone, Default)]
pub struct CampaignOptions<'a> {
    /// Cooperative limits: cancel token, stage deadline, per-fault limit.
    pub budget: Budget,
    /// Checkpoint that pre-seeds concluded verdicts and records fresh ones.
    pub checkpoint: Option<&'a Checkpoint>,
}

/// The result of one [`prove_faults`] run.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// One engine-tagged verdict per input fault, in input order.
    pub outcomes: Vec<EngineOutcome>,
    /// Faults whose verdict was replayed from the checkpoint instead of
    /// being proven by this run.
    pub from_checkpoint: usize,
}

/// Proves (or fails to prove) untestability for every fault in `faults` under
/// `constraints`, returning one engine-tagged verdict per fault in input
/// order.
///
/// With [`ProofConfig::use_collapse`] the worklist is collapse-scheduled:
/// one representative per structural equivalence class is proven (the class's
/// first fault in input order), concluded verdicts expand to the rest of the
/// class, and members of classes whose representative *aborted* are proven
/// individually in a second pass — an abort never expands.
///
/// The faults are fanned out across scoped worker threads according to
/// `config.threads`; per-fault outcomes do not depend on the fan-out, so any
/// thread count produces the same vector.
///
/// `options` bounds the run with a cooperative [`Budget`] and may journal
/// it to a [`Checkpoint`]; every fault runs under per-fault panic isolation.
/// Checkpointed verdicts are pre-seeded into the result slots before
/// scheduling and the collapse classes are computed over the full
/// population, so a resumed campaign replays the uninterrupted schedule
/// exactly: the merged classification is bit-identical to a single
/// uninterrupted run under the same configuration, and only unconcluded
/// faults are re-proven.
///
/// # Errors
///
/// [`CampaignError::Cyclic`] if the combinational logic is cyclic,
/// [`CampaignError::Checkpoint`] if appending to the checkpoint failed.
pub fn prove_faults(
    netlist: &Netlist,
    constraints: &ConstraintSet,
    faults: &[StuckAt],
    config: &ProofConfig,
    options: &CampaignOptions<'_>,
) -> Result<CampaignOutcome, CampaignError> {
    // Validate levelization once up front (and still surface a cyclic design
    // when the fault list is empty) so the workers can unwrap — levelize is
    // the only error source of engine construction, and validating with it
    // directly avoids building (and immediately dropping) a full engine with
    // its SCOAP computation and baseline propagation.
    graph::levelize(netlist).map_err(CampaignError::Cyclic)?;
    if faults.is_empty() {
        return Ok(CampaignOutcome {
            outcomes: Vec::new(),
            from_checkpoint: 0,
        });
    }
    let campaign = Campaign {
        netlist,
        constraints,
        faults,
        config,
        budget: &options.budget,
        checkpoint: options.checkpoint,
    };
    let mut results: Vec<Option<EngineOutcome>> = faults
        .iter()
        .map(|&fault| options.checkpoint.and_then(|cp| cp.concluded(fault)))
        .collect();
    let from_checkpoint = results.iter().flatten().count();
    let workers = workers_for(faults.len(), CHUNK, config.resolve_threads());
    let mut engines: Vec<Engines<'_>> = (0..workers).map(|_| Engines::default()).collect();

    // Collapse-schedule: group the population by structural equivalence
    // class (without collapsing, every fault is its own class) and prove the
    // first member of each class.
    //
    // One frame-specific restriction: structural equivalence reasons about
    // the faulty *function*, but a constraint-forced net decouples a stem
    // fault from its branch — a gate never overwrites a forced net, so the
    // stem fault is masked, while the branch fault still injects at the
    // load's pin read. Every forced net is therefore a stem/branch barrier
    // when the classes are built (a post-hoc exclusion would not do: the
    // union-find chains *through* the net, linking sound members upstream of
    // the forcing point to sound members downstream of it whose behaviour
    // differs). Gate-local unions stay valid on forced nets — a forced gate
    // output masks the gate's pin faults and its output fault alike.
    let class_of: Vec<usize> = if config.use_collapse {
        let list = FaultList::from_faults(faults.to_vec());
        let collapsed = collapse_with_barriers(netlist, &list, |net| {
            constraints.forced_nets.contains_key(&net)
        });
        faults
            .iter()
            .map(|&fault| {
                collapsed.representative_of(
                    list.index_of(fault)
                        .expect("every input fault is in its own universe"),
                )
            })
            .collect()
    } else {
        (0..faults.len()).collect()
    };
    // Class → input index of its prover. Class ids are below `faults.len()`
    // either way: a representative indexes the deduplicated universe.
    let mut prover_of_class: Vec<Option<usize>> = vec![None; faults.len()];
    let mut provers: Vec<usize> = Vec::new();
    for (i, &class) in class_of.iter().enumerate() {
        if prover_of_class[class].is_none() {
            prover_of_class[class] = Some(i);
            provers.push(i);
        }
    }
    prove_worklist(&campaign, &provers, &mut engines, &mut results);

    // Expansion: concluded class verdicts cover every member (with the
    // representative's engine — that proof is what covers them); members of
    // aborted classes go into the individual second pass. A pre-seeded
    // member keeps its checkpointed verdict either way.
    let mut second_pass: Vec<usize> = Vec::new();
    for (i, &class) in class_of.iter().enumerate() {
        let prover = prover_of_class[class].expect("every class has a prover");
        if prover == i {
            continue;
        }
        let representative = results[prover].expect("proof fan-out left a fault unvisited");
        if representative.outcome == ProofOutcome::Aborted {
            second_pass.push(i);
        } else {
            results[i].get_or_insert(representative);
        }
    }
    prove_worklist(&campaign, &second_pass, &mut engines, &mut results);

    if let Some(cp) = options.checkpoint {
        cp.sync()?;
    }
    Ok(CampaignOutcome {
        outcomes: results
            .into_iter()
            .map(|r| r.expect("proof fan-out left a fault unvisited"))
            .collect(),
        from_checkpoint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultmodel::{collapse, FaultList};
    use netlist::NetlistBuilder;

    /// One unbudgeted, unjournalled run.
    fn tagged(
        n: &Netlist,
        constraints: &ConstraintSet,
        faults: &[StuckAt],
        config: &ProofConfig,
    ) -> Vec<EngineOutcome> {
        prove_faults(n, constraints, faults, config, &CampaignOptions::default())
            .unwrap()
            .outcomes
    }

    /// [`tagged`] without the engine attribution.
    fn verdicts(
        n: &Netlist,
        constraints: &ConstraintSet,
        faults: &[StuckAt],
        config: &ProofConfig,
    ) -> Vec<ProofOutcome> {
        tagged(n, constraints, faults, config)
            .into_iter()
            .map(|r| r.outcome)
            .collect()
    }

    fn redundant_design() -> netlist::Netlist {
        // Three parallel copies of the classic redundant AND-OR structure so
        // the universe is large enough to exercise multiple chunks.
        let mut b = NetlistBuilder::new("red3");
        for i in 0..3 {
            let a = b.input(format!("a{i}"));
            let c = b.input(format!("b{i}"));
            let t = b.and2(a, c);
            let y = b.or2(a, t);
            b.output(format!("y{i}"), y);
        }
        b.finish()
    }

    #[test]
    fn parallel_outcomes_match_single_thread() {
        let n = redundant_design();
        let faults = FaultList::full_universe(&n).faults().to_vec();
        let constraints = ConstraintSet::full_scan();
        let single = tagged(
            &n,
            &constraints,
            &faults,
            &ProofConfig {
                threads: 1,
                ..ProofConfig::default()
            },
        );
        let parallel = tagged(
            &n,
            &constraints,
            &faults,
            &ProofConfig {
                threads: 4,
                ..ProofConfig::default()
            },
        );
        assert_eq!(single, parallel);
        let b = EngineBreakdown::from_outcomes(&single);
        assert_eq!(
            b.test_exists_total() + b.proven_total() + b.aborted_total(),
            faults.len()
        );
        // The three redundant AND-output s-a-0 faults are proven.
        assert!(b.proven_total() >= 3, "{b:?}");
        assert!(b.test_exists_total() > 0);
    }

    #[test]
    fn a_huge_thread_request_only_builds_the_workers_the_faults_need() {
        // `threads` arrives unchecked from the CLI and the daemon's job
        // config; one engine slot per requested thread would exhaust memory
        // and abort the process instead of proving anything.
        let n = redundant_design();
        let faults = FaultList::full_universe(&n).faults().to_vec();
        let constraints = ConstraintSet::full_scan();
        let config = |threads| ProofConfig {
            threads,
            ..ProofConfig::default()
        };
        assert_eq!(
            tagged(&n, &constraints, &faults, &config(1 << 40)),
            tagged(&n, &constraints, &faults, &config(1))
        );
    }

    #[test]
    fn outcomes_match_a_fresh_sequential_engine_per_fault() {
        let n = redundant_design();
        let faults: Vec<_> = FaultList::full_universe(&n)
            .faults()
            .iter()
            .copied()
            .take(40)
            .collect();
        let constraints = ConstraintSet::full_scan();
        let config = ProofConfig {
            threads: 3,
            ..ProofConfig::default()
        };
        let parallel = verdicts(&n, &constraints, &faults, &config);
        let mut podem = Podem::new(&n, &constraints, config.podem_config()).unwrap();
        for (i, &fault) in faults.iter().enumerate() {
            assert_eq!(parallel[i], podem.prove(fault), "{fault:?}");
        }
    }

    #[test]
    fn constraints_are_respected_by_the_fanned_out_engines() {
        // Tie one input: the AND output can never rise, so its s-a-0 becomes
        // provable in every worker.
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        let n = b.finish();
        let and = n.driver_of(y).unwrap();
        let mut constraints = ConstraintSet::full_scan();
        constraints.tie_net(a, false);
        let faults = vec![StuckAt::output(and, false), StuckAt::output(and, true)];
        let outcomes = verdicts(&n, &constraints, &faults, &ProofConfig::default());
        assert_eq!(outcomes[0], ProofOutcome::ProvenUntestable);
        assert_eq!(outcomes[1], ProofOutcome::TestExists);
    }

    #[test]
    fn empty_fault_list_is_fine_and_cyclic_designs_error() {
        let n = redundant_design();
        let outcomes = verdicts(
            &n,
            &ConstraintSet::full_scan(),
            &[],
            &ProofConfig::default(),
        );
        assert!(outcomes.is_empty());
    }

    #[test]
    fn collapse_scheduling_matches_individual_proofs() {
        // Expanded class verdicts must agree fault-by-fault with proving
        // every member on its own (generous budget: everything concludes).
        let n = redundant_design();
        let faults = FaultList::full_universe(&n).faults().to_vec();
        let constraints = ConstraintSet::full_scan();
        let scheduled = verdicts(
            &n,
            &constraints,
            &faults,
            &ProofConfig {
                backtrack_limit: 10_000,
                threads: 2,
                use_collapse: true,
                ..ProofConfig::default()
            },
        );
        let individual = verdicts(
            &n,
            &constraints,
            &faults,
            &ProofConfig {
                backtrack_limit: 10_000,
                threads: 1,
                use_collapse: false,
                ..ProofConfig::default()
            },
        );
        assert_eq!(scheduled, individual);
        // The design collapses (AND/OR input faults merge with output
        // faults), so the schedule really did expand verdicts.
        let list = FaultList::from_faults(faults.clone());
        assert!(collapse(&n, &list).num_classes() < faults.len());
    }

    #[test]
    fn aborted_representatives_do_not_expand() {
        // With a zero budget the redundant-AND classes abort. The expansion
        // rule says: a class prover's concluded verdict covers its class; an
        // aborted prover covers nothing, and every other member falls back to
        // its own individual proof.
        let n = redundant_design();
        let faults = FaultList::full_universe(&n).faults().to_vec();
        let constraints = ConstraintSet::full_scan();
        let config = ProofConfig {
            backtrack_limit: 0,
            threads: 1,
            use_collapse: true,
            ..ProofConfig::default()
        };
        let scheduled = verdicts(&n, &constraints, &faults, &config);
        let mut podem = Podem::new(&n, &constraints, config.podem_config()).unwrap();
        let solo: Vec<ProofOutcome> = faults.iter().map(|&f| podem.prove(f)).collect();
        assert!(
            solo.contains(&ProofOutcome::Aborted),
            "the zero budget should abort some searches"
        );

        // Recompute the schedule's prover assignment.
        let list = FaultList::from_faults(faults.clone());
        let collapsed = collapse(&n, &list);
        let mut prover: std::collections::HashMap<usize, usize> = Default::default();
        for (i, &f) in faults.iter().enumerate() {
            prover
                .entry(collapsed.representative_of(list.index_of(f).unwrap()))
                .or_insert(i);
        }
        for (i, &f) in faults.iter().enumerate() {
            let p = prover[&collapsed.representative_of(list.index_of(f).unwrap())];
            if p == i || scheduled[p] == ProofOutcome::Aborted {
                // Provers and members of aborted classes: own verdict.
                assert_eq!(scheduled[i], solo[i], "{f:?}");
            } else {
                // Members of concluded classes: the expanded verdict.
                assert_eq!(scheduled[i], scheduled[p], "{f:?}");
                assert_ne!(scheduled[i], ProofOutcome::Aborted, "{f:?}");
            }
        }
    }

    #[test]
    fn forced_nets_never_share_a_scheduled_class() {
        // A forced gate-driven net masks its stem fault (gates never
        // overwrite forced nets) but not the branch fault at the load pin —
        // the two are structurally "equivalent" yet behave differently, so
        // the scheduler must prove them individually. y = buf(a AND b) into
        // an output, with the buffer's output net forced to 0: the branch
        // fault at the output pin (s-a-1) is detectable (good value 0 at an
        // observation pin), the stem fault (s-a-1) is masked and untestable.
        let mut b = NetlistBuilder::new("forced");
        let a = b.input("a");
        let c = b.input("b");
        let t = b.and2(a, c);
        let y = b.buf(t);
        b.output("y", y);
        let n = b.finish();
        let buf = n.driver_of(y).unwrap();
        let po = n.primary_outputs()[0];
        let mut constraints = ConstraintSet::full_scan();
        constraints.tie_net(y, false);
        let stem = StuckAt::output(buf, true);
        let branch = StuckAt::input(po, 0, true);
        let faults = vec![stem, branch];
        for use_collapse in [false, true] {
            let outcomes = verdicts(
                &n,
                &constraints,
                &faults,
                &ProofConfig {
                    backtrack_limit: 10_000,
                    threads: 1,
                    use_collapse,
                    ..ProofConfig::default()
                },
            );
            assert_eq!(
                outcomes[0],
                ProofOutcome::ProvenUntestable,
                "stem is masked by the forced net (use_collapse={use_collapse})"
            );
            assert_eq!(
                outcomes[1],
                ProofOutcome::TestExists,
                "branch at the observation pin stays detectable (use_collapse={use_collapse})"
            );
        }
    }

    #[test]
    fn classes_never_chain_through_a_forced_net() {
        // Regression: the structural union-find chains *through* a net —
        // gate-local rule on the AND, stem/branch rule on its (forced)
        // output, gate-local rule on the buffer — linking the masked
        // AND-input fault (untestable: the forced net swallows its effect)
        // to the live buffer-output fault (testable: downstream of the
        // forcing point). A site-based exclusion alone is not enough; the
        // forced net must be a barrier when the classes are built, or the
        // scheduler expands ProvenUntestable onto a genuinely testable
        // fault.
        //
        //   a, b → AND → t (forced to 1) → BUF → y (primary output)
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let c = b.input("b");
        let t = b.and2(a, c);
        let y = b.buf(t);
        b.output("y", y);
        let n = b.finish();
        let and = n.driver_of(t).unwrap();
        let buf = n.driver_of(y).unwrap();
        let po = n.primary_outputs()[0];
        let mut constraints = ConstraintSet::full_scan();
        constraints.tie_net(t, true);
        let faults = vec![
            StuckAt::input(and, 0, false), // masked: effect dies at forced t
            StuckAt::output(and, false),   // masked (sited on t)
            StuckAt::input(buf, 0, false), // live: pin read injects past t
            StuckAt::output(buf, false),   // live: y can be driven to 0
            StuckAt::input(po, 0, false),  // live branch at the output pin
        ];
        let expected = [
            ProofOutcome::ProvenUntestable,
            ProofOutcome::ProvenUntestable,
            ProofOutcome::TestExists,
            ProofOutcome::TestExists,
            ProofOutcome::TestExists,
        ];
        for use_collapse in [false, true] {
            let outcomes = verdicts(
                &n,
                &constraints,
                &faults,
                &ProofConfig {
                    backtrack_limit: 10_000,
                    threads: 1,
                    use_collapse,
                    ..ProofConfig::default()
                },
            );
            assert_eq!(outcomes, expected, "use_collapse={use_collapse}");
        }
    }

    #[test]
    fn podem_aborts_escalate_to_sat_proofs_with_the_engine_recorded() {
        // Zero backtrack budget: PODEM aborts on the redundant AND s-a-0
        // faults (and others); the SAT escalation must convert those aborts
        // into verdicts attributed to the SAT engine, and every concluded
        // verdict must agree with an exhaustive PODEM-only run.
        let n = redundant_design();
        let faults = FaultList::full_universe(&n).faults().to_vec();
        let constraints = ConstraintSet::full_scan();
        let portfolio = tagged(
            &n,
            &constraints,
            &faults,
            &ProofConfig {
                backtrack_limit: 0,
                threads: 1,
                use_sat: true,
                ..ProofConfig::default()
            },
        );
        let exhaustive = verdicts(
            &n,
            &constraints,
            &faults,
            &ProofConfig {
                backtrack_limit: 10_000,
                threads: 1,
                ..ProofConfig::default()
            },
        );
        let mut sat_proofs = 0;
        for (i, (tagged, &expected)) in portfolio.iter().zip(&exhaustive).enumerate() {
            assert_eq!(tagged.outcome, expected, "fault {:?}", faults[i]);
            if tagged.engine == ProofEngine::Sat {
                sat_proofs += 1;
                assert_ne!(tagged.outcome, ProofOutcome::Aborted);
            }
        }
        assert!(sat_proofs > 0, "no abort ever reached the SAT backend");
        let breakdown = EngineBreakdown::from_outcomes(&portfolio);
        assert_eq!(breakdown.sat_test_exists + breakdown.sat_proven, sat_proofs);
        assert!(
            breakdown.sat_proven >= 3,
            "the redundant AND s-a-0 faults must become SAT untestability proofs: {breakdown:?}"
        );
        assert_eq!(breakdown.sat_aborted, 0);
    }

    #[test]
    fn sat_conflict_limit_exhaustion_stays_aborted() {
        // The redundancy proof needs at least one decision-level conflict, so
        // a zero conflict budget must leave the fault aborted (attributed to
        // the SAT attempt), never upgrade it — and lifting the budget turns
        // the same fault into a SAT proof.
        let mut b = NetlistBuilder::new("limited");
        let a = b.input("a");
        let c = b.input("b");
        let t = b.and2(a, c);
        let y = b.or2(a, t);
        b.output("y", y);
        let n = b.finish();
        let and = n.driver_of(t).unwrap();
        let faults = vec![StuckAt::output(and, false)];
        let constraints = ConstraintSet::full_scan();
        let starved = tagged(
            &n,
            &constraints,
            &faults,
            &ProofConfig {
                backtrack_limit: 0,
                threads: 1,
                use_sat: true,
                sat_conflict_limit: 0,
                ..ProofConfig::default()
            },
        );
        assert_eq!(
            starved[0],
            EngineOutcome::aborted(ProofEngine::Sat, AbortReason::Conflicts)
        );
        let funded = tagged(
            &n,
            &constraints,
            &faults,
            &ProofConfig {
                backtrack_limit: 0,
                threads: 1,
                use_sat: true,
                ..ProofConfig::default()
            },
        );
        assert_eq!(
            funded[0],
            EngineOutcome::concluded(ProofOutcome::ProvenUntestable, ProofEngine::Sat)
        );
        // When PODEM concludes on its own, SAT is never consulted.
        let podem_first = tagged(
            &n,
            &constraints,
            &faults,
            &ProofConfig {
                backtrack_limit: 10_000,
                threads: 1,
                use_sat: true,
                ..ProofConfig::default()
            },
        );
        assert_eq!(
            podem_first[0],
            EngineOutcome::concluded(ProofOutcome::ProvenUntestable, ProofEngine::Podem)
        );
    }

    #[test]
    fn portfolio_outcomes_are_thread_invariant() {
        let n = redundant_design();
        let faults = FaultList::full_universe(&n).faults().to_vec();
        let constraints = ConstraintSet::full_scan();
        let config = |threads| ProofConfig {
            backtrack_limit: 0,
            threads,
            use_sat: true,
            ..ProofConfig::default()
        };
        let single = tagged(&n, &constraints, &faults, &config(1));
        let parallel = tagged(&n, &constraints, &faults, &config(4));
        assert_eq!(single, parallel);
    }

    #[test]
    fn zero_budget_aborts_are_never_upgraded() {
        let n = redundant_design();
        let faults = FaultList::full_universe(&n).faults().to_vec();
        let outcomes = verdicts(
            &n,
            &ConstraintSet::full_scan(),
            &faults,
            &ProofConfig {
                backtrack_limit: 0,
                threads: 2,
                ..ProofConfig::default()
            },
        );
        let aborted = outcomes
            .iter()
            .filter(|&&o| o == ProofOutcome::Aborted)
            .count();
        // The three redundant AND-output s-a-0 faults need backtracking to be
        // proven; with no budget they must come back aborted, never proven.
        assert!(aborted >= 3, "{outcomes:?}");
        let generous = verdicts(
            &n,
            &ConstraintSet::full_scan(),
            &faults,
            &ProofConfig {
                backtrack_limit: 10_000,
                threads: 1,
                ..ProofConfig::default()
            },
        );
        for (i, (&tight, &loose)) in outcomes.iter().zip(&generous).enumerate() {
            // A truncated search may abort, but whenever it does conclude it
            // must agree with the exhaustive search.
            if tight != ProofOutcome::Aborted {
                assert_eq!(tight, loose, "fault {:?}", faults[i]);
            }
            // And a proof that the exhaustive search could not produce must
            // never appear under a tighter budget.
            if loose != ProofOutcome::ProvenUntestable {
                assert_ne!(
                    tight,
                    ProofOutcome::ProvenUntestable,
                    "fault {:?}",
                    faults[i]
                );
            }
        }
    }
}
