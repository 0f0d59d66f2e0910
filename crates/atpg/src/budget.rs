//! Cooperative campaign budgets: wall-clock deadlines and cancellation for
//! the proof fan-out.
//!
//! A long identification campaign must be *boundable* and *interruptible*:
//! one runaway SAT cone or one hung search must turn into an
//! [`Aborted`](crate::podem::ProofOutcome::Aborted) verdict instead of
//! wedging the whole run. The engines never kill threads — they poll. A
//! [`Budget`] carries an optional shared [`CancelToken`], an optional
//! whole-stage deadline and an optional per-fault wall-clock limit; the
//! PODEM backtrack loop and the CDCL restart loop check it at their natural
//! backoff points, so cancellation latency is bounded by one search step,
//! never by one fault. (The fault-simulation fan-out polls no budget.) A
//! limit so far away that its deadline would lie past the last
//! representable instant sets no deadline.
//!
//! Every abort records *why* it happened ([`AbortReason`]), which the
//! breakdown reporting and the checkpoint format both preserve: a
//! deterministic budget give-up (backtracks, conflicts) is a reproducible
//! fact about the fault and may be persisted, while a timeout or a panic is
//! an accident of the run and must be retried on resume.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a proof attempt concluded `Aborted` instead of producing a verdict.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// The PODEM search exhausted its backtrack budget (deterministic).
    Backtracks,
    /// The SAT escalation exhausted its conflict budget (deterministic).
    Conflicts,
    /// A wall-clock limit expired or the campaign was cancelled — an
    /// accident of the run, retried on resume.
    Timeout,
    /// The engine panicked on this fault; the worker caught the panic and
    /// the campaign continued.
    Panicked,
    /// The SAT encoding declined the fault (outside its exactness
    /// preconditions, or the CNF exceeded the clause guard).
    Unsupported,
}

impl AbortReason {
    /// Stable lower-case name, used by the checkpoint format and reports.
    pub fn name(self) -> &'static str {
        match self {
            AbortReason::Backtracks => "backtracks",
            AbortReason::Conflicts => "conflicts",
            AbortReason::Timeout => "timeout",
            AbortReason::Panicked => "panicked",
            AbortReason::Unsupported => "unsupported",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<AbortReason> {
        Some(match name {
            "backtracks" => AbortReason::Backtracks,
            "conflicts" => AbortReason::Conflicts,
            "timeout" => AbortReason::Timeout,
            "panicked" => AbortReason::Panicked,
            "unsupported" => AbortReason::Unsupported,
            _ => return None,
        })
    }

    /// Whether the abort is a deterministic, reproducible fact about the
    /// fault under the configured budgets (and may therefore be persisted in
    /// a checkpoint) rather than an accident of this particular run.
    pub fn is_deterministic(self) -> bool {
        matches!(
            self,
            AbortReason::Backtracks | AbortReason::Conflicts | AbortReason::Unsupported
        )
    }
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A shared stop flag: cloning the token shares the flag, so one `cancel()`
/// stops every engine polling any clone.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    stop: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cooperative cancellation; every engine polling this token
    /// (or a clone of it) aborts at its next poll point.
    pub fn cancel(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// The raw shared flag — the form the dependency-free SAT core accepts
    /// as its interrupt hook.
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }
}

/// Wall-clock and cancellation limits for one proof campaign. The default
/// is unlimited: no token, no deadline, no per-fault limit — exactly the
/// pre-robustness behaviour.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Cooperative stop flag shared with the caller (and, on request, with
    /// every engine poll point).
    pub cancel: Option<CancelToken>,
    /// Whole-stage deadline: faults not concluded by this instant come back
    /// [`AbortReason::Timeout`].
    pub deadline: Option<Instant>,
    /// Per-fault wall-clock limit, additionally capped by the stage
    /// deadline.
    pub fault_timeout: Option<Duration>,
}

impl Budget {
    /// No limits at all (the default).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Attaches a cancel token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets the whole-stage deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the whole-stage deadline `timeout` from now. A deadline past the
    /// last representable instant sets none.
    pub fn with_stage_timeout(self, timeout: Duration) -> Self {
        match Instant::now().checked_add(timeout) {
            Some(deadline) => self.with_deadline(deadline),
            None => self,
        }
    }

    /// Sets the per-fault wall-clock limit.
    pub fn with_fault_timeout(mut self, timeout: Duration) -> Self {
        self.fault_timeout = Some(timeout);
        self
    }

    /// Whether this budget can never stop anything.
    pub fn is_unlimited(&self) -> bool {
        self.cancel.is_none() && self.deadline.is_none() && self.fault_timeout.is_none()
    }

    /// Whether the whole stage should stop now (cancelled or past the
    /// deadline).
    pub fn stage_stopped(&self) -> bool {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return true;
        }
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The wall-clock deadline for one fault whose proof starts at
    /// `started`: the per-fault limit capped by the stage deadline (`None`
    /// when neither is set, or when both lie past the last representable
    /// instant).
    pub fn fault_deadline(&self, started: Instant) -> Option<Instant> {
        let per_fault = self.fault_timeout.and_then(|t| started.checked_add(t));
        match (per_fault, self.deadline) {
            (Some(f), Some(s)) => Some(f.min(s)),
            (f, s) => f.or(s),
        }
    }
}

/// Deterministic failure injection for the proof fan-out — the test harness
/// behind the robustness regression suite. Indices refer to positions in the
/// fault slice handed to the campaign. Production callers leave this unset;
/// it exists so the isolation, deadline and checkpoint machinery can be
/// exercised without waiting for a real engine bug.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FailurePlan {
    /// Panic inside the worker when proving this fault (exercises
    /// `catch_unwind` isolation → [`AbortReason::Panicked`]).
    pub panic_on: Option<usize>,
    /// Busy-stall on this fault until a budget limit trips (exercises
    /// deadline enforcement → [`AbortReason::Timeout`]).
    pub stall_on: Option<usize>,
    /// Corrupt the SAT model extracted for this fault before the simulation
    /// replay (exercises graceful degradation: the replay check must reject
    /// the bogus test, never trust it).
    pub bogus_sat_model_on: Option<usize>,
}

impl FailurePlan {
    /// Whether the plan injects nothing (the default).
    pub fn is_empty(&self) -> bool {
        *self == FailurePlan::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        assert!(token.flag().load(Ordering::Relaxed));
    }

    #[test]
    fn unlimited_budget_never_stops() {
        let budget = Budget::unlimited();
        assert!(budget.is_unlimited());
        assert!(!budget.stage_stopped());
        assert_eq!(budget.fault_deadline(Instant::now()), None);
    }

    #[test]
    fn stage_deadline_and_cancel_both_stop_the_stage() {
        let expired = Budget::unlimited().with_deadline(Instant::now() - Duration::from_secs(1));
        assert!(expired.stage_stopped());
        let token = CancelToken::new();
        let cancelled = Budget::unlimited().with_cancel(token.clone());
        assert!(!cancelled.stage_stopped());
        token.cancel();
        assert!(cancelled.stage_stopped());
    }

    #[test]
    fn fault_deadline_is_capped_by_the_stage_deadline() {
        let started = Instant::now();
        let stage = started + Duration::from_millis(10);
        let budget = Budget::unlimited()
            .with_deadline(stage)
            .with_fault_timeout(Duration::from_secs(60));
        assert_eq!(budget.fault_deadline(started), Some(stage));
        let loose = Budget::unlimited().with_fault_timeout(Duration::from_millis(5));
        assert_eq!(
            loose.fault_deadline(started),
            Some(started + Duration::from_millis(5))
        );
    }

    #[test]
    fn timeouts_past_the_last_instant_set_no_deadline() {
        let budget = Budget::unlimited()
            .with_stage_timeout(Duration::MAX)
            .with_fault_timeout(Duration::MAX);
        assert_eq!(budget.deadline, None);
        assert_eq!(budget.fault_deadline(Instant::now()), None);
        assert!(!budget.stage_stopped());
    }

    #[test]
    fn abort_reason_names_round_trip() {
        for reason in [
            AbortReason::Backtracks,
            AbortReason::Conflicts,
            AbortReason::Timeout,
            AbortReason::Panicked,
            AbortReason::Unsupported,
        ] {
            assert_eq!(AbortReason::from_name(reason.name()), Some(reason));
        }
        assert_eq!(AbortReason::from_name("nonsense"), None);
        assert!(AbortReason::Backtracks.is_deterministic());
        assert!(!AbortReason::Timeout.is_deterministic());
        assert!(!AbortReason::Panicked.is_deterministic());
    }
}
