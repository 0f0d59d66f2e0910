//! The job model: what a client submits, how it progresses, and how both
//! are (de)serialized with the shared tiny JSON layer.

use atpg::FailurePlan;
use netlist::frontend::Format;
use online_untestable::{ConstraintSpec, JsonValue, NetlistDesign, ProofStageConfig};
use std::time::Duration;

/// Proof-stage knobs a submission may set; everything is optional and
/// defaults match the `untestable` CLI.
#[derive(Clone, Debug, PartialEq)]
pub struct JobProofConfig {
    /// PODEM backtrack budget per fault.
    pub backtrack: usize,
    /// Escalate PODEM aborts to the SAT backend.
    pub sat: bool,
    /// Conflict budget per SAT escalation.
    pub sat_conflicts: u64,
    /// Cap the proof worklist at this many survivors.
    pub max_proof: Option<usize>,
    /// Sample the capped worklist with this seed instead of a prefix.
    pub seed: Option<u64>,
    /// Proof-stage worker threads *inside* this job (the service's worker
    /// pool provides cross-job parallelism, so the default is 1).
    pub threads: usize,
    /// Whole-job wall-clock deadline, measured from acceptance; expiry is a
    /// terminal failure, shared with client cancellation via the job's
    /// cancel token.
    pub deadline: Option<Duration>,
    /// Per-fault wall-clock limit inside the proof stage.
    pub fault_timeout: Option<Duration>,
}

impl Default for JobProofConfig {
    fn default() -> Self {
        let proof = ProofStageConfig::default();
        JobProofConfig {
            backtrack: proof.backtrack_limit,
            sat: proof.use_sat,
            sat_conflicts: proof.sat_conflict_limit,
            max_proof: None,
            seed: None,
            threads: 1,
            deadline: None,
            fault_timeout: None,
        }
    }
}

/// Failure injection a submission may request when the daemon runs with
/// `--enable-chaos`; refused otherwise. Attempts are 1-based.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosSpec {
    /// Panic the worker thread at the start of the first `n` attempts
    /// (exercises supervision: teardown, respawn, retry with backoff).
    pub panic_attempts: u32,
    /// Stall the worker at the start of the first `n` attempts.
    pub stall_attempts: u32,
    /// How long a stalled attempt busy-waits.
    pub stall: Duration,
    /// Whether the stall ignores the attempt's cancel token (exercises the
    /// watchdog's abandon-and-respawn path instead of cooperative cancel).
    pub ignore_cancel: bool,
    /// Engine-level failure injection forwarded to the proof campaign.
    pub engine: Option<FailurePlan>,
}

/// One accepted submission, parsed once: at `POST /jobs`, or when a restart
/// recovers an interrupted job. The circuit is parsed and its mission
/// constraints bound here, so the cache fingerprint and every attempt read
/// one design and an attempt cannot fail on malformed input.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// The parsed circuit with its mission constraints (`force` / `mask`
    /// lines) bound to it.
    pub design: NetlistDesign,
    /// Proof-stage configuration.
    pub config: JobProofConfig,
    /// Failure injection, only present under `--enable-chaos`.
    pub chaos: Option<ChaosSpec>,
}

/// Lifecycle of a job. `Done`, `Failed` and `Cancelled` are terminal: every
/// accepted job reaches one of them, even across process kills.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker (also the parked-for-retry state).
    Queued,
    /// An attempt is running on a worker.
    Running,
    /// Terminal: the campaign concluded; the report is attached.
    Done,
    /// Terminal: the retry budget is exhausted or the deadline expired.
    Failed,
    /// Terminal: the client cancelled the job.
    Cancelled,
}

impl JobState {
    /// Stable lower-case name used in responses and journals.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<JobState> {
        Some(match name {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }

    /// Whether the state is terminal.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

fn duration_field(doc: &JsonValue, key: &str) -> Result<Option<Duration>, String> {
    match doc.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(value) => {
            let ms = value
                .as_u64()
                .ok_or_else(|| format!("`{key}` must be a non-negative integer (milliseconds)"))?;
            Ok(Some(Duration::from_millis(ms)))
        }
    }
}

fn usize_field(doc: &JsonValue, key: &str, default: usize) -> Result<usize, String> {
    match doc.get(key) {
        None | Some(JsonValue::Null) => Ok(default),
        Some(value) => value
            .as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn opt_usize_field(doc: &JsonValue, key: &str) -> Result<Option<usize>, String> {
    match doc.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(value) => value
            .as_u64()
            .map(|n| Some(n as usize))
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn bool_field(doc: &JsonValue, key: &str, default: bool) -> Result<bool, String> {
    match doc.get(key) {
        None | Some(JsonValue::Null) => Ok(default),
        Some(value) => value
            .as_bool()
            .ok_or_else(|| format!("`{key}` must be a boolean")),
    }
}

impl JobRequest {
    /// Parses and validates a `POST /jobs` body into the design it
    /// submits. `allow_chaos` gates the `chaos` section: refused with an
    /// explanation unless the daemon opted in. Acceptance means an attempt
    /// can only fail for runtime reasons.
    pub fn from_json(body: &str, allow_chaos: bool) -> Result<JobRequest, String> {
        let doc = JsonValue::parse(body).map_err(|e| e.to_string())?;
        if doc.as_object().is_none() {
            return Err("request body must be a JSON object".to_string());
        }
        let circuit = doc
            .get("circuit")
            .and_then(JsonValue::as_str)
            .ok_or("`circuit` (netlist source text) is required")?;
        let format_name = doc
            .get("format")
            .and_then(JsonValue::as_str)
            .unwrap_or("bench");
        let format = Format::from_name(format_name)
            .ok_or_else(|| format!("unknown format `{format_name}`"))?;
        let netlist = netlist::frontend::parse_netlist(circuit, format)
            .map_err(|e| format!("circuit: {e}"))?;
        let spec = match doc.get("constraints") {
            None | Some(JsonValue::Null) => None,
            Some(value) => {
                let text = value
                    .as_str()
                    .ok_or("`constraints` must be the spec text as a string")?;
                Some(ConstraintSpec::parse(text).map_err(|e| format!("constraints: {e}"))?)
            }
        };

        let empty = JsonValue::Object(Vec::new());
        let config_doc = doc.get("config").unwrap_or(&empty);
        if config_doc.as_object().is_none() {
            return Err("`config` must be an object".to_string());
        }
        let defaults = JobProofConfig::default();
        let config = JobProofConfig {
            backtrack: usize_field(config_doc, "backtrack", defaults.backtrack)?,
            sat: bool_field(config_doc, "sat", defaults.sat)?,
            sat_conflicts: match config_doc.get("sat_conflicts") {
                None | Some(JsonValue::Null) => defaults.sat_conflicts,
                Some(value) => value
                    .as_u64()
                    .ok_or("`sat_conflicts` must be a non-negative integer")?,
            },
            max_proof: opt_usize_field(config_doc, "max_proof")?,
            seed: match config_doc.get("seed") {
                None | Some(JsonValue::Null) => None,
                Some(value) => Some(
                    value
                        .as_u64()
                        .ok_or("`seed` must be a non-negative integer")?,
                ),
            },
            threads: usize_field(config_doc, "threads", defaults.threads)?,
            deadline: duration_field(config_doc, "deadline_ms")?,
            fault_timeout: duration_field(config_doc, "fault_timeout_ms")?,
        };

        let chaos = match doc.get("chaos") {
            None | Some(JsonValue::Null) => None,
            Some(chaos_doc) => {
                if !allow_chaos {
                    return Err(
                        "failure injection refused: the daemon runs without --enable-chaos"
                            .to_string(),
                    );
                }
                if chaos_doc.as_object().is_none() {
                    return Err("`chaos` must be an object".to_string());
                }
                let engine = match chaos_doc.get("engine") {
                    None | Some(JsonValue::Null) => None,
                    Some(engine_doc) => Some(FailurePlan {
                        panic_on: opt_usize_field(engine_doc, "panic_on")?,
                        stall_on: opt_usize_field(engine_doc, "stall_on")?,
                        bogus_sat_model_on: opt_usize_field(engine_doc, "bogus_sat_model_on")?,
                    }),
                };
                Some(ChaosSpec {
                    panic_attempts: usize_field(chaos_doc, "panic_attempts", 0)? as u32,
                    stall_attempts: usize_field(chaos_doc, "stall_attempts", 0)? as u32,
                    stall: duration_field(chaos_doc, "stall_ms")?.unwrap_or(Duration::ZERO),
                    ignore_cancel: bool_field(chaos_doc, "ignore_cancel", false)?,
                    engine,
                })
            }
        };

        let design = match spec {
            Some(spec) => NetlistDesign::with_constraints(netlist, &spec)
                .map_err(|e| format!("constraints: {e}"))?,
            None => NetlistDesign::new(netlist),
        };
        Ok(JobRequest {
            design,
            config,
            chaos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use online_untestable::Design;

    const C17: &str = "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n22 = NAND(10, 16)\n23 = NAND(16, 19)\n";

    fn body(extra: &str) -> String {
        format!("{{\"circuit\": {}{extra}}}", JsonValue::string(C17))
    }

    #[test]
    fn minimal_submission_defaults() {
        let request = JobRequest::from_json(&body(""), false).unwrap();
        assert_eq!(request.design.netlist().primary_inputs().len(), 5);
        assert!(request.design.forced_nets().is_empty());
        assert!(request.design.masked_outputs().is_empty());
        assert_eq!(request.config, JobProofConfig::default());
        assert!(request.chaos.is_none());
    }

    #[test]
    fn constraints_bind_to_the_circuit() {
        let request =
            JobRequest::from_json(&body(", \"constraints\": \"force 3 1\\nmask 23\""), false)
                .unwrap();
        assert_eq!(request.design.forced_nets().len(), 1);
        assert_eq!(request.design.masked_outputs().len(), 1);
        let err = JobRequest::from_json(&body(", \"constraints\": \"force nosuch 1\""), false)
            .unwrap_err();
        assert!(err.starts_with("constraints:"), "{err}");
    }

    #[test]
    fn config_fields_parse() {
        let request = JobRequest::from_json(
            &body(
                ", \"config\": {\"backtrack\": 8, \"sat\": false, \"deadline_ms\": 1500, \
                 \"threads\": 2, \"max_proof\": 10, \"seed\": 7}",
            ),
            false,
        )
        .unwrap();
        assert_eq!(request.config.backtrack, 8);
        assert!(!request.config.sat);
        assert_eq!(request.config.deadline, Some(Duration::from_millis(1500)));
        assert_eq!(request.config.threads, 2);
        assert_eq!(request.config.max_proof, Some(10));
        assert_eq!(request.config.seed, Some(7));
    }

    #[test]
    fn invalid_submissions_are_rejected_with_reasons() {
        for (text, needle) in [
            ("{}".to_string(), "`circuit`"),
            ("[1]".to_string(), "object"),
            ("{\"circuit\": \"INPUT(a\"}".to_string(), "circuit:"),
            (body(", \"format\": \"vhdl\""), "unknown format"),
            (body(", \"constraints\": \"force bogus 2\""), "constraints:"),
            (body(", \"config\": {\"backtrack\": -3}"), "`backtrack`"),
            (body(", \"chaos\": {}"), "--enable-chaos"),
        ] {
            let err = JobRequest::from_json(&text, false).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn chaos_parses_when_enabled() {
        let request = JobRequest::from_json(
            &body(
                ", \"chaos\": {\"panic_attempts\": 1, \"stall_attempts\": 2, \"stall_ms\": 50, \
                 \"ignore_cancel\": true, \"engine\": {\"panic_on\": 0}}",
            ),
            true,
        )
        .unwrap();
        let chaos = request.chaos.unwrap();
        assert_eq!(chaos.panic_attempts, 1);
        assert_eq!(chaos.stall_attempts, 2);
        assert_eq!(chaos.stall, Duration::from_millis(50));
        assert!(chaos.ignore_cancel);
        assert_eq!(chaos.engine.unwrap().panic_on, Some(0));
    }

    #[test]
    fn state_names_round_trip() {
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::from_name(state.name()), Some(state));
        }
        assert!(!JobState::Queued.is_terminal());
        assert!(JobState::Done.is_terminal());
    }
}
