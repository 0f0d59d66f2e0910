//! `idbench`: the repeatable benchmark of the identification pipeline.
//!
//! One command runs one named workload with a seed and prints, as its last
//! line, a JSON object with the correctness verdict, the operations
//! attempted and failed, and every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`) by name and unit. See `README.md` for the
//! workloads, the metric definitions and the layer-to-metric map.

pub mod corpus;
pub mod flows;
pub mod replay;
pub mod service;
pub mod stats;
pub mod trace;

use online_untestable::JsonValue;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics (`--trace 0`): name and unit. Every workload reports
/// every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("identify_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cpu.build_s", "s"),
    ("netlist.parse_ms", "ms"),
    ("netlist.cells", "count"),
    ("rules.busy_s", "s"),
    ("rules.classified", "faults"),
    ("fault_sim.busy_s", "s"),
    ("fault_sim.faults", "faults"),
    ("fault_sim.detected", "faults"),
    ("proof.busy_s", "s"),
    ("proof.faults", "faults"),
    ("proof.engine_calls", "count"),
    ("proof.collapse_ratio", "ratio"),
    ("proof.idle_s", "s"),
    ("podem.calls", "count"),
    ("podem.busy_s", "s"),
    ("podem.backtracks", "count"),
    ("podem.aborted", "count"),
    ("podem.yield", "ratio"),
    ("sat.calls", "count"),
    ("sat.busy_s", "s"),
    ("sat.busy_s.test_exists", "s"),
    ("sat.busy_s.proven", "s"),
    ("sat.busy_s.aborted", "s"),
    ("sat.test_exists", "count"),
    ("sat.proven", "count"),
    ("sat.aborted", "count"),
    ("sat.yield", "ratio"),
    ("sat.call_p50_ms", "ms"),
    ("sat.call_p90_ms", "ms"),
    ("checkpoint.records", "count"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.record_us", "us"),
    ("checkpoint.resume_ms", "ms"),
    ("service.accept_ms", "ms"),
    ("service.queue_ms", "ms"),
    ("service.run_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.polls", "count"),
    ("service.refused", "count"),
    ("service.retries", "count"),
    ("service.jobs_per_s", "jobs/s"),
    ("cache.hits", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes", "B"),
    ("cache.hit_p50_ms", "ms"),
    ("unresolved", "faults"),
    ("failed_share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// A named workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `IdentificationFlow::run` on `SocBuilder::small()`.
    SocFlow,
    /// The `untestabled` daemon under a closed loop of two callers.
    ServiceMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::SocFlow, Workload::ServiceMix];

    /// The name the `--workload` flag takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SocFlow => "soc-flow",
            Workload::ServiceMix => "service-mix",
        }
    }
}

/// A deliberate defect the correctness gate must catch (self-test only).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Flip one PODEM `TestExists` verdict of the replay to a proof.
    FlipVerdict,
    /// Alter one count of one served report before it is compared.
    MismatchReport,
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Run length; sample sizes and job counts scale with it.
    pub seconds: u64,
    /// Run the traced variant and report per-layer metrics.
    pub trace: bool,
    /// Self-test defect to inject, if any.
    pub inject: Option<Inject>,
}

/// Usage text.
pub const USAGE: &str = "usage: idbench --workload <soc-flow|service-mix> \
--seed <n> --seconds <n> --trace <0|1> [--inject <flip-verdict|mismatch-report>]

Run from the repository root. The last line of standard output is the result
object: {\"correct\", \"attempted\", \"failed\", \"metrics\"}.";

impl Args {
    /// Parses the flags (program name already stripped).
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut inject) =
            (None, None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<u64>()
                            .ok()
                            .filter(|&s| s >= 1)
                            .ok_or("--seconds must be a whole number ≥ 1")?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    })
                }
                "--inject" => {
                    inject = Some(match value.as_str() {
                        "flip-verdict" => Inject::FlipVerdict,
                        "mismatch-report" => Inject::MismatchReport,
                        _ => return Err(format!("unknown --inject `{value}`")),
                    })
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            inject,
        })
    }
}

/// The correctness gate's ledger: operations attempted, the ones that
/// failed, were refused or came out wrong, and why.
#[derive(Clone, Debug, Default)]
pub struct Gate {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused or wrong.
    pub failed: u64,
    /// One line per failure kind.
    pub problems: Vec<String>,
}

impl Gate {
    /// Books `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Books `n` failed operations with the reason.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n;
        self.problems.push(why.into());
    }

    /// Failed operations over attempted ones.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one run measured.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The correctness gate's ledger.
    pub gate: Gate,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Whether this was the traced run (per-layer metrics).
    pub traced: bool,
    /// Layer-mix checks that failed (traced runs).
    pub mix_failures: Vec<String>,
}

impl Outcome {
    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.gate.failed == 0
    }

    /// A metric's value; 0 for a layer the workload does not exercise (and
    /// never the -0 an empty float sum yields).
    fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0) + 0.0
    }

    /// The metric list this run reports.
    fn schema(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Human-readable lines, one per metric.
    pub fn summary(&self) -> String {
        self.schema()
            .iter()
            .map(|&(name, unit)| {
                let value = self.value(name);
                format!("  {name:<24} {value:>14.6} {unit}\n")
            })
            .collect()
    }

    /// The result object printed as the last line of standard output.
    pub fn to_json(&self) -> String {
        debug_assert!(
            self.metrics
                .keys()
                .all(|k| self.schema().iter().any(|(n, _)| n == k)),
            "metric outside the schema: {:?}",
            self.metrics.keys().collect::<Vec<_>>()
        );
        let metrics = self
            .schema()
            .iter()
            .map(|&(name, unit)| {
                let value = self.value(name);
                (
                    name.to_string(),
                    JsonValue::Object(vec![
                        ("value".to_string(), value.into()),
                        ("unit".to_string(), JsonValue::string(unit)),
                    ]),
                )
            })
            .collect();
        JsonValue::Object(vec![
            ("correct".to_string(), self.correct().into()),
            ("attempted".to_string(), self.gate.attempted.into()),
            ("failed".to_string(), self.gate.failed.into()),
            ("metrics".to_string(), JsonValue::Object(metrics)),
        ])
        .to_string()
    }
}

/// Scratch directory for traces, daemon state and journal copies: next to
/// the benchmark's own build output (`<target>/idbench`), so it stays inside
/// the checkout.
pub fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let target = exe
        .parent()
        .and_then(|profile| profile.parent())
        .ok_or("the benchmark binary is not inside a cargo target directory")?;
    Ok(target.join("idbench"))
}
