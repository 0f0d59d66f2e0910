//! The identification report: the Table-I-style summary plus per-phase
//! details and timings.

use atpg::json::JsonValue;
use atpg::proof::EngineBreakdown;
use faultmodel::{ClassCounts, UntestableSource, UntestableSummary};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// Result of one stage of the identification pipeline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseResult {
    /// Stage name ("baseline", "scan", …, "sbst-sim", "atpg-proof").
    pub name: String,
    /// Faults newly classified by the stage (its fault-count delta).
    pub newly_classified: usize,
    /// Faults still unclassified when the stage finished — the population the
    /// next stage starts from.
    pub undetected_after: usize,
    /// Wall-clock time spent in the stage.
    pub duration: Duration,
}

/// The complete result of the on-line untestable fault identification flow.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IdentificationReport {
    /// Name of the analysed design.
    pub design: String,
    /// Total number of stuck-at faults in the universe.
    pub total_faults: usize,
    /// Faults that are structurally untestable even before considering the
    /// mission environment (not counted as on-line untestable).
    pub baseline_structural: usize,
    /// Per-phase results, in execution order.
    pub phases: Vec<PhaseResult>,
    /// Final per-class fault counts.
    pub counts: ClassCounts,
    /// Per-engine outcome counts of the proof stage, when it ran.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub engine_breakdown: Option<EngineBreakdown>,
}

impl IdentificationReport {
    /// Number of faults attributed to one on-line untestability source.
    pub fn count_for(&self, source: UntestableSource) -> usize {
        self.counts.online(source)
    }

    /// Total on-line functionally untestable faults.
    pub fn total_untestable(&self) -> usize {
        self.counts.online_untestable_total()
    }

    /// The on-line untestable fraction of the fault universe (the paper's
    /// "coverage loss", 13.8 % in Table I).
    pub fn untestable_fraction(&self) -> f64 {
        if self.total_faults == 0 {
            0.0
        } else {
            self.total_untestable() as f64 / self.total_faults as f64
        }
    }

    /// The Table-I style summary (Scan / Debug / Memory / TOTAL rows).
    pub fn summary(&self) -> UntestableSummary {
        UntestableSummary::from_counts(&self.counts)
    }

    /// Total wall-clock time of the flow.
    pub fn total_duration(&self) -> Duration {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// The result of the stage with the given name, if it ran.
    pub fn phase(&self, name: &str) -> Option<&PhaseResult> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// The whole report as a JSON object: classification counts, per-phase
    /// deltas and timings, and (when the proof stage ran) the engine
    /// breakdown. This is the one response schema shared by
    /// `untestable --json` and the identification service; phase durations
    /// are the only run-dependent fields, so verdict comparisons drop the
    /// `phases` array.
    pub fn to_json(&self) -> JsonValue {
        let phases = self
            .phases
            .iter()
            .map(|phase| {
                JsonValue::Object(vec![
                    ("name".to_string(), JsonValue::string(&phase.name)),
                    (
                        "newly_classified".to_string(),
                        phase.newly_classified.into(),
                    ),
                    (
                        "undetected_after".to_string(),
                        phase.undetected_after.into(),
                    ),
                    (
                        "duration_ms".to_string(),
                        (phase.duration.as_secs_f64() * 1e3).into(),
                    ),
                ])
            })
            .collect();
        let online = UntestableSource::ALL
            .iter()
            .map(|&source| (source.name().to_string(), self.counts.online(source).into()))
            .collect();
        let counts = JsonValue::Object(vec![
            ("undetected".to_string(), self.counts.undetected.into()),
            ("detected".to_string(), self.counts.detected.into()),
            (
                "possibly_detected".to_string(),
                self.counts.possibly_detected.into(),
            ),
            ("redundant".to_string(), self.counts.redundant.into()),
            ("tied".to_string(), self.counts.tied.into()),
            ("blocked".to_string(), self.counts.blocked.into()),
            ("unused".to_string(), self.counts.unused.into()),
            ("online_untestable".to_string(), JsonValue::Object(online)),
        ]);
        let mut fields = vec![
            ("design".to_string(), JsonValue::string(&self.design)),
            ("total_faults".to_string(), self.total_faults.into()),
            (
                "baseline_structural".to_string(),
                self.baseline_structural.into(),
            ),
            ("counts".to_string(), counts),
            (
                "online_untestable_total".to_string(),
                self.total_untestable().into(),
            ),
            (
                "untestable_fraction".to_string(),
                self.untestable_fraction().into(),
            ),
            ("phases".to_string(), JsonValue::Array(phases)),
        ];
        if let Some(breakdown) = &self.engine_breakdown {
            fields.push(("engine_breakdown".to_string(), breakdown.to_json()));
        }
        JsonValue::Object(fields)
    }

    /// The coverage figure a test achieving `detected` detections would
    /// report before pruning (detected / total).
    pub fn coverage_before_pruning(&self, detected: usize) -> f64 {
        if self.total_faults == 0 {
            0.0
        } else {
            detected as f64 / self.total_faults as f64
        }
    }

    /// The coverage figure after removing every untestable fault (structural
    /// and on-line) from the denominator — the "raised by about 13 %" effect
    /// reported in §4.
    pub fn coverage_after_pruning(&self, detected: usize) -> f64 {
        let denominator = self
            .total_faults
            .saturating_sub(self.baseline_structural)
            .saturating_sub(self.total_untestable());
        if denominator == 0 {
            0.0
        } else {
            detected as f64 / denominator as f64
        }
    }
}

impl fmt::Display for IdentificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "design: {}", self.design)?;
        writeln!(f, "fault universe: {} stuck-at faults", self.total_faults)?;
        writeln!(
            f,
            "baseline structurally untestable: {}",
            self.baseline_structural
        )?;
        writeln!(f, "{}", self.summary())?;
        writeln!(f, "phases:")?;
        for phase in &self.phases {
            writeln!(
                f,
                "  {:<18} {:>8} faults  {:>8} left  {:>10.3} ms",
                phase.name,
                phase.newly_classified,
                phase.undetected_after,
                phase.duration.as_secs_f64() * 1e3
            )?;
        }
        if let Some(breakdown) = &self.engine_breakdown {
            writeln!(f, "proof engines: {breakdown}")?;
        }
        write!(
            f,
            "total analysis time: {:.3} ms",
            self.total_duration().as_secs_f64() * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultmodel::FaultClass;

    fn sample_report() -> IdentificationReport {
        let mut counts = ClassCounts::default();
        counts.add(FaultClass::Undetected, 800);
        counts.add(FaultClass::Tied, 50);
        counts.add(FaultClass::OnlineUntestable(UntestableSource::Scan), 90);
        counts.add(
            FaultClass::OnlineUntestable(UntestableSource::DebugControl),
            30,
        );
        counts.add(
            FaultClass::OnlineUntestable(UntestableSource::DebugObservation),
            10,
        );
        counts.add(
            FaultClass::OnlineUntestable(UntestableSource::MemoryMap),
            20,
        );
        IdentificationReport {
            design: "demo".to_string(),
            total_faults: 1000,
            baseline_structural: 50,
            phases: vec![
                PhaseResult {
                    name: "baseline".to_string(),
                    newly_classified: 50,
                    undetected_after: 950,
                    duration: Duration::from_millis(2),
                },
                PhaseResult {
                    name: "scan".to_string(),
                    newly_classified: 90,
                    undetected_after: 860,
                    duration: Duration::from_millis(1),
                },
            ],
            counts,
            engine_breakdown: None,
        }
    }

    #[test]
    fn totals_and_fractions() {
        let r = sample_report();
        assert_eq!(r.total_untestable(), 150);
        assert_eq!(r.count_for(UntestableSource::Scan), 90);
        assert!((r.untestable_fraction() - 0.15).abs() < 1e-12);
        assert_eq!(r.summary().total_row().count, 150);
        assert_eq!(r.total_duration(), Duration::from_millis(3));
    }

    #[test]
    fn phase_lookup_and_per_stage_deltas() {
        let r = sample_report();
        let scan = r.phase("scan").unwrap();
        assert_eq!(scan.newly_classified, 90);
        assert_eq!(scan.undetected_after, 860);
        assert!(r.phase("atpg-proof").is_none());
        let text = r.to_string();
        assert!(
            text.contains("left"),
            "per-stage remainder missing:\n{text}"
        );
    }

    #[test]
    fn pruning_raises_coverage() {
        let r = sample_report();
        let detected = 700;
        let before = r.coverage_before_pruning(detected);
        let after = r.coverage_after_pruning(detected);
        assert!(after > before);
        assert!((before - 0.7).abs() < 1e-12);
        assert!((after - 700.0 / 800.0).abs() < 1e-12);
    }

    #[test]
    fn display_contains_table_rows() {
        let text = sample_report().to_string();
        for needle in [
            "Scan",
            "Debug",
            "Memory",
            "TOTAL",
            "baseline",
            "fault universe",
        ] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
    }

    #[test]
    fn empty_report_has_zero_fraction() {
        let r = IdentificationReport {
            design: "x".to_string(),
            total_faults: 0,
            baseline_structural: 0,
            phases: Vec::new(),
            counts: ClassCounts::default(),
            engine_breakdown: None,
        };
        assert_eq!(r.untestable_fraction(), 0.0);
        assert_eq!(r.coverage_after_pruning(0), 0.0);
    }

    #[test]
    fn engine_breakdown_row_formats_both_engines() {
        let breakdown = EngineBreakdown {
            podem_test_exists: 850,
            podem_proven: 120,
            podem_aborted: 3,
            sat_test_exists: 7,
            sat_proven: 44,
            sat_aborted: 1,
            ..EngineBreakdown::default()
        };
        assert_eq!(breakdown.proven_total(), 164);
        assert_eq!(breakdown.aborted_total(), 4);
        assert_eq!(breakdown.test_exists_total(), 857);
        assert!(!breakdown.deadline_hit());
        // Without abort attribution the row keeps its historical shape.
        assert_eq!(
            breakdown.to_string(),
            "PODEM 120 proven / 850 testable / 3 aborted; \
             SAT 44 proven / 7 testable / 1 aborted"
        );
        // The report surfaces the row only when the proof stage ran.
        let without = sample_report();
        assert!(!without.to_string().contains("proof engines"));
        let mut with = sample_report();
        with.engine_breakdown = Some(breakdown);
        let text = with.to_string();
        assert!(
            text.contains("proof engines: PODEM 120 proven"),
            "breakdown row missing:\n{text}"
        );
    }

    #[test]
    fn report_json_schema_round_trips() {
        let mut report = sample_report();
        report.engine_breakdown = Some(EngineBreakdown {
            podem_proven: 3,
            sat_proven: 2,
            aborted_timeout: 1,
            ..EngineBreakdown::default()
        });
        let text = report.to_json().to_string();
        let doc = JsonValue::parse(&text).unwrap();
        assert_eq!(doc.get("design").and_then(JsonValue::as_str), Some("demo"));
        assert_eq!(
            doc.get("total_faults").and_then(JsonValue::as_u64),
            Some(1000)
        );
        assert_eq!(
            doc.get("online_untestable_total")
                .and_then(JsonValue::as_u64),
            Some(150)
        );
        let counts = doc.get("counts").unwrap();
        assert_eq!(
            counts
                .get("online_untestable")
                .and_then(|o| o.get("scan"))
                .and_then(JsonValue::as_u64),
            Some(90)
        );
        let breakdown = doc.get("engine_breakdown").unwrap();
        assert_eq!(
            breakdown.get("podem_proven").and_then(JsonValue::as_u64),
            Some(3)
        );
        assert_eq!(
            breakdown
                .get("aborts")
                .and_then(|a| a.get("timeout"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(
            breakdown.get("deadline_hit").and_then(JsonValue::as_bool),
            Some(true)
        );
        assert_eq!(
            doc.get("phases")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn engine_breakdown_row_attributes_abort_reasons() {
        let breakdown = EngineBreakdown {
            podem_aborted: 3,
            sat_aborted: 1,
            aborted_backtracks: 1,
            aborted_conflicts: 1,
            aborted_timeout: 1,
            aborted_panicked: 1,
            ..EngineBreakdown::default()
        };
        assert!(breakdown.deadline_hit());
        assert_eq!(
            breakdown.to_string(),
            "PODEM 0 proven / 0 testable / 3 aborted; \
             SAT 0 proven / 0 testable / 1 aborted; \
             aborts: 1 backtracks / 1 conflicts / 1 timeout / 1 panicked / 0 unsupported"
        );
    }
}
