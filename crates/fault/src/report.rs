//! Coverage accounting and report formatting.

use crate::{FaultClass, UntestableSource};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-class fault counts, plus the per-source breakdown of the on-line
/// functionally untestable class.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassCounts {
    /// Faults not yet classified.
    pub undetected: usize,
    /// Faults detected by a test.
    pub detected: usize,
    /// Faults possibly detected (X at an observation point).
    pub possibly_detected: usize,
    /// Structurally untestable: redundant.
    pub redundant: usize,
    /// Structurally untestable: tied.
    pub tied: usize,
    /// Structurally untestable: blocked.
    pub blocked: usize,
    /// Structurally untestable: unused.
    pub unused: usize,
    /// On-line functionally untestable, per source (indexed in
    /// [`UntestableSource::ALL`] order).
    pub online_untestable: [usize; 5],
}

impl ClassCounts {
    /// Adds `n` faults of the given class.
    pub fn add(&mut self, class: FaultClass, n: usize) {
        match class {
            FaultClass::Undetected => self.undetected += n,
            FaultClass::Detected => self.detected += n,
            FaultClass::PossiblyDetected => self.possibly_detected += n,
            FaultClass::Redundant => self.redundant += n,
            FaultClass::Tied => self.tied += n,
            FaultClass::Blocked => self.blocked += n,
            FaultClass::Unused => self.unused += n,
            FaultClass::OnlineUntestable(source) => {
                let idx = UntestableSource::ALL
                    .iter()
                    .position(|&s| s == source)
                    .expect("source in ALL");
                self.online_untestable[idx] += n;
            }
        }
    }

    /// Count for a single on-line untestable source.
    pub fn online(&self, source: UntestableSource) -> usize {
        let idx = UntestableSource::ALL
            .iter()
            .position(|&s| s == source)
            .expect("source in ALL");
        self.online_untestable[idx]
    }

    /// Total number of faults.
    pub fn total(&self) -> usize {
        self.undetected
            + self.detected
            + self.possibly_detected
            + self.redundant
            + self.tied
            + self.blocked
            + self.unused
            + self.online_untestable.iter().sum::<usize>()
    }

    /// Total faults in any structural untestable class.
    pub fn structurally_untestable(&self) -> usize {
        self.redundant + self.tied + self.blocked + self.unused
    }

    /// Total faults classified as on-line functionally untestable.
    pub fn online_untestable_total(&self) -> usize {
        self.online_untestable.iter().sum()
    }

    /// Total untestable faults of any kind.
    pub fn untestable_total(&self) -> usize {
        self.structurally_untestable() + self.online_untestable_total()
    }

    /// Raw fault coverage: detected / total.
    pub fn raw_coverage(&self) -> f64 {
        ratio(self.detected, self.total())
    }

    /// Testable fault coverage: detected / (total − untestable). This is the
    /// figure the paper raises by ≈13 % by pruning on-line untestable faults.
    pub fn testable_coverage(&self) -> f64 {
        ratio(self.detected, self.total() - self.untestable_total())
    }

    /// Fraction of the universe that is untestable of any kind: structurally
    /// untestable plus on-line untestable faults, over all faults. The
    /// paper's Table I figure (13.8 %) counts on-line untestable faults only;
    /// that is `online_untestable::IdentificationReport::untestable_fraction`,
    /// the fraction every tool prints.
    pub fn untestable_fraction(&self) -> f64 {
        ratio(self.untestable_total(), self.total())
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl fmt::Display for ClassCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "total faults          : {}", self.total())?;
        writeln!(f, "  detected (DT)       : {}", self.detected)?;
        writeln!(f, "  possibly det. (PT)  : {}", self.possibly_detected)?;
        writeln!(f, "  undetected (ND)     : {}", self.undetected)?;
        writeln!(f, "  redundant (UR)      : {}", self.redundant)?;
        writeln!(f, "  tied (UT)           : {}", self.tied)?;
        writeln!(f, "  blocked (UB)        : {}", self.blocked)?;
        writeln!(f, "  unused (UU)         : {}", self.unused)?;
        for (i, source) in UntestableSource::ALL.iter().enumerate() {
            writeln!(
                f,
                "  on-line unt. [{:<17}]: {}",
                source.name(),
                self.online_untestable[i]
            )?;
        }
        writeln!(
            f,
            "untestable fraction   : {:.1}%",
            self.untestable_fraction() * 100.0
        )?;
        write!(
            f,
            "testable coverage     : {:.1}%",
            self.testable_coverage() * 100.0
        )
    }
}

/// One row of a Table-I-style summary.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SummaryRow {
    /// Row label (e.g. "Scan", "Debug", "Memory", "TOTAL").
    pub label: String,
    /// Number of on-line functionally untestable faults attributed to the row.
    pub count: usize,
    /// Percentage of the full fault universe.
    pub percent: f64,
}

/// A Table-I-style summary: per-source counts of on-line functionally
/// untestable faults and their percentage of the fault universe.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct UntestableSummary {
    /// Total number of faults in the universe.
    pub total_faults: usize,
    /// The rows, ending with the TOTAL row.
    pub rows: Vec<SummaryRow>,
}

impl UntestableSummary {
    /// Builds the summary from class counts, using the paper's row grouping
    /// (the two debug sub-sources are reported as a single "Debug" row, like
    /// Table I's "4,548+2,357") plus a "Proof" row for the faults proven
    /// untestable by the constraint-aware ATPG stage — this reproduction's
    /// extension over the paper's three sources.
    pub fn from_counts(counts: &ClassCounts) -> Self {
        let total = counts.total();
        let scan = counts.online(UntestableSource::Scan);
        let debug = counts.online(UntestableSource::DebugControl)
            + counts.online(UntestableSource::DebugObservation);
        let memory = counts.online(UntestableSource::MemoryMap);
        let proof = counts.online(UntestableSource::AtpgProof);
        let sum = scan + debug + memory + proof;
        let pct = |n: usize| ratio(n, total) * 100.0;
        UntestableSummary {
            total_faults: total,
            rows: vec![
                SummaryRow {
                    label: "Scan".to_string(),
                    count: scan,
                    percent: pct(scan),
                },
                SummaryRow {
                    label: "Debug".to_string(),
                    count: debug,
                    percent: pct(debug),
                },
                SummaryRow {
                    label: "Memory".to_string(),
                    count: memory,
                    percent: pct(memory),
                },
                SummaryRow {
                    label: "Proof".to_string(),
                    count: proof,
                    percent: pct(proof),
                },
                SummaryRow {
                    label: "TOTAL".to_string(),
                    count: sum,
                    percent: pct(sum),
                },
            ],
        }
    }

    /// The TOTAL row.
    pub fn total_row(&self) -> &SummaryRow {
        self.rows.last().expect("summary always has a TOTAL row")
    }
}

impl fmt::Display for UntestableSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "On-line functionally untestable faults")?;
        writeln!(f, "{:<10} {:>10} {:>8}", "", "[#]", "[%]")?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<10} {:>10} {:>7.1}%",
                row.label, row.count, row.percent
            )?;
        }
        write!(f, "(fault universe: {} stuck-at faults)", self.total_faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counts() -> ClassCounts {
        let mut c = ClassCounts::default();
        c.add(FaultClass::Detected, 700);
        c.add(FaultClass::Undetected, 100);
        c.add(FaultClass::Tied, 20);
        c.add(FaultClass::Redundant, 10);
        c.add(FaultClass::OnlineUntestable(UntestableSource::Scan), 90);
        c.add(
            FaultClass::OnlineUntestable(UntestableSource::DebugControl),
            30,
        );
        c.add(
            FaultClass::OnlineUntestable(UntestableSource::DebugObservation),
            20,
        );
        c.add(
            FaultClass::OnlineUntestable(UntestableSource::MemoryMap),
            30,
        );
        c
    }

    #[test]
    fn totals_add_up() {
        let c = sample_counts();
        assert_eq!(c.total(), 1000);
        assert_eq!(c.structurally_untestable(), 30);
        assert_eq!(c.online_untestable_total(), 170);
        assert_eq!(c.untestable_total(), 200);
    }

    #[test]
    fn coverage_formulas() {
        let c = sample_counts();
        assert!((c.raw_coverage() - 0.7).abs() < 1e-12);
        assert!((c.testable_coverage() - 700.0 / 800.0).abs() < 1e-12);
        assert!((c.untestable_fraction() - 0.2).abs() < 1e-12);
        // Pruning untestable faults can only raise the coverage figure.
        assert!(c.testable_coverage() >= c.raw_coverage());
    }

    #[test]
    fn empty_counts_have_zero_coverage() {
        let c = ClassCounts::default();
        assert_eq!(c.total(), 0);
        assert_eq!(c.raw_coverage(), 0.0);
        assert_eq!(c.testable_coverage(), 0.0);
    }

    #[test]
    fn summary_groups_debug_rows() {
        let mut c = sample_counts();
        c.add(
            FaultClass::OnlineUntestable(UntestableSource::AtpgProof),
            10,
        );
        let summary = UntestableSummary::from_counts(&c);
        assert_eq!(summary.rows.len(), 5);
        assert_eq!(summary.rows[0].count, 90);
        assert_eq!(summary.rows[1].count, 50);
        assert_eq!(summary.rows[2].count, 30);
        assert_eq!(summary.rows[3].count, 10);
        assert_eq!(summary.total_row().count, 180);
        assert!((summary.total_row().percent - 180.0 / 1010.0 * 100.0).abs() < 1e-9);
        let text = summary.to_string();
        assert!(text.contains("Scan"));
        assert!(text.contains("Proof"));
        assert!(text.contains("TOTAL"));
    }

    #[test]
    fn display_contains_all_classes() {
        let c = sample_counts();
        let text = c.to_string();
        for label in ["DT", "UT", "UR", "scan", "memory-map", "testable coverage"] {
            assert!(text.contains(label), "missing {label} in\n{text}");
        }
    }

    #[test]
    fn online_accessor_matches_array() {
        let c = sample_counts();
        assert_eq!(c.online(UntestableSource::Scan), 90);
        assert_eq!(c.online(UntestableSource::MemoryMap), 30);
    }
}
