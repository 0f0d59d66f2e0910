//! Fault classification: the classical structural classes plus the paper's
//! *on-line functionally untestable* class, broken down by source.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The source of on-line functional untestability, as defined in §3 of the
/// paper.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub enum UntestableSource {
    /// Scan chain circuitry (§3.1): SI/SE pins, scan-path buffers.
    Scan,
    /// Debug control logic tied off in mission mode (§3.2.1).
    DebugControl,
    /// Debug observation logic never observed in mission mode (§3.2.2).
    DebugObservation,
    /// Memory-map restrictions on address logic (§3.3).
    MemoryMap,
    /// Proven untestable by the constraint-aware ATPG proof stage: PODEM
    /// exhausted the decision space under the mission constraints (tied
    /// debug/test inputs, masked observation outputs) without finding a test.
    /// This is the screening step of §4 applied to faults the structural
    /// rules leave unclassified.
    AtpgProof,
}

impl UntestableSource {
    /// All sources, in the order Table I reports them (the ATPG proof stage
    /// is this reproduction's extension and comes last).
    pub const ALL: [UntestableSource; 5] = [
        UntestableSource::Scan,
        UntestableSource::DebugControl,
        UntestableSource::DebugObservation,
        UntestableSource::MemoryMap,
        UntestableSource::AtpgProof,
    ];

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            UntestableSource::Scan => "scan",
            UntestableSource::DebugControl => "debug-control",
            UntestableSource::DebugObservation => "debug-observation",
            UntestableSource::MemoryMap => "memory-map",
            UntestableSource::AtpgProof => "atpg-proof",
        }
    }
}

impl fmt::Display for UntestableSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Classification of a single stuck-at fault.
///
/// The first group are the classes a conventional structural tool (the
/// paper's TetraMAX) reports; `OnlineUntestable` is the class this work adds
/// on top, produced by re-interpreting structural untestability after the
/// mission-mode circuit manipulation.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub enum FaultClass {
    /// Not (yet) detected, no information — the initial state.
    #[default]
    Undetected,
    /// Detected by a test pattern or test program.
    Detected,
    /// Possibly detected (fault effect reaches an observation point as X).
    PossiblyDetected,
    /// Structurally untestable: proven redundant by ATPG. No stage of the
    /// identification flow assigns it (its proofs are
    /// `OnlineUntestable(AtpgProof)`); it stays part of the report schema.
    Redundant,
    /// Structurally untestable: unexcitable or unobservable because of a tied
    /// value (TetraMAX "UT — untestable due to tied value").
    Tied,
    /// Structurally untestable: propagation blocked by constant side inputs.
    Blocked,
    /// Structurally untestable: the site has no path to any observation point
    /// (unconnected / unused logic).
    Unused,
    /// On-line functionally untestable (the paper's contribution), with the
    /// source that caused it.
    OnlineUntestable(UntestableSource),
}

impl FaultClass {
    /// True for every flavour of structural untestability (excluding the
    /// on-line class).
    pub fn is_structurally_untestable(self) -> bool {
        matches!(
            self,
            FaultClass::Redundant | FaultClass::Tied | FaultClass::Blocked | FaultClass::Unused
        )
    }

    /// True for any untestable class, structural or on-line.
    pub fn is_untestable(self) -> bool {
        self.is_structurally_untestable() || matches!(self, FaultClass::OnlineUntestable(_))
    }

    /// True if the fault counts as covered for coverage computation
    /// (detected or possibly-detected with the usual 0.5 weight not applied —
    /// we follow the conservative convention and count only hard detections).
    pub fn is_detected(self) -> bool {
        matches!(self, FaultClass::Detected)
    }

    /// Two-letter code in the style of commercial ATPG fault reports.
    pub fn code(self) -> &'static str {
        match self {
            FaultClass::Undetected => "ND",
            FaultClass::Detected => "DT",
            FaultClass::PossiblyDetected => "PT",
            FaultClass::Redundant => "UR",
            FaultClass::Tied => "UT",
            FaultClass::Blocked => "UB",
            FaultClass::Unused => "UU",
            FaultClass::OnlineUntestable(_) => "OU",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultClass::OnlineUntestable(src) => write!(f, "OU({src})"),
            other => f.write_str(other.code()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untestable_predicates() {
        assert!(FaultClass::Tied.is_structurally_untestable());
        assert!(FaultClass::Redundant.is_untestable());
        assert!(FaultClass::OnlineUntestable(UntestableSource::Scan).is_untestable());
        assert!(!FaultClass::OnlineUntestable(UntestableSource::Scan).is_structurally_untestable());
        assert!(!FaultClass::Detected.is_untestable());
        assert!(!FaultClass::Undetected.is_untestable());
        assert!(FaultClass::Detected.is_detected());
        assert!(!FaultClass::PossiblyDetected.is_detected());
    }

    #[test]
    fn codes_and_display() {
        assert_eq!(FaultClass::Tied.code(), "UT");
        assert_eq!(FaultClass::Detected.code(), "DT");
        assert_eq!(
            FaultClass::OnlineUntestable(UntestableSource::MemoryMap).to_string(),
            "OU(memory-map)"
        );
        assert_eq!(FaultClass::Blocked.to_string(), "UB");
    }

    #[test]
    fn default_is_undetected() {
        assert_eq!(FaultClass::default(), FaultClass::Undetected);
    }

    #[test]
    fn all_sources_listed_once() {
        let mut names: Vec<&str> = UntestableSource::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
