//! Top-level umbrella crate for the reproduction of
//! *"On-Line Functionally Untestable Fault Identification in Embedded
//! Processor Cores"* (Bernardi et al., DATE 2013).
//!
//! The actual functionality lives in the workspace crates; this crate only
//! re-exports them so that the repository-level examples and integration
//! tests have a single convenient dependency.
//!
//! # Quickstart
//!
//! ```
//! use untestable_repro::prelude::*;
//!
//! // Build the industrial-like SoC case study and identify every source of
//! // on-line functional untestability described in the paper.
//! let soc = SocBuilder::small().build();
//! let report = IdentificationFlow::new(FlowConfig::default())
//!     .run(&soc)
//!     .expect("identification flow");
//! assert!(report.total_untestable() > 0);
//! ```

pub use atpg;
pub use cpu;
pub use dft;
pub use faultmodel;
pub use netlist;
pub use online_untestable;

/// Commonly used types from every workspace crate.
pub mod prelude {
    pub use atpg::analysis::StructuralAnalysis;
    pub use atpg::ConstraintSet;
    pub use cpu::soc::{Soc, SocBuilder};
    pub use dft::scan::ScanConfig;
    pub use faultmodel::{FaultClass, FaultList, StuckAt};
    pub use netlist::frontend::{load_netlist, Format};
    pub use netlist::{CellKind, Netlist, NetlistBuilder};
    pub use online_untestable::design::{ConstraintSpec, Design, NetlistDesign};
    pub use online_untestable::flow::{FlowConfig, IdentificationFlow};
    pub use online_untestable::report::IdentificationReport;
}
