//! On-line functionally untestable fault identification in embedded
//! processor cores — a full reproduction of Bernardi et al., DATE 2013.
//!
//! When an embedded processor is tested *on-line* with a purely functional
//! (software-based) self-test, part of its stuck-at fault universe can never
//! be detected: the scan chains are idle, the debug interfaces are tied off,
//! and the restricted memory map freezes many address bits. This crate
//! identifies those **on-line functionally untestable** faults so they can be
//! pruned from the fault list, raising the meaningful coverage figure
//! (by 13.8 % on the paper's industrial case study).
//!
//! The crate implements the paper's methodology:
//!
//! 1. **search for sources of untestability** — [`toggle`] activity analysis
//!    over the SBST suite, or the SoC integration specification;
//! 2. **circuit manipulation** — the [`rules`] express each manipulation as
//!    an [`atpg::ConstraintSet`] that ties mission-constant signals and masks
//!    mission-unobserved outputs ([`manipulate`] applies one physically to a
//!    copy of the netlist);
//! 3. **screening** — the scan rule prunes faults directly (scan chain
//!    tracing, §3.1); the other rules screen the fault list in place with
//!    the structural untestability analysis of the [`atpg`] crate under
//!    their constraint set (§3.2, §3.3);
//! 4. **simulation and proof** — the staged [`flow`] pipeline optionally
//!    grades the SBST suite on the compiled fault simulator (dropping every
//!    detected fault) and hands the survivors to the constraint-aware PODEM
//!    proof engine, which *proves* on-line untestability that the structural
//!    screen alone cannot, fanned out across worker threads. Everything is
//!    composed into a Table-I-style [`report::IdentificationReport`] with
//!    per-stage fault-count deltas and wall-clock.
//!
//! # Examples
//!
//! ```
//! use cpu::soc::SocBuilder;
//! use online_untestable::flow::{FlowConfig, IdentificationFlow};
//!
//! let soc = SocBuilder::small().build();
//! let report = IdentificationFlow::new(FlowConfig::default())
//!     .run(&soc)
//!     .expect("identification flow");
//! println!("{report}");
//! assert!(report.total_untestable() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod design;
pub mod flow;
pub mod manipulate;
pub mod report;
pub mod rules;
pub mod toggle;

pub use atpg::json::{JsonError, JsonValue};
pub use atpg::proof::EngineBreakdown as ProofEngineBreakdown;
pub use design::{ConstraintSpec, Design, NetlistDesign, SpecError};
pub use flow::{DiscoveryMode, FlowConfig, FlowError, IdentificationFlow, ProofStageConfig};
pub use report::{IdentificationReport, PhaseResult};
pub use toggle::{analyze_toggles, ToggleReport};
