//! Structural test engine for the DATE 2013 on-line untestability
//! reproduction — the workspace's substitute for the commercial ATPG tool
//! (Synopsys TetraMAX) used by the paper.
//!
//! The crate provides:
//!
//! * a **compiled simulation program** ([`compiled`]): the netlist lowered
//!   once into flat struct-of-arrays tables with reusable scratch buffers,
//!   shared by every simulator so the per-cycle hot paths are free of hash
//!   maps and allocations;
//! * three-valued [`logic`] and scalar simulation ([`sim`]): levelized
//!   combinational propagation and a cycle-accurate sequential simulator,
//!   both with single stuck-at fault injection;
//! * packed **parallel-fault simulation** ([`fault_sim`]) for grading test
//!   vector sequences (and SBST programs) against thousands of faults;
//! * **constant propagation** from tied nets ([`constant`]) and the
//!   **structural untestability analysis** ([`analysis`]) that classifies
//!   faults as tied / blocked / unused — the step the paper delegates to
//!   "any EDA tool able to identify structural untestable faults";
//! * **PODEM** test generation with redundancy proofs ([`podem`]), a
//!   **SAT proof backend** ([`cnf`]) that encodes the cone-clipped fault
//!   machine into CNF for the vendored CDCL core (`sat`), and the
//!   **parallel untestability proof engine** ([`proof`]) that fans the
//!   constraint-aware PODEM out across worker threads and escalates aborted
//!   searches to the SAT backend (the PODEM/SAT portfolio);
//! * **SCOAP** testability measures ([`scoap`]);
//! * a dependency-free **JSON** value ([`json`]) that the proof engine's
//!   result types serialize themselves with.
//!
//! # Examples
//!
//! Classify the faults of a design in which one input is tied to ground
//! (the situation §3.2.1 of the paper creates for debug control inputs):
//!
//! ```
//! use atpg::analysis::StructuralAnalysis;
//! use atpg::constant::ConstraintSet;
//! use faultmodel::FaultList;
//! use netlist::NetlistBuilder;
//!
//! let mut b = NetlistBuilder::new("demo");
//! let dbg_en = b.input("debug_en");
//! let d = b.input("d");
//! let q = b.mux2(d, d, dbg_en); // degenerate mux: debug_en never matters
//! b.output("q", q);
//! let n = b.finish();
//!
//! let mut constraints = ConstraintSet::full_scan();
//! constraints.tie_net(dbg_en, false);
//! let mut faults = FaultList::full_universe(&n);
//! let classified = StructuralAnalysis::with_constraints(constraints)
//!     .run(&n, &mut faults)
//!     .unwrap();
//! assert!(classified > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod budget;
pub mod checkpoint;
pub mod cnf;
pub mod compiled;
pub mod constant;
mod fanout;
pub mod fault_sim;
mod frame;
pub mod json;
pub mod logic;
pub mod podem;
pub mod proof;
pub mod scoap;
pub mod sim;

pub use analysis::StructuralAnalysis;
pub use budget::{AbortReason, CancelToken, FailurePlan};
pub use checkpoint::{campaign_fingerprint, Checkpoint, CheckpointError, ENGINE_EPOCH};
pub use cnf::{SatProver, SatVerdict};
pub use compiled::{CompiledProgram, PackedInjection, PackedScratch, PackedVectors};
pub use constant::{propagate_constants, ConstantValues, ConstraintSet};
pub use fault_sim::{FaultSim, FaultSimOutcome, InputVector};
pub use logic::Logic;
pub use podem::{Podem, PodemConfig, PodemOutcome, ProofOutcome, TestPattern};
pub use proof::{
    prove_faults, CampaignOutcome, EngineBreakdown, EngineOutcome, ProofConfig, ProofEngine,
};
pub use scoap::{compute_scoap, Scoap, SCOAP_INFINITY};
pub use sim::{CombSim, SeqSim};
