//! `untestabled` — the identification service.
//!
//! The paper frames untestable-fault identification as a step engineers
//! re-run continuously as a design evolves. This crate lifts the campaign
//! survivability primitives of the `atpg` crate (timeouts, cancel tokens,
//! panic isolation, checkpoint/resume — all fields of one proof
//! configuration) one layer up, into a long-running
//! daemon that stays correct and available while individual jobs panic,
//! stall, or get killed mid-write:
//!
//! * a std-only HTTP/1.1 server (`POST /jobs`, `GET /jobs/:id`,
//!   `DELETE /jobs/:id`, `GET /healthz`, `GET /readyz`, `POST /shutdown`)
//!   with bounded request parsing — no crates.io dependencies;
//! * a bounded job queue with backpressure (`503` + `Retry-After` when
//!   full, never unbounded memory);
//! * a supervised worker pool: a panicked worker is torn down and
//!   respawned, a stalled one is cancelled and, failing that, abandoned;
//!   its job is retried with exponential backoff up to a budget and then
//!   quarantined as terminal `failed`;
//! * per-request deadlines and client cancellation share one mechanism —
//!   the campaign's stage timeout and `CancelToken`; a per-fault timeout
//!   only turns slow faults into timeout aborts and still concludes the
//!   job `done`;
//! * crash-safe job state: per-job journals plus the per-verdict proof
//!   checkpoint make a `kill -9` mid-campaign resume bit-identically on
//!   restart;
//! * a content-addressed result cache keyed by the campaign fingerprint;
//!   corrupted entries are discarded and recomputed, never served, and
//!   capped-worklist (`max_proof`) and per-fault-timeout jobs bypass it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod http;
pub mod job;
pub mod queue;
pub mod server;
pub mod service;

pub use http::{read_request, write_response, HttpError, Limits, Request};
pub use job::{ChaosSpec, JobProofConfig, JobRequest, JobState};
pub use online_untestable::JsonValue;
pub use queue::{JobQueue, QueueFull};
pub use server::serve;
pub use service::{Service, ServiceConfig, SubmitError};
