//! # taurus-verify
//!
//! Correctness tooling for the Taurus reproduction, three pillars:
//!
//! * [`lint`] — the `taurus-lint` source checker enforcing workspace
//!   conventions (no panics in storage hot paths, no wall-clock or unseeded
//!   RNG outside the pluggable substrate, `parking_lot` over `std::sync`).
//!   Run it with `cargo run -p taurus-verify --bin taurus-lint`.
//! * [`determinism`] — the same-seed/same-state checker: runs a seeded
//!   workload twice through the full fabric and diffs end-state
//!   fingerprints. Run it with
//!   `cargo run -p taurus-verify --bin taurus-determinism`.
//! * the runtime invariant layer itself lives in
//!   [`taurus_common::invariants`] (wired into the SAL, Log Store, Page
//!   Store, and replica paths); this crate's integration tests drive
//!   workloads and assert the registry stays empty.

#![forbid(unsafe_code)]

pub mod determinism;
pub mod lint;
pub mod lockgraph;

pub use determinism::{check_determinism, fingerprint_run, DeterminismReport, Fingerprint, Inject};
pub use lint::{lint_source, lint_workspace, Diagnostic, LintReport};
pub use lockgraph::{analyze_sources, analyze_workspace, Analysis};
