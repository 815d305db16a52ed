//! # taurus-verify
//!
//! Correctness tooling for the Taurus reproduction, two pillars:
//!
//! * [`determinism`] — the same-seed/same-state checker: runs a seeded
//!   workload twice through the full fabric and diffs end-state
//!   fingerprints. `tests/determinism_integration.rs` runs it on every
//!   `cargo test` and pins seed 42's fingerprint.
//! * the runtime invariant layer itself lives in
//!   [`taurus_common::invariants`] (wired into the SAL, Log Store, Page
//!   Store, and replica paths); this crate's integration tests drive
//!   workloads and assert the registry stays empty.
//!
//! The workspace's source conventions (no panics in storage hot paths, no
//! wall-clock or unseeded RNG outside the pluggable substrate,
//! `parking_lot` over `std::sync`) are clippy configuration, not a tool
//! here: `clippy.toml` and the crate-level denies in each `lib.rs`, checked
//! by `cargo clippy --workspace --all-targets -- -D warnings`. Lock
//! discipline is not checked here either: the `parking_lot` shim's witness
//! (`--cfg taurus_lock_witness`) checks lock order, leaf locks, locks held
//! across fabric calls and condvar pairing as the tests run.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod determinism;

pub use determinism::{check_determinism, fingerprint_run, DeterminismReport, Fingerprint, Inject};
