//! # taurus-common
//!
//! Shared substrate for the Taurus database reproduction (Depoutovitch et al.,
//! SIGMOD 2020). This crate defines the vocabulary every other layer speaks:
//!
//! * [`Lsn`] — log sequence numbers, the global version axis of the database;
//! * identifiers for pages, slices, PLogs, nodes, and transactions ([`ids`]);
//! * the physiological redo [`record`] format ("the log is the database");
//! * the slotted [`page`] layout shared by the engine's buffer pool, read
//!   replicas, and Page Store consolidation;
//! * [`apply`] — the single shared function that replays a log record onto a
//!   page, used identically by every component that materializes pages;
//! * [`clock`] — pluggable time (system or manual/virtual) so failure drills
//!   are deterministic;
//! * [`config`] — all tunables of the system in one place;
//! * [`metrics`] — small latency/throughput helpers used by the bench harness;
//! * [`scan`] — the serializable scan/aggregate operator and its evaluator,
//!   shared by Page-Store pushdown execution and engine-side fallback;
//! * [`invariants`] — the runtime invariant registry behind the
//!   [`invariant!`](crate::invariant) macro (the `invariants` feature).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod apply;
pub mod clock;
pub mod config;
pub mod error;
pub mod ids;
pub mod invariants;
pub mod lsn;
pub mod metrics;
pub mod page;
pub mod record;
pub mod scan;
pub mod sync;

pub use config::TaurusConfig;
pub use error::{Result, TaurusError};
pub use ids::{DbId, NodeId, PLogId, PageId, SliceId, SliceKey, TxnId};
pub use lsn::Lsn;
pub use page::{PageBuf, PageType, PAGE_SIZE};
pub use record::{LogRecord, LogRecordGroup, RecordBody};
pub use scan::{
    evaluate_leaf_page, AggState, Aggregate, CmpOp, Field, Operand, Predicate, Projection,
    ScanAccumulator, ScanRequest,
};
