//! # taurus-logstore
//!
//! The Log Store service of Taurus (paper §3.3): the strongly consistent,
//! append-only half of the storage layer, responsible solely for **log
//! durability** and for serving log reads to read replicas and recovery.
//!
//! Key concepts reproduced from the paper:
//!
//! * **PLog** — a limited-size (64 MB in production), append-only storage
//!   object synchronously replicated across three Log Store servers. Writes
//!   are acknowledged only when *all three* replicas succeed; on any failure
//!   the PLog is sealed and a fresh PLog is allocated on three healthy
//!   servers, so writes succeed as long as three healthy Log Stores exist
//!   anywhere in the cluster — the heart of Taurus's ~100% write
//!   availability.
//! * **FIFO write-through cache** — each Log Store server caches recently
//!   appended log data in memory so that read replicas pulling the fresh
//!   tail of the log almost never touch disk (paper §3.3, §6).
//! * **The log** — a database's log is an ordered collection of data
//!   PLogs listed in one *metadata PLog*, its manifest: list changes are
//!   single atomic metadata writes, and metadata PLogs roll over and
//!   replace themselves when full. [`Log`] splits the data PLogs into N
//!   parallel streams (Xia & Pavlo's LSN-vector design) and owns them and
//!   the manifest, so writers and readers see one log. A restart reads the
//!   manifest's last append and frame headers, not whole PLogs.
//! * **Recovery** — a short-term Log Store failure needs no repair (sealed
//!   PLogs are read-only); a long-term failure re-replicates the lost PLog
//!   replicas from the survivors onto healthy nodes (paper §5.1).

#![forbid(unsafe_code)]
// A panic in storage hot-path code is a node crash (§5): propagate
// `TaurusError` instead. Test code is exempt (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod batch;
pub mod cache;
pub mod cluster;
mod log;
mod manifest;
pub mod server;
pub mod stream;

pub use cluster::LogStoreCluster;
pub use log::{Log, LogCursor};
pub use server::{LogStoreReadsSnapshot, LogStoreServer};
pub use stream::{LogStream, PLogEntry};
