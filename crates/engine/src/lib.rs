//! # taurus-engine
//!
//! The Taurus database front end (paper §3.6, §6) — the role played by the
//! modified MySQL 8.0 in production. It provides:
//!
//! * a page-based **B+tree** storage engine generating physiological redo
//!   through the shared `taurus-common` record format;
//! * **transactions** with commit-time group logging: a transaction's
//!   writes buffer privately (read-your-writes), conflicts are detected by
//!   per-key write locks, and at commit all records are emitted as one
//!   atomic log-record group ending in a `TxnCommit` record — group
//!   boundaries are therefore always physically consistent points (§6);
//! * an **engine buffer pool** obeying the paper's eviction rule: a dirty
//!   page cannot be evicted until its log records have reached at least one
//!   Page Store replica (§4.2);
//! * the **master engine** (read/write) and **read replicas** that tail the
//!   log from the Log Stores — never from the master — apply whole groups
//!   atomically, maintain replica-visible and transaction-visible LSNs, and
//!   feed the recycle LSN back to the master (§6);
//! * [`db::TaurusDb`] — full-cluster orchestration: storage tiers, SAL,
//!   master, replicas, recovery service, master failover.

#![forbid(unsafe_code)]
// A panic in storage hot-path code is a node crash (§5): propagate
// `TaurusError` instead. Test code is exempt (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod btree;
pub mod db;
pub mod latch;
pub mod master;
pub mod pool;
pub mod replica;

pub use db::TaurusDb;
pub use master::{MasterEngine, Txn};
pub use replica::ReplicaEngine;
