//! # taurus-baselines
//!
//! The comparator architectures of the paper's evaluation (§2, §4.4, §8),
//! built on the same substrates (fabric, devices, B+tree, page format) as
//! Taurus so that benchmark gaps isolate the *architecture*:
//!
//! * [`monolithic`] — a traditional engine on local storage ("MySQL 8.0
//!   with locally attached storage", Fig. 8): write-ahead log plus
//!   write-in-place full-page flushing, optionally with a doublewrite
//!   buffer (vanilla) or without it plus relaxed flushing (the paper's
//!   "optimized front end" port);
//! * [`quorum`] — Aurora-style (N=6, W=4) and PolarDB-style (N=3, W=2)
//!   quorum storage: the engine ships log fragments to N storage replicas
//!   and waits for W acknowledgments; reads probe replicas until one is
//!   caught up;
//! * [`socrates`] — a Socrates-style four-tier stack: identical to Taurus
//!   except page reads traverse an additional network-separated tier (the
//!   page-server layer in front of storage, §2);
//! * [`streaming`] — the rejected read-replica design where the master
//!   streams log data to every replica through its own NIC (§6's 12 Gbps
//!   back-of-envelope), used by the Fig. 9 lag comparison;
//! * [`adapters`] — [`taurus_workload::Executor`] implementations for the
//!   Taurus master, Taurus read replicas, and every baseline, so one driver
//!   measures them all.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod adapters;
pub mod monolithic;
pub mod quorum;
pub mod socrates;
pub mod streaming;

pub use adapters::{
    LocalExecutor, QuorumExecutor, ReplicaExecutor, SocratesExecutor, TaurusExecutor,
};
pub use monolithic::LocalEngine;
pub use quorum::QuorumEngine;
pub use socrates::SocratesDb;
pub use streaming::StreamingReplicaSim;
