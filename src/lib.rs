//! # taurus
//!
//! A from-scratch Rust reproduction of **"Taurus Database: How to be Fast,
//! Available, and Frugal in the Cloud"** (Depoutovitch et al., SIGMOD 2020):
//! a cloud-native database separating compute from storage, and — the
//! paper's key idea — separating **log storage** (strongly consistent,
//! append-only, replicate-anywhere PLogs) from **page storage** (eventually
//! consistent, versioned, gossip-repaired slices).
//!
//! ## Quick start
//!
//! ```
//! use taurus::prelude::*;
//!
//! // A full cluster: Log Stores, Page Stores, SAL, master front end.
//! let db = TaurusDb::launch_with_clock(
//!     TaurusConfig::test(),
//!     4, // Log Store nodes
//!     4, // Page Store nodes
//!     taurus::common::clock::ManualClock::shared(),
//!     42,
//! )
//! .unwrap();
//!
//! let master = db.master();
//! let mut txn = master.begin();
//! txn.put(b"hello", b"taurus").unwrap();
//! txn.commit().unwrap(); // durable on three Log Stores
//! assert_eq!(master.get(b"hello").unwrap(), Some(b"taurus".to_vec()));
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`common`] | `taurus-common` | LSNs, page format, redo records, config |
//! | [`fabric`] | `taurus-fabric` | simulated cluster: RPC, failures, devices |
//! | [`logstore`] | `taurus-logstore` | PLogs, Log Store servers, the log (`Log`: N PLog streams) |
//! | [`pagestore`] | `taurus-pagestore` | slices, consolidation, gossip |
//! | [`core`] | `taurus-core` | the SAL, CV-LSN, recovery (the paper's contribution) |
//! | [`engine`] | `taurus-engine` | B+tree front end, transactions, replicas |
//! | [`baselines`] | `taurus-baselines` | monolithic / quorum / Socrates-style comparators |
//! | [`replication`] | `taurus-replication` | Table 1 availability models |
//! | [`workload`] | `taurus-workload` | SysBench-like, TPC-C-like generators |

#![deny(clippy::unwrap_used)]

pub use taurus_baselines as baselines;
pub use taurus_common as common;
pub use taurus_core as core;
pub use taurus_engine as engine;
pub use taurus_fabric as fabric;
pub use taurus_logstore as logstore;
pub use taurus_pagestore as pagestore;
pub use taurus_replication as replication;
pub use taurus_workload as workload;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use taurus_common::{
        DbId, Lsn, NodeId, PageBuf, PageId, Result, SliceId, SliceKey, TaurusConfig, TaurusError,
        TxnId,
    };
    pub use taurus_core::{RecoveryService, Sal};
    pub use taurus_engine::{MasterEngine, ReplicaEngine, TaurusDb, Txn};
    pub use taurus_fabric::{Fabric, FailureDetector, NodeKind};
    pub use taurus_logstore::{Log, LogStoreCluster};
    pub use taurus_pagestore::{PageStoreCluster, PageStoreServer};
}
