//! # taurus-fabric
//!
//! The simulated cluster substrate that stands in for a cloud datacenter
//! (substitution documented in DESIGN.md §6). It provides:
//!
//! * a registry of node ids with kinds (Log Store, Page Store, compute);
//! * synchronous RPC between nodes through [`Fabric::call`], which charges
//!   configurable per-hop network latency and refuses calls to nodes that
//!   are marked down;
//! * failure injection: nodes can be taken down/up at any time, and a
//!   [`FailureDetector`] classifies outages as short-term or long-term
//!   exactly as the paper's recovery service does (§5: short-term failures
//!   are waited out; after ~15 minutes a failure is long-term and data is
//!   re-replicated);
//! * an outbound-bandwidth model ([`Fabric::charge_bandwidth`]) used to
//!   reproduce the master-NIC bottleneck of the streaming-replica baseline
//!   (paper §6);
//! * a [`StorageDevice`] cost model charging the append-vs-random-write
//!   latency gap the paper relies on (§7, citing F2FS).
//!
//! The fabric starts no thread: every handler runs on the thread that
//! sent its message, and [`Fabric::inline_jobs`] counts the fan-out legs
//! run so. [`DispatchSnapshot`] adds what the SAL counts of its per-node
//! sender threads, the one place a send leaves a client's thread.
//!
//! Determinism: all randomness is seeded, and all time flows through a
//! `Clock`, so failure drills replay identically with a `ManualClock`.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod detector;
pub mod device;
pub mod net;

pub use detector::{FailureDetector, FailureEvent};
pub use device::StorageDevice;
pub use net::{DispatchSnapshot, Fabric, NodeKind, NodeStatus};
