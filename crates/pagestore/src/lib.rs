//! # taurus-pagestore
//!
//! The Page Store service of Taurus (paper §3.4 and §7): the eventually
//! consistent, versioned half of the storage layer. Page Stores receive the
//! redo log as ordered per-slice *fragments*, persist them append-only,
//! *consolidate* them into page versions, and serve versioned page reads
//! from the master and read replicas.
//!
//! Faithfully reproduced mechanics:
//!
//! * the four-method API the SAL speaks: `WriteLogs`, `ReadPage`,
//!   `SetRecycleLSN`, `GetPersistentLSN` (§3.4) — plus `ScanSlice`, the
//!   near-data scan pushdown of the NDP follow-on paper ([`pushdown`]);
//! * append-only slice logs — a Page Store never writes in place (§7);
//! * the **Log Directory**: a per-slice concurrent map from page id to the
//!   locations of its log records and materialized versions (§7);
//! * the global **log cache** feeding consolidation in arrival order (§7);
//!   consolidation is **layered** ([`layers`], DESIGN.md §13): fragments
//!   accumulate into immutable L0 delta layers, an L0→L1 compaction
//!   materializes pages at a compaction LSN, and version GC is a by-product
//!   of the merge;
//! * the global **buffer pool** with LFU eviction (the paper measured LFU
//!   ≈25% better than LRU for this second-tier cache), a clean cache of
//!   compacted page images (§7). The paper's two design choices — LFU vs
//!   LRU, arrival order vs longest chain first — are reproduced by the
//!   `ablations` bench as models over [`PagePool`] and [`logcache::LogCache`];
//! * per-slice **persistent LSN** (highest LSN with no holes) and missing-
//!   range reporting, which the SAL's recovery machinery relies on (§5.2);
//! * the **gossip protocol** between slice replicas, recovering missed
//!   fragments peer-to-peer (§4.1 step 6, §5.2);
//! * replica rebuild after a long-term failure: a fresh replica accepts new
//!   writes immediately and copies the latest page versions from a healthy
//!   peer before serving reads (§5.2).

#![forbid(unsafe_code)]

pub mod cluster;
pub mod directory;
pub mod fragment;
pub mod layers;
pub mod logcache;
pub mod placement;
pub mod pool;
pub mod pushdown;
pub mod readpages;
pub mod server;
pub mod slice;

pub use cluster::{PageStoreCluster, PlacementView};
pub use fragment::{deep_clone_count, encode_count, SliceFragment};
pub use layers::{CompactionJob, L0Records, L1Layer, LayerStore, SealPlan, SortedRun};
pub use placement::{IngestFilter, PlacementEntry, PlacementMap, DYNAMIC_SLICE_BASE};
pub use pool::{EvictionPolicy, PagePool};
pub use pushdown::{ScanSliceRequest, ScanSliceResponse};
pub use readpages::{PageReadOutcome, ReadPagesRequest, ReadPagesResponse};
pub use server::{
    ConsolidationPolicy, PageStoreServer, PageStoreStats, PageStoreStatsSnapshot, RecycleReport,
    SliceExport, SliceHeat, SliceHeatSnapshot,
};
