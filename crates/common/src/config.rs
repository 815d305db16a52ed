//! Central configuration for a Taurus deployment.
//!
//! The paper's production values (10 GB slices, 64 MB PLogs, 15-minute
//! long-term failure threshold, 30-minute gossip interval) are scaled down by
//! default so that laptop-scale runs exercise multi-slice, multi-PLog,
//! multi-failure behaviour; every value is overridable.

use serde::{Deserialize, Serialize};

/// Device cost model used by the simulated storage substrate.
///
/// The paper (§7, citing F2FS) reports append-only writes being 2–5× faster
/// than random in-place writes on flash. The fabric charges these latencies
/// on top of real file I/O so that architectural comparisons (append-only
/// Page Stores vs write-in-place baselines) reproduce the published gap.
#[derive(Clone, Copy, Debug, Serialize, Deserialize, PartialEq)]
pub struct StorageProfile {
    /// Latency charged per sequential-append I/O, microseconds.
    pub append_us: u64,
    /// Latency charged per random (in-place) write I/O, microseconds.
    pub random_write_us: u64,
    /// Latency charged per random read I/O, microseconds.
    pub read_us: u64,
}

impl Default for StorageProfile {
    fn default() -> Self {
        // ~NVMe flash: 20µs appends, 3.5x penalty for random writes
        // (mid-range of the paper's 2-5x), 60µs random reads.
        StorageProfile {
            append_us: 20,
            random_write_us: 70,
            read_us: 60,
        }
    }
}

impl StorageProfile {
    /// An idealized instant device: no charged latency. Used by unit tests
    /// that assert logic rather than performance.
    pub fn instant() -> Self {
        StorageProfile {
            append_us: 0,
            random_write_us: 0,
            read_us: 0,
        }
    }
}

/// Network cost model: one-way latency per hop between fabric nodes.
#[derive(Clone, Copy, Debug, Serialize, Deserialize, PartialEq)]
pub struct NetworkProfile {
    /// Mean one-way hop latency in microseconds.
    pub hop_us: u64,
    /// Jitter added uniformly in `0..=jitter_us`.
    pub jitter_us: u64,
    /// Outbound bandwidth cap of a compute node NIC in bytes/sec (0 = uncapped).
    /// Used to model the master NIC bottleneck of the streaming-replica
    /// baseline (paper §6: 15 replicas × 100 MB/s would need >12 Gbps).
    pub master_nic_bytes_per_sec: u64,
}

impl Default for NetworkProfile {
    fn default() -> Self {
        NetworkProfile {
            hop_us: 50,
            jitter_us: 20,
            master_nic_bytes_per_sec: 0,
        }
    }
}

impl NetworkProfile {
    /// Zero-latency network for deterministic logic tests.
    pub fn instant() -> Self {
        NetworkProfile {
            hop_us: 0,
            jitter_us: 0,
            master_nic_bytes_per_sec: 0,
        }
    }
}

/// Copies of every PLog on Log Stores and of every slice on Page Stores:
/// the paper's three and three (§3.3, §3.4).
pub const REPLICAS: usize = 3;

/// All tunables of a Taurus cluster.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TaurusConfig {
    /// Pages per slice (production: 10 GB / 16 KiB = 655,360 pages; default
    /// here is small so tests span many slices).
    pub pages_per_slice: u64,
    /// PLog size limit in bytes after which it is sealed and a new PLog is
    /// created (paper: 64 MB; scaled down by default).
    pub plog_size_limit: usize,
    /// Database log buffer capacity in bytes: log records accumulate here
    /// before a group flush to the Log Stores (paper §3.5).
    pub log_buffer_bytes: usize,
    /// Per-slice buffer capacity in bytes (flushed to Page Stores when full
    /// or on timeout).
    pub slice_buffer_bytes: usize,
    /// Per-slice buffer flush timeout, microseconds: `Sal::tick` ships a
    /// slice buffer that has been open this long. The log buffer has no
    /// timeout: every commit's `Sal::flush` pushes it out.
    pub slice_flush_timeout_us: u64,
    /// Log Store FIFO write-through cache capacity, bytes (serves replica
    /// log reads without disk I/O, paper §3.3/§6).
    pub logstore_cache_bytes: usize,
    /// Page Store global log cache capacity, bytes (paper §7).
    pub pagestore_log_cache_bytes: usize,
    /// Page Store global buffer pool capacity, pages (paper §7; LFU).
    pub pagestore_buffer_pool_pages: usize,
    /// Short-term failure window: below this a node is expected back and no
    /// data is re-replicated (paper §5: 15 minutes). Microseconds.
    pub short_term_failure_us: u64,
    /// Automatic gossip interval between slice replicas (paper §5.2:
    /// 30 minutes in production). Microseconds.
    pub gossip_interval_us: u64,
    /// How long the SAL waits for a lagging slice replica to catch up before
    /// triggering targeted gossip for that slice (paper §5.2).
    pub lag_repair_timeout_us: u64,
    /// Storage device cost model for storage-layer nodes.
    pub storage: StorageProfile,
    /// Network cost model for the fabric.
    pub network: NetworkProfile,
    /// Maximum unconsolidated log bytes per Page Store before the SAL
    /// throttles master writes (paper §7: "the SAL throttles log writes on
    /// the master" to bound Log Directory growth).
    pub consolidation_backlog_limit: usize,
    /// Engine buffer pool capacity in pages. The pool's lock stripes
    /// follow from it (`EnginePool::striped`).
    pub engine_buffer_pool_pages: usize,
    /// Per-replica SAL send-queue depth (fragments): the back-pressure
    /// point. While the queue of a Page Store node that is up and not
    /// suspect holds this many, the next log flush waits for room. A node
    /// whose queue holds flushes for `short_term_failure_us` without
    /// draining, or is full while the node is suspect or down, is treated
    /// as failed: its queued fragments are parked for repair from the Log
    /// Stores, which hold durability, and the node is made suspect.
    pub sal_send_queue_depth: usize,
    /// Per-`ScanSlice`-call row budget for near-data scan pushdown. A Page
    /// Store stops after the page that crosses the budget and returns a
    /// continuation, so one scan RPC cannot starve `WriteLogs`.
    pub ndp_scan_max_rows: usize,
    /// Per-`ReadPages`-call page budget: one batched read RPC attempts at
    /// most this many pages, then returns a continuation (same budgets
    /// discipline as `ScanSlice`). Pages are a fixed size, so this is also
    /// the call's byte budget.
    pub read_batch_max_pages: usize,
    /// B-tree readahead window, pages: the cap on leaves a range scan has
    /// hinted to the fetcher (which batch-fetches the misses in one
    /// `ReadPages` round trip) and not yet walked into. The scan sizes each
    /// hint from the rows its `limit` still owes, so only an unbounded scan
    /// streams whole windows. 0 disables readahead.
    pub btree_readahead_window: usize,
    /// Number of parallel log streams the SAL fans flush groups across
    /// ("Taurus: Lightweight Parallel Logging"). Each stream owns its own
    /// PLog chain and append sequencer; flush spans are assigned
    /// round-robin. Commit visibility (`durable_lsn`) advances only over the
    /// contiguous prefix of spans in LSN order, which the SAL's span window
    /// tracks; each entry of the LSN vector is the end of its stream's
    /// newest durable span. 1 reproduces the single-path behaviour.
    pub log_streams: usize,
    /// Staged payload bytes at which a Page Store seals its open L0 delta
    /// layer to one immutable device blob (layered consolidation, DESIGN.md
    /// §13: fragments accumulate into immutable L0 delta layers that a
    /// compactor merges into L1 image layers, with version GC as a
    /// by-product of the merge).
    pub layer_l0_target_bytes: usize,
    /// Number of sealed L0 layers that triggers an L0→L1 compaction.
    pub compaction_threshold: usize,
}

impl Default for TaurusConfig {
    fn default() -> Self {
        TaurusConfig {
            pages_per_slice: 2048,
            plog_size_limit: 4 << 20,
            log_buffer_bytes: 256 << 10,
            slice_buffer_bytes: 64 << 10,
            slice_flush_timeout_us: 2_000,
            logstore_cache_bytes: 8 << 20,
            pagestore_log_cache_bytes: 16 << 20,
            pagestore_buffer_pool_pages: 4096,
            short_term_failure_us: 2_000_000,
            gossip_interval_us: 5_000_000,
            lag_repair_timeout_us: 500_000,
            storage: StorageProfile::default(),
            network: NetworkProfile::default(),
            consolidation_backlog_limit: 64 << 20,
            engine_buffer_pool_pages: 16384,
            sal_send_queue_depth: 256,
            ndp_scan_max_rows: 4096,
            read_batch_max_pages: 256,
            btree_readahead_window: 16,
            log_streams: 4,
            layer_l0_target_bytes: 256 << 10,
            compaction_threshold: 4,
        }
    }
}

impl TaurusConfig {
    /// Configuration for deterministic functional tests: instant devices and
    /// network, small buffers so flush/seal paths trigger quickly.
    pub fn test() -> Self {
        TaurusConfig {
            pages_per_slice: 64,
            plog_size_limit: 64 << 10,
            log_buffer_bytes: 8 << 10,
            slice_buffer_bytes: 4 << 10,
            slice_flush_timeout_us: 0,
            logstore_cache_bytes: 1 << 20,
            pagestore_log_cache_bytes: 4 << 20,
            pagestore_buffer_pool_pages: 512,
            short_term_failure_us: 100_000,
            gossip_interval_us: 1_000_000,
            lag_repair_timeout_us: 10_000,
            storage: StorageProfile::instant(),
            network: NetworkProfile::instant(),
            engine_buffer_pool_pages: 1024,
            sal_send_queue_depth: 16,
            // Tiny budgets so tests exercise the continuation path.
            ndp_scan_max_rows: 64,
            read_batch_max_pages: 4,
            btree_readahead_window: 4,
            // Two streams (not one) so the whole functional suite exercises
            // multi-stream span ordering, merge-on-read, and recovery.
            log_streams: 2,
            // Tiny layer knobs so functional tests exercise L0 seals and
            // L0→L1 compactions, not just staging.
            layer_l0_target_bytes: 4 << 10,
            compaction_threshold: 2,
            ..TaurusConfig::default()
        }
    }

    /// Validates internal consistency of the configuration.
    pub fn validate(&self) -> crate::Result<()> {
        if self.pages_per_slice == 0 {
            return Err(crate::TaurusError::Internal(
                "pages_per_slice must be > 0".into(),
            ));
        }
        if self.plog_size_limit < self.log_buffer_bytes {
            return Err(crate::TaurusError::Internal(
                "plog_size_limit must be >= log_buffer_bytes".into(),
            ));
        }
        if self.sal_send_queue_depth == 0 {
            return Err(crate::TaurusError::Internal(
                "sal_send_queue_depth must be > 0".into(),
            ));
        }
        if self.ndp_scan_max_rows == 0 {
            return Err(crate::TaurusError::Internal(
                "ndp_scan_max_rows must be > 0".into(),
            ));
        }
        if self.read_batch_max_pages == 0 {
            return Err(crate::TaurusError::Internal(
                "read_batch_max_pages must be > 0".into(),
            ));
        }
        // Every stream opens its own PLog on `REPLICAS` Log Stores when
        // the log is created and is listed in every manifest snapshot, and a
        // stream only helps while each of the others has a flush in flight:
        // 64 is already past any useful fan-out, and the bound keeps a bad
        // value from creating PLogs by the hundred.
        if self.log_streams == 0 || self.log_streams > 64 {
            return Err(crate::TaurusError::Internal(
                "log_streams must be in 1..=64".into(),
            ));
        }
        if self.layer_l0_target_bytes == 0 || self.compaction_threshold == 0 {
            return Err(crate::TaurusError::Internal(
                "layer_l0_target_bytes and compaction_threshold must be > 0".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        TaurusConfig::default().validate().unwrap();
        TaurusConfig::test().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = TaurusConfig {
            pages_per_slice: 0,
            ..TaurusConfig::default()
        };
        assert!(c.validate().is_err());

        let c = TaurusConfig {
            plog_size_limit: 10,
            ..TaurusConfig::default()
        };
        assert!(c.validate().is_err());

        let c = TaurusConfig {
            sal_send_queue_depth: 0,
            ..TaurusConfig::default()
        };
        assert!(c.validate().is_err());

        let c = TaurusConfig {
            ndp_scan_max_rows: 0,
            ..TaurusConfig::default()
        };
        assert!(c.validate().is_err());

        let c = TaurusConfig {
            read_batch_max_pages: 0,
            ..TaurusConfig::default()
        };
        assert!(c.validate().is_err());

        let c = TaurusConfig {
            log_streams: 0,
            ..TaurusConfig::default()
        };
        assert!(c.validate().is_err());

        let c = TaurusConfig {
            log_streams: 65,
            ..TaurusConfig::default()
        };
        assert!(c.validate().is_err());

        let c = TaurusConfig {
            layer_l0_target_bytes: 0,
            ..TaurusConfig::default()
        };
        assert!(c.validate().is_err());

        let c = TaurusConfig {
            compaction_threshold: 0,
            ..TaurusConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn storage_profile_matches_paper_penalty_band() {
        let p = StorageProfile::default();
        let ratio = p.random_write_us as f64 / p.append_us as f64;
        assert!((2.0..=5.0).contains(&ratio), "ratio {ratio} outside 2-5x");
    }
}
