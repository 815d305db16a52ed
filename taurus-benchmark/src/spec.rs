//! The benchmark's identity: workloads, cluster configuration, load model
//! and the metric names every later performance claim is made in.
//!
//! `BENCHMARK.json` at the repo root declares the same workloads and
//! metrics; `tests::benchmark_json_declares_exactly_these_names` keeps the
//! two in step, and [`crate::report::Metrics::finish`] refuses to print a
//! run whose metric set differs from these tables.

use taurus_common::TaurusConfig;

/// SysBench row payload, bytes.
pub const ROW_BYTES: usize = 200;
/// Point selects per read-only transaction (SysBench default).
pub const POINT_SELECTS: usize = 10;
/// Rows returned by the range query of a read-only transaction.
pub const RANGE_LEN: usize = 20;
/// Share of read-only transactions in the mixed workload.
pub const MIXED_READ_SHARE: f64 = 0.7;

/// Cluster shape: 6 Log Stores + 6 Page Stores, background beat 500 µs.
pub const LOG_NODES: usize = 6;
pub const PAGE_NODES: usize = 6;
pub const BACKGROUND_BEAT_US: u64 = 500;

/// Full set-ups (launch + load + warm-up) per untraced run: at least
/// `MIN_SETUPS`, then more while they have taken less than
/// `SETUP_BUDGET_S` in total, up to `MAX_SETUPS` (a 0.2 s set-up is timed
/// nine times, a 4 s one three times). `setup_s` is their median; the
/// window runs on the last cluster.
pub const MIN_SETUPS: usize = 3;
pub const MAX_SETUPS: usize = 9;
pub const SETUP_BUDGET_S: f64 = 2.5;
/// Warm-up transactions per connection (fixed work, not fixed time, so
/// that `setup_s` measures the system and not a sleep).
pub const WARMUP_TXNS_PER_CONN: u64 = 1_000;
/// Rows per bulk-load transaction.
pub const LOAD_CHUNK_ROWS: usize = 256;

/// Retries of a transaction that lost a first-updater-wins key lock, each
/// after [`CONFLICT_BACKOFF_US`]. The loser has to outwait the winner's
/// commit (a Log Store round trip), which 24 immediate retries do not.
pub const CONFLICT_RETRIES: u32 = 2_000;
pub const CONFLICT_BACKOFF_US: u64 = 100;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    ReadOnly,
    WriteOnly,
    Mixed,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub mix: Mix,
    pub rows: u64,
    /// Engine buffer pool, pages.
    pub pool_pages: usize,
    /// Whether one read replica tails the log during the run.
    pub replica: bool,
    /// Most connections the workload runs, whatever the host has.
    pub max_clients: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "point-read-cached",
        why: "dataset fits the engine pool: engine does all the work, every storage layer idles, so a storage-side change must show no change here",
        mix: Mix::ReadOnly,
        rows: 8_000,
        pool_pages: 4_096,
        replica: false,
        // Two CPU-bound connections spend their time bouncing the tree
        // latch and pool shards between vCPUs, and what that costs depends
        // on where the host places the vCPUs: ten-run sets of one commit
        // read 50 000 and 69 000 txn/s (each within 7 %), while one
        // connection reads 77 000.
        max_clients: 1,
    },
    Workload {
        name: "read-storage-bound",
        why: "pool covers ~30% of the pages: the miss path core -> fabric -> pagestore -> device sets read latency and engine is minor",
        mix: Mix::ReadOnly,
        rows: 40_000,
        pool_pages: 400,
        replica: false,
        max_clients: 4,
    },
    Workload {
        name: "write-cached",
        why: "no read misses: the commit path engine -> core group commit -> 3/3 logstore ack over fabric sets latency, pagestore ingest is asynchronous",
        mix: Mix::WriteOnly,
        rows: 8_000,
        pool_pages: 4_096,
        replica: false,
        max_clients: 4,
    },
    Workload {
        name: "mixed-storage-bound",
        why: "70/30 read/write with misses, a replica and compaction all sharing dispatcher and device: a read gain paid for by commits (or the reverse) shows here",
        mix: Mix::Mixed,
        rows: 40_000,
        pool_pages: 400,
        replica: true,
        max_clients: 4,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Closed loop: this many connections, one OS thread each, zero think
    /// time.
    pub fn clients(&self) -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(self.max_clients)
    }
}

/// The cluster configuration, spelled out as overrides on
/// `TaurusConfig::default()` rather than taken from
/// `taurus_bench::bench_config`: the flush policy is part of the
/// benchmark's identity and a later change to the figure harness must not
/// move the baseline. Network (50 µs hop, 20 µs jitter) and storage
/// (20/70/60 µs) profiles are the defaults.
pub fn cluster_config(pool_pages: usize) -> TaurusConfig {
    TaurusConfig {
        pages_per_slice: 512,
        engine_buffer_pool_pages: pool_pages,
        log_buffer_bytes: 32 << 10,
        slice_buffer_bytes: 16 << 10,
        slice_flush_timeout_us: 1_000,
        log_streams: 8,
        ..TaurusConfig::default()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen before a change counts as a regression. Printed by every
/// untraced run of every workload.
pub const END_TO_END: &[(MetricDef, f64)] = &[
    (m("txn_per_s", "1/s", Higher), 0.20),
    (m("txn_p50_us", "us", Lower), 0.20),
    (m("txn_p95_us", "us", Lower), 0.25),
    (m("setup_s", "s", Lower), 0.25),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// metric with no meaning on a workload (commit latency on a read-only
/// one) reads 0 there; [`undefined_on`] lists those.
pub const PER_LAYER: &[MetricDef] = &[
    // engine: spans around Txn::{get,scan,put,commit} in the executor,
    // ladder rungs on MasterEngine::get, public pool counters.
    m("engine.get_p50_us", "us", Lower),
    m("engine.scan_p50_us", "us", Lower),
    m("engine.put_p50_us", "us", Lower),
    m("engine.commit_p50_us", "us", Lower),
    m("engine.commit_p95_us", "us", Lower),
    m("engine.get_hit_p50_us", "us", Lower),
    m("engine.get_miss_p50_us", "us", Lower),
    m("engine.pool_hit_ratio", "ratio", Higher),
    m("engine.prefetch_useful_share", "ratio", Higher),
    m("engine.conflict_retries_per_txn", "1/txn", Lower),
    m("engine.replica_catchup_us", "us", Lower),
    // core (SAL): ladder rungs and SalStats / ReadBatchStats deltas.
    m("core.read_page_p50_us", "us", Lower),
    m("core.read_page_p95_us", "us", Lower),
    m("core.read_pages16_p50_us", "us", Lower),
    m("core.commit_solo_p50_us", "us", Lower),
    m("core.commit_self_us", "us", Lower),
    m("core.page_reads_per_txn", "1/txn", Lower),
    m("core.read_retry_share", "ratio", Lower),
    m("core.pages_per_batch_rpc", "count", Higher),
    m("core.slices_per_envelope", "count", Higher),
    m("core.grouped_fallback_share", "ratio", Lower),
    m("core.log_flushes_per_commit", "ratio", Lower),
    m("core.slice_flushes_per_commit", "ratio", Lower),
    m("core.group_commit_waits_per_commit", "ratio", Lower),
    m("core.write_retries", "count", Lower),
    m("core.fragments_parked", "count", Lower),
    m("core.queue_full_drops", "count", Lower),
    m("core.dropped_flush_errors", "count", Lower),
    m("core.throttle_us_end", "us", Lower),
    m("core.recover_s", "s", Lower),
    // fabric: ladder rungs (also the noise canary) and dispatcher gauges.
    m("fabric.call_p50_us", "us", Lower),
    m("fabric.call_all3_p50_us", "us", Lower),
    m("fabric.fan_out6_p50_us", "us", Lower),
    m("fabric.device_read_p50_us", "us", Lower),
    m("fabric.device_append_p50_us", "us", Lower),
    m("fabric.dispatch_pool_share", "ratio", Higher),
    m("fabric.dispatch_max_queue_depth", "count", Lower),
    // logstore: LogStoreStats over the window, ladder rungs, device ledger.
    m("logstore.append_p50_us", "us", Lower),
    m("logstore.append_p95_us", "us", Lower),
    m("logstore.appends_per_commit", "ratio", Lower),
    m("logstore.seal_switches", "count", Lower),
    m("logstore.append4k_solo_p50_us", "us", Lower),
    m("logstore.server_append_p50_us", "us", Lower),
    m("logstore.device_bytes_per_user_byte", "ratio", Lower),
    m("logstore.cache_hit_ratio", "ratio", Higher),
    // pagestore: ladder rungs and PageStoreStats / cache / device deltas.
    m("pagestore.read_page_p50_us", "us", Lower),
    m("pagestore.read_page_p95_us", "us", Lower),
    m("pagestore.rpc_read_page_p50_us", "us", Lower),
    m("pagestore.write_logs_p50_us", "us", Lower),
    m("pagestore.records_fetched_per_page_read", "ratio", Lower),
    m("pagestore.staged_hit_share", "ratio", Higher),
    m("pagestore.l0_run_hit_share", "ratio", Higher),
    m("pagestore.l0_blob_read_share", "ratio", Lower),
    m("pagestore.pool_hit_ratio", "ratio", Higher),
    m("pagestore.logcache_hit_ratio", "ratio", Higher),
    m("pagestore.device_reads_per_page_read", "ratio", Lower),
    m("pagestore.device_bytes_per_user_byte", "ratio", Lower),
    m("pagestore.l0_sealed", "count", Higher),
    m("pagestore.l1_compactions", "count", Higher),
    m("pagestore.pages_per_compaction", "count", Lower),
    m("pagestore.bytes_reclaimed", "bytes", Higher),
    m("pagestore.backlog_pressure_end", "bytes", Lower),
    // workload: the harness itself, and what the end-to-end numbers hide.
    m("workload.read_p50_us", "us", Lower),
    m("workload.read_p95_us", "us", Lower),
    m("workload.commit_p50_us", "us", Lower),
    m("workload.commit_p95_us", "us", Lower),
    m("workload.txn_p99_us", "us", Lower),
    m("workload.txn_top_pct", "%", Higher),
    m("workload.txn_top_us", "us", Lower),
    m("workload.samples", "count", Higher),
    m("workload.failed_share", "ratio", Lower),
    m("workload.failed_write_conflict", "count", Lower),
    m("workload.failed_other", "count", Lower),
    m("workload.rate_drift", "ratio", Higher),
    m("workload.peak_rss_mb", "MB", Lower),
    m("workload.trace_overhead_share", "ratio", Lower),
    m("workload.harness_self_us", "us", Lower),
    m("workload.spans_recorded", "count", Higher),
    m("workload.spans_dropped", "count", Lower),
    m("workload.clients", "count", Higher),
    m("workload.traced_txn_per_s", "1/s", Higher),
    m("workload.untraced_txn_per_s", "1/s", Higher),
    m("workload.keys_verified", "count", Higher),
    m("workload.setup_s", "s", Lower),
    m("workload.load_s", "s", Lower),
    m("workload.warmup_s", "s", Lower),
    m("workload.ladder_s", "s", Lower),
    m("workload.cpu_canary_us", "us", Lower),
];
