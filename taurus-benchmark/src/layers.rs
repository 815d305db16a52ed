//! Per-layer counts: the crates' existing public counters, read from
//! outside before and after a window and turned into per-layer ratios.

use std::sync::Arc;

use taurus_core::sal::ReadBatchStatsSnapshot;
use taurus_core::SalStatsSnapshot;
use taurus_engine::TaurusDb;
use taurus_fabric::{DispatchSnapshot, NodeKind};
use taurus_logstore::LogStoreServer;
use taurus_pagestore::{PageStoreServer, PageStoreStatsSnapshot};

use crate::exec::WindowStats;
use crate::gen::Dataset;
use crate::report::Metrics;
use crate::spec::ROW_BYTES;

/// Every counter the per-layer metrics diff, at one instant.
pub struct Counters {
    sal: SalStatsSnapshot,
    batch: ReadBatchStatsSnapshot,
    dispatch: DispatchSnapshot,
    log_appends: u64,
    log_seal_switches: u64,
    /// Bytes appended to Log Store devices, all servers.
    log_device_bytes: u64,
    page: PageStoreStatsSnapshot,
    /// Records consolidation or reads fetched from fragment blobs on disk.
    page_disk_record_fetches: u64,
    page_device_reads: u64,
    page_device_bytes: u64,
}

fn log_servers(db: &TaurusDb) -> Vec<Arc<LogStoreServer>> {
    let nodes = db.fabric.all_nodes(NodeKind::LogStore);
    nodes
        .into_iter()
        .filter_map(|n| db.logs.server_handle(n))
        .collect()
}

fn page_servers(db: &TaurusDb) -> Vec<Arc<PageStoreServer>> {
    let nodes = db.pages.server_nodes();
    nodes
        .into_iter()
        .filter_map(|n| db.pages.server_handle(n))
        .collect()
}

impl Counters {
    pub fn read(db: &TaurusDb) -> Counters {
        let master = db.master();
        let sal = &master.sal;
        let log = sal.log_stats().snapshot();
        let log_device_bytes = log_servers(db).iter().map(|s| s.device_stats().3).sum();
        let page_servers = page_servers(db);
        Counters {
            sal: sal.stats.snapshot(),
            batch: sal.read_batch_stats.snapshot(),
            dispatch: sal.dispatch_stats(),
            log_appends: log.appends,
            log_seal_switches: log.seal_switches,
            log_device_bytes,
            page: db.pages.store_stats(),
            page_disk_record_fetches: page_servers
                .iter()
                .map(|s| s.disk_record_fetches.get())
                .sum(),
            page_device_reads: page_servers.iter().map(|s| s.device_stats().2).sum(),
            page_device_bytes: page_servers.iter().map(|s| s.device_stats().3).sum(),
        }
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> Option<f64> {
    let (n, sum) = xs.fold((0u32, 0.0), |(n, s), x| (n + 1, s + x));
    (n > 0).then(|| sum / n as f64)
}

/// Reports every counter-derived per-layer metric of the window between
/// `a` and `b`, during which the connections measured `w`. Hit ratios come
/// from the crates' own cumulative ratios and so cover the cluster's life
/// since launch, not the window alone.
pub fn report(
    db: &TaurusDb,
    data: &Dataset,
    a: &Counters,
    b: &Counters,
    w: &WindowStats,
    out: &mut Metrics,
) {
    let d = |f: fn(&Counters) -> u64| f(b).saturating_sub(f(a)) as f64;
    let txns = w.committed() as f64;
    let commits = w.write.count() as f64;
    // Key and value bytes the committed write transactions asked to store.
    let user_bytes = commits * 3.0 * (data.keys[0].len() + ROW_BYTES) as f64;
    let master = db.master();
    let sal = &master.sal;

    // engine
    out.set("engine.pool_hit_ratio", master.pool_stats().0);
    let (prefetched, prefetch_hits) = master.pool_prefetch_stats();
    out.set_ratio(
        "engine.prefetch_useful_share",
        prefetch_hits as f64,
        prefetched as f64,
    );
    out.set_ratio(
        "engine.conflict_retries_per_txn",
        w.conflict_retries as f64,
        w.attempted as f64,
    );

    // core
    let single_reads = d(|c| c.sal.page_reads);
    let batch_rpcs = d(|c| c.batch.batch_rpcs);
    out.set_ratio(
        "core.page_reads_per_txn",
        single_reads + d(|c| c.batch.pages_requested),
        txns,
    );
    out.set_ratio(
        "core.read_retry_share",
        d(|c| c.sal.read_retries + c.batch.batch_retries + c.batch.straggler_retries),
        single_reads + batch_rpcs,
    );
    out.set_ratio(
        "core.pages_per_batch_rpc",
        d(|c| c.batch.pages_returned),
        batch_rpcs,
    );
    let slice_batches = d(|c| c.sal.grouped_slice_batches);
    out.set_ratio(
        "core.slices_per_envelope",
        slice_batches,
        d(|c| c.sal.grouped_envelopes),
    );
    out.set_ratio(
        "core.grouped_fallback_share",
        d(|c| c.sal.grouped_fallback_slices),
        slice_batches,
    );
    out.set_ratio(
        "core.log_flushes_per_commit",
        d(|c| c.sal.log_flushes),
        commits,
    );
    out.set_ratio(
        "core.slice_flushes_per_commit",
        d(|c| c.sal.slice_flushes),
        commits,
    );
    out.set_ratio(
        "core.group_commit_waits_per_commit",
        d(|c| c.sal.group_commit_waits),
        commits,
    );
    out.set("core.write_retries", d(|c| c.sal.write_retries));
    out.set("core.fragments_parked", d(|c| c.sal.fragments_parked));
    out.set("core.queue_full_drops", d(|c| c.sal.queue_full_drops));
    out.set(
        "core.dropped_flush_errors",
        d(|c| c.sal.dropped_flush_errors),
    );
    out.set("core.throttle_us_end", sal.current_throttle_us() as f64);

    // fabric
    let pool_jobs = d(|c| c.dispatch.pool_jobs);
    out.set_ratio(
        "fabric.dispatch_pool_share",
        pool_jobs,
        pool_jobs + d(|c| c.dispatch.inline_jobs),
    );
    out.set(
        "fabric.dispatch_max_queue_depth",
        b.dispatch.max_queue_depth as f64,
    );

    // logstore (the append latency recorder was cleared at window start)
    let append = sal.log_stats().append_latency.summary();
    out.set_opt("logstore.append_p50_us", append.map(|s| s.p50_us as f64));
    out.set_opt("logstore.append_p95_us", append.map(|s| s.p95_us as f64));
    out.set_ratio("logstore.appends_per_commit", d(|c| c.log_appends), commits);
    out.set("logstore.seal_switches", d(|c| c.log_seal_switches));
    out.set_ratio(
        "logstore.device_bytes_per_user_byte",
        d(|c| c.log_device_bytes),
        user_bytes,
    );
    out.set_opt(
        "logstore.cache_hit_ratio",
        mean(log_servers(db).iter().map(|s| s.cache_hit_ratio())),
    );

    // pagestore
    let page_reads = d(|c| c.page.slice_read_ops);
    let staged = d(|c| c.page.staged_record_hits);
    let l0_run = d(|c| c.page.l0_run_hits);
    let fetched = staged + l0_run + d(|c| c.page_disk_record_fetches);
    out.set_ratio(
        "pagestore.records_fetched_per_page_read",
        fetched,
        page_reads,
    );
    out.set_ratio("pagestore.staged_hit_share", staged, fetched);
    out.set_ratio("pagestore.l0_run_hit_share", l0_run, fetched);
    out.set_ratio(
        "pagestore.l0_blob_read_share",
        d(|c| c.page.l0_blob_reads),
        page_reads,
    );
    let caches: Vec<_> = page_servers(db).iter().map(|s| s.cache_stats()).collect();
    out.set_opt(
        "pagestore.logcache_hit_ratio",
        mean(caches.iter().map(|c| c.0)),
    );
    out.set_opt("pagestore.pool_hit_ratio", mean(caches.iter().map(|c| c.1)));
    out.set_ratio(
        "pagestore.device_reads_per_page_read",
        d(|c| c.page_device_reads),
        page_reads,
    );
    out.set_ratio(
        "pagestore.device_bytes_per_user_byte",
        d(|c| c.page_device_bytes),
        user_bytes,
    );
    out.set("pagestore.l0_sealed", d(|c| c.page.l0_sealed));
    let compactions = d(|c| c.page.l1_compactions);
    out.set("pagestore.l1_compactions", compactions);
    out.set_ratio(
        "pagestore.pages_per_compaction",
        d(|c| c.page.pages_compacted),
        compactions,
    );
    out.set(
        "pagestore.bytes_reclaimed",
        d(|c| c.page.frag_bytes_reclaimed + c.page.layer_bytes_reclaimed),
    );
    out.set(
        "pagestore.backlog_pressure_end",
        db.pages.max_backlog_pressure() as f64,
    );
}
