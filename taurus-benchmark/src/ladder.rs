//! The per-layer ladder: after the traced window, one thread times each
//! layer's public entry points on the still-warm cluster, from the device
//! model up to `MasterEngine::get`. Adjacent rungs differ by one layer, so
//! a lower layer's cost is the difference between two rungs:
//!
//! ```text
//! engine.get_miss - core.read_page - pagestore.rpc_read_page
//!                 - pagestore.read_page - fabric.device_read
//! ```
//!
//! This is a single-threaded, unloaded decomposition: it bounds a layer's
//! share of a blocking step; it does not measure queueing under load.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use taurus_common::clock::SystemClock;
use taurus_common::config::StorageProfile;
use taurus_common::{
    DbId, LogRecord, Lsn, NodeId, PLogId, PageId, RecordBody, Result, SliceId, SliceKey,
    TaurusError,
};
use taurus_fabric::StorageDevice;
use taurus_logstore::LogStoreServer;
use taurus_pagestore::{ConsolidationPolicy, EvictionPolicy, PageStoreServer, SliceFragment};

use crate::gen::{Dataset, Rng, LADDER_STREAM};
use crate::hist::Histogram;
use crate::report::Metrics;
use crate::run::Cluster;
use crate::spec::ROW_BYTES;

/// Samples per rung, unless the rung's time budget runs out first.
const SAMPLES: u64 = 2_000;
const MIN_SAMPLES: u64 = 20;

/// A database id no tenant uses, for scratch PLogs and slices.
const SCRATCH_DB: DbId = DbId(0xBE7C);

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = black_box(f());
    (out, t0.elapsed().as_nanos() as u64)
}

/// Collects up to [`SAMPLES`] samples of `sample` (which returns the
/// nanoseconds of the part it timed), stopping early once `budget` is spent.
fn rung(budget: Duration, mut sample: impl FnMut() -> Result<u64>) -> Result<Histogram> {
    let mut h = Histogram::new();
    let start = Instant::now();
    while h.count() < SAMPLES && (h.count() < MIN_SAMPLES || start.elapsed() < budget) {
        h.record(sample()?);
    }
    Ok(h)
}

/// PRNG steps in one sample of the CPU canary.
const CANARY_STEPS: u32 = 20_000;

/// Host-speed canary: every client thread at once times a fixed pure-CPU
/// loop that touches none of the repo's code. It moves when the host gives
/// the process less CPU (on a VM whose vCPUs share a core it doubles as soon
/// as two threads are busy), and never because of a change to the system
/// under test. Returns the median sample in microseconds.
fn cpu_canary(threads: usize, budget: Duration) -> Option<f64> {
    let per_thread: Vec<Histogram> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut rng = Rng::new(t as u64, 0);
                    rung(budget, || {
                        Ok(timed(|| (0..CANARY_STEPS).fold(0u64, |acc, _| acc ^ rng.next_u64())).1)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().ok().and_then(Result::ok))
            .collect()
    });
    let mut all = Histogram::new();
    for h in &per_thread {
        all.merge(h);
    }
    all.quantile_us(0.5)
}

/// Runs every rung and reports its metrics. `budget` is the time one rung
/// may take. Solo commits go into `cluster.conns[0]`'s write model, so the
/// recovery check covers them too.
pub fn run(
    cluster: &mut Cluster,
    data: &Dataset,
    seed: u64,
    budget: Duration,
    out: &mut Metrics,
) -> Result<()> {
    let mut rng = Rng::new(seed, LADDER_STREAM);
    let db = Arc::clone(&cluster.db);
    let master = db.master();
    let sal = &master.sal;
    let me = sal.me;
    let clock = SystemClock::shared;
    let profile = StorageProfile::default();

    out.set_opt(
        "workload.cpu_canary_us",
        cpu_canary(cluster.conns.len(), budget),
    );

    // ---- fabric: the floor under every miss and every commit ----------
    let page_nodes: Vec<NodeId> = db.pages.server_nodes();
    let call = rung(budget, || {
        let (r, ns) = timed(|| db.fabric.call(me, page_nodes[0], || ()));
        r.map(|()| ns)
    })?;
    out.set_opt("fabric.call_p50_us", call.quantile_us(0.5));
    let call_all3 = rung(budget, || {
        let calls = page_nodes[..3]
            .iter()
            .map(|&n| (n, Box::new(|| ()) as Box<dyn FnOnce() + Send>))
            .collect();
        let (rs, ns) = timed(|| db.fabric.call_all(me, calls));
        rs.into_iter().collect::<Result<Vec<()>>>().map(|_| ns)
    })?;
    out.set_opt("fabric.call_all3_p50_us", call_all3.quantile_us(0.5));
    let fan_out6 = rung(budget, || {
        let jobs = (0..6)
            .map(|_| Box::new(|| ()) as Box<dyn FnOnce() + Send>)
            .collect();
        Ok(timed(|| db.fabric.fan_out(jobs)).1)
    })?;
    out.set_opt("fabric.fan_out6_p50_us", fan_out6.quantile_us(0.5));

    let device = StorageDevice::in_memory(clock(), profile);
    let blob = vec![0x5Au8; 8 << 10];
    for _ in 0..64 {
        device.append(&blob)?;
    }
    let device_read = rung(budget, || {
        let off = rng.below(64) * blob.len() as u64;
        let (r, ns) = timed(|| device.read(off, blob.len()));
        r.map(|_| ns)
    })?;
    out.set_opt("fabric.device_read_p50_us", device_read.quantile_us(0.5));
    let device_append = rung(budget, || {
        let (r, ns) = timed(|| device.append(&blob[..4 << 10]));
        r.map(|_| ns)
    })?;
    out.set_opt(
        "fabric.device_append_p50_us",
        device_append.quantile_us(0.5),
    );

    // ---- logstore ------------------------------------------------------
    let block = Bytes::from(vec![0xA5u8; 4 << 10]);
    let solo_server = LogStoreServer::new(
        StorageDevice::in_memory(clock(), profile),
        db.cfg.logstore_cache_bytes,
    );
    let scratch_plog = PLogId::new(SCRATCH_DB, 1, 0);
    solo_server.create_plog(scratch_plog);
    let server_append = rung(budget, || {
        let (r, ns) = timed(|| solo_server.append(scratch_plog, block.clone()));
        r.map(|_| ns)
    })?;
    out.set_opt(
        "logstore.server_append_p50_us",
        server_append.quantile_us(0.5),
    );
    db.logs.create_plog(scratch_plog, me)?;
    let append4k = rung(budget, || {
        let (r, ns) = timed(|| db.logs.append(scratch_plog, me, block.clone()));
        r.map(|()| ns)
    })?;
    db.logs.delete_plog(scratch_plog, me);
    out.set_opt("logstore.append4k_solo_p50_us", append4k.quantile_us(0.5));

    // ---- pagestore -----------------------------------------------------
    // Every data page of the database with its slice and first replica.
    let mut pages: Vec<(SliceKey, NodeId, PageId)> = Vec::new();
    for key in db.pages.slices() {
        let Some(&node) = db.pages.replicas_of(key).first() else {
            continue;
        };
        for page in db.pages.page_ids_of(node, me, key)? {
            if page != PageId::CONTROL {
                pages.push((key, node, page));
            }
        }
    }
    if pages.is_empty() {
        return Err(TaurusError::Internal("ladder: no data pages".into()));
    }
    let pick = |rng: &mut Rng| pages[rng.below(pages.len() as u64) as usize];
    let direct_read = rung(budget, || {
        let (key, node, page) = pick(&mut rng);
        let server = db
            .pages
            .server_handle(node)
            .ok_or(TaurusError::NodeUnavailable(node))?;
        let as_of = server.get_persistent_lsn(key)?;
        let (r, ns) = timed(|| server.read_page(key, page, as_of));
        r.map(|_| ns)
    })?;
    out.set_opt("pagestore.read_page_p50_us", direct_read.quantile_us(0.5));
    out.set_opt("pagestore.read_page_p95_us", direct_read.quantile_us(0.95));
    let rpc_read = rung(budget, || {
        let (key, node, page) = pick(&mut rng);
        let as_of = db.pages.persistent_lsn_of(node, me, key)?;
        let (r, ns) = timed(|| db.pages.read_page_from(node, me, key, page, as_of));
        r.map(|_| ns)
    })?;
    out.set_opt("pagestore.rpc_read_page_p50_us", rpc_read.quantile_us(0.5));

    // WriteLogs of ~4 KiB fragments into a scratch slice of a stand-alone
    // server (ingest only: nothing consolidates it).
    let solo_store = PageStoreServer::new(
        StorageDevice::in_memory(clock(), profile),
        db.cfg.pagestore_log_cache_bytes,
        db.cfg.pagestore_buffer_pool_pages,
        EvictionPolicy::Lfu,
        ConsolidationPolicy::Layered {
            l0_target_bytes: db.cfg.layer_l0_target_bytes,
            compaction_threshold: db.cfg.compaction_threshold,
        },
    );
    let scratch_slice = SliceKey::new(SCRATCH_DB, SliceId(0));
    solo_store.create_slice(scratch_slice);
    let val = Bytes::from(vec![b'x'; ROW_BYTES]);
    let mut next_lsn = 1u64;
    let mut prev_last = Lsn::ZERO;
    let write_logs = rung(budget, || {
        let records: Vec<LogRecord> = (0..16u64)
            .map(|i| {
                let body = RecordBody::UpdateValue {
                    idx: 0,
                    val: val.clone(),
                };
                LogRecord::new(Lsn(next_lsn + i), PageId(1 + i), body)
            })
            .collect();
        next_lsn += 16;
        let frag = SliceFragment::new(scratch_slice, prev_last, records);
        prev_last = frag.last_lsn();
        let (r, ns) = timed(|| solo_store.write_logs(&frag));
        r.map(|_| ns)
    })?;
    out.set_opt("pagestore.write_logs_p50_us", write_logs.quantile_us(0.5));

    // ---- core (SAL) ----------------------------------------------------
    let sal_read = rung(budget, || {
        let (_, _, page) = pick(&mut rng);
        let (r, ns) = timed(|| sal.read_page(page, None));
        r.map(|_| ns)
    })?;
    out.set_opt("core.read_page_p50_us", sal_read.quantile_us(0.5));
    out.set_opt("core.read_page_p95_us", sal_read.quantile_us(0.95));
    let sal_read16 = rung(budget, || {
        // Sixteen neighbouring pages, as a scan's readahead asks for.
        let first = rng.below(pages.len().saturating_sub(16).max(1) as u64) as usize;
        let ids: Vec<PageId> = pages[first..].iter().take(16).map(|p| p.2).collect();
        let (r, ns) = timed(|| sal.read_pages(&ids, None));
        r.map(|_| ns)
    })?;
    out.set_opt("core.read_pages16_p50_us", sal_read16.quantile_us(0.5));

    // ---- engine --------------------------------------------------------
    // A point get is a miss when it made the SAL fetch at least one page.
    let fetched =
        || sal.stats.snapshot().page_reads + sal.read_batch_stats.snapshot().pages_requested;
    let (mut hit, mut miss) = (Histogram::new(), Histogram::new());
    let start = Instant::now();
    while hit.count() + miss.count() < SAMPLES
        && (hit.count() + miss.count() < MIN_SAMPLES || start.elapsed() < budget * 2)
    {
        let row = rng.below(data.rows()) as usize;
        let before = fetched();
        let (r, ns) = timed(|| master.get(&data.keys[row]));
        r?;
        if fetched() == before {
            &mut hit
        } else {
            &mut miss
        }
        .record(ns);
    }
    out.set_opt("engine.get_hit_p50_us", hit.quantile_us(0.5));
    out.set_opt("engine.get_miss_p50_us", miss.quantile_us(0.5));

    // Solo commit at concurrency 1: one put, one commit, nobody to group
    // with. Minus the bare 3/3 append it leaves the SAL's own share.
    let conn = &mut cluster.conns[0];
    let solo_commit = rung(budget, || {
        let row = rng.below(data.rows()) as u32;
        let value = rng.row_value();
        let (r, ns) = timed(|| {
            let mut txn = master.begin();
            txn.put(&data.keys[row as usize], &value)?;
            txn.commit()
        });
        conn.model.insert(row, (r?, value));
        Ok(ns)
    })?;
    let solo_p50 = solo_commit.quantile_us(0.5);
    out.set_opt("core.commit_solo_p50_us", solo_p50);
    out.set_opt(
        "core.commit_self_us",
        solo_p50
            .zip(append4k.quantile_us(0.5))
            .map(|(commit, append)| commit - append),
    );
    Ok(())
}
