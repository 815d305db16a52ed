//! Regenerates the **§7 design-choice ablations**:
//!
//! 1. **LFU vs LRU** for the Page Store buffer pool — the paper measured
//!    LFU ≈25% better hit rate for this second-tier cache.
//! 2. **Log-cache-centric vs longest-chain-first** consolidation — the
//!    rejected policy leaves cold fragments unconsolidated until they fall
//!    out of the log cache, so consolidation then re-reads log records from
//!    disk; the shipped policy never reads log records from disk.

#![forbid(unsafe_code)]

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use bytes::Bytes;
use taurus_common::clock::SystemClock;
use taurus_common::config::StorageProfile;
use taurus_common::page::PageType;
use taurus_common::record::{LogRecord, RecordBody};
use taurus_common::{DbId, Lsn, PageId, SliceId, SliceKey};
use taurus_fabric::StorageDevice;
use taurus_pagestore::{ConsolidationPolicy, EvictionPolicy, PageStoreServer, SliceFragment};
use taurus_workload::Zipf;

fn key() -> SliceKey {
    SliceKey::new(DbId(1), SliceId(0))
}

/// Drives a zipfian page-update stream through a Page Store and returns
/// (pool hit ratio, disk record fetches during consolidation).
fn run_server(
    pool_policy: EvictionPolicy,
    consolidation: ConsolidationPolicy,
    pool_pages: usize,
    log_cache_bytes: usize,
    updates: u64,
    consolidation_every: u64,
) -> (f64, u64) {
    let server = PageStoreServer::new(
        StorageDevice::in_memory(SystemClock::shared(), StorageProfile::instant()),
        log_cache_bytes,
        pool_pages,
        pool_policy,
        consolidation,
    );
    server.create_slice(key());
    let pages = 2_000u64;
    let zipf = Zipf::new(pages, 0.9);
    let mut rng = StdRng::seed_from_u64(17);
    let mut lsn = 0u64;
    let mut formatted = std::collections::HashSet::new();
    for i in 0..updates {
        let page = zipf.sample(&mut rng) + 1;
        let mut records = Vec::new();
        let prev = Lsn(lsn);
        if formatted.insert(page) {
            lsn += 1;
            records.push(LogRecord::new(
                Lsn(lsn),
                PageId(page),
                RecordBody::Format {
                    ty: PageType::Leaf,
                    level: 0,
                },
            ));
            lsn += 1;
            records.push(LogRecord::new(
                Lsn(lsn),
                PageId(page),
                RecordBody::Insert {
                    idx: 0,
                    key: Bytes::from_static(b"row"),
                    val: Bytes::from(vec![b'v'; 64]),
                },
            ));
        } else {
            // In-place row update: the page stays the same size, like the
            // sysbench update workload driving the paper's figure.
            lsn += 1;
            records.push(LogRecord::new(
                Lsn(lsn),
                PageId(page),
                RecordBody::UpdateValue {
                    idx: 0,
                    val: Bytes::from(format!("v{i:060}").into_bytes()),
                },
            ));
        }
        let frag = SliceFragment::new(key(), prev, records);
        server.write_logs(&frag).expect("write_logs");
        // Interleave consolidation as the background thread would. The
        // ratio understates ingest so a backlog builds — the regime where
        // the §7 policy choice matters.
        if i % consolidation_every == 0 {
            server.consolidate_step();
        }
    }
    server.consolidate_all();
    let _ = server.flush_dirty();
    let (_, pool_ratio, _, _, _) = server.cache_stats();
    (pool_ratio, server.disk_record_fetches.get())
}

fn main() {
    let updates = 30_000u64;
    println!("§7 ablations (zipfian page-update stream, {updates} updates)\n");

    println!("1) Page Store buffer pool policy (paper: LFU ~25% better)");
    let (lfu_hit, _) = run_server(
        EvictionPolicy::Lfu,
        ConsolidationPolicy::LogCacheCentric,
        128,
        64 << 20,
        updates,
        1,
    );
    let (lru_hit, _) = run_server(
        EvictionPolicy::Lru,
        ConsolidationPolicy::LogCacheCentric,
        128,
        64 << 20,
        updates,
        1,
    );
    println!("   LFU hit ratio: {:.3}", lfu_hit);
    println!("   LRU hit ratio: {:.3}", lru_hit);
    println!(
        "   LFU vs LRU: {:+.0}%\n",
        (lfu_hit / lru_hit.max(1e-9) - 1.0) * 100.0
    );

    println!("2) Consolidation policy (paper: log-cache-centric never reads");
    println!("   log records from disk; longest-chain-first floods small reads)");
    // Small log cache so the rejected policy's pathology shows.
    let small_cache = 48 << 10;
    let (_, centric_fetches) = run_server(
        EvictionPolicy::Lfu,
        ConsolidationPolicy::LogCacheCentric,
        128,
        small_cache,
        updates / 3,
        3,
    );
    let (_, chain_fetches) = run_server(
        EvictionPolicy::Lfu,
        ConsolidationPolicy::LongestChainFirst,
        128,
        small_cache,
        updates / 3,
        3,
    );
    println!("   log-cache-centric disk record fetches : {centric_fetches}");
    println!("   longest-chain-first disk record fetches: {chain_fetches}");
    println!();
    let _ = Arc::new(()); // keep Arc import used under cfg combinations
    println!(
        "Shape targets: LFU > LRU hit rate; the rejected policy performs\n\
         disk record fetches while the shipped policy performs none (or\n\
         orders of magnitude fewer)."
    );
}
