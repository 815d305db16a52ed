//! Regenerates the **§7 design-choice ablations** as models over the real
//! Page Store cache structures — no server runs a rejected policy:
//!
//! 1. **LFU vs LRU** for the Page Store buffer pool — the paper measured
//!    LFU ≈25% better hit rate for this second-tier cache. The model drives
//!    a [`PagePool`] with the page trace a consolidating server puts through
//!    its pool: a lookup per page update, an insert on a miss.
//! 2. **Arrival order vs longest pending chain first** for consolidation —
//!    the rejected order leaves cold fragments unconsolidated until they
//!    fall out of the log cache, so consolidation then re-reads log records
//!    from disk. The model drives a real [`LogCache`] (admit, backlog, pump,
//!    complete) and counts a record fetch as a disk fetch when the record's
//!    fragment is no longer resident.
//!
//! `TAURUS_ABLATIONS_ASSERT=1` turns the paper's two shapes into gates:
//! LFU's hit ratio above LRU's, and more disk record fetches under longest
//! chain first than under arrival order.

#![forbid(unsafe_code)]

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use bytes::Bytes;
use taurus_common::page::PageType;
use taurus_common::record::{LogRecord, RecordBody};
use taurus_common::{DbId, Lsn, PageBuf, PageId, SliceId, SliceKey};
use taurus_pagestore::logcache::LogCache;
use taurus_pagestore::pool::PooledPage;
use taurus_pagestore::{EvictionPolicy, PagePool};
use taurus_workload::Zipf;

/// Pages the update stream draws from.
const PAGES: u64 = 2_000;

fn key() -> SliceKey {
    SliceKey::new(DbId(1), SliceId(0))
}

/// A zipfian page-update stream, one fragment per update: the first visit
/// of a page formats it and inserts a row, later visits update that row in
/// place (the page stays the same size, like the sysbench update workload
/// driving the paper's figure).
struct UpdateStream {
    zipf: Zipf,
    rng: StdRng,
    formatted: std::collections::HashSet<u64>,
    lsn: u64,
    updates: u64,
}

impl UpdateStream {
    fn new() -> Self {
        UpdateStream {
            zipf: Zipf::new(PAGES, 0.9),
            rng: StdRng::seed_from_u64(17),
            formatted: std::collections::HashSet::new(),
            lsn: 0,
            updates: 0,
        }
    }

    fn record(&mut self, page: u64, body: RecordBody) -> LogRecord {
        self.lsn += 1;
        LogRecord::new(Lsn(self.lsn), PageId(page), body)
    }
}

impl Iterator for UpdateStream {
    type Item = Vec<LogRecord>;

    fn next(&mut self) -> Option<Vec<LogRecord>> {
        let page = self.zipf.sample(&mut self.rng) + 1;
        let i = self.updates;
        self.updates += 1;
        let records = if self.formatted.insert(page) {
            let format = RecordBody::Format {
                ty: PageType::Leaf,
                level: 0,
            };
            let insert = RecordBody::Insert {
                idx: 0,
                key: Bytes::from_static(b"row"),
                val: Bytes::from(vec![b'v'; 64]),
            };
            vec![self.record(page, format), self.record(page, insert)]
        } else {
            let update = RecordBody::UpdateValue {
                idx: 0,
                val: Bytes::from(format!("v{i:060}").into_bytes()),
            };
            vec![self.record(page, update)]
        };
        Some(records)
    }
}

/// Pool hit ratio over the stream's page trace.
fn pool_hit_ratio(policy: EvictionPolicy, pool_pages: usize, updates: usize) -> f64 {
    let pool = PagePool::new(pool_pages, policy);
    for records in UpdateStream::new().take(updates) {
        let page = records[0].page;
        if pool.get(key(), page).is_none() {
            let image = PooledPage {
                page: PageBuf::new(),
                lsn: Lsn::ZERO,
            };
            pool.put(key(), page, image);
        }
    }
    pool.stats.ratio()
}

#[derive(Clone, Copy)]
enum Order {
    /// The paper's log-cache-centric order: the oldest resident fragment,
    /// every page it touches consolidated up to the head.
    Arrival,
    /// The rejected order: the page with the most records pending; a
    /// fragment leaves the cache once all its records happen to be covered.
    LongestPendingChain,
}

/// One slice consolidating through a [`LogCache`]. A page's consolidated
/// LSN stands for the image a server keeps for it; consolidating a page
/// replays its records above that LSN up to the head.
struct ConsolidationModel {
    cache: LogCache,
    /// Records of each fragment, by fragment id.
    frags: Vec<Arc<Vec<LogRecord>>>,
    /// `(lsn, fragment id)` of each record, per page id, ascending.
    records: Vec<Vec<(Lsn, u64)>>,
    /// The LSN each page's image is consolidated to, per page id.
    done: Vec<Lsn>,
    disk_fetches: u64,
}

fn payload_bytes(records: &[LogRecord]) -> usize {
    records.iter().map(LogRecord::encoded_len).sum()
}

impl ConsolidationModel {
    fn new(log_cache_bytes: usize) -> Self {
        let pages = PAGES as usize + 1;
        ConsolidationModel {
            cache: LogCache::new(log_cache_bytes),
            frags: Vec::new(),
            records: vec![Vec::new(); pages],
            done: vec![Lsn::ZERO; pages],
            disk_fetches: 0,
        }
    }

    fn ingest(&mut self, records: Vec<LogRecord>) {
        let id = self.frags.len() as u64;
        for r in &records {
            self.records[r.page.0 as usize].push((r.lsn, id));
        }
        let bytes = payload_bytes(&records);
        let records = Arc::new(records);
        self.cache.admit((key(), id), Arc::clone(&records), bytes);
        self.frags.push(records);
    }

    /// Loads parked fragments back into the cache, oldest first, while they
    /// fit.
    fn pump(&self) {
        while let Some(k) = self.cache.next_backlog() {
            let records = Arc::clone(&self.frags[k.1 as usize]);
            let bytes = payload_bytes(&records);
            if !self.cache.load_from_backlog(k, records, bytes) {
                break;
            }
        }
    }

    /// Records of `page` above its consolidated LSN.
    fn pending(&self, page: usize) -> &[(Lsn, u64)] {
        let records = &self.records[page];
        &records[records.partition_point(|(lsn, _)| *lsn <= self.done[page])..]
    }

    /// Consolidates `page` up to the head; each pending record whose
    /// fragment is not resident is a disk fetch.
    fn replay_page(&mut self, page: usize) {
        let pending = self.pending(page);
        let Some(&(last, _)) = pending.last() else {
            return;
        };
        let fetched = pending
            .iter()
            .filter(|(_, frag)| self.cache.get((key(), *frag)).is_none())
            .count();
        self.disk_fetches += fetched as u64;
        self.done[page] = last;
    }

    /// Completes resident fragments, oldest first, whose records are all
    /// consolidated.
    fn sweep(&self) -> bool {
        let mut progressed = false;
        while let Some((k, records)) = self.cache.next_for_consolidation() {
            if records.iter().any(|r| self.done[r.page.0 as usize] < r.lsn) {
                break;
            }
            self.cache.complete(k, payload_bytes(&records));
            progressed = true;
        }
        progressed
    }

    /// One consolidation step; `false` when there was nothing to do.
    fn step(&mut self, order: Order) -> bool {
        self.pump();
        match order {
            Order::Arrival => {
                let Some((k, records)) = self.cache.next_for_consolidation() else {
                    return false;
                };
                let mut pages: Vec<usize> = records.iter().map(|r| r.page.0 as usize).collect();
                pages.sort_unstable();
                pages.dedup();
                for page in pages {
                    self.replay_page(page);
                }
                self.cache.complete(k, payload_bytes(&records));
                true
            }
            Order::LongestPendingChain => {
                let mut best: Option<(usize, usize)> = None;
                for page in 0..self.records.len() {
                    let chain = self.pending(page).len();
                    if chain > best.map_or(0, |(_, c)| c) {
                        best = Some((page, chain));
                    }
                }
                let Some((page, _)) = best else {
                    return self.sweep();
                };
                self.replay_page(page);
                self.sweep();
                true
            }
        }
    }
}

/// Disk record fetches of `updates` updates with one consolidation step per
/// `every` ingests — fewer steps than fragments, so a backlog builds — and
/// then a full drain.
fn disk_record_fetches(order: Order, log_cache_bytes: usize, updates: usize, every: usize) -> u64 {
    let mut model = ConsolidationModel::new(log_cache_bytes);
    for (i, records) in UpdateStream::new().take(updates).enumerate() {
        model.ingest(records);
        if i % every == 0 {
            model.step(order);
        }
    }
    while model.step(order) {}
    model.disk_fetches
}

fn main() {
    let updates = 30_000usize;
    println!("§7 ablations (zipfian page-update stream, {updates} updates)\n");

    println!("1) Page Store buffer pool policy (paper: LFU ~25% better)");
    let lfu_hit = pool_hit_ratio(EvictionPolicy::Lfu, 128, updates);
    let lru_hit = pool_hit_ratio(EvictionPolicy::Lru, 128, updates);
    println!("   LFU hit ratio: {:.3}", lfu_hit);
    println!("   LRU hit ratio: {:.3}", lru_hit);
    println!(
        "   LFU vs LRU: {:+.0}%\n",
        (lfu_hit / lru_hit.max(1e-9) - 1.0) * 100.0
    );

    println!("2) Consolidation order (paper: log-cache-centric never reads");
    println!("   log records from disk; longest-chain-first floods small reads)");
    // Small log cache so the rejected order's pathology shows.
    let small_cache = 48 << 10;
    let arrival = disk_record_fetches(Order::Arrival, small_cache, updates / 3, 3);
    let chain = disk_record_fetches(Order::LongestPendingChain, small_cache, updates / 3, 3);
    println!("   arrival order (log-cache-centric) disk record fetches: {arrival}");
    println!("   longest pending chain first disk record fetches      : {chain}");
    println!();
    println!(
        "Shape targets: LFU > LRU hit rate; longest chain first performs\n\
         more disk record fetches than arrival order. Arrival order's own\n\
         fetches are records of fragments parked on the backlog when a\n\
         page they touch is consolidated."
    );

    if std::env::var("TAURUS_ABLATIONS_ASSERT").as_deref() == Ok("1") {
        assert!(
            lfu_hit > lru_hit,
            "LFU hit ratio {lfu_hit:.3} is not above LRU's {lru_hit:.3}"
        );
        assert!(
            chain > arrival,
            "longest chain first fetched {chain} records from disk, \
             arrival order {arrival}: the rejected order is not worse"
        );
        println!("\nTAURUS_ABLATIONS_ASSERT: both gates passed.");
    }
}
