//! Read replicas (paper §6).
//!
//! A replica never receives log data from the master. The master only
//! publishes *horizons* (the [`crate::master::Bulletin`]); the replica pulls
//! the log directly from the Log Stores with an incremental tail reader,
//! applies whole record groups atomically to the pages in its buffer pool,
//! and reads pages it does not have from the Page Stores at its
//! transaction-visible LSN — through the read planner it shares with the
//! master's SAL ([`taurus_core::slice_reader`]): latency-aware routing,
//! fail-over, fan-out and per-node coalescing come with it.
//!
//! Consistency machinery reproduced from the paper:
//!
//! * **replica visible LSN** — always a group boundary, never ahead of the
//!   master-published read horizon (so Page Stores can serve its reads);
//! * **transaction-visible LSN (TV-LSN)** — each read transaction pins the
//!   visible LSN at begin; the minimum pin is fed back to the master, which
//!   turns it into the recycle LSN that lets Page Stores purge old versions;
//! * **logical consistency** — commit records in the log maintain the
//!   replica's committed-transaction view.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use taurus_common::apply::apply_record;
use taurus_common::lsn::LsnWatermark;
use taurus_common::record::RecordBody;
use taurus_common::scan::ScanRequest;
use taurus_common::{
    DbId, Lsn, NodeId, PageBuf, PageId, Result, SliceKey, TaurusConfig, TaurusError, TxnId,
};
use taurus_core::{FrontEnd, SliceReader, TableScan};
use taurus_logstore::{Log, LogCursor, LogStoreCluster};
use taurus_pagestore::PageStoreCluster;

use crate::btree::{BTree, PageFetch};
use crate::master::Bulletin;
use crate::pool::{EnginePool, Frame, TraversalCache};

/// A read-only replica front end.
pub struct ReplicaEngine {
    pub id: usize,
    pub me: NodeId,
    cfg: TaurusConfig,
    /// A reader's view of the master's log.
    log: Log,
    /// The shared read planner (and this replica's read-side counters).
    pub reader: SliceReader,
    pool: EnginePool,
    visible_lsn: LsnWatermark,
    /// Where the tail reader stands in the log (the poller is
    /// single-threaded per replica).
    cursor: Mutex<LogCursor>,
    /// Commit records seen (logical consistency bookkeeping).
    committed: Mutex<HashSet<TxnId>>,
    /// Active TV-LSN pins: lsn → pin count.
    tv_pins: Mutex<BTreeMap<u64, usize>>,
    /// The bulletin of the master this replica follows
    /// ([`ReplicaEngine::follow`] re-points it).
    bulletin: RwLock<Arc<Bulletin>>,
    pub groups_applied: AtomicU64,
}

impl std::fmt::Debug for ReplicaEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaEngine")
            .field("id", &self.id)
            .field("visible", &self.visible_lsn.get())
            .finish()
    }
}

impl ReplicaEngine {
    /// Registers a new replica: opens its own view of the log, subscribes
    /// to the master's bulletin and polls once, so it is readable at the
    /// horizon published so far as soon as it is returned (its visible LSN
    /// still moves only at group boundaries). A failed poll is left to the
    /// next beat's, as [`crate::TaurusDb::maintain`] leaves it.
    pub fn register(
        id: usize,
        cfg: TaurusConfig,
        db: DbId,
        me: NodeId,
        logs: LogStoreCluster,
        pages: PageStoreCluster,
        bulletin: Arc<Bulletin>,
    ) -> Result<Arc<ReplicaEngine>> {
        let log = Log::open(&cfg, logs, db, me, false)?;
        let pool = EnginePool::striped(cfg.engine_buffer_pool_pages);
        let replica = Arc::new(ReplicaEngine {
            id,
            me,
            reader: SliceReader::new(cfg.clone(), db, me, pages),
            cfg,
            log,
            pool,
            visible_lsn: LsnWatermark::new(Lsn::ZERO),
            cursor: Mutex::new(LogCursor::default()),
            committed: Mutex::new(HashSet::new()),
            tv_pins: Mutex::new(BTreeMap::new()),
            bulletin: RwLock::new(bulletin),
            groups_applied: AtomicU64::new(0),
        });
        // From its first transaction on, the master may not recycle what
        // this replica could still read.
        replica.publish_min_tv();
        let _ = replica.poll();
        Ok(replica)
    }

    /// Follows a new master (after a master recovery or a fail-over) by
    /// its bulletin. The log and the Page Stores are those the old master
    /// wrote, so everything this replica applied still holds: it keeps its
    /// pool, its cursor and its visible LSN. It can only if the new
    /// master's horizon is not below its visible LSN: a read above the
    /// horizon could ask a slice for less than it holds. Returns whether it
    /// followed; if not, it still follows the old master.
    pub fn follow(&self, bulletin: &Arc<Bulletin>) -> bool {
        // The poller lock: no poll moves the visible LSN in between.
        let _cursor = self.cursor.lock();
        if bulletin.read_horizon.get() < self.visible_lsn.get() {
            return false;
        }
        *self.bulletin.write() = Arc::clone(bulletin);
        self.publish_min_tv();
        true
    }

    /// The bulletin of the master this replica follows now.
    fn bulletin(&self) -> Arc<Bulletin> {
        Arc::clone(&self.bulletin.read())
    }

    /// The replica's physically consistent view of the database.
    pub fn visible_lsn(&self) -> Lsn {
        self.visible_lsn.get()
    }

    /// Tails the log: reads new groups from the Log Stores (step 3 of the
    /// paper's Fig. 5), applies them atomically to cached pages, and
    /// advances the visible LSN — but never past the master's read horizon.
    /// Returns the number of groups applied.
    pub fn poll(&self) -> Result<usize> {
        let horizon = self.bulletin().read_horizon.get();
        if horizon <= self.visible_lsn.get() {
            return Ok(0);
        }
        // Discover new PLogs, then tail the log incrementally.
        self.log.refresh()?;
        let mut cursor = self.cursor.lock();
        // A `follow` before the poller lock may have moved this replica to
        // a master whose horizon is lower.
        let horizon = horizon.min(self.bulletin().read_horizon.get());
        // The horizon caps the read: spans past it stay unconsumed in the
        // Log Stores (the cursor stops at their boundary), so a later poll
        // picks them up once the horizon advances. Reading them here and
        // dropping them would lose them forever — cursors never re-read.
        // A published horizon is never above the master's durable LSN
        // (`Sal::read_horizon` checks it), and the durable LSN only covers
        // the contiguous span prefix, so every group at or below the
        // horizon is in the log.
        let span = parking_lot::held_across_calls(
            "Log::tail mutates the cursor incrementally, so the poller lock must span the round \
             trips; Log Store handlers take no replica locks, so no cycle",
        );
        let groups = match self.log.tail(&mut cursor, horizon) {
            Ok(groups) => groups,
            Err(TaurusError::ReplicaBehindTruncation {
                truncated_through, ..
            }) => {
                // The master truncated log this replica never consumed: the
                // missing records can never be replayed, so cached pages can
                // not be rolled forward. Resync wholesale — drop the pool
                // (pages re-read from the Page Stores at the right version
                // on demand), jump the visible LSN over the truncated range
                // (truncation only happens below the database persistent
                // LSN, so every page is readable there), and restart the
                // cursor at the surviving log (the visible-LSN skip below
                // dedups groups the old cursor already delivered).
                self.pool.clear();
                *cursor = LogCursor::default();
                self.visible_lsn.advance(truncated_through);
                let _span = parking_lot::held_across_calls(
                    "same proof as above: a fresh cursor re-tails under the poller lock",
                );
                self.log.tail(&mut cursor, horizon)?
            }
            Err(e) => return Err(e),
        };
        drop(span);
        let mut applied = 0usize;
        for group in groups {
            let end = group.end_lsn();
            if end <= self.visible_lsn.get() {
                continue; // already seen (e.g. cursor restarted after truncation)
            }
            // Apply the whole group atomically: pages not in the pool are
            // skipped (they will be read at the right version on demand).
            for rec in &group.records {
                match &rec.body {
                    RecordBody::TxnCommit { txn } => {
                        self.committed.lock().insert(*txn);
                    }
                    RecordBody::TxnAbort { .. } => {}
                    _ => {}
                }
                if let Some(frame) = self.pool.get(rec.page) {
                    let mut buf = (*frame.buf).clone();
                    if apply_record(&mut buf, rec).is_ok() {
                        self.pool.put(
                            rec.page,
                            Frame::new(Arc::new(buf), rec.lsn, false),
                            &|_, _| true,
                        );
                    }
                }
            }
            // The visible LSN moves only at group boundaries (§6) and never
            // past the horizon — the tail already stopped there.
            taurus_common::invariant!(
                "replica-visible-capped",
                end <= horizon,
                "replica {} advancing visible to {end} past horizon {horizon}",
                self.id
            );
            self.visible_lsn.advance(end);
            self.groups_applied.fetch_add(1, Ordering::Relaxed);
            applied += 1;
        }
        self.publish_min_tv();
        Ok(applied)
    }

    /// Number of committed transactions this replica knows about.
    pub fn committed_count(&self) -> usize {
        self.committed.lock().len()
    }

    fn pin_tv(&self, lsn: Lsn) {
        *self.tv_pins.lock().entry(lsn.0).or_insert(0) += 1;
    }

    fn unpin_tv(&self, lsn: Lsn) {
        let mut pins = self.tv_pins.lock();
        if let Some(c) = pins.get_mut(&lsn.0) {
            *c -= 1;
            if *c == 0 {
                pins.remove(&lsn.0);
            }
        }
        drop(pins);
        self.publish_min_tv();
    }

    /// Publishes this replica's minimum TV-LSN to the master (recycle
    /// feedback): the oldest open transaction's, or with none open the
    /// visible LSN the next one starts at.
    fn publish_min_tv(&self) {
        let pins = self.tv_pins.lock();
        let min = pins.keys().next().copied().map(Lsn);
        let min = min.unwrap_or_else(|| self.visible_lsn.get());
        drop(pins);
        self.bulletin().publish_min_tv(self.id, min);
    }

    /// Versioned fetch at `tv`: pool if fresh enough, else Page Store. The
    /// fetcher pins `tv` for its whole traversal, so every batched readahead
    /// it issues reads the same snapshot.
    fn fetch_at(&self, tv: Lsn) -> ReplicaFetcher<'_> {
        ReplicaFetcher {
            replica: self,
            tv,
            cache: TraversalCache::default(),
        }
    }

    /// Starts a read-only transaction pinned at the current visible LSN.
    pub fn begin(self: &Arc<Self>) -> ReplicaTxn {
        let tv = self.visible_lsn.get();
        self.pin_tv(tv);
        ReplicaTxn {
            replica: Arc::clone(self),
            tv,
        }
    }

    /// Auto-commit point read at the current visible LSN.
    pub fn get(self: &Arc<Self>, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let txn = self.begin();
        txn.get(key)
    }

    /// Auto-commit range scan. The whole traversal happens inside one
    /// pinned transaction: the TV-LSN is sampled **once** at begin, so a
    /// group applied by `poll` mid-scan can never tear the result (pages
    /// visited later would otherwise reflect a newer LSN than pages
    /// visited earlier).
    pub fn scan(self: &Arc<Self>, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let txn = self.begin();
        txn.scan(start, limit)
    }

    /// Auto-commit pushed-down scan, pinned the same way.
    pub fn scan_pushdown(self: &Arc<Self>, req: &ScanRequest) -> Result<TableScan> {
        let txn = self.begin();
        txn.scan_pushdown(req)
    }

    /// Replicas reject writes (§3.2: only the master serves write queries).
    pub fn put(&self, _key: &[u8], _val: &[u8]) -> Result<()> {
        Err(TaurusError::ReadOnlyReplica)
    }

    /// Engine pool hit ratio (how much replica traffic the local pool absorbs).
    pub fn pool_hit_ratio(&self) -> f64 {
        self.pool.stats.ratio()
    }
}

/// A replica's side of the shared read planner. Every slice is read at the
/// requested TV-LSN — no snapshot capping is needed on a replica, because
/// the TV-LSN never passes the master's read horizon (the minimum per-slice
/// acked LSN), so every slice has at least one replica that can serve it.
/// There is no repair hook: only the master can resend from the Log Stores.
impl FrontEnd for ReplicaEngine {
    fn snapshots(&self, keys: &[SliceKey], as_of: Option<Lsn>) -> Result<Vec<Lsn>> {
        let tv = as_of.unwrap_or_else(|| self.visible_lsn.get());
        // A slice is asked for no more than the master says it has acked:
        // a quiet slice's Page Stores stop at its last record, and the
        // slice has nothing between that and `tv` (`Bulletin::slice_acked`).
        let bulletin = self.bulletin();
        let acked = bulletin.slice_acked.read();
        Ok(keys
            .iter()
            .map(|k| acked.get(k).map_or(tv, |a| tv.min(*a)))
            .collect())
    }
}

/// A replica's versioned page fetcher, pinned at one TV-LSN for its whole
/// traversal. Demand fetches read one page; B-tree readahead hints batch
/// the absent pages into one planner call, all at the pinned `tv` so the
/// batch cannot tear the snapshot.
struct ReplicaFetcher<'a> {
    replica: &'a ReplicaEngine,
    tv: Lsn,
    /// Pages read at versions that must not warm the shared pool (see the
    /// staleness rule in [`PageFetch::fetch`]) live here for the duration of
    /// the traversal instead.
    cache: TraversalCache,
}

impl ReplicaFetcher<'_> {
    /// Batched versioned read at the pinned `tv`. Speculative — a batch
    /// the planner could not complete is simply dropped (the demand path
    /// carries the real error handling).
    fn read_batch(&self, ids: &[PageId]) -> Vec<(PageId, PageBuf)> {
        let (r, tv) = (self.replica, Some(self.tv));
        r.reader.read_pages(r, ids, tv).unwrap_or_default()
    }
}

impl PageFetch for ReplicaFetcher<'_> {
    fn fetch(&self, id: PageId) -> Result<Arc<PageBuf>> {
        if let Some(buf) = self.cache.get(id) {
            return Ok(buf);
        }
        let r = self.replica;
        let tv = self.tv;
        let cached = r.pool.get(id);
        if let Some(frame) = &cached {
            if frame.lsn <= tv {
                return Ok(Arc::clone(&frame.buf));
            }
        }
        let buf = Arc::new(r.reader.read_page(r, id, Some(tv))?);
        // Warm the pool so future log records keep the page fresh — but
        // never clobber a newer cached version with an old snapshot read,
        // and never insert a version older than the visible LSN: `poll`
        // only applies records to *pooled* pages, so records consumed while
        // the page was absent can never be replayed onto it — a stale
        // insert would serve fresh transactions old data forever.
        if cached.is_none() && tv >= r.visible_lsn.get() {
            r.pool.put(
                id,
                Frame::new(Arc::clone(&buf), buf.lsn(), false),
                &|_, _| true,
            );
        } else {
            self.cache.remember(id, Arc::clone(&buf));
        }
        Ok(buf)
    }

    fn prefetch(&self, pages: &[PageId]) {
        let r = self.replica;
        let missing: Vec<PageId> = pages
            .iter()
            .copied()
            .filter(|&p| !self.cache.contains(p) && !r.pool.contains(p))
            .collect();
        if missing.is_empty() {
            return;
        }
        if self.tv >= r.visible_lsn.get() {
            r.pool.prefetch_absent(
                &missing,
                &|miss| {
                    let got = self.read_batch(miss);
                    // Same staleness rule as the demand path: if the visible
                    // LSN passed the pinned TV while the batch was in flight,
                    // the fetched versions may miss records `poll` already
                    // consumed — installing them would freeze those pages
                    // stale. Drop the batch; demand fetches recover.
                    if self.tv < r.visible_lsn.get() {
                        Ok(Vec::new())
                    } else {
                        Ok(got)
                    }
                },
                &|_, _| true,
            );
        } else {
            // Pinned old snapshot: these versions must not warm the shared
            // pool, so they land in the traversal-local cache.
            for (id, buf) in self.read_batch(&missing) {
                self.cache.remember(id, Arc::new(buf));
            }
        }
    }

    fn readahead_window(&self) -> usize {
        self.replica.cfg.btree_readahead_window
    }
}

/// A read-only transaction on a replica, pinned at its TV-LSN.
pub struct ReplicaTxn {
    replica: Arc<ReplicaEngine>,
    tv: Lsn,
}

impl ReplicaTxn {
    /// The transaction-visible LSN (the physical snapshot this txn reads).
    pub fn tv_lsn(&self) -> Lsn {
        self.tv
    }

    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let fetch = self.replica.fetch_at(self.tv);
        BTree::get(&fetch, key)
    }

    pub fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let fetch = self.replica.fetch_at(self.tv);
        BTree::scan(&fetch, start, limit)
    }

    /// Pushed-down table scan at this transaction's pinned TV-LSN: every
    /// active slice is scanned via `ScanSlice` on the Page Stores at exactly
    /// `tv`, through the shared planner.
    pub fn scan_pushdown(&self, req: &ScanRequest) -> Result<TableScan> {
        let r = &self.replica;
        r.reader.scan(&**r, req, self.tv)
    }
}

impl Drop for ReplicaTxn {
    fn drop(&mut self) {
        self.replica.unpin_tv(self.tv);
    }
}
