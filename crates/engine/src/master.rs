//! The master (primary) front end: the only writer in a Taurus database.
//!
//! Transactions buffer their writes privately and emit all redo at commit as
//! one atomic log-record group ending in `TxnCommit` — so every group
//! boundary is a physically *and* logically consistent point (paper §6).
//! Write-write conflicts abort the second writer (first-updater-wins).
//! Commit durability is exactly the paper's: the transaction is acknowledged
//! once its group is on all three Log Stores ([`taurus_core::Sal::flush`]).

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound::{Included, Unbounded};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use taurus_common::lsn::{LsnAllocator, LsnWatermark};
use taurus_common::record::{LogRecordGroup, RecordBody};
use taurus_common::scan::{ScanAccumulator, ScanRequest};
use taurus_common::{Lsn, PageBuf, PageId, Result, SliceId, TaurusError, TxnId};
use taurus_core::{Sal, SliceAcks, TableScan};

use crate::btree::{BTree, MutCtx, PageFetch};
use crate::latch::{LatchStatsSnapshot, PageSource, TreeLatch};
use crate::pool::{EnginePool, Frame, PageMap, TraversalCache};

/// The master → read-replica message board (paper §6 step 2): instead of
/// streaming log data, the master publishes *where the log is* (implicitly:
/// the Log Stores) and the LSN horizon replicas may advance to.
#[derive(Debug, Default)]
pub struct Bulletin {
    /// The CV-LSN (`Sal::read_horizon`), the minimum acked LSN over the
    /// slices still owed an ack: replicas must not let their visible LSN
    /// pass this, or Page Stores could not serve their reads (§6). It is
    /// never above the durable LSN, so it is also as far as a replica may
    /// tail the log.
    pub read_horizon: LsnWatermark,
    /// Every slice's acked LSN: the SAL's replica board
    /// (`Sal::slice_acks`), brought up to date inside the snapshot each
    /// published `read_horizon` comes from — so never older than it. A
    /// quiet slice's Page Stores never get past its last record, so a
    /// replica reads slice `s` at `min(tv, slice_acked[s])`; the slice has
    /// no record in between.
    pub slice_acked: SliceAcks,
    /// Publishes so far. Nothing reads it yet; it is kept for replicas
    /// that follow the log themselves and need to tell a missed message
    /// from a quiet master (ROADMAP item 3).
    pub seq: AtomicU64,
    /// Backchannel: each replica's minimum transaction-visible LSN, feeding the
    /// recycle LSN (§6).
    replica_min_tv: Mutex<HashMap<usize, Lsn>>,
}

impl Bulletin {
    /// A blank board for the master on `sal`.
    fn on(sal: &Sal) -> Bulletin {
        Bulletin {
            slice_acked: sal.slice_acks(),
            ..Bulletin::default()
        }
    }

    /// Minimum TV-LSN across replicas (None when no replica registered).
    pub fn min_replica_tv(&self) -> Option<Lsn> {
        self.replica_min_tv.lock().values().copied().min()
    }

    /// Called by replica `id` to publish its minimum TV-LSN.
    pub fn publish_min_tv(&self, id: usize, lsn: Lsn) {
        self.replica_min_tv.lock().insert(id, lsn);
    }

    pub fn forget_replica(&self, id: usize) {
        self.replica_min_tv.lock().remove(&id);
    }
}

/// The master engine.
pub struct MasterEngine {
    pub sal: Arc<Sal>,
    pub lsns: LsnAllocator,
    /// The structure latch and the engine pool behind it. Every tree
    /// access goes through its protocol ([`crate::latch`]): no latch is
    /// held across a Page Store round trip.
    tree: TreeLatch,
    /// First-updater-wins write locks.
    key_locks: Mutex<HashMap<Vec<u8>, TxnId>>,
    next_txn: AtomicU64,
    maintain_beats: AtomicU64,
    /// The read horizon published as of the last recycle round: the next
    /// round's recycle LSN may not pass it.
    recycle_horizon: AtomicU64,
    pub bulletin: Arc<Bulletin>,
}

impl std::fmt::Debug for MasterEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MasterEngine")
            .field("db", &self.sal.db)
            .field("durable", &self.sal.durable_lsn())
            .finish()
    }
}

impl MasterEngine {
    /// Bootstraps a fresh database through the SAL: control page + root
    /// leaf, durably logged.
    pub fn bootstrap(sal: Arc<Sal>) -> Result<Arc<MasterEngine>> {
        let engine = Arc::new(Self::on(sal, Lsn::ZERO));
        let no_keys = std::iter::empty::<&[u8]>();
        let group = engine.tree.write(&engine.fetcher(), no_keys, |fetch| {
            let mut ctx = MutCtx::new(&engine.lsns, fetch);
            BTree::bootstrap(&mut ctx)?;
            let group = LogRecordGroup::new(engine.sal.db, ctx.records);
            engine.install_pages(ctx.pages);
            Ok(group)
        })?;
        engine.sal.log_group(group)?;
        engine.sal.flush()?;
        engine.publish();
        Ok(engine)
    }

    /// A master on `sal` whose log ends at `max_lsn`, with an empty pool.
    fn on(sal: Arc<Sal>, max_lsn: Lsn) -> MasterEngine {
        MasterEngine {
            tree: TreeLatch::new(
                EnginePool::striped(sal.cfg.engine_buffer_pool_pages),
                sal.pages.fabric.clock.clone(),
            ),
            lsns: LsnAllocator::new(max_lsn),
            key_locks: Mutex::new(HashMap::new()),
            next_txn: AtomicU64::new(1),
            maintain_beats: AtomicU64::new(0),
            recycle_horizon: AtomicU64::new(0),
            bulletin: Arc::new(Bulletin::on(&sal)),
            sal,
        }
    }

    /// Attaches a master to an already-recovered SAL (crash restart or
    /// replica promotion). `max_lsn` is the recovery end point returned by
    /// [`Sal::recover`].
    pub fn resume(sal: Arc<Sal>, max_lsn: Lsn) -> Arc<MasterEngine> {
        let engine = Arc::new(Self::on(sal, max_lsn));
        engine.publish();
        engine
    }

    /// Eviction guard for one pool operation: pool eviction scans consult
    /// the guard for every candidate frame, so the per-slice acked LSN is
    /// memoized for the duration of the operation instead of taking the SAL
    /// state lock per frame.
    fn evict_guard(&self) -> impl Fn(PageId, taurus_common::Lsn) -> bool + '_ {
        let cache = std::cell::RefCell::new(HashMap::<SliceId, taurus_common::Lsn>::new());
        move |p: PageId, l: taurus_common::Lsn| {
            let slice = p.slice(self.sal.cfg.pages_per_slice);
            let mut cache = cache.borrow_mut();
            let acked = *cache
                .entry(slice)
                .or_insert_with(|| self.sal.slice_acked_lsn(p));
            acked >= l
        }
    }

    /// The live page source behind the tree latch's misses.
    fn fetcher(&self) -> MasterFetcher<'_> {
        MasterFetcher { engine: self }
    }

    fn install_pages(&self, pages: PageMap<PageBuf>) {
        let guard = self.evict_guard();
        for (id, page) in pages {
            let lsn = page.lsn();
            self.tree
                .pool()
                .put(id, Frame::new(Arc::new(page), lsn, true), &guard);
        }
    }

    /// Publishes a fresh horizon to read replicas (one paper-§6 message).
    /// Every commit and every maintenance beat publishes, so publishers
    /// race; the horizon is a monotone watermark, and the per-slice board
    /// moves inside the SAL snapshot itself (`Sal::read_horizon`), so a
    /// publisher that stalls after its snapshot cannot put an older board
    /// under a later publisher's horizon.
    pub fn publish(&self) {
        let horizon = self.sal.read_horizon();
        self.bulletin.read_horizon.advance(horizon);
        self.bulletin.seq.fetch_add(1, Ordering::Relaxed);
    }

    /// Periodic maintenance: slice-buffer timeout flushes, dirty-frame
    /// sweep, recycle LSN, bulletin refresh.
    ///
    /// The master is a reader too: its head reads ask each slice for its
    /// acked LSN, which for a slice still owed an ack is at or above the
    /// read horizon (and [`Sal::set_recycle_lsn`] caps every slice at its
    /// acked LSN besides). So every recycle round sets the recycle LSN to
    /// the minimum of the replicas' TV-LSNs and the horizon this master
    /// had published one round earlier — replicas or not. The round of
    /// slack covers a head read resolved just before a publish; one
    /// overtaken all the same re-plans at the current head
    /// ([`Sal::read_page`]).
    pub fn maintain(&self) {
        self.sal.tick();
        let beat = self.maintain_beats.fetch_add(1, Ordering::Relaxed);
        // The clean sweep scans the whole pool under its lock; doing it on
        // every beat would contend with the read hot path, so amortize it.
        if beat.is_multiple_of(16) {
            self.tree.pool().clear_dirty(&self.evict_guard());
            let published = self.bulletin.read_horizon.get().0;
            let earlier = Lsn(self.recycle_horizon.swap(published, Ordering::SeqCst));
            let min_tv = self.bulletin.min_replica_tv();
            self.sal
                .set_recycle_lsn(min_tv.map_or(earlier, |tv| tv.min(earlier)));
        }
        self.publish();
    }

    /// Starts a read-write transaction.
    pub fn begin(self: &Arc<Self>) -> Txn {
        Txn {
            engine: Arc::clone(self),
            id: TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed)),
            writes: BTreeMap::new(),
            locked: Vec::new(),
            finished: false,
        }
    }

    /// Auto-commit point read (read-committed).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.tree
            .read(&self.fetcher(), |fetch| BTree::get(fetch, key))
    }

    /// Auto-commit range scan: one atomic view of the tree.
    pub fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.tree
            .read(&self.fetcher(), |fetch| BTree::scan(fetch, start, limit))
    }

    /// Pushed-down table scan at the current durable LSN (NDP follow-on
    /// paper): the SAL plans one `ScanSlice` call per slice and the Page
    /// Stores evaluate the operator next to the data. When the storage
    /// layer cannot serve the scan at all, falls back to an engine-local
    /// B-tree traversal through the *same* shared evaluator, so results
    /// are identical either way.
    pub fn scan_pushdown(&self, req: &ScanRequest) -> Result<TableScan> {
        let as_of = self.sal.durable_lsn();
        match self.sal.scan_pushdown(req, as_of) {
            Ok(scan) => Ok(scan),
            Err(_) => self.scan_local(req),
        }
    }

    /// Pushed-down scan against a named snapshot's pinned LSN.
    pub fn snapshot_scan_pushdown(&self, name: &str, req: &ScanRequest) -> Result<TableScan> {
        let lsn = self
            .sal
            .snapshot_lsn(name)
            .ok_or_else(|| TaurusError::Internal(format!("no snapshot named {name}")))?;
        self.sal.scan_pushdown(req, lsn)
    }

    /// Fetch-and-filter fallback: full B-tree scan through the engine pool
    /// folded through the shared evaluator.
    fn scan_local(&self, req: &ScanRequest) -> Result<TableScan> {
        let rows = self.scan(&req.start, usize::MAX)?;
        let mut acc = ScanAccumulator::default();
        for (key, value) in rows {
            acc.rows_scanned += 1;
            if req.matches(&key, &value) {
                acc.add(req, &key, &value);
            }
        }
        Ok(TableScan {
            rows: acc.rows,
            agg: acc.agg,
            pushdown_slices: 0,
            fallback_slices: 1,
        })
    }

    /// Creates a named snapshot of the database at the current durable LSN.
    /// Constant-time: append-only Page Stores keep every version at or
    /// above the recycle LSN, so a snapshot is just a pinned LSN.
    pub fn create_snapshot(&self, name: &str) -> Lsn {
        self.sal.create_snapshot(name)
    }

    /// Point read against a named snapshot (versioned Page Store reads).
    pub fn snapshot_get(&self, name: &str, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let lsn = self
            .sal
            .snapshot_lsn(name)
            .ok_or_else(|| TaurusError::Internal(format!("no snapshot named {name}")))?;
        let fetch = SnapshotFetcher::new(&self.sal, lsn, self.sal.cfg.btree_readahead_window);
        BTree::get(&fetch, key)
    }

    /// Range scan against a named snapshot.
    pub fn snapshot_scan(
        &self,
        name: &str,
        start: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let lsn = self
            .sal
            .snapshot_lsn(name)
            .ok_or_else(|| TaurusError::Internal(format!("no snapshot named {name}")))?;
        let fetch = SnapshotFetcher::new(&self.sal, lsn, self.sal.cfg.btree_readahead_window);
        BTree::scan(&fetch, start, limit)
    }

    /// Drops a named snapshot.
    pub fn drop_snapshot(&self, name: &str) -> bool {
        self.sal.drop_snapshot(name)
    }

    /// Engine pool statistics (hit ratio, resident frames).
    pub fn pool_stats(&self) -> (f64, usize) {
        let pool = self.tree.pool();
        (pool.stats.ratio(), pool.len())
    }

    /// Readahead accounting: `(frames installed speculatively, frames that
    /// later served a demand access)`; the difference is wasted prefetch.
    pub fn pool_prefetch_stats(&self) -> (u64, u64) {
        self.tree.pool().prefetch_stats()
    }

    /// Tree-latch protocol counters: restarts, fallbacks, discarded loads,
    /// commit warm-ups and the time commits waited for the exclusive side.
    pub fn latch_stats(&self) -> LatchStatsSnapshot {
        self.tree.stats.snapshot()
    }

    /// Batched read of `ids` through the pool at the live (acked) LSN, in
    /// request order: cached pages are served from their shards, the misses
    /// travel in one `Sal::read_pages` call. Used by tests and benches to
    /// pin the batched miss path directly.
    pub fn get_pages(&self, ids: &[PageId]) -> Result<Vec<(PageId, Arc<PageBuf>)>> {
        self.tree.read(&self.fetcher(), |fetch| {
            // Demand every id before giving up on an absent one, so that
            // all the absent ones travel in one envelope.
            let pages: Vec<_> = ids.iter().map(|&id| Ok((id, fetch.fetch(id)?))).collect();
            pages.into_iter().collect()
        })
    }

    fn release_locks(&self, txn: TxnId, keys: &[Vec<u8>]) {
        if keys.is_empty() {
            return;
        }
        let mut locks = self.key_locks.lock();
        for k in keys {
            if locks.get(k) == Some(&txn) {
                locks.remove(k);
            }
        }
    }
}

/// The master's live page source: a pool miss reads the page from the Page
/// Stores at its slice's acked LSN ([`Sal::read_page`]), several misses in
/// one batched [`Sal::read_pages`] call. The tree latch decides *when* it is
/// called: with no latch held, except in its two counted fallbacks.
struct MasterFetcher<'a> {
    engine: &'a MasterEngine,
}

impl PageSource for MasterFetcher<'_> {
    fn read_page(&self, page: PageId) -> Result<PageBuf> {
        self.engine.sal.read_page(page, None)
    }

    fn read_pages(&self, pages: &[PageId]) -> Result<Vec<(PageId, PageBuf)>> {
        self.engine.sal.read_pages(pages, None)
    }

    fn evict_guard(&self) -> impl Fn(PageId, Lsn) -> bool + '_ {
        self.engine.evict_guard()
    }

    fn readahead_window(&self) -> usize {
        self.engine.sal.cfg.btree_readahead_window
    }
}

/// Fetcher for reads against a pinned snapshot LSN. Pages materialized at an
/// old version must **never** warm the shared engine pool, so demand reads
/// and batched prefetches land in a [`TraversalCache`] instead.
struct SnapshotFetcher<'a> {
    sal: &'a Sal,
    lsn: Lsn,
    window: usize,
    cache: TraversalCache,
}

impl<'a> SnapshotFetcher<'a> {
    fn new(sal: &'a Sal, lsn: Lsn, window: usize) -> Self {
        SnapshotFetcher {
            sal,
            lsn,
            window,
            cache: TraversalCache::default(),
        }
    }
}

impl PageFetch for SnapshotFetcher<'_> {
    fn fetch(&self, id: PageId) -> Result<Arc<PageBuf>> {
        if let Some(buf) = self.cache.get(id) {
            return Ok(buf);
        }
        let buf = Arc::new(self.sal.read_page(id, Some(self.lsn))?);
        self.cache.remember(id, Arc::clone(&buf));
        Ok(buf)
    }

    fn prefetch(&self, pages: &[PageId]) {
        let missing: Vec<PageId> = pages
            .iter()
            .copied()
            .filter(|&p| !self.cache.contains(p))
            .collect();
        if missing.is_empty() {
            return;
        }
        // Speculative: a failed batch just falls back to demand fetches.
        if let Ok(got) = self.sal.read_pages(&missing, Some(self.lsn)) {
            for (id, buf) in got {
                self.cache.remember(id, Arc::new(buf));
            }
        }
    }

    fn readahead_window(&self) -> usize {
        self.window
    }
}

/// A read-write transaction on the master.
pub struct Txn {
    engine: Arc<MasterEngine>,
    pub id: TxnId,
    /// Private write buffer: key → Some(value) for put, None for delete.
    writes: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    locked: Vec<Vec<u8>>,
    finished: bool,
}

impl Txn {
    fn check_open(&self) -> Result<()> {
        if self.finished {
            Err(TaurusError::TxnFinished)
        } else {
            Ok(())
        }
    }

    fn lock_key(&mut self, key: &[u8]) -> Result<()> {
        if self.writes.contains_key(key) {
            return Ok(()); // already ours
        }
        let mut locks = self.engine.key_locks.lock();
        match locks.get(key) {
            Some(owner) if *owner != self.id => Err(TaurusError::WriteConflict {
                page: PageId::CONTROL,
            }),
            Some(_) => Ok(()),
            None => {
                locks.insert(key.to_vec(), self.id);
                self.locked.push(key.to_vec());
                Ok(())
            }
        }
    }

    /// Read-your-writes lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.check_open()?;
        if let Some(v) = self.writes.get(key) {
            return Ok(v.clone());
        }
        self.engine.get(key)
    }

    /// `SELECT ... FOR UPDATE`: takes the key's write lock *before* reading,
    /// so a read-modify-write cycle on the key is free of lost updates.
    pub fn get_for_update(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.check_open()?;
        self.lock_key(key)?;
        if let Some(v) = self.writes.get(key) {
            return Ok(v.clone());
        }
        self.engine.get(key)
    }

    /// Buffered write; takes the key's write lock (first-updater-wins).
    pub fn put(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        self.check_open()?;
        self.lock_key(key)?;
        self.writes.insert(key.to_vec(), Some(val.to_vec()));
        Ok(())
    }

    /// Buffered delete.
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        self.check_open()?;
        self.lock_key(key)?;
        self.writes.insert(key.to_vec(), None);
        Ok(())
    }

    /// Scan merging committed data with this transaction's writes: the
    /// engine's rows as they are when there are none, else one pass over
    /// the two sorted runs. Each write can hide at most one committed row,
    /// so `limit` plus the write count committed rows are enough.
    pub fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.check_open()?;
        if self.writes.is_empty() {
            return self.engine.scan(start, limit);
        }
        let base = self
            .engine
            .scan(start, limit.saturating_add(self.writes.len()))?;
        let mine = self.writes.range::<[u8], _>((Included(start), Unbounded));
        let mut mine = mine.peekable();
        let mut base = base.into_iter().peekable();
        let own = |(k, v): (&Vec<u8>, &Option<Vec<u8>>)| Some((k.clone(), v.clone()?));
        let mut out = Vec::with_capacity(limit.min(base.len() + self.writes.len()));
        while out.len() < limit {
            let order = match (base.peek(), mine.peek()) {
                (Some((b, _)), Some((m, _))) => b.as_slice().cmp(m.as_slice()),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => break,
            };
            let row = match order {
                std::cmp::Ordering::Less => base.next(),
                std::cmp::Ordering::Equal => {
                    base.next();
                    mine.next().and_then(own)
                }
                std::cmp::Ordering::Greater => mine.next().and_then(own),
            };
            out.extend(row);
        }
        Ok(out)
    }

    /// Commits: brings the write set's leaves into the pool with no latch
    /// held, applies the write set under the exclusive side of the tree
    /// latch (pool hits and CPU), emits one atomic group ending in
    /// `TxnCommit`, and waits for Log Store durability.
    pub fn commit(mut self) -> Result<Lsn> {
        self.check_open()?;
        self.finished = true;
        let engine = Arc::clone(&self.engine);
        if self.writes.is_empty() {
            engine.release_locks(self.id, &self.locked);
            return Ok(engine.sal.durable_lsn());
        }
        let writes = std::mem::take(&mut self.writes);
        engine
            .tree
            .write(&engine.fetcher(), writes.keys(), |fetch| {
                let mut ctx = MutCtx::new(&engine.lsns, fetch);
                for (k, op) in &writes {
                    match op {
                        Some(v) => {
                            BTree::put(&mut ctx, k, v)?;
                        }
                        None => {
                            BTree::delete(&mut ctx, k)?;
                        }
                    }
                }
                ctx.emit(PageId::CONTROL, RecordBody::TxnCommit { txn: self.id })?;
                let group = LogRecordGroup::new(engine.sal.db, ctx.records);
                engine.install_pages(ctx.pages);
                // Buffer under the latch so buffer order equals LSN order; the
                // flush (Log Store round trips) runs below, after the latch
                // drops — readers must not stall behind the network.
                engine.sal.buffer_group(group);
                Ok(())
            })?;
        // Durability wait happens outside the latch: concurrent committers
        // batch into one Log Store write (group commit). A buffer at its
        // threshold flushes at once.
        let lsn = engine.sal.flush()?;
        engine.release_locks(self.id, &self.locked);
        engine.publish();
        Ok(lsn)
    }

    /// Abort: drop the private buffer. Nothing ever reached the log.
    pub fn rollback(mut self) {
        self.finished = true;
        let engine = Arc::clone(&self.engine);
        engine.release_locks(self.id, &self.locked);
        self.writes.clear();
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.finished {
            self.engine.release_locks(self.id, &self.locked);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::clock::ManualClock;
    use taurus_common::config::TaurusConfig;

    use crate::db::TaurusDb;

    /// A master over a tree of two levels or more, every page resident.
    fn two_level_master() -> (Arc<TaurusDb>, Arc<MasterEngine>) {
        let db = TaurusDb::launch_with_clock(TaurusConfig::test(), 3, 3, ManualClock::shared(), 11)
            .unwrap();
        let master = db.master();
        for chunk in 0..8u32 {
            let mut t = master.begin();
            for i in 0..60u32 {
                let n = chunk * 60 + i;
                t.put(format!("key{n:05}").as_bytes(), &[b'v'; 40]).unwrap();
            }
            t.commit().unwrap();
        }
        (db, master)
    }

    /// Every resident frame's page, by id (the tree has far fewer than 256
    /// pages).
    fn frames(master: &MasterEngine) -> Vec<(PageId, Arc<PageBuf>)> {
        (0..256)
            .filter_map(|p| Some((PageId(p), master.tree.pool().get(PageId(p))?.buf)))
            .collect()
    }

    /// A write set copies only the pages it changes: updating one row of a
    /// two-level tree installs that leaf and the control page (its
    /// `TxnCommit`), and every other frame — the root included — is the
    /// very `Arc` it was before the commit.
    #[test]
    fn a_one_leaf_update_installs_only_that_leaf_and_the_control_page() {
        let (_db, master) = two_level_master();
        let (root, leaf) = master
            .tree
            .read(&master.fetcher(), |f| {
                Ok((BTree::root(f)?, BTree::leaf_for(f, b"key00130")?))
            })
            .unwrap();
        assert!(master.tree.pool().get(root).unwrap().buf.level() >= 1);
        let before = frames(&master);
        let mut t = master.begin();
        t.put(b"key00130", &[b'w'; 40]).unwrap();
        t.commit().unwrap();
        let after = frames(&master);
        assert_eq!(before.len(), after.len());
        let changed: Vec<PageId> = before
            .iter()
            .zip(&after)
            .filter(|((_, a), (_, b))| !Arc::ptr_eq(a, b))
            .map(|((id, _), _)| *id)
            .collect();
        let leaf_id = before
            .iter()
            .find(|(_, page)| Arc::ptr_eq(page, &leaf))
            .map(|(id, _)| *id)
            .unwrap();
        assert_eq!(changed, vec![PageId::CONTROL, leaf_id]);
        let (_, root_after) = after.iter().find(|(id, _)| *id == root).unwrap();
        let (_, root_before) = before.iter().find(|(id, _)| *id == root).unwrap();
        assert!(Arc::ptr_eq(root_before, root_after));
    }

    /// A write set that fails midway — its first put applied to working
    /// copies, its second rejected — installs nothing: every frame is the
    /// `Arc` it was, and the table reads as before.
    #[test]
    fn an_apply_that_fails_midway_leaves_every_frame_as_it_was() {
        let (_db, master) = two_level_master();
        let before = frames(&master);
        let mut t = master.begin();
        t.put(b"key00010", b"changed").unwrap();
        t.put(
            b"key00400",
            &vec![b'x'; taurus_common::page::MAX_CELL_PAYLOAD],
        )
        .unwrap();
        assert!(t.commit().is_err());
        let after = frames(&master);
        assert_eq!(before.len(), after.len());
        for ((id, a), (_, b)) in before.iter().zip(&after) {
            assert!(Arc::ptr_eq(a, b), "frame {id} was replaced");
        }
        assert_eq!(master.get(b"key00010").unwrap(), Some(vec![b'v'; 40]));
    }
}
