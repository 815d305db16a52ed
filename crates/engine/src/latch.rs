//! The B+tree latch protocol: no latch is held across a round trip.
//!
//! [`TreeLatch`] owns one front end's structure latch and its engine pool,
//! and is the only code that takes either side of the latch. Transactions
//! apply their page changes under the exclusive side; traversals run under
//! the shared side, so they never observe a half-applied multi-page
//! operation (the master-side equivalent of the replicas' group-boundary
//! rule). A pool miss is a storage read — on the master a network round
//! trip — and a latch held across it makes one connection's miss every
//! other connection's wait. So:
//!
//! * a **traversal** ([`TreeLatch::read`]) runs under the shared side on
//!   resident pages only. At its first absent page it gives up, the latch
//!   drops, the absent pages (the demanded one plus whatever the scan's
//!   readahead hinted) are fetched in one envelope with no latch held, and
//!   the traversal restarts from the root. The attempt that returns ran
//!   under one shared hold, start to end;
//! * a **write set** ([`TreeLatch::write`]) is first *warmed* the same way —
//!   one descent per key under the shared side, the absent pages of all
//!   keys in one envelope — and only then applied under the exclusive
//!   side, where it finds its pages in the pool.
//!
//! Fetching outside the latch is made safe by the pool's loading marks
//! ([`EnginePool::begin_load`]), not by timing. Fetch-under-the-latch
//! survives as the fallback of both paths — a traversal out of restarts (a
//! scan larger than the pool), a page the write set's warm-up did not
//! bring or whose copy a commit overtook — and both are counted in
//! [`LatchStats`].
//!
//! Every descent starts at the root the control page names. A traversal
//! that read the control page under the shared side records that root as
//! the pool's *root hint*, and every write set clears the hint under the
//! exclusive side. A root split happens only inside a write set, so a hint
//! seen under the shared side is current: descents start there without
//! touching the control page.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use parking_lot::RwLock;

use taurus_common::clock::ClockRef;
use taurus_common::metrics::Counter;
use taurus_common::{Lsn, PageBuf, PageId, Result, TaurusError};

use crate::btree::{BTree, PageFetch};
use crate::pool::{EnginePool, Frame};

/// Restarts a traversal (or warm-up rounds a write set) may spend before it
/// fetches under the latch instead. A cold descent finds one absent level
/// per attempt, so this covers control page + a three-level tree.
const MAX_RESTARTS: usize = 4;

/// Where a front end's pages come from on a pool miss, and when its dirty
/// frames may leave the pool.
pub trait PageSource {
    /// The newest version of `page` storage can serve.
    fn read_page(&self, page: PageId) -> Result<PageBuf>;

    /// Many pages in as few round trips as the storage allows.
    fn read_pages(&self, pages: &[PageId]) -> Result<Vec<(PageId, PageBuf)>> {
        pages
            .iter()
            .map(|&page| Ok((page, self.read_page(page)?)))
            .collect()
    }

    /// The pool's dirty-page rule for one pool operation: whether a dirty
    /// frame of `page` at `lsn` may be evicted, i.e. storage can serve that
    /// version. The loading marks rely on it.
    fn evict_guard(&self) -> impl Fn(PageId, Lsn) -> bool + '_;

    /// See [`PageFetch::readahead_window`].
    fn readahead_window(&self) -> usize {
        0
    }
}

taurus_common::counters! {
    /// Counters of the tree-latch protocol (printed by fig7's stat dump).
    pub struct LatchStats => LatchStatsSnapshot {
        /// Traversal attempts that met an absent page, gave the latch up
        /// and started over after a latch-free load.
        pub read_restarts: Counter,
        /// Traversals that ran out of restarts and fetched under the
        /// shared latch.
        pub read_latch_fallbacks: Counter,
        /// Pages fetched latch-free and not installed: their loading mark
        /// was gone (a newer version was committed meanwhile) or another
        /// load had already brought the page in.
        pub loads_discarded: Counter,
        /// Pages write sets fetched while warming up, before the exclusive
        /// side.
        pub commit_warm_pages: Counter,
        /// Pages write sets still had to fetch under the exclusive latch.
        pub commit_fetches_under_latch: Counter,
        /// Time write sets waited to enter the exclusive side, summed.
        pub commit_latch_wait_us: Counter,
        /// Write sets applied under the exclusive side.
        pub commits: Counter,
    }
}

/// The structure latch, the pool it guards, and the protocol between them.
pub struct TreeLatch {
    tree_latch: RwLock<()>,
    pool: EnginePool,
    clock: ClockRef,
    pub stats: LatchStats,
}

impl TreeLatch {
    pub fn new(pool: EnginePool, clock: ClockRef) -> Self {
        TreeLatch {
            tree_latch: RwLock::new(()),
            pool,
            clock,
            stats: LatchStats::default(),
        }
    }

    /// The pool, for installs under [`Self::write`] and for statistics.
    /// Fetch-on-miss goes through [`Self::read`] / [`Self::write`] only.
    pub fn pool(&self) -> &EnginePool {
        &self.pool
    }

    /// Runs `traverse` as one atomic view of the tree: under one shared
    /// hold of the latch from its first page to its last. `traverse` may be
    /// called several times (see the module docs) and must not keep state
    /// between calls; only the returning call's result is used.
    pub fn read<S: PageSource, T>(
        &self,
        src: &S,
        traverse: impl Fn(&dyn PageFetch) -> Result<T>,
    ) -> Result<T> {
        let mut missed = Vec::new();
        for _ in 0..=MAX_RESTARTS {
            let probe = Probe::new(&self.pool, src.readahead_window(), &missed, true);
            let out = {
                let _shared = self.tree_latch.read();
                traverse(&probe)
            };
            let (wanted, hits) = (probe.absent.into_inner(), probe.hits.get());
            if !wanted.iter().any(|w| w.demanded) {
                self.pool.stats.hits.add(hits);
                return out;
            }
            self.stats.read_restarts.inc();
            note_missed(&mut missed, &wanted);
            self.load(src, &wanted, None)?;
        }
        self.stats.read_latch_fallbacks.inc();
        let fetch = Blocking::new(&self.pool, src, &missed, &[]);
        let _shared = self.tree_latch.read();
        // taurus-lint: allow(lock-across-fabric-call) -- counted fallback (read_latch_fallbacks): a traversal that keeps evicting its own pages fetches under the shared latch; storage read handlers take no engine locks, so no cycle -- latency only
        traverse(&fetch)
    }

    /// Applies a write set atomically: `apply` runs under the exclusive
    /// side and reads its pages through the fetcher it is given. Before
    /// that, the leaves of `keys` are brought into the pool with no latch
    /// held, so that `apply` is pool hits and CPU. The write set keeps the
    /// copies it fetched, and their loading marks, until it is done: a
    /// warmed page the pool evicted again before the apply (a pool pinned
    /// full of dirty frames keeps no clean one for long) is put back from
    /// the copy if its mark is still there, not read a second time.
    pub fn write<S: PageSource, K: AsRef<[u8]>, T>(
        &self,
        src: &S,
        keys: impl Iterator<Item = K> + Clone,
        apply: impl FnOnce(&dyn PageFetch) -> Result<T>,
    ) -> Result<T> {
        let mut missed = Vec::new();
        let mut warm = Vec::new();
        for _ in 0..=MAX_RESTARTS {
            // No root hint: the apply reads the control page, so the warm-up
            // brings it in too.
            let probe = Probe::new(&self.pool, 0, &missed, false);
            {
                let _shared = self.tree_latch.read();
                let mut leaf: Option<Arc<PageBuf>> = None;
                for key in keys.clone() {
                    // Neighbouring keys (a bulk load's) share a leaf: one
                    // descent finds it for all of them.
                    if leaf
                        .as_ref()
                        .is_some_and(|l| BTree::leaf_covers(l, key.as_ref()))
                    {
                        continue;
                    }
                    // An absent page ends this key's descent; the probe
                    // noted it, and the next key may want another.
                    leaf = BTree::leaf_for(&probe, key.as_ref()).ok();
                }
            }
            // Absent again after this write set fetched it: the copy waits
            // for the apply; another round would only read it again.
            let mut wanted = probe.absent.into_inner();
            wanted.retain(|w| !warm.iter().any(|held: &Warm| held.page == w.page));
            if wanted.is_empty() {
                break;
            }
            note_missed(&mut missed, &wanted);
            // A failed warm-up is not the write's failure: `apply` fetches
            // what is still absent and reports what it cannot get.
            match self.load(src, &wanted, Some(&mut warm)) {
                Ok(fetched) => self.stats.commit_warm_pages.add(fetched as u64),
                Err(_) => break,
            }
        }
        let fetch = Blocking::new(&self.pool, src, &missed, &warm);
        let asked = self.clock.now_us();
        let out = {
            let _exclusive = self.tree_latch.write();
            // The write set may split the root; the next traversal reads
            // the control page again.
            self.pool.set_root_hint(None);
            let waited = self.clock.now_us().saturating_sub(asked);
            self.stats.commit_latch_wait_us.add(waited);
            self.stats.commits.inc();
            // taurus-lint: allow(lock-across-fabric-call) -- counted fallback (commit_fetches_under_latch): a page whose warm copy a commit overtook, or one no descent names (a split's sibling), is fetched under the exclusive latch; storage read handlers take no engine locks, so no cycle
            apply(&fetch)
        };
        self.stats
            .commit_fetches_under_latch
            .add(fetch.fetched.get());
        for held in &warm {
            self.pool.end_load(held.page, held.token);
        }
        out
    }

    /// Fetches `wanted` from storage with no latch held — one envelope —
    /// and installs what the pool's loading marks let in. Returns the
    /// number of pages fetched. A write set passes `keep`: it holds on to
    /// the copies and to their marks (see [`Self::write`]).
    fn load<S: PageSource>(
        &self,
        src: &S,
        wanted: &[Want],
        mut keep: Option<&mut Vec<Warm>>,
    ) -> Result<usize> {
        // Mark before reading: the read must start after the page was seen
        // absent. Pages another load brought in meanwhile drop out here.
        let tickets: Vec<(&Want, u64)> = wanted
            .iter()
            .filter_map(|w| Some((w, self.pool.begin_load(w.page)?)))
            .collect();
        let read = |ids: Vec<PageId>| match ids[..] {
            [page] => Ok(vec![(page, src.read_page(page)?)]),
            _ => src.read_pages(&ids),
        };
        let fetched = match read(tickets.iter().map(|(w, _)| w.page).collect()) {
            // Hints are advisory: when a batch with hints aboard fails, the
            // demanded pages go alone, and their error is the traversal's.
            Err(_) if tickets.iter().any(|(w, _)| !w.demanded) => read(
                tickets
                    .iter()
                    .filter(|(w, _)| w.demanded)
                    .map(|(w, _)| w.page)
                    .collect(),
            )?,
            other => other?,
        };
        let guard = src.evict_guard();
        let count = fetched.len();
        for (page, buf) in fetched {
            let Some(&(want, token)) = tickets.iter().find(|(w, _)| w.page == page) else {
                continue;
            };
            let buf = Arc::new(buf);
            let kept = keep.is_some();
            if let Some(warm) = keep.as_deref_mut() {
                let buf = Arc::clone(&buf);
                warm.push(Warm { page, token, buf });
            }
            if !self
                .pool
                .finish_load(page, token, buf, want.hinted, kept, &guard)
            {
                self.stats.loads_discarded.inc();
            } else if want.hinted {
                self.pool.prefetched.inc();
            }
        }
        Ok(count)
    }
}

/// A page a write set fetched while warming up: the copy, and the loading
/// mark that says whether it is still the newest version.
struct Warm {
    page: PageId,
    token: u64,
    buf: Arc<PageBuf>,
}

/// A page one attempt found absent.
struct Want {
    page: PageId,
    /// The scan's readahead named it before (or without) demanding it: it
    /// is installed as a speculative frame, as the prefetch it replaces was.
    hinted: bool,
    /// The traversal needed it and stopped there.
    demanded: bool,
}

/// Adds the pages an attempt counted as misses — the ones it demanded
/// unhinted — to the traversal's list, so no later attempt counts them again.
fn note_missed(missed: &mut Vec<PageId>, wanted: &[Want]) {
    for want in wanted {
        if !want.hinted && !missed.contains(&want.page) {
            missed.push(want.page);
        }
    }
}

/// The latch-free path's fetcher: serves resident pages, notes absent ones
/// and fails on them, so the traversal unwinds to [`TreeLatch`].
///
/// Hit/miss accounting keeps the meaning it had when every traversal ran
/// once: a page the traversal had to wait for counts as one miss, however
/// many attempts touched it, and only the returning attempt's accesses
/// count as hits. A page that was hinted before it was demanded counts as
/// the prefetch it replaces did — a speculative install, then a hit. A
/// descent that starts from the root hint counts the control page as the
/// hit reading it would have been.
///
/// Readahead hints are noted without looking at the pool: they matter only
/// to an attempt that fails, and [`TreeLatch::load`] drops the resident
/// ones when it takes their loading marks.
struct Probe<'a> {
    pool: &'a EnginePool,
    window: usize,
    /// Pages earlier attempts of this traversal already counted as misses.
    missed: &'a [PageId],
    /// Whether descents start from the pool's root hint, and a control
    /// page read records the root it names: true for a traversal's
    /// attempts, which run under the shared side.
    root_hint: bool,
    /// Accesses of this attempt to count as hits if it is the one to return.
    hits: Cell<u64>,
    absent: RefCell<Vec<Want>>,
}

impl<'a> Probe<'a> {
    fn new(pool: &'a EnginePool, window: usize, missed: &'a [PageId], root_hint: bool) -> Self {
        Probe {
            pool,
            window,
            missed,
            root_hint,
            hits: Cell::new(0),
            absent: RefCell::new(Vec::new()),
        }
    }

    fn hit(&self, page: PageId) {
        if !self.missed.contains(&page) {
            self.hits.set(self.hits.get() + 1);
        }
    }
}

impl PageFetch for Probe<'_> {
    fn fetch(&self, page: PageId) -> Result<Arc<PageBuf>> {
        if let Some(frame) = self.pool.touch(page) {
            self.hit(page);
            if page == PageId::CONTROL && self.root_hint {
                self.pool.set_root_hint(BTree::root_in(&frame.buf).ok());
            }
            return Ok(frame.buf);
        }
        let mut absent = self.absent.borrow_mut();
        match absent.iter_mut().find(|w| w.page == page) {
            Some(want) => want.demanded = true,
            None => {
                if !self.missed.contains(&page) {
                    self.pool.stats.misses.inc();
                }
                absent.push(Want {
                    page,
                    hinted: false,
                    demanded: true,
                });
            }
        }
        Err(TaurusError::PageNotResident(page))
    }

    fn prefetch(&self, pages: &[PageId]) {
        let mut absent = self.absent.borrow_mut();
        for &page in pages {
            if !absent.iter().any(|w| w.page == page) {
                absent.push(Want {
                    page,
                    hinted: true,
                    demanded: false,
                });
            }
        }
    }

    fn readahead_window(&self) -> usize {
        self.window
    }

    fn known_root(&self) -> Option<PageId> {
        if !self.root_hint {
            return None;
        }
        let root = self.pool.root_hint()?;
        self.hit(PageId::CONTROL);
        Some(root)
    }
}

/// The fallbacks' fetcher: pool, then storage, under whichever side of the
/// latch the caller holds. Safe as it always was: nothing can commit while
/// a traversal holds the shared side, nor while a write set holds the
/// exclusive one, so the version read is still the newest when installed.
struct Blocking<'a, S> {
    pool: &'a EnginePool,
    src: &'a S,
    /// Pages the latch-free attempts already counted as misses.
    missed: &'a [PageId],
    /// Copies the write set fetched while warming up.
    warm: &'a [Warm],
    /// Demand fetches that went to storage.
    fetched: Cell<u64>,
}

impl<'a, S: PageSource> Blocking<'a, S> {
    fn new(pool: &'a EnginePool, src: &'a S, missed: &'a [PageId], warm: &'a [Warm]) -> Self {
        Blocking {
            pool,
            src,
            missed,
            warm,
            fetched: Cell::new(0),
        }
    }
}

impl<S: PageSource> PageFetch for Blocking<'_, S> {
    fn fetch(&self, page: PageId) -> Result<Arc<PageBuf>> {
        let counted = self.missed.contains(&page);
        if let Some(frame) = self.pool.touch(page) {
            if !counted {
                self.pool.stats.hits.inc();
            }
            return Ok(frame.buf);
        }
        if !counted {
            self.pool.stats.misses.inc();
        }
        let guard = self.src.evict_guard();
        // Warmed, and evicted again: the copy goes back in if its mark says
        // no commit has touched the page since.
        if let Some(held) = self.warm.iter().find(|held| held.page == page) {
            let buf = Arc::clone(&held.buf);
            if self
                .pool
                .finish_load(page, held.token, buf, false, true, &guard)
            {
                return Ok(Arc::clone(&held.buf));
            }
        }
        self.fetched.set(self.fetched.get() + 1);
        let buf = Arc::new(self.src.read_page(page)?);
        let frame = Frame::new(Arc::clone(&buf), buf.lsn(), false);
        self.pool.put(page, frame, &guard);
        Ok(buf)
    }

    fn prefetch(&self, pages: &[PageId]) {
        self.pool.prefetch_absent(
            pages,
            &|miss| self.src.read_pages(miss),
            &self.src.evict_guard(),
        );
    }

    fn readahead_window(&self) -> usize {
        self.src.readahead_window()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use parking_lot::Mutex;
    use taurus_common::clock::ManualClock;
    use taurus_common::lsn::LsnAllocator;
    use taurus_common::page::PageType;

    use crate::btree::MutCtx;

    /// Write-through page storage: every committed page version is here, so
    /// the pool may evict anything at any time.
    #[derive(Default)]
    struct MemStore {
        pages: Mutex<HashMap<PageId, PageBuf>>,
        /// Size of every storage read, in call order (1 = `read_page`).
        reads: Mutex<Vec<usize>>,
        /// Runs once, in the middle of the next batched read: after the
        /// pages were read, before they are returned.
        on_read: RefCell<Option<Box<dyn FnOnce()>>>,
    }

    impl PageSource for MemStore {
        fn read_page(&self, page: PageId) -> Result<PageBuf> {
            self.reads.lock().push(1);
            Ok(self.pages.lock().get(&page).cloned().unwrap_or_default())
        }

        fn read_pages(&self, pages: &[PageId]) -> Result<Vec<(PageId, PageBuf)>> {
            self.reads.lock().push(pages.len());
            let read = {
                let stored = self.pages.lock();
                pages
                    .iter()
                    .map(|p| (*p, stored.get(p).cloned().unwrap_or_default()))
                    .collect()
            };
            if let Some(hook) = self.on_read.take() {
                hook();
            }
            Ok(read)
        }

        fn evict_guard(&self) -> impl Fn(PageId, Lsn) -> bool + '_ {
            |_, _| true
        }

        fn readahead_window(&self) -> usize {
            8
        }
    }

    struct Db {
        tree: TreeLatch,
        store: MemStore,
        lsns: LsnAllocator,
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:06}").into_bytes()
    }

    impl Db {
        /// A tree of `rows` ascending rows (about 60 to a leaf) behind a
        /// pool of `frames` frames.
        fn load(rows: u32, frames: usize) -> Db {
            let db = Db {
                tree: TreeLatch::new(EnginePool::new(frames), ManualClock::shared()),
                store: MemStore::default(),
                lsns: LsnAllocator::new(Lsn::ZERO),
            };
            db.change(&[], BTree::bootstrap);
            let all: Vec<Vec<u8>> = (0..rows).map(key).collect();
            for chunk in all.chunks(50) {
                db.put(chunk, b"v0");
            }
            db
        }

        fn change(&self, keys: &[Vec<u8>], f: impl FnOnce(&mut MutCtx<'_>) -> Result<()>) {
            self.tree
                .write(&self.store, keys.iter(), |fetch| {
                    let mut ctx = MutCtx::new(&self.lsns, fetch);
                    f(&mut ctx)?;
                    for (id, page) in std::mem::take(&mut ctx.pages) {
                        self.store.pages.lock().insert(id, page.clone());
                        let frame = Frame::new(Arc::new(page), Lsn(1), true);
                        self.tree.pool.put(id, frame, &|_, _| true);
                    }
                    Ok(())
                })
                .unwrap();
        }

        fn put(&self, keys: &[Vec<u8>], tag: &[u8]) {
            self.change(keys, |ctx| {
                for k in keys {
                    let val = [tag, &[b'.'; 120][..]].concat();
                    BTree::put(ctx, k, &val)?;
                }
                Ok(())
            });
        }

        /// Empties the pool, then brings the descent spine back with a get
        /// at the far end of the table.
        fn cool(&self, rows: u32) {
            self.tree.pool.clear();
            self.tree
                .read(&self.store, |f| BTree::get(f, &key(rows - 1)))
                .unwrap();
            self.store.reads.lock().clear();
        }

        /// `(hits, misses, prefetched, prefetch_hits)`.
        fn counted(&self) -> [u64; 4] {
            let pool = &self.tree.pool;
            let (prefetched, prefetch_hits) = pool.prefetch_stats();
            [
                pool.stats.hits.get(),
                pool.stats.misses.get(),
                prefetched,
                prefetch_hits,
            ]
        }

        /// What `op` adds to the pool's counters on a cooled pool: through
        /// the protocol, or (`under_latch`) the way every traversal ran
        /// before it — one attempt, fetching under the latch.
        fn cost<T>(
            &self,
            rows: u32,
            under_latch: bool,
            op: impl Fn(&dyn PageFetch) -> Result<T>,
        ) -> ([u64; 4], T) {
            self.cool(rows);
            let before = self.counted();
            let out = if under_latch {
                op(&Blocking::new(&self.tree.pool, &self.store, &[], &[]))
            } else {
                self.tree.read(&self.store, op)
            };
            let after = self.counted();
            (std::array::from_fn(|i| after[i] - before[i]), out.unwrap())
        }
    }

    #[test]
    fn a_restarted_descent_counts_each_page_once() {
        let rows = 2_000;
        let db = Db::load(rows, 256);
        db.tree.pool.clear();
        db.store.reads.lock().clear();
        let before = db.tree.stats.snapshot();
        let get = |f: &dyn PageFetch| BTree::get(f, &key(7));
        // Stone cold: control page, root, leaf — one restart and one miss
        // each, and the attempt that returns counts no page a second time.
        let cold = db.counted();
        assert!(db.tree.read(&db.store, get).unwrap().is_some());
        let warm = db.counted();
        assert_eq!([warm[0] - cold[0], warm[1] - cold[1]], [0, 3]);
        let stats = db.tree.stats.snapshot();
        assert_eq!(stats.read_restarts - before.read_restarts, 3);
        assert_eq!(*db.store.reads.lock(), vec![1, 1, 1]);
        // All resident: three hits, no restart.
        assert!(db.tree.read(&db.store, get).unwrap().is_some());
        let hot = db.counted();
        assert_eq!([hot[0] - warm[0], hot[1] - warm[1]], [3, 0]);
        assert_eq!(db.tree.stats.snapshot().read_restarts, stats.read_restarts);
        // A leaf miss costs what it did under the latch.
        let (restarting, _) = db.cost(rows, false, get);
        let (blocking, _) = db.cost(rows, true, get);
        assert_eq!(restarting, blocking);
        assert_eq!(restarting, [2, 1, 0, 0]);
    }

    #[test]
    fn a_bounded_scan_counts_its_hinted_leaves_as_the_prefetch_did() {
        let rows = 2_000;
        let db = Db::load(rows, 256);
        // Twenty rows from the last rows of a leaf: the routed leaf and its
        // sibling travel in one envelope, and both are read.
        let leaf = db.tree.read(&db.store, |f| BTree::leaf_for(f, &key(500)));
        let last = leaf.unwrap().nslots() - 1;
        let start = (500..).find(|i| {
            let leaf = db.tree.read(&db.store, |f| BTree::leaf_for(f, &key(*i)));
            leaf.unwrap().search(&key(*i)) == Ok(last)
        });
        let start = key(start.unwrap());
        let scan = |f: &dyn PageFetch| BTree::scan(f, &start, 20);
        let (restarting, rows_a) = db.cost(rows, false, scan);
        assert_eq!(*db.store.reads.lock(), vec![2]);
        let (blocking, rows_b) = db.cost(rows, true, scan);
        assert_eq!(*db.store.reads.lock(), vec![2]);
        assert_eq!(rows_a, rows_b);
        assert_eq!(rows_a.len(), 20);
        assert_eq!(restarting, blocking);
        // control, root, leaf, sibling: all hits, two of them prefetched.
        assert_eq!(restarting, [4, 0, 2, 2]);

        // A scan that ends inside its first leaf ships the sibling with it
        // all the same: one round trip, whichever way it turns out.
        let inside = |f: &dyn PageFetch| BTree::scan(f, &key(0), 20);
        let (restarting, _) = db.cost(rows, false, inside);
        assert_eq!(*db.store.reads.lock(), vec![2]);
        let (blocking, _) = db.cost(rows, true, inside);
        assert_eq!(restarting, blocking);
        assert_eq!(restarting, [3, 0, 2, 1]);
        // Only when the leaf is resident does the protocol wait to see if
        // the absent sibling is read at all, where the prefetch went out
        // for it under the latch.
        let sibling = db.tree.read(&db.store, |f| BTree::leaf_for(f, &key(0)));
        let sibling = PageId(sibling.unwrap().next());
        for (under_latch, reads) in [(false, vec![]), (true, vec![1])] {
            db.tree.pool.remove(sibling);
            db.store.reads.lock().clear();
            let fetch = Blocking::new(&db.tree.pool, &db.store, &[], &[]);
            let got = if under_latch {
                inside(&fetch)
            } else {
                db.tree.read(&db.store, inside)
            };
            assert_eq!(got.unwrap().len(), 20);
            assert_eq!(*db.store.reads.lock(), reads);
        }
    }

    #[test]
    fn a_root_split_between_two_reads_leaves_no_stale_root_hint() {
        // One leaf is the whole tree: the first read records it as the root.
        let db = Db::load(30, 256);
        let got = db.tree.read(&db.store, |f| BTree::get(f, &key(0)));
        assert!(got.unwrap().is_some());
        let first = db.tree.pool.root_hint().expect("a read records the root");
        // A write set splits that root, and the tree grows a level under it.
        let all: Vec<Vec<u8>> = (30..400).map(key).collect();
        db.put(&all, b"v1");
        for i in 0..400 {
            let got = db.tree.read(&db.store, |f| BTree::get(f, &key(i)));
            assert!(got.unwrap().is_some(), "key {i} lost behind the old root");
        }
        let rows = db.tree.read(&db.store, |f| BTree::scan(f, b"", usize::MAX));
        assert_eq!(rows.unwrap().len(), 400);
        let root = db.tree.pool.root_hint().expect("reads record the new root");
        assert_ne!(root, first);
        let hot = db.tree.read(&db.store, |f| f.fetch(root)).unwrap();
        assert_eq!(hot.page_type(), PageType::Internal);
    }

    #[test]
    fn a_traversal_out_of_restarts_fetches_under_the_latch() {
        let rows = 2_000;
        let db = Db::load(rows, 4);
        let all = db
            .tree
            .read(&db.store, |f| BTree::scan(f, b"", usize::MAX))
            .unwrap();
        assert!(all.iter().map(|(k, _)| k.clone()).eq((0..rows).map(key)));
        let stats = db.tree.stats.snapshot();
        assert_eq!(stats.read_latch_fallbacks, 1);
        assert_eq!(stats.read_restarts, MAX_RESTARTS as u64 + 1);
    }

    #[test]
    fn a_write_set_is_warmed_in_one_envelope_and_applied_on_pool_hits() {
        let rows = 2_000;
        let db = Db::load(rows, 256);
        // Five keys on five leaves, none resident.
        let keys: Vec<Vec<u8>> = (0..5).map(|i| key(100 + 300 * i)).collect();
        db.cool(rows);
        let (before, counted) = (db.tree.stats.snapshot(), db.counted());
        db.put(&keys, b"v1");
        assert_eq!(*db.store.reads.lock(), vec![5]);
        let stats = db.tree.stats.snapshot();
        assert_eq!(stats.commit_warm_pages - before.commit_warm_pages, 5);
        assert_eq!(
            stats.commit_fetches_under_latch,
            before.commit_fetches_under_latch
        );
        assert_eq!(stats.commits - before.commits, 1);
        // Five leaf misses, and control page + root once each: what the
        // apply alone counted when it fetched under the latch.
        let after = db.counted();
        assert_eq!([after[0] - counted[0], after[1] - counted[1]], [2, 5]);
        for k in &keys {
            let got = db.tree.read(&db.store, |f| BTree::get(f, k)).unwrap();
            assert!(got.unwrap().starts_with(b"v1"));
        }
    }

    #[test]
    fn warmed_pages_evicted_before_the_apply_are_put_back_not_read_again() {
        let rows = 2_000;
        let db = Db::load(rows, 4);
        // Twelve leaves through a pool of four: the envelope's own installs
        // push its first pages out again, and the apply's push out the rest.
        let keys: Vec<Vec<u8>> = (0..12).map(|i| key(50 + 150 * i)).collect();
        db.cool(rows);
        let before = db.tree.stats.snapshot();
        db.put(&keys, b"v1");
        // One envelope for the leaves, and none of them read a second time:
        // what is fetched after it, one page at a time, is the spine the
        // leaves pushed out.
        let reads = db.store.reads.lock().clone();
        assert_eq!(reads[0], 12);
        assert!(
            reads.len() <= 5 && reads[1..].iter().all(|&n| n == 1),
            "{reads:?}"
        );
        let stats = db.tree.stats.snapshot();
        let warmed = stats.commit_warm_pages - before.commit_warm_pages;
        let under_latch = stats.commit_fetches_under_latch - before.commit_fetches_under_latch;
        assert_eq!(warmed + under_latch, reads.iter().sum::<usize>() as u64);
        for k in &keys {
            let got = db.tree.read(&db.store, |f| BTree::get(f, k)).unwrap();
            assert!(got.unwrap().starts_with(b"v1"));
        }
        // The write set gave its marks up when it was done.
        assert_eq!(db.tree.pool.marks(), 0);
    }

    #[test]
    fn a_warm_copy_a_commit_overtook_is_dropped_and_the_page_read_again() {
        let rows = 2_000;
        let db = std::rc::Rc::new(Db::load(rows, 4));
        // Two rows of one leaf. While the first writer's warm-up read of
        // that leaf is on its way back, a second writer commits the other
        // row, and reads elsewhere push the leaf out of the pool again.
        let (mine, theirs) = (key(700), key(701));
        db.cool(rows);
        let hook = {
            let (db, theirs) = (std::rc::Rc::clone(&db), theirs.clone());
            move || {
                db.put(std::slice::from_ref(&theirs), b"theirs");
                for i in 8..16 {
                    let far = key(100 * i);
                    db.tree.read(&db.store, |f| BTree::get(f, &far)).unwrap();
                }
            }
        };
        // `read_pages` is the hook's seat: make the warm-up a batch of two.
        *db.store.on_read.borrow_mut() = Some(Box::new(hook));
        let before = db.tree.stats.snapshot();
        db.put(&[mine.clone(), key(1_900)], b"mine");
        let stats = db.tree.stats.snapshot();
        // The copy that was overtaken went nowhere: not into the pool when
        // it arrived, not into the apply, which read the leaf again.
        assert!(stats.loads_discarded > before.loads_discarded);
        assert_eq!(
            stats.commit_fetches_under_latch - before.commit_fetches_under_latch,
            1
        );
        for (k, tag) in [(&mine, &b"mine"[..]), (&theirs, &b"theirs"[..])] {
            let got = db.tree.read(&db.store, |f| BTree::get(f, k)).unwrap();
            assert!(got.unwrap().starts_with(tag), "{k:?}");
        }
    }
}
