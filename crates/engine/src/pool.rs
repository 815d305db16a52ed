//! The engine buffer pool.
//!
//! A lock-striped LRU pool of page frames with one Taurus-specific rule:
//! "a dirty page cannot be evicted until all of its log records have been
//! written to at least one Page Store replica. Thus, until the latest log
//! record reaches a Page Store, the corresponding page is guaranteed to be
//! available from the buffer pool" (paper §4.2). The guard is a callback so
//! the master wires it to its slices' acked LSNs (`MasterEngine`'s
//! `evict_guard`, memoized per pool operation) and replicas (whose pages
//! are never authoritative) use a constant.
//!
//! The pool is sharded into a power-of-two number of independently locked
//! stripes (selected by a `PageId` hash), so concurrent traversals contend
//! on a shard mutex instead of one global lock. Each shard runs its own LRU
//! with the dirty-page guard; capacity is divided across shards, and a
//! shard whose frames are all pinned overflows rather than violating the
//! rule.
//!
//! A page fetched from storage **without** the tree latch held goes in
//! through a *loading mark* ([`EnginePool::begin_load`] /
//! [`EnginePool::finish_load`]): the mark is taken while the page is absent,
//! every dirty install of the page (a commit) removes it, and the fetched
//! copy is installed only if the page is still absent and the same mark is
//! still there. A dirty frame cannot leave the pool before its slice acked
//! it, so "absent when marked, no dirty install since" means the storage
//! read, issued after the mark at the slice's acked LSN, returned the
//! newest version — whatever else ran in between.
//!
//! The pool also holds the tree latch's *root hint* (see [`crate::latch`]):
//! the root page id last read from the control page. It is a cached value
//! of a page, so [`EnginePool::clear`] forgets it with the frames.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use taurus_common::metrics::{Counter, HitRate};
use taurus_common::{Lsn, PageBuf, PageId, Result};

/// The batched miss-path callback: given the absent ids, return the fetched
/// pages (wired to `Sal::read_pages` by the engines).
pub type FetchMany<'a> = dyn Fn(&[PageId]) -> Result<Vec<(PageId, PageBuf)>> + 'a;

/// The Fibonacci multiplier behind stripe selection and [`PageIdHasher`].
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// A map keyed by page id. Page ids are the engine's own integers, never
/// outside input, so they hash with one multiply instead of SipHash.
pub type PageMap<V> = HashMap<PageId, V, BuildHasherDefault<PageIdHasher>>;

/// [`PageMap`]'s hasher: a Fibonacci multiply, its high half folded into
/// the low one so the bucket index sees every bit of the id.
#[derive(Default)]
pub struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id;
    }

    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(FIBONACCI);
        h ^ (h >> 32)
    }
}

/// Pages a traversal pinned at one LSN read at versions that must never
/// warm the shared pool (a later live read would see stale data). They live
/// here for the traversal and die with its fetcher. Bounded: generous
/// enough for a full readahead window plus the descent spine, tiny next to
/// the pool; a full cache starts over.
#[derive(Default)]
pub(crate) struct TraversalCache(RefCell<PageMap<Arc<PageBuf>>>);

impl TraversalCache {
    const PAGES: usize = 512;

    pub(crate) fn get(&self, id: PageId) -> Option<Arc<PageBuf>> {
        self.0.borrow().get(&id).cloned()
    }

    pub(crate) fn contains(&self, id: PageId) -> bool {
        self.0.borrow().contains_key(&id)
    }

    pub(crate) fn remember(&self, id: PageId, buf: Arc<PageBuf>) {
        let mut pages = self.0.borrow_mut();
        if pages.len() >= Self::PAGES {
            pages.clear();
        }
        pages.insert(id, buf);
    }
}

/// One cached page frame. `Arc<PageBuf>` lets readers share a snapshot
/// without copying 8 KiB; writers use copy-on-write.
#[derive(Clone, Debug)]
pub struct Frame {
    pub buf: Arc<PageBuf>,
    /// LSN of the newest record applied to this frame.
    pub lsn: Lsn,
    /// True while the newest record may not yet be on any Page Store.
    pub dirty: bool,
    last_access: u64,
    /// True while the frame was installed speculatively (readahead) and has
    /// not yet served a demand access — the basis of the waste counter.
    prefetched: bool,
}

impl Frame {
    pub fn new(buf: Arc<PageBuf>, lsn: Lsn, dirty: bool) -> Self {
        Frame {
            buf,
            lsn,
            dirty,
            last_access: 0,
            prefetched: false,
        }
    }
}

/// What one stripe's lock protects.
#[derive(Default)]
struct ShardState {
    /// The LRU map.
    map: PageMap<Frame>,
    /// Access-tick counter behind `Frame::last_access`.
    tick: u64,
    /// Loading marks: page → the token of the load(s) in flight for it. A
    /// mark exists only while no dirty install of the page happened since
    /// it was taken; loads that start while it is there share its token.
    loading: PageMap<u64>,
    /// Next loading token; never reused, so a mark taken after a dirty
    /// install cannot be mistaken for the one that install removed.
    next_token: u64,
}

/// One lock stripe: an LRU map, its loading marks, and their counters.
struct Shard {
    capacity: usize,
    frames: Mutex<ShardState>,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            capacity,
            frames: Mutex::new(ShardState::default()),
        }
    }
}

/// Lock stripes of a front end's pool ([`EnginePool::striped`]).
const STRIPES: usize = 8;

/// Fewest frames a stripe of [`EnginePool::striped`] holds: each stripe
/// is its own LRU, and a smaller one evicts all but at random, so a pool
/// too small to give every stripe this many is one LRU.
const MIN_STRIPE_FRAMES: usize = 4;

/// Sharded LRU pool with the Taurus dirty-page eviction constraint.
pub struct EnginePool {
    shards: Vec<Shard>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: usize,
    pub stats: HitRate,
    /// Frames installed speculatively by readahead.
    pub prefetched: Counter,
    /// Speculative frames that later served a demand access.
    pub prefetch_hits: Counter,
    /// The root hint: a root page id read from the control page, or 0 (the
    /// control page's own id, never a root) for none. Only the tree latch
    /// sets it, under its latch; forgetting it is always safe.
    root_hint: AtomicU64,
}

impl std::fmt::Debug for EnginePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnginePool")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

impl EnginePool {
    /// Single-stripe pool: one global LRU, exactly the pre-sharding
    /// semantics. Unit tests that assert precise LRU order use this.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, 1)
    }

    /// The pool of a front end (the master's and every replica's):
    /// [`STRIPES`] lock stripes, or one LRU when `capacity` cannot give
    /// each stripe [`MIN_STRIPE_FRAMES`] frames.
    pub fn striped(capacity: usize) -> Self {
        let one_lru = capacity < STRIPES * MIN_STRIPE_FRAMES;
        Self::with_shards(capacity, if one_lru { 1 } else { STRIPES })
    }

    /// Pool with `capacity` total frames striped over `shards` locks.
    /// `shards` is rounded up to a power of two; capacity is split evenly
    /// (rounded up, so the total bound is `shards * ceil(capacity/shards)`).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = capacity.max(1).div_ceil(shards).max(1);
        EnginePool {
            shards: (0..shards).map(|_| Shard::new(per_shard)).collect(),
            mask: shards - 1,
            stats: HitRate::new(),
            prefetched: Counter::default(),
            prefetch_hits: Counter::default(),
            root_hint: AtomicU64::new(0),
        }
    }

    /// Stripe selection: a Fibonacci hash of the page id masked to the
    /// power-of-two shard count. Sequential page ids spread across shards.
    fn shard(&self, page: PageId) -> &Shard {
        let h = page.0.wrapping_mul(FIBONACCI) >> 32;
        &self.shards[(h as usize) & self.mask]
    }

    /// The root hint, if one is set. The tree latch orders it: it is read
    /// and written under a side of the latch, so `Relaxed` suffices.
    pub(crate) fn root_hint(&self) -> Option<PageId> {
        match self.root_hint.load(Ordering::Relaxed) {
            0 => None,
            root => Some(PageId(root)),
        }
    }

    pub(crate) fn set_root_hint(&self, root: Option<PageId>) {
        let id = root.map_or(0, |r| r.0);
        self.root_hint.store(id, Ordering::Relaxed);
    }

    /// Fetches a frame if cached, counting the access as a hit or a miss.
    pub fn get(&self, page: PageId) -> Option<Frame> {
        let frame = self.touch(page);
        match frame {
            Some(_) => self.stats.hits.inc(),
            None => self.stats.misses.inc(),
        }
        frame
    }

    /// A demand access that leaves the hit/miss counters to the caller: the
    /// frame moves to the front of the LRU and a speculative frame becomes
    /// a prefetch hit, as in [`Self::get`]. The tree-latch protocol counts
    /// a traversal's accesses itself, once, however often it restarted.
    pub fn touch(&self, page: PageId) -> Option<Frame> {
        let mut guard = self.shard(page).frames.lock();
        let st = &mut *guard;
        st.tick += 1;
        let f = st.map.get_mut(&page)?;
        f.last_access = st.tick;
        if f.prefetched {
            f.prefetched = false;
            self.prefetch_hits.inc();
        }
        Some(f.clone())
    }

    /// Installs (or replaces) a frame, evicting per LRU while respecting the
    /// dirty-page rule via `can_evict(page, lsn)`. Dirty frames that cannot
    /// be evicted are skipped; a shard may temporarily exceed its capacity
    /// when everything is pinned by the rule (the paper's guarantee demands
    /// it). A dirty frame is a new version of the page: it removes the
    /// page's loading mark, so a copy fetched before it is never installed.
    pub fn put(&self, page: PageId, frame: Frame, can_evict: &dyn Fn(PageId, Lsn) -> bool) {
        self.put_in_shard(page, frame, can_evict, false);
    }

    /// Marks `page` as being loaded from storage and returns the mark's
    /// token, or `None` when the page is resident (nothing to load). Must
    /// be called before the storage read is issued.
    pub fn begin_load(&self, page: PageId) -> Option<u64> {
        let mut guard = self.shard(page).frames.lock();
        let st = &mut *guard;
        if st.map.contains_key(&page) {
            return None;
        }
        let next = &mut st.next_token;
        Some(*st.loading.entry(page).or_insert_with(|| {
            *next += 1;
            *next
        }))
    }

    /// Installs a copy of `page` fetched under the mark `token` as a clean
    /// frame (`prefetched`: nobody demanded it yet) — only if that mark
    /// survived and the page is absent. Returns whether it went in; a copy
    /// refused for want of its mark may be stale and must be dropped.
    ///
    /// A load that keeps its mark (`keep_mark`) may come back with the same
    /// copy later — the page was evicted again — and is let in on the same
    /// terms: the mark is still the proof that no newer version exists. It
    /// gives the mark up with [`Self::end_load`].
    pub fn finish_load(
        &self,
        page: PageId,
        token: u64,
        buf: Arc<PageBuf>,
        prefetched: bool,
        keep_mark: bool,
        can_evict: &dyn Fn(PageId, Lsn) -> bool,
    ) -> bool {
        let shard = self.shard(page);
        let mut guard = shard.frames.lock();
        if guard.loading.get(&page) != Some(&token) {
            return false;
        }
        if !keep_mark {
            guard.loading.remove(&page);
        }
        if guard.map.contains_key(&page) {
            return false;
        }
        let lsn = buf.lsn();
        let frame = Frame::new(buf, lsn, false);
        Self::install(
            shard.capacity,
            &mut guard,
            page,
            frame,
            can_evict,
            prefetched,
        );
        true
    }

    /// Gives up a mark kept across [`Self::finish_load`]. Loads that share
    /// the token lose it with this one and are refused: late, never wrong.
    pub fn end_load(&self, page: PageId, token: u64) {
        let mut guard = self.shard(page).frames.lock();
        if guard.loading.get(&page) == Some(&token) {
            guard.loading.remove(&page);
        }
    }

    fn put_in_shard(
        &self,
        page: PageId,
        frame: Frame,
        can_evict: &dyn Fn(PageId, Lsn) -> bool,
        prefetched: bool,
    ) {
        let shard = self.shard(page);
        let mut guard = shard.frames.lock();
        Self::install(
            shard.capacity,
            &mut guard,
            page,
            frame,
            can_evict,
            prefetched,
        );
    }

    /// Puts `frame` into a stripe whose lock the caller holds, and evicts
    /// down to `capacity`.
    fn install(
        capacity: usize,
        st: &mut ShardState,
        page: PageId,
        frame: Frame,
        can_evict: &dyn Fn(PageId, Lsn) -> bool,
        prefetched: bool,
    ) {
        st.tick += 1;
        let mut f = frame;
        f.last_access = st.tick;
        f.prefetched = prefetched;
        if f.dirty {
            st.loading.remove(&page);
        }
        let frames = &mut st.map;
        frames.insert(page, f);
        while frames.len() > capacity {
            // LRU order among evictable frames only.
            let victim = frames
                .iter()
                .filter(|(p, f)| **p != page && (!f.dirty || can_evict(**p, f.lsn)))
                .min_by_key(|(_, f)| f.last_access)
                .map(|(p, f)| (*p, f.lsn, f.dirty));
            match victim {
                Some((p, lsn, dirty)) => {
                    // The filter above is what keeps the paper's rule; this
                    // re-checks the chosen victim so a refactoring that
                    // weakens the filter is caught at runtime.
                    taurus_common::invariant!(
                        "pool-dirty-eviction",
                        !dirty || can_evict(p, lsn),
                        "evicting dirty unacked page {:?} at lsn {}",
                        p,
                        lsn
                    );
                    frames.remove(&p);
                }
                None => break, // everything pinned: allow overflow
            }
        }
    }

    /// Speculative readahead: fetches only the ids not already cached, in
    /// one `fetch_many` call, and installs them as clean *prefetched*
    /// frames. Demand hit/miss accounting is untouched (`contains` peeks
    /// without bumping the LRU); a later `get` converts the frame into a
    /// prefetch hit. Fetch failures are swallowed — readahead is a hint,
    /// the demand path carries the real error handling.
    pub fn prefetch_absent(
        &self,
        pages: &[PageId],
        fetch_many: &FetchMany<'_>,
        can_evict: &dyn Fn(PageId, Lsn) -> bool,
    ) -> usize {
        let mut misses: Vec<PageId> = Vec::new();
        for &page in pages {
            if !misses.contains(&page) && !self.contains(page) {
                misses.push(page);
            }
        }
        if misses.is_empty() {
            return 0;
        }
        let Ok(fetched) = fetch_many(&misses) else {
            return 0;
        };
        let installed = fetched.len();
        for (page, buf) in fetched {
            let lsn = buf.lsn();
            self.put_in_shard(page, Frame::new(Arc::new(buf), lsn, false), can_evict, true);
        }
        self.prefetched.add(installed as u64);
        installed
    }

    /// Loading marks outstanding.
    #[cfg(test)]
    pub(crate) fn marks(&self) -> usize {
        let marks = |s: &Shard| s.frames.lock().loading.len();
        self.shards.iter().map(marks).sum()
    }

    /// Whether a frame is cached, without touching LRU or hit/miss stats.
    pub fn contains(&self, page: PageId) -> bool {
        self.shard(page).frames.lock().map.contains_key(&page)
    }

    /// Clears the dirty bit of every frame whose records storage already
    /// holds per `can_evict` (the master sweeps this lazily with the same
    /// guard its evictions use).
    pub fn clear_dirty(&self, can_evict: &dyn Fn(PageId, Lsn) -> bool) {
        for shard in &self.shards {
            let mut guard = shard.frames.lock();
            for (p, f) in guard.map.iter_mut() {
                if f.dirty && can_evict(*p, f.lsn) {
                    f.dirty = false;
                }
            }
        }
    }

    /// Removes a frame (replica cache invalidation) and the page's loading
    /// mark: whoever invalidates a page knows of a version a load in flight
    /// may have missed.
    pub fn remove(&self, page: PageId) {
        let mut guard = self.shard(page).frames.lock();
        guard.map.remove(&page);
        guard.loading.remove(&page);
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.frames.lock().map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total frame bound: per-shard capacity × shard count.
    pub fn capacity_bound(&self) -> usize {
        self.shards.iter().map(|s| s.capacity).sum()
    }

    /// `(installed, hits)` of the speculative readahead path; waste is the
    /// difference.
    pub fn prefetch_stats(&self) -> (u64, u64) {
        (self.prefetched.get(), self.prefetch_hits.get())
    }

    /// Clears the pool (used when a promoted replica re-syncs), loading
    /// marks and root hint included: no load in flight may install into the
    /// new state.
    pub fn clear(&self) {
        self.set_root_hint(None);
        for shard in &self.shards {
            let mut guard = shard.frames.lock();
            guard.map.clear();
            guard.loading.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::TaurusError;

    fn frame(lsn: u64, dirty: bool) -> Frame {
        Frame::new(Arc::new(PageBuf::new()), Lsn(lsn), dirty)
    }

    fn always(_: PageId, _: Lsn) -> bool {
        true
    }
    fn never(_: PageId, _: Lsn) -> bool {
        false
    }

    #[test]
    fn lru_eviction_of_clean_pages() {
        let pool = EnginePool::new(8);
        for i in 0..10u64 {
            pool.put(PageId(i), frame(i, false), &always);
        }
        // Earliest inserted (least recently used) pages are gone.
        assert!(pool.get(PageId(0)).is_none());
        assert!(pool.get(PageId(9)).is_some());
        assert_eq!(pool.len(), 8);
    }

    #[test]
    fn unacked_dirty_frames_are_never_evicted() {
        let pool = EnginePool::new(8);
        for i in 0..8u64 {
            pool.put(PageId(i), frame(i, true), &never);
        }
        // Pool is full of pinned dirty pages: adding more overflows rather
        // than violating the rule.
        for i in 8..12u64 {
            pool.put(PageId(i), frame(i, true), &never);
        }
        assert_eq!(pool.len(), 12);
        for i in 0..12u64 {
            assert!(pool.get(PageId(i)).is_some(), "page {i} must be pinned");
        }
    }

    #[test]
    fn acked_dirty_frames_become_evictable() {
        let pool = EnginePool::new(4);
        for i in 0..4u64 {
            pool.put(PageId(i), frame(i, true), &never);
        }
        // Records up to LSN 1 reached a Page Store.
        let acked = |_: PageId, lsn: Lsn| lsn <= Lsn(1);
        pool.put(PageId(9), frame(9, false), &acked);
        assert_eq!(pool.len(), 4);
        // One of pages 0/1 was evicted; pages 2 and 3 remain pinned.
        assert!(pool.get(PageId(2)).is_some());
        assert!(pool.get(PageId(3)).is_some());
        assert!(pool.get(PageId(9)).is_some());
    }

    #[test]
    fn clear_dirty_sweep() {
        let pool = EnginePool::new(8);
        pool.put(PageId(1), frame(5, true), &always);
        pool.clear_dirty(&|_, lsn| lsn <= Lsn(5));
        assert!(!pool.get(PageId(1)).unwrap().dirty);
    }

    #[test]
    fn hit_miss_accounting() {
        let pool = EnginePool::new(8);
        assert!(pool.get(PageId(1)).is_none());
        pool.put(PageId(1), frame(1, false), &always);
        assert!(pool.get(PageId(1)).is_some());
        assert_eq!(pool.stats.hits.get(), 1);
        assert_eq!(pool.stats.misses.get(), 1);
    }

    #[test]
    fn shards_are_power_of_two_and_bound_capacity() {
        let pool = EnginePool::with_shards(100, 3); // rounds to 4 shards
        assert_eq!(pool.shards.len(), 4);
        assert_eq!(pool.capacity_bound(), 4 * 25);
        // Fill well past the bound with evictable frames: the sharded LRU
        // keeps the population within the bound.
        for i in 0..1000u64 {
            pool.put(PageId(i), frame(i, false), &always);
        }
        assert!(pool.len() <= pool.capacity_bound());
    }

    #[test]
    fn a_front_end_pool_is_striped_by_capacity() {
        let stripes = |capacity| EnginePool::striped(capacity).shards.len();
        assert_eq!(
            [4, 8, 31, 32, 128, 400, 4096].map(stripes),
            [1, 1, 1, 8, 8, 8, 8]
        );
    }

    #[test]
    fn sharded_pool_spreads_sequential_pages() {
        let pool = EnginePool::with_shards(64, 8);
        for i in 0..64u64 {
            pool.put(PageId(i), frame(i, false), &always);
        }
        let occupied = pool
            .shards
            .iter()
            .filter(|s| !s.frames.lock().map.is_empty())
            .count();
        assert!(occupied > 1, "sequential ids all hashed to one shard");
    }

    fn loaded() -> Arc<PageBuf> {
        Arc::new(PageBuf::new())
    }

    #[test]
    fn loading_mark_is_taken_on_absence_and_spent_by_the_install() {
        let pool = EnginePool::new(8);
        pool.put(PageId(1), frame(1, false), &always);
        // A resident page needs no load; an absent one is marked, and loads
        // that start while the mark is there share it.
        assert_eq!(pool.begin_load(PageId(1)), None);
        let token = pool.begin_load(PageId(2)).expect("absent page is marked");
        assert_eq!(pool.begin_load(PageId(2)), Some(token));
        // The first copy back goes in as a clean frame and spends the mark;
        // the second load of the same page finds it gone.
        assert!(pool.finish_load(PageId(2), token, loaded(), false, false, &always));
        assert!(!pool.get(PageId(2)).expect("installed").dirty);
        assert!(!pool.finish_load(PageId(2), token, loaded(), false, false, &always));
        // `touch` and `get` never mark: a replica's miss leaves nothing.
        assert!(pool.get(PageId(3)).is_none() && pool.touch(PageId(3)).is_none());
        assert_eq!(pool.marks(), 0);
    }

    #[test]
    fn loading_mark_is_cleared_by_a_dirty_put_and_kept_by_a_clean_one() {
        let pool = EnginePool::new(2);
        // A clean install (the under-latch fallback's) is the version the
        // load will return too: the mark stays, the copy is merely late.
        let token = pool.begin_load(PageId(1)).unwrap();
        pool.put(PageId(1), frame(1, false), &always);
        assert_eq!(
            pool.shard(PageId(1)).frames.lock().loading.get(&PageId(1)),
            Some(&token)
        );
        assert!(!pool.finish_load(PageId(1), token, loaded(), false, false, &always));
        assert_eq!(pool.get(PageId(1)).unwrap().lsn, Lsn(1));

        // A dirty install is a new version: it clears the mark, and the
        // copy fetched before it stays out even after that version was
        // acked and evicted and a later load marked the page again.
        let stale = pool.begin_load(PageId(2)).unwrap();
        pool.put(PageId(2), frame(7, true), &always);
        assert_eq!(pool.marks(), 0);
        pool.put(PageId(3), frame(1, false), &always);
        pool.put(PageId(4), frame(1, false), &always);
        assert!(!pool.contains(PageId(2)), "acked dirty frame was evicted");
        let fresh = pool.begin_load(PageId(2)).unwrap();
        assert_ne!(stale, fresh);
        assert!(!pool.finish_load(PageId(2), stale, loaded(), false, false, &always));
        assert!(!pool.contains(PageId(2)));
        assert!(pool.finish_load(PageId(2), fresh, loaded(), true, false, &always));
    }

    #[test]
    fn a_kept_loading_mark_lets_the_copy_back_in_until_a_dirty_put() {
        let pool = EnginePool::new(1);
        let token = pool.begin_load(PageId(1)).unwrap();
        assert!(pool.finish_load(PageId(1), token, loaded(), false, true, &always));
        // Evicted again, nothing committed: the same copy is still the
        // newest version, and the kept mark says so.
        pool.put(PageId(2), frame(1, false), &always);
        assert!(!pool.contains(PageId(1)));
        assert!(pool.finish_load(PageId(1), token, loaded(), false, true, &always));
        // A commit, its ack, another eviction: now the copy is history.
        pool.put(PageId(1), frame(9, true), &always);
        pool.put(PageId(2), frame(1, false), &always);
        assert!(!pool.finish_load(PageId(1), token, loaded(), false, true, &always));
        // Giving up a mark takes it from the loads that share it, and leaves
        // somebody else's alone.
        let shared = pool.begin_load(PageId(3)).unwrap();
        pool.end_load(PageId(3), shared + 1);
        assert_eq!(pool.marks(), 1);
        pool.end_load(PageId(3), shared);
        assert!(!pool.finish_load(PageId(3), shared, loaded(), false, false, &always));
        assert_eq!(pool.marks(), 0);
    }

    #[test]
    fn loading_mark_is_dropped_by_remove_and_clear() {
        let pool = EnginePool::with_shards(16, 4);
        let a = pool.begin_load(PageId(1)).unwrap();
        let b = pool.begin_load(PageId(2)).unwrap();
        pool.remove(PageId(1));
        assert!(!pool.finish_load(PageId(1), a, loaded(), false, false, &always));
        pool.clear();
        assert!(!pool.finish_load(PageId(2), b, loaded(), false, false, &always));
        assert!(pool.is_empty());
    }

    #[test]
    fn prefetch_accounting_tracks_hits_and_waste() {
        let pool = EnginePool::with_shards(16, 4);
        pool.put(PageId(1), frame(1, false), &always);
        let fetch =
            |ids: &[PageId]| Ok(ids.iter().map(|&p| (p, PageBuf::new())).collect::<Vec<_>>());
        // Page 1 is cached: only 2 and 3 are speculatively installed.
        let n = pool.prefetch_absent(&[PageId(1), PageId(2), PageId(3)], &fetch, &always);
        assert_eq!(n, 2);
        assert_eq!(pool.prefetch_stats(), (2, 0));
        // A demand access converts one into a prefetch hit — once.
        assert!(pool.get(PageId(2)).is_some());
        assert!(pool.get(PageId(2)).is_some());
        assert_eq!(pool.prefetch_stats(), (2, 1));
    }

    #[test]
    fn threaded_pool_respects_capacity_and_dirty_guard() {
        let pool = EnginePool::with_shards(64, 8);
        // Dirty frames whose records never reach a Page Store: the paper's
        // rule says they must survive any amount of concurrent churn.
        let pinned: Vec<PageId> = (1000..1008u64).map(PageId).collect();
        for &p in &pinned {
            pool.put(p, frame(1, true), &never);
        }
        // Everything below the pinned range is clean and evictable.
        let guard = |p: PageId, _: Lsn| p.0 < 1000;
        std::thread::scope(|s| {
            let pool = &pool;
            for t in 0..8u64 {
                s.spawn(move || {
                    for i in 0..2000u64 {
                        let id = PageId(t * 10_000 + i % 300);
                        if pool.get(id).is_none() {
                            pool.put(id, frame(i, false), &guard);
                        }
                        if i % 64 == 0 {
                            let ids: Vec<PageId> =
                                (0..8).map(|k| PageId(t * 10_000 + (i + k) % 300)).collect();
                            pool.prefetch_absent(
                                &ids,
                                &|miss| Ok(miss.iter().map(|&p| (p, PageBuf::new())).collect()),
                                &guard,
                            );
                        }
                    }
                });
            }
        });
        // Clean frames kept every shard within its capacity; only the
        // pinned dirty frames may overflow (if they hash to one stripe).
        assert!(pool.len() <= pool.capacity_bound() + pinned.len());
        for &p in &pinned {
            let f = pool.get(p).expect("pinned dirty frame was evicted");
            assert!(f.dirty);
        }
        // The runtime invariant guarding the eviction rule never fired.
        assert!(taurus_common::invariants::violations()
            .iter()
            .all(|v| v.name != "pool-dirty-eviction"));
    }

    #[test]
    fn prefetch_failure_is_swallowed() {
        let pool = EnginePool::new(8);
        let fetch = |_: &[PageId]| Err(TaurusError::Internal("down".into()));
        assert_eq!(pool.prefetch_absent(&[PageId(5)], &fetch, &always), 0);
        assert!(pool.get(PageId(5)).is_none());
    }
}
