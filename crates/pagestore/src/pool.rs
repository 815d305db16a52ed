//! The Page Store buffer pool: a global clean cache of compacted page
//! images.
//!
//! "The Page Store buffer pool serves as a second-level cache for the buffer
//! pools of the database front end. However, its primary function is to
//! reduce disk reads during consolidation... We have evaluated both LFU and
//! LRU policies for the Page Store buffer pool and found that LFU provides a
//! 25% better hit rate" (paper §7). Every image it holds is already
//! persisted in an L1 blob, so eviction just drops it. LFU is what servers
//! run; the `ablations` bench drives the pool under both policies.

use std::collections::HashMap;

use parking_lot::Mutex;

use taurus_common::metrics::HitRate;
use taurus_common::{Lsn, PageBuf, PageId, SliceKey};

/// Cache eviction policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Least-frequently-used: the paper's choice for this second-tier cache.
    Lfu,
    /// Least-recently-used: the ablation's comparison point.
    Lru,
}

/// A cached page version.
#[derive(Clone, Debug)]
pub struct PooledPage {
    pub page: PageBuf,
    pub lsn: Lsn,
}

#[derive(Debug)]
struct Entry {
    page: PooledPage,
    freq: u64,
    last_access: u64,
}

#[derive(Debug)]
struct Inner {
    map: HashMap<(SliceKey, PageId), Entry>,
    tick: u64,
}

/// Global (per Page Store server) buffer pool.
#[derive(Debug)]
pub struct PagePool {
    capacity: usize,
    policy: EvictionPolicy,
    inner: Mutex<Inner>,
    pub stats: HitRate,
}

impl PagePool {
    pub fn new(capacity: usize, policy: EvictionPolicy) -> Self {
        PagePool {
            capacity: capacity.max(1),
            policy,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            stats: HitRate::new(),
        }
    }

    /// Looks up the cached latest version of a page, counting hit/miss.
    pub fn get(&self, slice: SliceKey, page: PageId) -> Option<PooledPage> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&(slice, page)) {
            Some(e) => {
                e.freq += 1;
                e.last_access = tick;
                self.stats.hits.inc();
                Some(e.page.clone())
            }
            None => {
                self.stats.misses.inc();
                None
            }
        }
    }

    /// A copy of the cached version of a page if `usable(its lsn)`, without
    /// counting a hit or a miss or touching its frequency: compaction's base
    /// lookup, so the hit ratio and the eviction order count reads only.
    pub fn peek(
        &self,
        slice: SliceKey,
        page: PageId,
        usable: impl FnOnce(Lsn) -> bool,
    ) -> Option<PooledPage> {
        let inner = self.inner.lock();
        let e = inner.map.get(&(slice, page))?;
        usable(e.page.lsn).then(|| e.page.clone())
    }

    /// [`PagePool::put`] unless the pool already holds this page at
    /// `pooled.lsn` or newer (compaction's refresh: a re-run never replaces
    /// a newer image with an older one).
    pub fn put_if_newer(&self, slice: SliceKey, page: PageId, pooled: PooledPage) {
        let mut inner = self.inner.lock();
        if let Some(e) = inner.map.get(&(slice, page)) {
            if e.page.lsn >= pooled.lsn {
                return;
            }
        }
        self.put_locked(&mut inner, slice, page, pooled);
    }

    /// Inserts or replaces the cached version of a page, then evicts victims
    /// by policy while the pool is over capacity.
    pub fn put(&self, slice: SliceKey, page: PageId, pooled: PooledPage) {
        let mut inner = self.inner.lock();
        self.put_locked(&mut inner, slice, page, pooled);
    }

    fn put_locked(&self, inner: &mut Inner, slice: SliceKey, page: PageId, pooled: PooledPage) {
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.entry((slice, page)) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let e = o.get_mut();
                e.page = pooled;
                e.freq += 1;
                e.last_access = tick;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Entry {
                    page: pooled,
                    freq: 1,
                    last_access: tick,
                });
            }
        }
        while inner.map.len() > self.capacity {
            let victim = match self.policy {
                EvictionPolicy::Lfu => inner
                    .map
                    .iter()
                    .filter(|(k, _)| **k != (slice, page))
                    .min_by_key(|(_, e)| (e.freq, e.last_access))
                    .map(|(k, _)| *k),
                EvictionPolicy::Lru => inner
                    .map
                    .iter()
                    .filter(|(k, _)| **k != (slice, page))
                    .min_by_key(|(_, e)| e.last_access)
                    .map(|(k, _)| *k),
            };
            let Some(key) = victim else { break };
            inner.map.remove(&key);
        }
    }

    /// Removes every page belonging to a slice (slice drop / rebuild).
    pub fn evict_slice(&self, slice: SliceKey) {
        self.inner.lock().map.retain(|(s, _), _| *s != slice);
    }

    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::{DbId, SliceId};

    fn key() -> SliceKey {
        SliceKey::new(DbId(1), SliceId(0))
    }

    fn pooled(lsn: u64) -> PooledPage {
        PooledPage {
            page: PageBuf::new(),
            lsn: Lsn(lsn),
        }
    }

    #[test]
    fn get_put_and_hit_tracking() {
        let pool = PagePool::new(4, EvictionPolicy::Lfu);
        assert!(pool.get(key(), PageId(1)).is_none());
        pool.put(key(), PageId(1), pooled(5));
        let got = pool.get(key(), PageId(1)).unwrap();
        assert_eq!(got.lsn, Lsn(5));
        assert_eq!(pool.stats.hits.get(), 1);
        assert_eq!(pool.stats.misses.get(), 1);
    }

    #[test]
    fn peek_counts_nothing_and_put_if_newer_keeps_the_newest() {
        let pool = PagePool::new(4, EvictionPolicy::Lfu);
        assert!(pool.peek(key(), PageId(1), |_| true).is_none());
        pool.put_if_newer(key(), PageId(1), pooled(5));
        assert_eq!(pool.peek(key(), PageId(1), |_| true).unwrap().lsn, Lsn(5));
        assert!(pool.peek(key(), PageId(1), |lsn| lsn > Lsn(5)).is_none());
        pool.put_if_newer(key(), PageId(1), pooled(3));
        assert_eq!(pool.peek(key(), PageId(1), |_| true).unwrap().lsn, Lsn(5));
        pool.put_if_newer(key(), PageId(1), pooled(7));
        assert_eq!(pool.peek(key(), PageId(1), |_| true).unwrap().lsn, Lsn(7));
        assert_eq!(pool.stats.hits.get() + pool.stats.misses.get(), 0);
    }

    #[test]
    fn lfu_evicts_least_frequently_used() {
        let pool = PagePool::new(2, EvictionPolicy::Lfu);
        pool.put(key(), PageId(1), pooled(1));
        pool.put(key(), PageId(2), pooled(1));
        // Touch page 1 several times: page 2 becomes the LFU victim.
        for _ in 0..5 {
            pool.get(key(), PageId(1));
        }
        pool.put(key(), PageId(3), pooled(1));
        assert!(pool.get(key(), PageId(1)).is_some());
        assert!(pool.get(key(), PageId(2)).is_none());
        assert!(pool.get(key(), PageId(3)).is_some());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let pool = PagePool::new(2, EvictionPolicy::Lru);
        pool.put(key(), PageId(1), pooled(1));
        pool.put(key(), PageId(2), pooled(1));
        // Page 1 accessed frequently but LONG AGO; page 2 recently.
        for _ in 0..5 {
            pool.get(key(), PageId(1));
        }
        pool.get(key(), PageId(2));
        pool.put(key(), PageId(3), pooled(1));
        // LRU evicts page 1 despite its high frequency.
        assert!(pool.get(key(), PageId(1)).is_none());
        assert!(pool.get(key(), PageId(2)).is_some());
    }

    #[test]
    fn evict_slice_clears_only_that_slice() {
        let pool = PagePool::new(8, EvictionPolicy::Lfu);
        let other = SliceKey::new(DbId(1), SliceId(9));
        pool.put(key(), PageId(1), pooled(1));
        pool.put(other, PageId(1), pooled(1));
        pool.evict_slice(key());
        assert!(pool.get(key(), PageId(1)).is_none());
        assert!(pool.get(other, PageId(1)).is_some());
    }

    #[test]
    fn just_inserted_page_is_never_its_own_victim() {
        let pool = PagePool::new(1, EvictionPolicy::Lfu);
        pool.put(key(), PageId(1), pooled(1));
        pool.put(key(), PageId(2), pooled(2));
        // Capacity 1: page 2 must be the survivor.
        assert!(pool.get(key(), PageId(2)).is_some());
        assert_eq!(pool.len(), 1);
    }
}
