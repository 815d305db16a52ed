//! The global log cache and the consolidation queue.
//!
//! "Log caching is extremely important because reading log records one by
//! one during consolidation would be too slow" (paper §7). The cache holds
//! the records of recently arrived fragments in memory. Fragments are
//! consolidated (staged into their slice's open L0) in arrival order and
//! leave the cache as soon as they are, so consolidation never has to read
//! log records from disk. When the cache is full, incoming fragments are
//! parked on a disk-backlog queue and loaded as space frees up; until then a
//! read that needs their records fetches them from the fragments' blobs.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use taurus_common::metrics::HitRate;
use taurus_common::{LogRecord, SliceKey};

/// Key identifying a fragment in the cache: (slice, fragment seq).
pub type FragKey = (SliceKey, u64);

#[derive(Debug)]
struct Inner {
    /// Resident fragments: records by fragment key.
    resident: HashMap<FragKey, Arc<Vec<LogRecord>>>,
    resident_bytes: usize,
    /// Arrival-order queue of fragments not yet consolidated (resident).
    queue: VecDeque<FragKey>,
    /// Fragments that did not fit: on disk, waiting to be loaded.
    backlog: VecDeque<FragKey>,
}

impl Inner {
    fn pressure(&self) -> usize {
        self.resident_bytes + self.backlog.len() * 4096
    }
}

/// Byte-budgeted global cache of unconsolidated log records.
#[derive(Debug)]
pub struct LogCache {
    capacity_bytes: usize,
    inner: Mutex<Inner>,
    pub stats: HitRate,
}

impl LogCache {
    pub fn new(capacity_bytes: usize) -> Self {
        LogCache {
            capacity_bytes,
            inner: Mutex::new(Inner {
                resident: HashMap::new(),
                resident_bytes: 0,
                queue: VecDeque::new(),
                backlog: VecDeque::new(),
            }),
            stats: HitRate::new(),
        }
    }

    /// Admits an arriving fragment. If it fits in the byte budget it becomes
    /// resident and joins the consolidation queue; otherwise it is parked on
    /// the backlog (its records stay on disk). Returns the
    /// [`LogCache::pressure`] after the admission, read under the same lock.
    pub fn admit(&self, key: FragKey, records: Arc<Vec<LogRecord>>, bytes: usize) -> usize {
        let mut inner = self.inner.lock();
        if !inner.resident.contains_key(&key) {
            if inner.resident_bytes + bytes <= self.capacity_bytes {
                inner.resident.insert(key, records);
                inner.resident_bytes += bytes;
                inner.queue.push_back(key);
            } else {
                inner.backlog.push_back(key);
            }
        }
        inner.pressure()
    }

    /// Unconsolidated bytes pending: the resident records plus a page's
    /// worth per fragment on the backlog. The SAL throttles master writes
    /// on it (paper §7), as each `WriteLogs` reply reports it.
    pub fn pressure(&self) -> usize {
        self.inner.lock().pressure()
    }

    /// Loads a backlog fragment into the cache once space allows (the caller
    /// re-reads the records from disk). Returns `false` if it still doesn't
    /// fit.
    pub fn load_from_backlog(
        &self,
        key: FragKey,
        records: Arc<Vec<LogRecord>>,
        bytes: usize,
    ) -> bool {
        let mut inner = self.inner.lock();
        if inner.resident_bytes + bytes > self.capacity_bytes {
            return false;
        }
        inner.backlog.retain(|k| *k != key);
        inner.resident.insert(key, records);
        inner.resident_bytes += bytes;
        inner.queue.push_back(key);
        true
    }

    /// Next fragment to consolidate, in arrival order. Does not remove it;
    /// call [`LogCache::complete`] afterwards.
    pub fn next_for_consolidation(&self) -> Option<(FragKey, Arc<Vec<LogRecord>>)> {
        let inner = self.inner.lock();
        let key = *inner.queue.front()?;
        let records = inner.resident.get(&key)?.clone();
        Some((key, records))
    }

    /// Reads the records of a resident fragment (consolidation fast path).
    /// Counts a hit if resident, a miss otherwise (caller goes to disk).
    pub fn get(&self, key: FragKey) -> Option<Arc<Vec<LogRecord>>> {
        let inner = self.inner.lock();
        match inner.resident.get(&key) {
            Some(r) => {
                self.stats.hits.inc();
                Some(r.clone())
            }
            None => {
                self.stats.misses.inc();
                None
            }
        }
    }

    /// Marks a fragment fully consolidated: its records leave the cache
    /// immediately ("as soon as a log record has been consolidated, it is
    /// removed from the log cache", §7).
    pub fn complete(&self, key: FragKey, bytes: usize) {
        let mut inner = self.inner.lock();
        if inner.resident.remove(&key).is_some() {
            inner.resident_bytes = inner.resident_bytes.saturating_sub(bytes);
        }
        inner.queue.retain(|k| *k != key);
    }

    /// Oldest parked fragment, if any (the caller loads it from disk).
    pub fn next_backlog(&self) -> Option<FragKey> {
        self.inner.lock().backlog.front().copied()
    }

    pub fn queue_len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    pub fn backlog_len(&self) -> usize {
        self.inner.lock().backlog.len()
    }

    /// Drops all state for a slice (slice drop / replica rebuild).
    pub fn evict_slice(&self, slice: SliceKey) {
        let mut inner = self.inner.lock();
        let victims: Vec<FragKey> = inner
            .resident
            .keys()
            .filter(|(s, _)| *s == slice)
            .copied()
            .collect();
        for v in victims {
            if let Some(recs) = inner.resident.remove(&v) {
                let bytes: usize = recs.iter().map(|r| r.encoded_len()).sum();
                inner.resident_bytes = inner.resident_bytes.saturating_sub(bytes);
            }
        }
        inner.queue.retain(|(s, _)| *s != slice);
        inner.backlog.retain(|(s, _)| *s != slice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::page::PageType;
    use taurus_common::record::RecordBody;
    use taurus_common::{DbId, Lsn, PageId, SliceId};

    fn key(seq: u64) -> FragKey {
        (SliceKey::new(DbId(1), SliceId(0)), seq)
    }

    fn records(n: usize) -> Arc<Vec<LogRecord>> {
        Arc::new(
            (0..n)
                .map(|i| {
                    LogRecord::new(
                        Lsn(i as u64 + 1),
                        PageId(1),
                        RecordBody::Format {
                            ty: PageType::Leaf,
                            level: 0,
                        },
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn admit_and_consolidate_in_arrival_order() {
        let c = LogCache::new(1000);
        assert_eq!(c.admit(key(0), records(1), 100), 100);
        assert_eq!(c.admit(key(1), records(1), 100), 200);
        let (k, _) = c.next_for_consolidation().unwrap();
        assert_eq!(k, key(0));
        c.complete(key(0), 100);
        let (k, _) = c.next_for_consolidation().unwrap();
        assert_eq!(k, key(1));
        c.complete(key(1), 100);
        assert!(c.next_for_consolidation().is_none());
        assert_eq!(c.pressure(), 0);
    }

    #[test]
    fn overflow_goes_to_backlog() {
        let c = LogCache::new(150);
        assert_eq!(c.admit(key(0), records(1), 100), 100);
        // A backlogged fragment weighs a page in the pressure.
        assert_eq!(c.admit(key(1), records(1), 100), 100 + 4096);
        assert_eq!(c.backlog_len(), 1);
        // Consolidating frees space; the backlog fragment can then load.
        c.complete(key(0), 100);
        assert_eq!(c.next_backlog(), Some(key(1)));
        assert!(c.load_from_backlog(key(1), records(1), 100));
        assert_eq!(c.backlog_len(), 0);
        assert_eq!(c.queue_len(), 1);
    }

    #[test]
    fn get_tracks_hits_and_misses() {
        let c = LogCache::new(1000);
        c.admit(key(0), records(1), 50);
        assert!(c.get(key(0)).is_some());
        assert!(c.get(key(9)).is_none());
        assert_eq!(c.stats.hits.get(), 1);
        assert_eq!(c.stats.misses.get(), 1);
    }

    #[test]
    fn duplicate_admit_is_idempotent() {
        let c = LogCache::new(1000);
        assert_eq!(c.admit(key(0), records(1), 100), 100);
        assert_eq!(c.admit(key(0), records(1), 100), 100);
        assert_eq!(c.pressure(), 100);
        assert_eq!(c.queue_len(), 1);
    }

    #[test]
    fn evict_slice_clears_everything_for_it() {
        let c = LogCache::new(1000);
        let other = (SliceKey::new(DbId(1), SliceId(5)), 0);
        c.admit(key(0), records(2), 100);
        c.admit(other, records(2), 100);
        c.evict_slice(SliceKey::new(DbId(1), SliceId(0)));
        assert!(c.get(key(0)).is_none());
        assert!(c.get(other).is_some());
        assert_eq!(c.queue_len(), 1);
    }
}
