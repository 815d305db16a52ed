//! The Log Directory: locating everything needed to produce a page version.
//!
//! "For each slice, there is a data structure called the Log Directory. It
//! keeps track of the location of all log records and the versions of the
//! pages hosted by the slice, i.e., information needed to produce pages."
//! (paper §7). The production system uses Michael's lock-free hash table; we
//! use a sharded `parking_lot`-guarded map, which plays the same concurrency
//! role in safe Rust (DESIGN.md §5).

use std::collections::HashMap;

use parking_lot::RwLock;

use taurus_common::{Lsn, PageId};

/// Where some bytes live on the Page Store's device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiskLoc {
    pub offset: u64,
    pub len: u32,
}

/// One log record belonging to a page: its LSN, which fragment delivered it
/// (replica-local fragment id, for log-cache lookup), and its index inside
/// that fragment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordPtr {
    pub lsn: Lsn,
    pub frag_id: u64,
    pub idx_in_frag: u32,
}

/// A materialized (consolidated) page version persisted in the slice log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VersionPtr {
    pub lsn: Lsn,
    pub loc: DiskLoc,
}

/// Per-page entry: ascending materialized versions and ascending unpurged
/// log records.
#[derive(Clone, Debug, Default)]
pub struct PageEntry {
    pub versions: Vec<VersionPtr>,
    pub records: Vec<RecordPtr>,
}

/// What producing one page version takes: the newest materialized version
/// at or below the requested LSN, if any, and the page's records above that
/// base up to the requested LSN, in LSN order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PageRecipe {
    pub base: Option<VersionPtr>,
    pub records: Vec<RecordPtr>,
}

impl PageRecipe {
    /// The records above `lsn`: the suffix a base image at `lsn` (at or
    /// above [`PageRecipe::base`]) still needs.
    pub fn records_above(&self, lsn: Lsn) -> &[RecordPtr] {
        &self.records[self.records.partition_point(|r| r.lsn <= lsn)..]
    }
}

impl PageEntry {
    /// Latest materialized version at or below `as_of`.
    pub fn best_version(&self, as_of: Lsn) -> Option<VersionPtr> {
        self.versions.iter().rev().find(|v| v.lsn <= as_of).copied()
    }

    /// Records in `(after, as_of]`, in LSN order.
    #[cfg(test)]
    fn records_between(&self, after: Lsn, as_of: Lsn) -> Vec<RecordPtr> {
        self.records
            .iter()
            .filter(|r| r.lsn > after && r.lsn <= as_of)
            .copied()
            .collect()
    }

    /// [`LogDirectory::recipe`] on this entry: binary searches on both
    /// sorted vectors, and a copy of the record suffix only.
    fn recipe(&self, as_of: Lsn) -> PageRecipe {
        let newer = self.versions.partition_point(|v| v.lsn <= as_of);
        let base = newer
            .checked_sub(1)
            .and_then(|i| self.versions.get(i))
            .copied();
        let after = base.map_or(Lsn::ZERO, |v| v.lsn);
        let from = self.records.partition_point(|r| r.lsn <= after);
        let to = self.records.partition_point(|r| r.lsn <= as_of);
        PageRecipe {
            base,
            records: self.records[from..to].to_vec(),
        }
    }

    /// Inserts a record pointer at its LSN position; a duplicate delivery is
    /// ignored. Records almost always arrive in LSN order, so the newest one
    /// is checked first: a hot page's long pointer list is searched only
    /// when gossip delivers a record out of order.
    fn insert_record(&mut self, ptr: RecordPtr) {
        if self.records.last().is_none_or(|last| last.lsn < ptr.lsn) {
            self.records.push(ptr);
        } else if let Err(pos) = self.records.binary_search_by_key(&ptr.lsn, |r| r.lsn) {
            self.records.insert(pos, ptr);
        }
    }

    /// LSN of the newest record or version known for this page.
    pub fn newest_lsn(&self) -> Lsn {
        let rec = self.records.last().map(|r| r.lsn).unwrap_or(Lsn::ZERO);
        let ver = self.versions.last().map(|v| v.lsn).unwrap_or(Lsn::ZERO);
        rec.max(ver)
    }
}

const SHARDS: usize = 16;

/// Sharded page-id → entry map for one slice.
#[derive(Debug)]
pub struct LogDirectory {
    shards: Vec<RwLock<HashMap<PageId, PageEntry>>>,
}

impl Default for LogDirectory {
    fn default() -> Self {
        Self::new()
    }
}

impl LogDirectory {
    pub fn new() -> Self {
        LogDirectory {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, page: PageId) -> &RwLock<HashMap<PageId, PageEntry>> {
        &self.shards[(page.0 as usize) % SHARDS]
    }

    /// Registers one log record for a page (LSN order is maintained by
    /// insertion position, since gossip can deliver records out of order).
    pub fn add_record(&self, page: PageId, ptr: RecordPtr) {
        self.shard(page)
            .write()
            .entry(page)
            .or_default()
            .insert_record(ptr);
    }

    /// Registers a materialized page version.
    pub fn add_version(&self, page: PageId, ptr: VersionPtr) {
        let mut shard = self.shard(page).write();
        let entry = shard.entry(page).or_default();
        match entry.versions.binary_search_by_key(&ptr.lsn, |v| v.lsn) {
            Ok(pos) => entry.versions[pos] = ptr,
            Err(pos) => entry.versions.insert(pos, ptr),
        }
    }

    /// What producing `page` as of `as_of` takes, looked up under one shard
    /// read lock (`None`: the page was never written). Copies the record
    /// suffix above the chosen base, never the whole entry.
    pub fn recipe(&self, page: PageId, as_of: Lsn) -> Option<PageRecipe> {
        self.shard(page).read().get(&page).map(|e| e.recipe(as_of))
    }

    /// The newest materialized version of `page` at or below `as_of`, under
    /// one shard read lock and without copying any record pointer.
    pub fn version_at(&self, page: PageId, as_of: Lsn) -> Option<VersionPtr> {
        self.shard(page).read().get(&page)?.best_version(as_of)
    }

    /// Drops records and versions strictly below `recycle`, keeping at least
    /// one version at or below it so pages remain reconstructible, and
    /// keeping every record not yet covered by a version (still needed for
    /// consolidation). Returns the number of pointers purged.
    pub fn purge_below(&self, recycle: Lsn) -> usize {
        let mut purged = 0usize;
        for shard in &self.shards {
            let mut shard = shard.write();
            for entry in shard.values_mut() {
                // Keep the newest version <= recycle as the reconstruction
                // base; everything older goes.
                if let Some(base) = entry.best_version(recycle) {
                    let before = entry.versions.len();
                    entry.versions.retain(|v| v.lsn >= base.lsn);
                    purged += before - entry.versions.len();
                    // Records at or below the kept base are consolidated into
                    // it and no reader may ask below recycle: drop them.
                    let before = entry.records.len();
                    entry.records.retain(|r| r.lsn > base.lsn);
                    purged += before - entry.records.len();
                }
            }
        }
        purged
    }

    /// Number of pages tracked.
    pub fn page_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Total record pointers tracked (the paper's "Log Directory may grow
    /// large" pressure metric that drives master-side throttling).
    pub fn record_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().values().map(|e| e.records.len()).sum::<usize>())
            .sum()
    }

    /// Fragment ids still referenced by any record pointer. Fragment GC
    /// must keep these: their bytes are needed to materialize page versions.
    pub fn referenced_frag_ids(&self) -> std::collections::HashSet<u64> {
        let mut out = std::collections::HashSet::new();
        for shard in &self.shards {
            for entry in shard.read().values() {
                for r in &entry.records {
                    out.insert(r.frag_id);
                }
            }
        }
        out
    }

    /// All page ids tracked (used by replica rebuild to copy latest pages).
    pub fn page_ids(&self) -> Vec<PageId> {
        let mut out: Vec<PageId> = self
            .shards
            .iter()
            .flat_map(|s| s.read().keys().copied().collect::<Vec<_>>())
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rp(lsn: u64, frag: u64, idx: u32) -> RecordPtr {
        RecordPtr {
            lsn: Lsn(lsn),
            frag_id: frag,
            idx_in_frag: idx,
        }
    }

    fn vp(lsn: u64, off: u64) -> VersionPtr {
        VersionPtr {
            lsn: Lsn(lsn),
            loc: DiskLoc {
                offset: off,
                len: 8192,
            },
        }
    }

    /// A copy of the whole entry, as tests inspect it.
    fn entry(d: &LogDirectory, page: PageId) -> PageEntry {
        d.shard(page).read().get(&page).cloned().unwrap()
    }

    #[test]
    fn records_stay_sorted_even_with_out_of_order_arrival() {
        let d = LogDirectory::new();
        d.add_record(PageId(1), rp(5, 1, 0));
        d.add_record(PageId(1), rp(2, 0, 0));
        d.add_record(PageId(1), rp(9, 2, 0));
        let e = entry(&d, PageId(1));
        let lsns: Vec<u64> = e.records.iter().map(|r| r.lsn.0).collect();
        assert_eq!(lsns, vec![2, 5, 9]);
    }

    #[test]
    fn duplicate_records_are_ignored() {
        let d = LogDirectory::new();
        d.add_record(PageId(1), rp(5, 1, 0));
        d.add_record(PageId(1), rp(5, 1, 0));
        assert_eq!(d.record_count(), 1);
    }

    #[test]
    fn best_version_and_records_between() {
        let d = LogDirectory::new();
        d.add_version(PageId(1), vp(10, 0));
        d.add_version(PageId(1), vp(20, 9000));
        for l in [11, 15, 21, 25] {
            d.add_record(PageId(1), rp(l, l, 0));
        }
        let e = entry(&d, PageId(1));
        assert_eq!(e.best_version(Lsn(25)).unwrap().lsn, Lsn(20));
        assert_eq!(e.best_version(Lsn(19)).unwrap().lsn, Lsn(10));
        assert!(e.best_version(Lsn(9)).is_none());
        let between: Vec<u64> = e
            .records_between(Lsn(10), Lsn(21))
            .iter()
            .map(|r| r.lsn.0)
            .collect();
        assert_eq!(between, vec![11, 15, 21]);
        assert_eq!(e.newest_lsn(), Lsn(25));
    }

    #[test]
    fn recipe_matches_best_version_and_records_between_on_random_entries() {
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        for page in 0..300u64 {
            let d = LogDirectory::new();
            let page = PageId(page);
            for _ in 0..next(6) {
                d.add_version(page, vp(next(120), 0));
            }
            for _ in 0..next(40) {
                let lsn = next(120);
                d.add_record(page, rp(lsn, lsn, 0));
            }
            if next(4) == 0 {
                d.purge_below(Lsn(next(120)));
            }
            let Some(e) = d.shard(page).read().get(&page).cloned() else {
                assert_eq!(d.recipe(page, Lsn(60)), None);
                continue;
            };
            for as_of in 0..=125 {
                let as_of = Lsn(as_of);
                let base = e.best_version(as_of);
                let after = base.map_or(Lsn::ZERO, |v| v.lsn);
                let want = PageRecipe {
                    base,
                    records: e.records_between(after, as_of),
                };
                let got = d.recipe(page, as_of).unwrap();
                assert_eq!(got, want, "{page} as of {as_of}: {e:?}");
                for lsn in [after, Lsn(after.0 + 3), as_of] {
                    assert_eq!(got.records_above(lsn), e.records_between(lsn, as_of));
                }
            }
        }
    }

    #[test]
    fn purge_keeps_reconstruction_base() {
        let d = LogDirectory::new();
        d.add_version(PageId(1), vp(10, 0));
        d.add_version(PageId(1), vp(20, 9000));
        d.add_version(PageId(1), vp(30, 18000));
        for l in [11, 21, 31] {
            d.add_record(PageId(1), rp(l, l, 0));
        }
        let purged = d.purge_below(Lsn(25));
        assert!(purged >= 2);
        let e = entry(&d, PageId(1));
        // Version 20 is the newest <= 25: it must survive as the base.
        assert_eq!(e.versions.first().unwrap().lsn, Lsn(20));
        assert_eq!(e.versions.len(), 2);
        // Records above the base survive (still needed for versions 21..).
        let lsns: Vec<u64> = e.records.iter().map(|r| r.lsn.0).collect();
        assert_eq!(lsns, vec![21, 31]);
    }

    #[test]
    fn purge_without_any_version_keeps_records() {
        // A page that has never been consolidated keeps all its records:
        // they are the only way to produce it.
        let d = LogDirectory::new();
        d.add_record(PageId(2), rp(3, 0, 0));
        d.add_record(PageId(2), rp(4, 1, 0));
        let purged = d.purge_below(Lsn(100));
        assert_eq!(purged, 0);
        assert_eq!(d.record_count(), 2);
    }

    #[test]
    fn page_inventory() {
        let d = LogDirectory::new();
        d.add_record(PageId(7), rp(1, 0, 0));
        d.add_version(PageId(3), vp(5, 0));
        assert_eq!(d.page_count(), 2);
        assert_eq!(d.page_ids(), vec![PageId(3), PageId(7)]);
    }
}
