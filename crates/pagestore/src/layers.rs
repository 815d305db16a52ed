//! Immutable layer files: the log-structured organization of consolidation.
//!
//! A slice's incoming log is consolidated in bulk, never page by page as
//! each fragment arrives ([`crate::ConsolidationPolicy::Layered`], the
//! Neon-pageserver shape, DESIGN.md §13):
//!
//! * arriving fragments are **staged** in memory into an open L0 delta
//!   layer; once the staged payload reaches `l0_target_bytes` the run is
//!   **sealed** — its records are sorted by `(PageId, Lsn)` and written to
//!   the device as one immutable blob (one append I/O for many fragments);
//! * once `compaction_threshold` L0s are sealed, a **compaction** merges
//!   their sorted runs in one pass: every touched page's image at the
//!   compaction LSN is its base plus its merged records, and all images
//!   are written back-to-back in one immutable L1 blob, each image
//!   registered as a plain [`crate::directory::VersionPtr`] into the blob —
//!   so the read path and byte-for-byte results are unchanged;
//! * superseded versions, record pointers, fragment bookkeeping and whole
//!   L0s are garbage-collected **as a by-product of the merge** (respecting
//!   `recycle_lsn` and the reconstruction-base rule of
//!   [`crate::directory::LogDirectory::purge_below`]), instead of by a
//!   separate purge pass.
//!
//! Layer files are immutable once written: a crash between the L1 blob
//! append and directory registration leaves an unreachable partial blob on
//! the append-only device, and re-running the compaction is idempotent
//! because `add_version` replaces on equal LSN.
//!
//! The store's single internal mutex (`layers::inner`) is a leaf in the
//! canonical lock order — it sits in the same row as `directory` and
//! `pool::inner` under the replica mutex, and no method performs device I/O
//! or takes another lock while holding it.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::Mutex;

use taurus_common::{LogRecord, Lsn, PageId, Result, TaurusError};

use crate::directory::DiskLoc;

const L0_MAGIC: u32 = 0x544C_304C; // "TL0L"

/// Where one record of a [`SortedRun`] sits: its sort key and its place in
/// the run's fragments.
#[derive(Clone, Copy, Debug)]
struct RunKey {
    page: PageId,
    lsn: Lsn,
    frag: u32,
    idx: u32,
}

/// A run of log records sorted by `(PageId, Lsn)` with no equal pair: the
/// records stay in the fragments' own allocations and the run holds only a
/// sorted key vector into them. The same run encodes the L0 blob, serves a
/// record fetch by binary search, and is one input of the compaction merge.
#[derive(Debug)]
pub struct SortedRun {
    frags: Vec<Arc<Vec<LogRecord>>>,
    keys: Vec<RunKey>,
}

impl SortedRun {
    /// Sorts the records of `frags` by `(page, lsn)`. Overlapping recovery
    /// resends can hold the same record twice; one copy is kept (LSNs are
    /// unique per slice).
    pub fn build(frags: Vec<Arc<Vec<LogRecord>>>) -> Self {
        let mut keys: Vec<RunKey> = frags
            .iter()
            .enumerate()
            .flat_map(|(f, recs)| {
                recs.iter().enumerate().map(move |(i, r)| RunKey {
                    page: r.page,
                    lsn: r.lsn,
                    frag: f as u32,
                    idx: i as u32,
                })
            })
            .collect();
        keys.sort_unstable_by_key(|k| (k.page, k.lsn));
        keys.dedup_by_key(|k| (k.page, k.lsn));
        SortedRun { frags, keys }
    }

    /// The `(page, lsn)` key at position `i`, if any.
    fn key(&self, i: usize) -> Option<(PageId, Lsn)> {
        self.keys.get(i).map(|k| (k.page, k.lsn))
    }

    /// The record at position `i` of the sorted order.
    fn record(&self, i: usize) -> &LogRecord {
        let k = self.keys[i];
        &self.frags[k.frag as usize][k.idx as usize]
    }

    /// The record of `page` at `lsn`, found by binary search.
    pub fn find(&self, page: PageId, lsn: Lsn) -> Option<&LogRecord> {
        let i = self
            .keys
            .binary_search_by_key(&(page, lsn), |k| (k.page, k.lsn))
            .ok()?;
        Some(self.record(i))
    }

    /// The records in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &LogRecord> {
        (0..self.keys.len()).map(|i| self.record(i))
    }

    /// The immutable L0 blob of this run (left unfrozen: the device keeps
    /// the buffer as it is, and freezing would copy it).
    pub fn encode(&self) -> BytesMut {
        let payload: usize = self.iter().map(LogRecord::encoded_len).sum();
        let mut out = BytesMut::with_capacity(8 + payload);
        out.put_u32_le(L0_MAGIC);
        out.put_u32_le(self.keys.len() as u32);
        for r in self.iter() {
            r.encode_into(&mut out);
        }
        out
    }

    /// Decodes an L0 blob back into its run (already sorted on the device).
    pub fn decode(buf: &mut Bytes) -> Result<SortedRun> {
        if buf.remaining() < 8 {
            return Err(TaurusError::Codec("L0 layer truncated: header"));
        }
        if buf.get_u32_le() != L0_MAGIC {
            return Err(TaurusError::Codec("bad L0 layer magic"));
        }
        let count = buf.get_u32_le() as usize;
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            records.push(LogRecord::decode(buf)?);
        }
        Ok(SortedRun::build(vec![Arc::new(records)]))
    }
}

/// Metadata of one sealed, immutable L0 delta layer: a sorted run of log
/// records from several consecutive fragments, stored as one device blob.
#[derive(Debug)]
struct L0Layer {
    id: u64,
    loc: DiskLoc,
    last_lsn: Lsn,
    /// Fragments folded into this layer (for record-fetch routing and GC).
    frag_ids: Vec<u64>,
    /// The layer's run in memory while it is sealed; dropped once it is
    /// compacted (the pool then holds clean images at the compaction LSN),
    /// so only historical snapshot reads ever read a blob on the device.
    run: Option<Arc<SortedRun>>,
}

/// Metadata of one immutable L1 image layer: materialized pages written
/// back-to-back in a single blob at a compaction LSN.
#[derive(Clone, Copy, Debug)]
pub struct L1Layer {
    pub id: u64,
    pub offset: u64,
    pub pages: u32,
    pub compact_lsn: Lsn,
}

/// Where the records of a sealed or compacted L0 are.
#[derive(Debug)]
pub enum L0Records {
    /// Sealed, not yet compacted: the run is in memory.
    Resident(Arc<SortedRun>),
    /// Compacted: the run lives only in the layer's blob on the device.
    OnDevice { layer_id: u64, loc: DiskLoc },
}

/// One fragment staged in the open (unsealed) L0.
#[derive(Debug)]
struct StagedFrag {
    first_lsn: Lsn,
    last_lsn: Lsn,
    bytes: usize,
    records: Arc<Vec<LogRecord>>,
}

/// Everything the server needs to seal the open L0: the encoded blob plus
/// the run to commit once the blob is on the device.
#[derive(Debug)]
pub struct SealPlan {
    pub blob: BytesMut,
    /// The sorted run the blob encodes, over the staged fragments' own
    /// record allocations. Committed as the sealed layer's in-memory index
    /// so record fetches against a sealed (not yet compacted) L0 stay
    /// memory hits.
    pub run: Arc<SortedRun>,
    pub last_lsn: Lsn,
    pub frag_ids: Vec<u64>,
}

/// The work of one compaction: the sealed runs to merge and the compaction
/// LSN.
#[derive(Debug)]
pub struct CompactionJob {
    pub l0_ids: Vec<u64>,
    pub runs: Vec<Arc<SortedRun>>,
    pub compact_lsn: Lsn,
}

impl CompactionJob {
    /// The job's records in one k-way merge of its sorted runs, in
    /// `(page, lsn)` order, each `(page, lsn)` pair once however many runs
    /// hold it.
    pub fn merge(&self) -> RunMerge<'_> {
        RunMerge {
            runs: &self.runs,
            heads: vec![0; self.runs.len()],
        }
    }
}

/// The iterator of [`CompactionJob::merge`]: one head per run, the smallest
/// head key next (a compaction merges a handful of runs, so a linear pick
/// beats a heap).
#[derive(Debug)]
pub struct RunMerge<'a> {
    runs: &'a [Arc<SortedRun>],
    heads: Vec<usize>,
}

impl<'a> Iterator for RunMerge<'a> {
    type Item = &'a LogRecord;

    fn next(&mut self) -> Option<&'a LogRecord> {
        let runs = self.runs;
        let (key, from) = runs
            .iter()
            .zip(&self.heads)
            .enumerate()
            .filter_map(|(i, (run, &head))| Some((run.key(head)?, i)))
            .min()?;
        let record = runs[from].record(self.heads[from]);
        for (run, head) in runs.iter().zip(self.heads.iter_mut()) {
            if run.key(*head) == Some(key) {
                *head += 1;
            }
        }
        Some(record)
    }
}

#[derive(Debug, Default)]
struct LayerInner {
    /// Open L0: staged fragments by id, in staging order.
    staged: Vec<(u64, StagedFrag)>,
    staged_bytes: usize,
    /// Sealed L0s awaiting compaction, in seal order.
    sealed: Vec<L0Layer>,
    /// L0s already merged into an L1, by layer id, kept for historical
    /// (snapshot) record fetches until GC drops them below the recycle LSN.
    compacted: BTreeMap<u64, L0Layer>,
    l1: Vec<L1Layer>,
    /// Record-fetch routing: fragment id → sealed/compacted L0 id.
    frag_route: HashMap<u64, u64>,
    next_layer_id: u64,
}

/// Per-slice layer bookkeeping. Shared (`Arc`) like the Log Directory so the
/// read path and the compactor use it without holding the replica mutex.
#[derive(Debug, Default)]
pub struct LayerStore {
    inner: Mutex<LayerInner>,
    /// Written under `inner` by `commit_compaction` only; an atomic so every
    /// page read can check its replay bound without taking the lock.
    compact_lsn: AtomicU64,
}

impl LayerStore {
    pub fn new() -> Self {
        LayerStore::default()
    }

    /// Stages one fragment into the open L0. Returns the staged payload
    /// bytes so the caller can decide whether to seal.
    pub fn stage(
        &self,
        frag_id: u64,
        first_lsn: Lsn,
        last_lsn: Lsn,
        records: Arc<Vec<LogRecord>>,
        bytes: usize,
    ) -> usize {
        let mut inner = self.inner.lock();
        inner.staged.push((
            frag_id,
            StagedFrag {
                first_lsn,
                last_lsn,
                bytes,
                records,
            },
        ));
        inner.staged_bytes += bytes;
        inner.staged_bytes
    }

    /// Builds the seal plan for the open L0: the staged fragments' records
    /// as one sorted run (no record is copied) and its encoded blob. Does
    /// not mutate state: the caller appends the blob to the device and then
    /// calls [`LayerStore::commit_seal`]. Returns `None` if nothing staged.
    pub fn seal_plan(&self) -> Option<SealPlan> {
        let (frags, frag_ids, last_lsn) = {
            let inner = self.inner.lock();
            if inner.staged.is_empty() {
                return None;
            }
            let frags: Vec<Arc<Vec<LogRecord>>> = inner
                .staged
                .iter()
                .map(|(_, f)| Arc::clone(&f.records))
                .collect();
            let ids: Vec<u64> = inner.staged.iter().map(|(id, _)| *id).collect();
            let last = inner.staged.iter().map(|(_, f)| f.last_lsn).max();
            (frags, ids, last.unwrap_or(Lsn::ZERO))
        };
        let run = SortedRun::build(frags);
        Some(SealPlan {
            blob: run.encode(),
            run: Arc::new(run),
            last_lsn,
            frag_ids,
        })
    }

    /// Commits a sealed L0 at its device location: registers the layer with
    /// its run, routes its fragments to it, and drops them from the open L0.
    /// Returns the new layer id.
    pub fn commit_seal(&self, plan: SealPlan, loc: DiskLoc) -> u64 {
        let mut inner = self.inner.lock();
        let id = inner.next_layer_id;
        inner.next_layer_id += 1;
        for frag_id in &plan.frag_ids {
            inner.frag_route.insert(*frag_id, id);
        }
        // Only drop the fragments this plan covered: fragments staged after
        // the plan was built stay in the open L0.
        let covered: HashSet<u64> = plan.frag_ids.iter().copied().collect();
        inner.staged.retain(|(id, _)| !covered.contains(id));
        inner.staged_bytes = inner.staged.iter().map(|(_, f)| f.bytes).sum();
        inner.sealed.push(L0Layer {
            id,
            loc,
            last_lsn: plan.last_lsn,
            frag_ids: plan.frag_ids,
            run: Some(plan.run),
        });
        id
    }

    /// Number of sealed L0s awaiting compaction.
    pub fn sealed_count(&self) -> usize {
        self.inner.lock().sealed.len()
    }

    /// Plans a compaction over every sealed L0. The compaction LSN is the
    /// newest LSN the merged layers cover, capped below any record not in a
    /// sealed run — one still in the open L0, or in a fragment that has
    /// arrived but is not staged yet (`unstaged_first`, the lowest first LSN
    /// of those) — so the merge sees every record at or below it (the
    /// bounded replay rule). Does not mutate state: the caller merges,
    /// writes the L1 blob, registers the images, then calls
    /// [`LayerStore::commit_compaction`] — so an aborted compaction leaves
    /// the store unchanged and re-running it is idempotent.
    pub fn compaction_job(&self, unstaged_first: Option<Lsn>) -> Option<CompactionJob> {
        let inner = self.inner.lock();
        let mut compact_lsn = inner.sealed.iter().map(|l| l.last_lsn).max()?;
        let open_first = inner.staged.iter().map(|(_, f)| f.first_lsn).min();
        if let Some(first) = open_first.into_iter().chain(unstaged_first).min() {
            compact_lsn = compact_lsn.min(Lsn(first.0.saturating_sub(1)));
        }
        if compact_lsn <= self.compact_lsn() {
            return None;
        }
        Some(CompactionJob {
            l0_ids: inner.sealed.iter().map(|l| l.id).collect(),
            runs: inner.sealed.iter().filter_map(|l| l.run.clone()).collect(),
            compact_lsn,
        })
    }

    /// Commits a finished compaction: moves the merged L0s that lie wholly
    /// at or below the compaction LSN to the compacted list (a layer with
    /// records above it stays sealed and is merged again next time),
    /// records the L1, and advances the compaction LSN.
    pub fn commit_compaction(&self, job: &CompactionJob, l1_offset: u64, image_count: u32) {
        let mut inner = self.inner.lock();
        let (merged, kept): (Vec<L0Layer>, Vec<L0Layer>) = inner
            .sealed
            .drain(..)
            .partition(|l| job.l0_ids.contains(&l.id) && l.last_lsn <= job.compact_lsn);
        inner.sealed = kept;
        for mut l0 in merged {
            l0.run = None;
            inner.compacted.insert(l0.id, l0);
        }
        let id = inner.next_layer_id;
        inner.next_layer_id += 1;
        inner.l1.push(L1Layer {
            id,
            offset: l1_offset,
            pages: image_count,
            compact_lsn: job.compact_lsn,
        });
        self.compact_lsn
            .fetch_max(job.compact_lsn.0, Ordering::Release);
    }

    /// The LSN up to which every touched page has a materialized image —
    /// reads at or above it replay only records newer than it.
    pub fn compact_lsn(&self) -> Lsn {
        Lsn(self.compact_lsn.load(Ordering::Acquire))
    }

    /// Records of a fragment still staged in the open L0 (memory hit).
    pub fn staged_records(&self, frag_id: u64) -> Option<Arc<Vec<LogRecord>>> {
        let inner = self.inner.lock();
        inner
            .staged
            .iter()
            .find(|(id, _)| *id == frag_id)
            .map(|(_, f)| f.records.clone())
    }

    /// Where the sealed or compacted L0 holding a fragment's records keeps
    /// them, if any.
    pub fn l0_for_frag(&self, frag_id: u64) -> Option<L0Records> {
        let inner = self.inner.lock();
        let layer_id = *inner.frag_route.get(&frag_id)?;
        if let Some(l0) = inner.compacted.get(&layer_id) {
            return Some(L0Records::OnDevice {
                layer_id,
                loc: l0.loc,
            });
        }
        let l0 = inner.sealed.iter().find(|l| l.id == layer_id)?;
        match &l0.run {
            Some(run) => Some(L0Records::Resident(Arc::clone(run))),
            None => Some(L0Records::OnDevice {
                layer_id,
                loc: l0.loc,
            }),
        }
    }

    /// GC-as-merge: drops compacted L0s that sit entirely below the recycle
    /// LSN and whose fragments no Log Directory record pointer references
    /// any more. Returns the blob bytes logically reclaimed.
    pub fn gc(&self, recycle: Lsn, referenced_frags: &HashSet<u64>) -> u64 {
        let mut inner = self.inner.lock();
        let mut reclaimed = 0u64;
        let mut dropped_routes: Vec<u64> = Vec::new();
        inner.compacted.retain(|_, l| {
            let dead =
                l.last_lsn < recycle && l.frag_ids.iter().all(|f| !referenced_frags.contains(f));
            if dead {
                reclaimed += l.loc.len as u64;
                dropped_routes.extend(l.frag_ids.iter().copied());
            }
            !dead
        });
        for f in dropped_routes {
            inner.frag_route.remove(&f);
        }
        reclaimed
    }

    /// Layer census for stats: (staged frags, sealed L0s, compacted L0s,
    /// L1 layers).
    pub fn census(&self) -> (usize, usize, usize, usize) {
        let inner = self.inner.lock();
        (
            inner.staged.len(),
            inner.sealed.len(),
            inner.compacted.len(),
            inner.l1.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::page::PageType;
    use taurus_common::record::RecordBody;

    fn rec(lsn: u64, page: u64) -> LogRecord {
        LogRecord::new(
            Lsn(lsn),
            PageId(page),
            RecordBody::Format {
                ty: PageType::Leaf,
                level: 0,
            },
        )
    }

    fn stage(store: &LayerStore, frag_id: u64, lsns: &[(u64, u64)]) {
        let records: Vec<LogRecord> = lsns.iter().map(|&(l, p)| rec(l, p)).collect();
        let bytes: usize = records.iter().map(LogRecord::encoded_len).sum();
        let first = Lsn(lsns.iter().map(|&(l, _)| l).min().unwrap_or(0));
        let last = Lsn(lsns.iter().map(|&(l, _)| l).max().unwrap_or(0));
        store.stage(frag_id, first, last, Arc::new(records), bytes);
    }

    fn decoded(plan: &SealPlan) -> Vec<(u64, u64)> {
        let run = SortedRun::decode(&mut Bytes::from(plan.blob.to_vec())).unwrap();
        run.iter().map(|r| (r.page.0, r.lsn.0)).collect()
    }

    fn seal(store: &LayerStore, len: u32) -> u64 {
        let plan = store.seal_plan().unwrap();
        store.commit_seal(plan, DiskLoc { offset: 0, len })
    }

    #[test]
    fn l0_blob_roundtrip_is_sorted_by_page_then_lsn() {
        let store = LayerStore::new();
        stage(&store, 0, &[(1, 9), (2, 3)]);
        stage(&store, 1, &[(3, 3), (4, 9)]);
        let plan = store.seal_plan().unwrap();
        assert_eq!(plan.last_lsn, Lsn(4));
        assert_eq!(plan.frag_ids, vec![0, 1]);
        assert_eq!(decoded(&plan), vec![(3, 2), (3, 3), (9, 1), (9, 4)]);
        // The in-memory run is the blob's order, and finds by (page, lsn).
        let keys: Vec<(u64, u64)> = plan.run.iter().map(|r| (r.page.0, r.lsn.0)).collect();
        assert_eq!(keys, decoded(&plan));
        assert_eq!(plan.run.find(PageId(9), Lsn(4)).unwrap().lsn, Lsn(4));
        assert!(plan.run.find(PageId(3), Lsn(4)).is_none());
    }

    #[test]
    fn overlapping_staged_fragments_dedup_in_the_blob() {
        let store = LayerStore::new();
        stage(&store, 0, &[(1, 5), (2, 5)]);
        stage(&store, 1, &[(2, 5), (3, 5)]); // recovery resend overlap
        let plan = store.seal_plan().unwrap();
        assert_eq!(decoded(&plan), vec![(5, 1), (5, 2), (5, 3)]);
        assert_eq!(plan.run.iter().count(), 3);
    }

    #[test]
    fn a_sealed_run_reads_the_staged_records_in_place() {
        let store = LayerStore::new();
        stage(&store, 0, &[(1, 5), (2, 6)]);
        let staged = store.staged_records(0).unwrap();
        seal(&store, 32);
        assert!(
            matches!(store.l0_for_frag(0), Some(L0Records::Resident(_))),
            "a sealed layer keeps its run in memory"
        );
        // The open L0 let go of the records; the run holds the very same
        // allocation as the only owner besides this test.
        assert_eq!(Arc::strong_count(&staged), 2);
    }

    #[test]
    fn commit_seal_routes_fragments_and_keeps_late_stagers() {
        let store = LayerStore::new();
        stage(&store, 0, &[(1, 5)]);
        let plan = store.seal_plan().unwrap();
        // A fragment staged after the plan was built must survive the seal.
        stage(&store, 1, &[(2, 5)]);
        store.commit_seal(plan, DiskLoc { offset: 0, len: 32 });
        assert!(matches!(store.l0_for_frag(0), Some(L0Records::Resident(_))));
        assert!(store.l0_for_frag(1).is_none());
        assert!(store.staged_records(1).is_some());
        assert!(store.staged_records(0).is_none());
        assert_eq!(store.sealed_count(), 1);
    }

    #[test]
    fn compaction_lsn_caps_below_open_records() {
        let store = LayerStore::new();
        stage(&store, 0, &[(1, 5), (2, 5)]);
        seal(&store, 64);
        // Open L0 holds lsn 3: the compaction LSN must stop at 2.
        stage(&store, 1, &[(3, 6)]);
        let job = store.compaction_job(None).unwrap();
        assert_eq!(job.compact_lsn, Lsn(2));
        assert_eq!(job.runs.len(), 1);
        store.commit_compaction(&job, 128, 1);
        assert_eq!(store.compact_lsn(), Lsn(2));
        assert_eq!(store.sealed_count(), 0);
        // The merged L0 still serves record fetches (snapshot reads), from
        // its blob.
        assert!(matches!(
            store.l0_for_frag(0),
            Some(L0Records::OnDevice { .. })
        ));
    }

    #[test]
    fn compaction_lsn_caps_below_unstaged_records_and_keeps_the_layer_above_it() {
        let store = LayerStore::new();
        // Fragment 1 (lsns 3-4) was staged before fragment 0 (lsns 1-2),
        // which has arrived but is not staged yet.
        stage(&store, 1, &[(3, 5), (4, 6)]);
        seal(&store, 64);
        assert!(store.compaction_job(Some(Lsn(1))).is_none());
        let job = store.compaction_job(Some(Lsn(4))).unwrap();
        assert_eq!(job.compact_lsn, Lsn(3));
        store.commit_compaction(&job, 128, 1);
        // The layer still holds lsn 4, above the compaction LSN: it stays
        // sealed, in memory, for the next merge.
        assert_eq!(store.sealed_count(), 1);
        assert!(matches!(store.l0_for_frag(1), Some(L0Records::Resident(_))));
        let job = store.compaction_job(None).unwrap();
        assert_eq!(job.compact_lsn, Lsn(4));
    }

    #[test]
    fn aborted_compaction_leaves_the_store_unchanged_and_is_idempotent() {
        let store = LayerStore::new();
        stage(&store, 0, &[(1, 5)]);
        seal(&store, 32);
        let job1 = store.compaction_job(None).unwrap();
        // "Crash" before commit: nothing changed, the next plan is equal.
        let job2 = store.compaction_job(None).unwrap();
        assert_eq!(job1.compact_lsn, job2.compact_lsn);
        assert_eq!(job1.l0_ids, job2.l0_ids);
        assert_eq!(store.sealed_count(), 1);
    }

    #[test]
    fn gc_drops_only_unreferenced_fully_recycled_layers() {
        let store = LayerStore::new();
        stage(&store, 0, &[(1, 5), (2, 5)]);
        seal(&store, 48);
        let job = store.compaction_job(None).unwrap();
        store.commit_compaction(&job, 96, 1);
        // Still referenced: survives even below the recycle LSN.
        let mut referenced = HashSet::new();
        referenced.insert(0u64);
        assert_eq!(store.gc(Lsn(10), &referenced), 0);
        assert!(store.l0_for_frag(0).is_some());
        // Unreferenced and below recycle: reclaimed.
        referenced.clear();
        assert_eq!(store.gc(Lsn(10), &referenced), 48);
        assert!(store.l0_for_frag(0).is_none());
        assert_eq!(store.census(), (0, 0, 0, 1));
    }

    #[test]
    fn the_merge_walks_every_run_once_in_page_then_lsn_order() {
        let runs: Vec<Arc<SortedRun>> = [
            vec![(1, 5), (4, 7), (6, 5)],
            vec![(2, 7), (4, 7), (5, 5)], // (7, 4) resent in a second layer
            vec![(3, 9)],
        ]
        .iter()
        .map(|lsns| {
            let records = lsns.iter().map(|&(l, p)| rec(l, p)).collect();
            Arc::new(SortedRun::build(vec![Arc::new(records)]))
        })
        .collect();
        let job = CompactionJob {
            l0_ids: vec![0, 1, 2],
            runs,
            compact_lsn: Lsn(9),
        };
        let keys: Vec<(u64, u64)> = job.merge().map(|r| (r.page.0, r.lsn.0)).collect();
        assert_eq!(keys, vec![(5, 1), (5, 5), (5, 6), (7, 2), (7, 4), (9, 3)]);
    }

    #[test]
    fn corrupt_l0_blobs_fail_to_decode() {
        let mut truncated = Bytes::from(vec![0u8; 4]);
        assert!(SortedRun::decode(&mut truncated).is_err());
        let mut garbage = Bytes::from(vec![0xffu8; 32]);
        assert!(SortedRun::decode(&mut garbage).is_err());
    }
}
