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
//!   them: every touched page is materialized at the compaction LSN and all
//!   images are written back-to-back in one immutable L1 blob, each image
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

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::Mutex;

use taurus_common::{LogRecord, Lsn, PageId, Result, TaurusError};

use crate::directory::DiskLoc;

const L0_MAGIC: u32 = 0x544C_304C; // "TL0L"

/// Metadata of one sealed, immutable L0 delta layer: a sorted run of log
/// records from several consecutive fragments, stored as one device blob.
#[derive(Clone, Debug)]
pub struct L0Layer {
    pub id: u64,
    pub loc: DiskLoc,
    pub first_lsn: Lsn,
    pub last_lsn: Lsn,
    /// Fragments folded into this layer (for record-fetch routing).
    pub frag_ids: Vec<u64>,
    /// Pages the layer's records touch (compaction work list).
    pub pages: Vec<PageId>,
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

/// One fragment staged in the open (unsealed) L0.
#[derive(Debug)]
struct StagedFrag {
    first_lsn: Lsn,
    last_lsn: Lsn,
    bytes: usize,
    records: Arc<Vec<LogRecord>>,
}

/// Everything the server needs to seal the open L0: the encoded blob plus
/// the metadata to commit once the blob is on the device.
#[derive(Debug)]
pub struct SealPlan {
    pub blob: Bytes,
    /// The sorted, deduplicated run the blob encodes. Committed as the
    /// sealed layer's in-memory index so record fetches against a sealed
    /// (not yet compacted) L0 stay memory hits.
    pub records: Arc<Vec<LogRecord>>,
    pub first_lsn: Lsn,
    pub last_lsn: Lsn,
    pub frag_ids: Vec<u64>,
    pub pages: Vec<PageId>,
}

/// The work list of one compaction: which sealed L0s to merge, which pages
/// to materialize, and the compaction LSN.
#[derive(Clone, Debug)]
pub struct CompactionJob {
    pub l0_ids: Vec<u64>,
    pub pages: Vec<PageId>,
    pub compact_lsn: Lsn,
}

#[derive(Debug, Default)]
struct LayerInner {
    /// Open L0: staged fragments by id, in staging order.
    staged: Vec<(u64, StagedFrag)>,
    staged_bytes: usize,
    /// Sealed L0s awaiting compaction, in seal order.
    sealed: Vec<L0Layer>,
    /// L0s already merged into an L1, kept for historical (snapshot) record
    /// fetches until GC drops them below the recycle LSN.
    compacted: Vec<L0Layer>,
    l1: Vec<L1Layer>,
    /// Record-fetch routing: fragment id → sealed/compacted L0 id.
    frag_route: HashMap<u64, u64>,
    /// In-memory index of each **sealed** L0's run, keyed by LSN. Bounded by
    /// `compaction_threshold × l0_target_bytes`: dropped when the layer is
    /// compacted (the pool then holds clean images at the compaction LSN),
    /// so only historical snapshot reads ever touch a blob on the device.
    sealed_runs: HashMap<u64, Arc<HashMap<Lsn, LogRecord>>>,
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

    /// Builds the seal plan for the open L0 (encoded blob + metadata). Does
    /// not mutate state: the caller appends the blob to the device and then
    /// calls [`LayerStore::commit_seal`]. Returns `None` if nothing staged.
    pub fn seal_plan(&self) -> Option<SealPlan> {
        let inner = self.inner.lock();
        if inner.staged.is_empty() {
            return None;
        }
        let mut records: Vec<LogRecord> = inner
            .staged
            .iter()
            .flat_map(|(_, f)| f.records.iter().cloned())
            .collect();
        // The sorted-run key of the layer file. Overlapping recovery resends
        // can stage the same record twice; keep one copy (LSNs are unique).
        records.sort_by_key(|r| (r.page, r.lsn));
        records.dedup_by_key(|r| (r.page, r.lsn));
        let mut pages: Vec<PageId> = records.iter().map(|r| r.page).collect();
        pages.dedup();
        let first_lsn = inner
            .staged
            .iter()
            .map(|(_, f)| f.first_lsn)
            .min()
            .unwrap_or(Lsn::ZERO);
        let last_lsn = inner
            .staged
            .iter()
            .map(|(_, f)| f.last_lsn)
            .max()
            .unwrap_or(Lsn::ZERO);
        let blob = encode_l0(&records);
        Some(SealPlan {
            blob,
            records: Arc::new(records),
            first_lsn,
            last_lsn,
            frag_ids: inner.staged.iter().map(|(id, _)| *id).collect(),
            pages,
        })
    }

    /// Commits a sealed L0 at its device location: registers the layer,
    /// routes its fragments to it, and drops the staged records. Returns the
    /// new layer id.
    pub fn commit_seal(&self, plan: &SealPlan, loc: DiskLoc) -> u64 {
        let mut inner = self.inner.lock();
        let id = inner.next_layer_id;
        inner.next_layer_id += 1;
        for frag_id in &plan.frag_ids {
            inner.frag_route.insert(*frag_id, id);
        }
        inner.sealed_runs.insert(
            id,
            Arc::new(plan.records.iter().map(|r| (r.lsn, r.clone())).collect()),
        );
        inner.sealed.push(L0Layer {
            id,
            loc,
            first_lsn: plan.first_lsn,
            last_lsn: plan.last_lsn,
            frag_ids: plan.frag_ids.clone(),
            pages: plan.pages.clone(),
        });
        // Only drop the fragments this plan covered: fragments staged after
        // the plan was built stay in the open L0.
        let covered: HashSet<u64> = plan.frag_ids.iter().copied().collect();
        inner.staged.retain(|(id, _)| !covered.contains(id));
        inner.staged_bytes = inner.staged.iter().map(|(_, f)| f.bytes).sum();
        id
    }

    /// Number of sealed L0s awaiting compaction.
    pub fn sealed_count(&self) -> usize {
        self.inner.lock().sealed.len()
    }

    /// Plans a compaction over every sealed L0. The compaction LSN is the
    /// newest LSN the merged layers cover, capped below any record still in
    /// the open L0 so the merge covers a contiguous LSN prefix (the bounded
    /// replay rule). Does not mutate state: the caller materializes, writes
    /// the L1 blob, registers the images, then calls
    /// [`LayerStore::commit_compaction`] — so an aborted compaction leaves
    /// the store unchanged and re-running it is idempotent.
    pub fn compaction_job(&self) -> Option<CompactionJob> {
        let inner = self.inner.lock();
        if inner.sealed.is_empty() {
            return None;
        }
        let mut compact_lsn = inner
            .sealed
            .iter()
            .map(|l| l.last_lsn)
            .max()
            .unwrap_or(Lsn::ZERO);
        if let Some(open_first) = inner.staged.iter().map(|(_, f)| f.first_lsn).min() {
            compact_lsn = compact_lsn.min(Lsn(open_first.0.saturating_sub(1)));
        }
        if compact_lsn <= self.compact_lsn() {
            return None;
        }
        let mut pages: Vec<PageId> = inner
            .sealed
            .iter()
            .flat_map(|l| l.pages.iter().copied())
            .collect();
        pages.sort_unstable();
        pages.dedup();
        Some(CompactionJob {
            l0_ids: inner.sealed.iter().map(|l| l.id).collect(),
            pages,
            compact_lsn,
        })
    }

    /// Commits a finished compaction: moves the merged L0s to the compacted
    /// list, records the L1, and advances the compaction LSN.
    pub fn commit_compaction(&self, job: &CompactionJob, l1_offset: u64, image_count: u32) {
        let mut inner = self.inner.lock();
        let ids: HashSet<u64> = job.l0_ids.iter().copied().collect();
        let (merged, kept): (Vec<L0Layer>, Vec<L0Layer>) =
            inner.sealed.drain(..).partition(|l| ids.contains(&l.id));
        inner.sealed = kept;
        inner.compacted.extend(merged);
        // The pool now holds clean images at the compaction LSN; drop the
        // merged layers' in-memory runs (snapshot reads decode the blob).
        for l0_id in &job.l0_ids {
            inner.sealed_runs.remove(l0_id);
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

    /// The in-memory LSN-keyed run of a **sealed** L0 (memory hit). `None`
    /// once the layer has been compacted: its records then live only in the
    /// immutable blob on the device.
    pub fn sealed_run(&self, layer_id: u64) -> Option<Arc<HashMap<Lsn, LogRecord>>> {
        self.inner.lock().sealed_runs.get(&layer_id).cloned()
    }

    /// The sealed/compacted L0 holding a fragment's records, if any.
    pub fn l0_for_frag(&self, frag_id: u64) -> Option<L0Layer> {
        let inner = self.inner.lock();
        let layer_id = *inner.frag_route.get(&frag_id)?;
        inner
            .sealed
            .iter()
            .chain(inner.compacted.iter())
            .find(|l| l.id == layer_id)
            .cloned()
    }

    /// GC-as-merge: drops compacted L0s that sit entirely below the recycle
    /// LSN and whose fragments no Log Directory record pointer references
    /// any more. Returns the blob bytes logically reclaimed.
    pub fn gc(&self, recycle: Lsn, referenced_frags: &HashSet<u64>) -> u64 {
        let mut inner = self.inner.lock();
        let mut reclaimed = 0u64;
        let mut dropped_routes: Vec<u64> = Vec::new();
        inner.compacted.retain(|l| {
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

/// Encodes a sorted run of records as an immutable L0 blob.
pub fn encode_l0(records: &[LogRecord]) -> Bytes {
    let payload: usize = records.iter().map(LogRecord::encoded_len).sum();
    let mut out = BytesMut::with_capacity(8 + payload);
    out.put_u32_le(L0_MAGIC);
    out.put_u32_le(records.len() as u32);
    for r in records {
        r.encode_into(&mut out);
    }
    out.freeze()
}

/// Decodes an L0 blob back into its record run.
pub fn decode_l0(buf: &mut Bytes) -> Result<Vec<LogRecord>> {
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
    Ok(records)
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

    #[test]
    fn l0_blob_roundtrip_is_sorted_by_page_then_lsn() {
        let store = LayerStore::new();
        stage(&store, 0, &[(1, 9), (2, 3)]);
        stage(&store, 1, &[(3, 3), (4, 9)]);
        let plan = store.seal_plan().unwrap();
        assert_eq!(plan.first_lsn, Lsn(1));
        assert_eq!(plan.last_lsn, Lsn(4));
        assert_eq!(plan.frag_ids, vec![0, 1]);
        let mut blob = plan.blob.clone();
        let records = decode_l0(&mut blob).unwrap();
        let keys: Vec<(u64, u64)> = records.iter().map(|r| (r.page.0, r.lsn.0)).collect();
        assert_eq!(keys, vec![(3, 2), (3, 3), (9, 1), (9, 4)]);
    }

    #[test]
    fn overlapping_staged_fragments_dedup_in_the_blob() {
        let store = LayerStore::new();
        stage(&store, 0, &[(1, 5), (2, 5)]);
        stage(&store, 1, &[(2, 5), (3, 5)]); // recovery resend overlap
        let plan = store.seal_plan().unwrap();
        let mut blob = plan.blob.clone();
        let records = decode_l0(&mut blob).unwrap();
        let lsns: Vec<u64> = records.iter().map(|r| r.lsn.0).collect();
        assert_eq!(lsns, vec![1, 2, 3]);
    }

    #[test]
    fn commit_seal_routes_fragments_and_keeps_late_stagers() {
        let store = LayerStore::new();
        stage(&store, 0, &[(1, 5)]);
        let plan = store.seal_plan().unwrap();
        // A fragment staged after the plan was built must survive the seal.
        stage(&store, 1, &[(2, 5)]);
        let id = store.commit_seal(&plan, DiskLoc { offset: 0, len: 32 });
        assert_eq!(store.l0_for_frag(0).unwrap().id, id);
        assert!(store.l0_for_frag(1).is_none());
        assert!(store.staged_records(1).is_some());
        assert!(store.staged_records(0).is_none());
        assert_eq!(store.sealed_count(), 1);
    }

    #[test]
    fn compaction_lsn_caps_below_open_records() {
        let store = LayerStore::new();
        stage(&store, 0, &[(1, 5), (2, 5)]);
        let plan = store.seal_plan().unwrap();
        store.commit_seal(&plan, DiskLoc { offset: 0, len: 64 });
        // Open L0 holds lsn 3: the compaction LSN must stop at 2.
        stage(&store, 1, &[(3, 6)]);
        let job = store.compaction_job().unwrap();
        assert_eq!(job.compact_lsn, Lsn(2));
        assert_eq!(job.pages, vec![PageId(5)]);
        store.commit_compaction(&job, 128, 1);
        assert_eq!(store.compact_lsn(), Lsn(2));
        assert_eq!(store.sealed_count(), 0);
        // The merged L0 still serves record fetches (snapshot reads).
        assert!(store.l0_for_frag(0).is_some());
    }

    #[test]
    fn aborted_compaction_leaves_the_store_unchanged_and_is_idempotent() {
        let store = LayerStore::new();
        stage(&store, 0, &[(1, 5)]);
        let plan = store.seal_plan().unwrap();
        store.commit_seal(&plan, DiskLoc { offset: 0, len: 32 });
        let job1 = store.compaction_job().unwrap();
        // "Crash" before commit: nothing changed, the next plan is equal.
        let job2 = store.compaction_job().unwrap();
        assert_eq!(job1.compact_lsn, job2.compact_lsn);
        assert_eq!(job1.pages, job2.pages);
        assert_eq!(store.sealed_count(), 1);
    }

    #[test]
    fn gc_drops_only_unreferenced_fully_recycled_layers() {
        let store = LayerStore::new();
        stage(&store, 0, &[(1, 5), (2, 5)]);
        let plan = store.seal_plan().unwrap();
        store.commit_seal(&plan, DiskLoc { offset: 0, len: 48 });
        let job = store.compaction_job().unwrap();
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
    fn corrupt_l0_blobs_fail_to_decode() {
        let mut truncated = Bytes::from(vec![0u8; 4]);
        assert!(decode_l0(&mut truncated).is_err());
        let mut garbage = Bytes::from(vec![0xffu8; 32]);
        assert!(decode_l0(&mut garbage).is_err());
    }
}
