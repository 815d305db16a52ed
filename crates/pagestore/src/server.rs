//! A Page Store server: slices, ingestion, consolidation, versioned reads.
//!
//! The write side is append-only end to end: arriving fragments are appended
//! to the device, consolidated page versions are appended to the device, and
//! nothing is ever overwritten (paper §7: "disk writes are append-only as
//! append-only writes are 2-5 times faster than random writes").
//!
//! Consolidation is **layered**: fragments leave the log cache in arrival
//! order into the slice's open L0 delta layer, a sealed L0 is one immutable
//! blob, a compactor merges sealed L0s into an L1 image layer at a
//! compaction LSN, and version GC falls out of the merge (see
//! [`crate::layers`] and DESIGN.md §13) — replay depth per cold read is
//! bounded to one image plus the delta suffix above the compaction LSN. The
//! buffer pool is a clean cache of compacted images; nothing is ever written
//! back from it. The paper's two consolidation orders (§7) are compared by a
//! model in the `ablations` bench, not by a second policy here.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};

use taurus_common::apply::apply_record;
use taurus_common::metrics::Counter;
use taurus_common::{LogRecord, Lsn, PageBuf, PageId, Result, SliceKey, TaurusError};
use taurus_fabric::StorageDevice;

use crate::directory::{DiskLoc, LogDirectory, RecordPtr, VersionPtr};
use crate::fragment::SliceFragment;
use crate::layers::{L0Records, LayerStore, SortedRun};
use crate::logcache::LogCache;
use crate::pool::{EvictionPolicy, PagePool, PooledPage};
use crate::slice::{FragMeta, IngestOutcome, SliceReplica};

/// The consolidation knobs of a Page Store server (paper §7 + DESIGN.md §13).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConsolidationPolicy {
    /// Log-structured consolidation through immutable layer files: stage
    /// fragments into L0 delta layers, seal at `l0_target_bytes`, merge
    /// `compaction_threshold` sealed L0s into an L1 image layer, GC as a
    /// by-product of the merge.
    Layered {
        /// Staged payload bytes at which the open L0 is sealed to a blob.
        l0_target_bytes: usize,
        /// Sealed L0 count that triggers an L0→L1 compaction.
        compaction_threshold: usize,
    },
}

impl ConsolidationPolicy {
    /// The layered policy with its default knobs.
    pub fn layered_default() -> Self {
        ConsolidationPolicy::Layered {
            l0_target_bytes: 256 << 10,
            compaction_threshold: 4,
        }
    }
}

/// What one `SetRecycleLSN` (or one compaction's GC-as-merge pass) freed.
/// Returned to the SAL so the recycle handshake reports real reclamation
/// instead of being fire-and-forget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecycleReport {
    /// Log Directory pointers (versions + records) purged.
    pub purged_ptrs: usize,
    /// Fragment bookkeeping entries dropped.
    pub frags_dropped: usize,
    /// Fragment payload + layer blob bytes logically reclaimed.
    pub bytes_reclaimed: u64,
}

impl RecycleReport {
    pub fn absorb(&mut self, other: RecycleReport) {
        self.purged_ptrs += other.purged_ptrs;
        self.frags_dropped += other.frags_dropped;
        self.bytes_reclaimed += other.bytes_reclaimed;
    }
}

taurus_common::counters! {
    /// Per-server Page Store counters (benches print these; the reclaimed-bytes
    /// counters are the storage-frugality ledger).
    pub struct PageStoreStats => PageStoreStatsSnapshot {
        /// L0 delta layers sealed to the device.
        pub l0_sealed: Counter,
        /// L0→L1 compactions completed.
        pub l1_compactions: Counter,
        /// Page images materialized by compactions.
        pub pages_compacted: Counter,
        /// Fragment payload bytes logically reclaimed by fragment GC.
        pub frag_bytes_reclaimed: Counter,
        /// L0 layer blob bytes logically reclaimed by GC-as-merge.
        pub layer_bytes_reclaimed: Counter,
        /// Log Directory pointers purged (versions + records).
        pub versions_purged: Counter,
        /// Bytes appended for fragments that lost an ingest race and were
        /// disregarded as duplicates — orphaned on the append-only device.
        pub orphaned_frag_bytes: Counter,
        /// Record fetches served from the open L0's staged memory.
        pub staged_record_hits: Counter,
        /// Record fetches served from a sealed L0's in-memory run index.
        pub l0_run_hits: Counter,
        /// Compacted-L0 blob reads on the record-fetch path (historical snapshot
        /// reads only; one read serves every record of the blob).
        pub l0_blob_reads: Counter,
        /// Page-read operations served, summed over slices (per-slice split in
        /// [`PageStoreServer::heat_snapshot`] — the rebalancer's input signal).
        pub slice_read_ops: Counter,
        /// Bytes returned by page reads, summed over slices.
        pub slice_read_bytes: Counter,
        /// Log records ingested, summed over slices.
        pub slice_write_ops: Counter,
        /// Fragment payload bytes ingested, summed over slices.
        pub slice_write_bytes: Counter,
        /// `consolidate_step` calls that found nothing to do. The background
        /// thread blocks between ingests, so this stays near its timed
        /// retry wake-ups; a polling loop shows up here first.
        pub idle_steps: Counter,
    }
}

/// Everything exported by a donor replica for a rebuild (paper §5.2).
#[derive(Debug)]
pub struct SliceExport {
    pub pages: Vec<(PageId, PageBuf, Lsn)>,
    pub persistent_lsn: Lsn,
    pub recycle_lsn: Lsn,
}

/// One Page Store server process.
pub struct PageStoreServer {
    device: StorageDevice,
    slices: RwLock<HashMap<SliceKey, Arc<Mutex<SliceReplica>>>>,
    log_cache: LogCache,
    pool: PagePool,
    policy: ConsolidationPolicy,
    /// Records read back from their fragment's own blob: a fragment parked
    /// on the log cache's backlog is neither resident nor staged yet, so a
    /// read that needs its records goes to the device for them.
    pub disk_record_fetches: Counter,
    /// Layer / GC / reclamation counters.
    pub stats: PageStoreStats,
    /// Test failpoint: abort the next compaction between the L1 blob append
    /// and directory registration (crash-mid-compaction drills). One-shot.
    compaction_abort: AtomicBool,
    /// Per-slice heat counters (DESIGN.md §14): read/write op and byte
    /// tallies feeding the rebalancer and the per-node spread reports.
    /// Leaf lock — never held across device I/O, fabric calls, or any
    /// other lock.
    heat: RwLock<HashMap<SliceKey, Arc<SliceHeat>>>,
    /// Wake flag of the background consolidation thread: raised by every
    /// accepted ingest (and by the thread's stop guard), consumed by
    /// [`PageStoreServer::wait_for_work`]. Leaf lock, always taken bare.
    work: Mutex<bool>,
    work_cv: Condvar,
}

taurus_common::counters! {
    /// Per-slice read/write tallies on one server.
    pub struct SliceHeat => SliceHeatSnapshot {
        pub read_ops: Counter,
        pub read_bytes: Counter,
        pub write_ops: Counter,
        pub write_bytes: Counter,
    }
}

impl SliceHeatSnapshot {
    /// Combined op count — the scalar "heat" the rebalancer ranks by.
    pub fn ops(&self) -> u64 {
        self.read_ops + self.write_ops
    }
}

impl std::fmt::Debug for PageStoreServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageStoreServer")
            .field("slices", &self.slices.read().len())
            .field("policy", &self.policy)
            .finish()
    }
}

impl PageStoreServer {
    pub fn new(
        device: StorageDevice,
        log_cache_bytes: usize,
        pool_pages: usize,
        pool_policy: EvictionPolicy,
        policy: ConsolidationPolicy,
    ) -> Arc<Self> {
        Arc::new(PageStoreServer {
            device,
            slices: RwLock::new(HashMap::new()),
            log_cache: LogCache::new(log_cache_bytes),
            pool: PagePool::new(pool_pages, pool_policy),
            policy,
            disk_record_fetches: Counter::new(),
            stats: PageStoreStats::default(),
            compaction_abort: AtomicBool::new(false),
            heat: RwLock::new(HashMap::new()),
            work: Mutex::new(false),
            work_cv: Condvar::new(),
        })
    }

    /// Tells the background consolidation thread there may be work.
    pub(crate) fn signal_work(&self) {
        *self.work.lock() = true;
        self.work_cv.notify_one();
    }

    /// Blocks until [`PageStoreServer::signal_work`] or `timeout`, whichever
    /// comes first; a signal raised since the last wait returns at once.
    /// Returns whether it was signalled.
    pub(crate) fn wait_for_work(&self, timeout: std::time::Duration) -> bool {
        let mut pending = self.work.lock();
        if !*pending {
            self.work_cv.wait_for(&mut pending, timeout);
        }
        std::mem::take(&mut *pending)
    }

    fn heat_of(&self, key: SliceKey) -> Arc<SliceHeat> {
        if let Some(h) = self.heat.read().get(&key) {
            return Arc::clone(h);
        }
        Arc::clone(self.heat.write().entry(key).or_default())
    }

    pub(crate) fn note_write_heat(&self, key: SliceKey, ops: u64, bytes: usize) {
        self.stats.slice_write_ops.add(ops);
        self.stats.slice_write_bytes.add(bytes as u64);
        let h = self.heat_of(key);
        h.write_ops.add(ops);
        h.write_bytes.add(bytes as u64);
    }

    pub(crate) fn note_read_heat(&self, key: SliceKey, ops: u64, bytes: u64) {
        self.stats.slice_read_ops.add(ops);
        self.stats.slice_read_bytes.add(bytes);
        let h = self.heat_of(key);
        h.read_ops.add(ops);
        h.read_bytes.add(bytes);
    }

    /// Per-slice heat snapshot, sorted by slice key.
    pub fn heat_snapshot(&self) -> Vec<(SliceKey, SliceHeatSnapshot)> {
        let mut v: Vec<(SliceKey, SliceHeatSnapshot)> = self
            .heat
            .read()
            .iter()
            .map(|(k, h)| (*k, h.snapshot()))
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Applies an elastic cut-over fence to a hosted slice replica
    /// (idempotent). Returns whether the replica learned anything new —
    /// `false` means it already had this fence and epoch.
    pub fn fence_slice(&self, key: SliceKey, fence: Lsn, epoch: u64) -> Result<bool> {
        Ok(self.replica(key)?.lock().apply_fence(fence, epoch))
    }

    /// Arms the crash-mid-compaction failpoint: the next compaction aborts
    /// after appending its L1 blob but before registering any image, as if
    /// the server died at the worst moment. One-shot.
    pub fn arm_compaction_abort(&self) {
        self.compaction_abort.store(true, Ordering::SeqCst);
    }

    // ------------------------------------------------------------------
    // Slice lifecycle
    // ------------------------------------------------------------------

    /// Creates an empty slice replica. Idempotent.
    pub fn create_slice(&self, key: SliceKey) {
        self.slices
            .write()
            .entry(key)
            .or_insert_with(|| Arc::new(Mutex::new(SliceReplica::new(key))));
    }

    /// Creates a replacement replica at a donor's horizon; it accepts writes
    /// immediately but serves reads only after [`PageStoreServer::import_pages`].
    pub fn create_rebuilding_slice(&self, key: SliceKey, persistent_lsn: Lsn, recycle_lsn: Lsn) {
        self.slices.write().insert(
            key,
            Arc::new(Mutex::new(SliceReplica::new_rebuilding(
                key,
                persistent_lsn,
                recycle_lsn,
            ))),
        );
    }

    /// Drops a slice replica and all its cached state.
    pub fn drop_slice(&self, key: SliceKey) {
        self.slices.write().remove(&key);
        self.log_cache.evict_slice(key);
        self.pool.evict_slice(key);
    }

    pub fn has_slice(&self, key: SliceKey) -> bool {
        self.slices.read().contains_key(&key)
    }

    pub fn slice_keys(&self) -> Vec<SliceKey> {
        let mut v: Vec<SliceKey> = self.slices.read().keys().copied().collect();
        v.sort();
        v
    }

    pub(crate) fn replica(&self, key: SliceKey) -> Result<Arc<Mutex<SliceReplica>>> {
        self.slices
            .read()
            .get(&key)
            .cloned()
            .ok_or(TaurusError::SliceNotFound(key))
    }

    /// The slice's Log Directory, usable without the replica mutex.
    pub(crate) fn dir(&self, key: SliceKey) -> Result<Arc<LogDirectory>> {
        Ok(self.replica(key)?.lock().directory.clone())
    }

    /// The slice's layer store, usable without the replica mutex.
    pub(crate) fn layers(&self, key: SliceKey) -> Result<Arc<LayerStore>> {
        Ok(self.replica(key)?.lock().layers.clone())
    }

    /// Short-lock lookup of a stored fragment's device location.
    fn frag_meta(&self, key: SliceKey, frag_id: u64) -> Result<FragMeta> {
        self.replica(key)?
            .lock()
            .frags
            .get(&frag_id)
            .copied()
            .ok_or(TaurusError::Codec("fragment unknown to slice"))
    }

    // ------------------------------------------------------------------
    // The four-method SAL API (paper §3.4)
    // ------------------------------------------------------------------

    /// `WriteLogs`: ingests one fragment. Idempotent on duplicates ("Page
    /// Stores disregard log records that they have already received",
    /// §5.3). Returns the slice persistent LSN, which the SAL piggybacks.
    pub fn write_logs(&self, frag: &SliceFragment) -> Result<Lsn> {
        let replica = self.replica(frag.slice)?;
        let persistent_before;
        {
            let r = replica.lock();
            persistent_before = r.persistent_lsn();
            // Elastic cut-over fence (DESIGN.md §14): everything above the
            // fence belongs to the successor placement. A stale writer that
            // missed the placement change is rejected here — the
            // materialized backstop behind the cluster's epoch check.
            if let Some(fence) = r.fence_lsn {
                if frag.last_lsn() > fence {
                    return Err(TaurusError::SliceFenced {
                        slice: frag.slice,
                        fence,
                        requested: frag.last_lsn(),
                    });
                }
            }
            if frag.last_lsn() <= r.persistent_lsn()
                || r.has_equivalent(frag.first_lsn(), frag.last_lsn())
            {
                return Ok(r.persistent_lsn());
            }
        }
        // Append-only persistence of the raw fragment, encoded once however
        // many replicas ingest it, and held once by all their devices.
        let encoded = frag.encoded();
        let offset = self.device.append_shared(encoded.clone())?;
        let loc = DiskLoc {
            offset,
            len: encoded.len() as u32,
        };
        let mut r = replica.lock();
        let outcome = r.ingest(FragMeta {
            loc,
            prev_last_lsn: frag.prev_last_lsn,
            first_lsn: frag.first_lsn(),
            last_lsn: frag.last_lsn(),
            consolidated: false,
        });
        let accepted = matches!(outcome, IngestOutcome::Accepted(_));
        match outcome {
            IngestOutcome::Accepted(frag_id) => {
                for (i, rec) in frag.records.iter().enumerate() {
                    r.directory.add_record(
                        rec.page,
                        RecordPtr {
                            lsn: rec.lsn,
                            frag_id,
                            idx_in_frag: i as u32,
                        },
                    );
                }
                self.log_cache.admit(
                    (frag.slice, frag_id),
                    Arc::clone(&frag.records),
                    frag.payload_bytes(),
                );
                self.note_write_heat(frag.slice, frag.records.len() as u64, frag.payload_bytes());
            }
            IngestOutcome::Duplicate => {
                // The fragment was appended outside the lock (lock
                // discipline: no device I/O under the replica mutex) and
                // then lost the ingest race to an equivalent delivery. The
                // appended bytes are unreachable on the append-only device;
                // account them so the leak is visible instead of silent.
                self.stats.orphaned_frag_bytes.add(encoded.len() as u64);
            }
        }
        // The persistent LSN is a watermark: ingesting a fragment never
        // moves it backwards (out-of-order arrivals may park it, but it
        // must not regress).
        taurus_common::invariant!(
            "persistent-lsn-monotonic",
            r.persistent_lsn() >= persistent_before,
            "{}: persistent regressed {} -> {}",
            frag.slice,
            persistent_before,
            r.persistent_lsn()
        );
        let persistent = r.persistent_lsn();
        drop(r);
        if accepted {
            self.signal_work();
        }
        Ok(persistent)
    }

    /// `GetPersistentLSN`.
    pub fn get_persistent_lsn(&self, key: SliceKey) -> Result<Lsn> {
        Ok(self.replica(key)?.lock().persistent_lsn())
    }

    /// `SetRecycleLSN`: the oldest version the front end may still request.
    /// Older versions and their records are purged from the Log Directory;
    /// what was freed is reported back to the SAL (the recycle handshake is
    /// no longer fire-and-forget).
    pub fn set_recycle_lsn(&self, key: SliceKey, lsn: Lsn) -> Result<RecycleReport> {
        let replica = self.replica(key)?;
        replica.lock().advance_recycle_lsn(lsn);
        self.collect_garbage(key)
    }

    /// One GC pass for a slice at its current recycle LSN: purge the Log
    /// Directory (keeping each page's reconstruction base), then drop
    /// fragment bookkeeping and dead layer blobs. Runs after every
    /// `SetRecycleLSN` and as the by-product of every compaction merge.
    fn collect_garbage(&self, key: SliceKey) -> Result<RecycleReport> {
        let replica = self.replica(key)?;
        let (recycle, dir, layers) = {
            let r = replica.lock();
            (r.recycle_lsn(), r.directory.clone(), r.layers.clone())
        };
        let purged = dir.purge_below(recycle);
        // Scan references only after the directory purge, so fragment and
        // layer GC see the surviving record pointers.
        let referenced = dir.referenced_frag_ids();
        let (frags_dropped, frag_bytes) = replica.lock().gc_frags(&referenced);
        let layer_bytes = layers.gc(recycle, &referenced);
        self.stats.versions_purged.add(purged as u64);
        self.stats.frag_bytes_reclaimed.add(frag_bytes);
        self.stats.layer_bytes_reclaimed.add(layer_bytes);
        Ok(RecycleReport {
            purged_ptrs: purged,
            frags_dropped,
            bytes_reclaimed: frag_bytes + layer_bytes,
        })
    }

    /// `ReadPage`: returns the version of `page` as of `as_of` (the newest
    /// version with LSN ≤ `as_of`). Fails with [`TaurusError::PageStoreBehind`]
    /// if this replica has not received all records up to `as_of`, telling
    /// the SAL to try the next replica (paper §4.2).
    pub fn read_page(&self, key: SliceKey, page: PageId, as_of: Lsn) -> Result<(PageBuf, Lsn)> {
        if self.read_gate(key, as_of)? {
            return Err(TaurusError::VersionRecycled {
                page,
                requested: as_of,
            });
        }
        let out = self.materialize(key, page, as_of)?;
        self.note_read_heat(key, 1, taurus_common::page::PAGE_SIZE as u64);
        Ok(out)
    }

    /// The read-visibility rule every read kind (`ReadPage`, `ReadPages`,
    /// `ScanSlice`) applies before it materializes anything. Refuses a
    /// snapshot this replica cannot serve, and otherwise answers whether the
    /// snapshot lies below the recycle LSN, which each read kind reports in
    /// its own shape.
    ///
    /// * A rebuilding replica, or one whose persistent LSN trails `as_of`,
    ///   refuses with [`TaurusError::PageStoreBehind`] so the SAL tries the
    ///   next replica (paper §4.2).
    /// * A snapshot above an elastic cut-over fence belongs to the successor
    ///   placement (DESIGN.md §14): [`TaurusError::SliceFenced`] tells the
    ///   reader to refresh its routing.
    /// * Below the recycle LSN versions may be purged — except at the slice
    ///   head (`as_of == persistent`), which is always servable:
    ///   `purge_below` keeps each page's newest version <= recycle as the
    ///   reconstruction base plus every record above it. A quiet slice's
    ///   head can sit far below the global recycle LSN, and refusing it
    ///   would make the slice permanently unreadable. Recycling is a
    ///   versioning condition every replica agrees on, so it is an answer,
    ///   not a refusal: the next replica could not help.
    pub(crate) fn read_gate(&self, key: SliceKey, as_of: Lsn) -> Result<bool> {
        let replica = self.replica(key)?;
        let r = replica.lock();
        if r.rebuilding {
            return Err(TaurusError::PageStoreBehind {
                slice: key,
                requested: as_of,
                persistent: Lsn::ZERO,
            });
        }
        if let Some(fence) = r.fence_lsn {
            if as_of > fence {
                return Err(TaurusError::SliceFenced {
                    slice: key,
                    fence,
                    requested: as_of,
                });
            }
        }
        let persistent = r.persistent_lsn();
        if persistent < as_of {
            return Err(TaurusError::PageStoreBehind {
                slice: key,
                requested: as_of,
                persistent,
            });
        }
        Ok(as_of < r.recycle_lsn() && as_of < persistent)
    }

    /// Produces the page version at `as_of` from the best base plus records.
    /// Never holds the replica mutex across device I/O.
    pub(crate) fn materialize(
        &self,
        key: SliceKey,
        page: PageId,
        as_of: Lsn,
    ) -> Result<(PageBuf, Lsn)> {
        // The compact LSN is read before the directory snapshot: the replay
        // bound below may only be held against a compaction the snapshot has
        // certainly seen (one landing in between leaves its records in the
        // snapshot's list).
        let (dir, compacted) = {
            let replica = self.replica(key)?;
            let r = replica.lock();
            (r.directory.clone(), r.layers.compact_lsn())
        };
        let Some(recipe) = dir.recipe(page, as_of) else {
            // Never written: a fresh zeroed page at version 0.
            return Ok((PageBuf::new(), Lsn::ZERO));
        };
        let pooled = self.pool.get(key, page);
        let pooled = pooled.filter(|p| usable_base(p.lsn, as_of, recipe.base));
        let (mut buf, base_lsn) = self.base_image(pooled, recipe.base)?;
        // Replay the tail of the chain.
        let needed = recipe.records_above(base_lsn);
        if !needed.is_empty() {
            // Bounded replay: a compaction at LSN C leaves every page with
            // records <= C covered by an image, so a read at or above C
            // replays only the delta suffix above C — never more than one
            // image plus that suffix.
            if as_of >= compacted {
                taurus_common::invariant!(
                    "layer-bounded-replay",
                    needed.iter().all(|p| p.lsn > compacted),
                    "{}: page {} read at {} replays below compact_lsn {}",
                    key,
                    page,
                    as_of,
                    compacted
                );
            }
            let records = self.fetch_records(key, page, needed)?;
            for rec in &records {
                apply_record(&mut buf, rec)?;
            }
        }
        let lsn = buf.lsn();
        Ok((buf, lsn))
    }

    /// The base image a page version starts from: the pooled (latest
    /// consolidated) page when [`usable_base`] admits it, otherwise the
    /// newest materialized version read from the device, otherwise a blank
    /// page. The read path and compaction share this rule.
    fn base_image(
        &self,
        pooled: Option<PooledPage>,
        version: Option<VersionPtr>,
    ) -> Result<(PageBuf, Lsn)> {
        Ok(match (pooled, version) {
            (Some(pooled), _) => (pooled.page, pooled.lsn),
            (None, Some(v)) => {
                let raw = self.device.read(v.loc.offset, v.loc.len as usize)?;
                (PageBuf::from_bytes(&raw)?, v.lsn)
            }
            (None, None) => (PageBuf::new(), Lsn::ZERO),
        })
    }

    /// Fetches the records of `page` behind a run of LSN-ordered pointers,
    /// in that order: from the log cache when resident, then from the open
    /// L0's staged memory or a sealed L0's run (binary search on
    /// `(page, lsn)`), then a compacted L0's blob — one device read serves
    /// every record the blob holds — and last from the fragment's own blob
    /// on disk, for a fragment still parked on the log cache's backlog.
    fn fetch_records(
        &self,
        key: SliceKey,
        page: PageId,
        ptrs: &[RecordPtr],
    ) -> Result<Vec<LogRecord>> {
        let layers = self.layers(key)?;
        // Per-call cache of decoded compacted L0 blobs, keyed by layer id:
        // pointers into the same blob share one read and one decode.
        let mut blob_runs: HashMap<u64, SortedRun> = HashMap::new();
        let mut out: Vec<LogRecord> = Vec::with_capacity(ptrs.len());
        let by_index = |recs: &[LogRecord], members: &[RecordPtr], out: &mut Vec<LogRecord>| {
            for m in members {
                let rec = recs
                    .get(m.idx_in_frag as usize)
                    .ok_or(TaurusError::Codec("record index out of fragment"))?;
                out.push(rec.clone());
            }
            Ok::<(), TaurusError>(())
        };
        let by_key = |run: &SortedRun, members: &[RecordPtr], out: &mut Vec<LogRecord>| {
            for m in members {
                let rec = run
                    .find(page, m.lsn)
                    .ok_or(TaurusError::Codec("record missing from L0 run"))?;
                out.push(rec.clone());
            }
            Ok::<(), TaurusError>(())
        };
        for members in ptrs.chunk_by(|a, b| a.frag_id == b.frag_id) {
            let seq = members[0].frag_id;
            if let Some(recs) = self.log_cache.get((key, seq)) {
                by_index(&recs, members, &mut out)?;
                continue;
            }
            // Staged in the open L0: the fragment's record vec verbatim.
            if let Some(recs) = layers.staged_records(seq) {
                self.stats.staged_record_hits.add(members.len() as u64);
                by_index(&recs, members, &mut out)?;
                continue;
            }
            match layers.l0_for_frag(seq) {
                // Sealed (not yet compacted): the run is in memory.
                Some(L0Records::Resident(run)) => {
                    self.stats.l0_run_hits.add(members.len() as u64);
                    by_key(&run, members, &mut out)?;
                }
                // Compacted: historical snapshot read from the immutable
                // blob, decoded once per call per layer.
                Some(L0Records::OnDevice { layer_id, loc }) => {
                    let run = match blob_runs.entry(layer_id) {
                        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                        std::collections::hash_map::Entry::Vacant(v) => {
                            let raw = self.device.read(loc.offset, loc.len as usize)?;
                            self.stats.l0_blob_reads.inc();
                            v.insert(SortedRun::decode(&mut Bytes::from(raw))?)
                        }
                    };
                    by_key(run, members, &mut out)?;
                }
                None => {
                    self.disk_record_fetches.add(members.len() as u64);
                    let frag = self.read_fragment_from_disk(key, seq)?;
                    by_index(&frag.records, members, &mut out)?;
                }
            }
        }
        Ok(out)
    }

    fn read_fragment_from_disk(&self, key: SliceKey, frag_id: u64) -> Result<SliceFragment> {
        let meta = self.frag_meta(key, frag_id)?;
        let raw = self.device.read(meta.loc.offset, meta.loc.len as usize)?;
        SliceFragment::decode(&mut Bytes::from(raw))
    }

    // ------------------------------------------------------------------
    // Consolidation (paper §7)
    // ------------------------------------------------------------------

    /// Runs one consolidation step. Returns `true` if any work was done.
    pub fn consolidate_step(&self) -> bool {
        let worked = self.consolidate_next();
        if !worked {
            self.stats.idle_steps.inc();
        }
        worked
    }

    /// Drains the consolidation queue completely (plus the backlog).
    pub fn consolidate_all(&self) {
        while self.consolidate_step() {}
    }

    /// Stages the next fragment in arrival order into its slice's open L0
    /// (stalling at a hole), seals the L0 to one immutable blob at
    /// `l0_target_bytes`, and merges `compaction_threshold` sealed L0s into
    /// an L1 image layer. Nothing is written per page on the ingest path —
    /// pages materialize in bulk at the compaction LSN.
    fn consolidate_next(&self) -> bool {
        let ConsolidationPolicy::Layered {
            l0_target_bytes,
            compaction_threshold,
        } = self.policy;
        self.pump_backlog();
        let Some(((key, seq), records)) = self.log_cache.next_for_consolidation() else {
            return false;
        };
        let bytes: usize = records.iter().map(|r| r.encoded_len()).sum();
        let Ok(replica) = self.replica(key) else {
            // Slice dropped while queued.
            self.log_cache.complete((key, seq), bytes);
            return true;
        };
        let (persistent, meta, layers) = {
            let r = replica.lock();
            (
                r.persistent_lsn(),
                r.frags.get(&seq).copied(),
                r.layers.clone(),
            )
        };
        let (first, last) = meta
            .map(|m| (m.first_lsn, m.last_lsn))
            .unwrap_or((Lsn::ZERO, Lsn::ZERO));
        if last > persistent {
            // A hole precedes this fragment: consolidation stalls until
            // gossip or the SAL repairs it (paper §5.2).
            return false;
        }
        let staged = layers.stage(seq, first, last, records, bytes);
        replica.lock().mark_consolidated(seq);
        self.log_cache.complete((key, seq), bytes);
        if staged >= l0_target_bytes {
            // A failed seal leaves everything staged; the next step retries.
            let _ = self.seal_l0(key);
        }
        if layers.sealed_count() >= compaction_threshold {
            // A failed/aborted compaction leaves the plan intact (commit
            // never ran); the next step re-plans and re-runs idempotently.
            let _ = self.compact(key);
        }
        true
    }

    /// Seals the slice's open L0: sorts the staged fragments' records into
    /// one run over their own allocations and appends its encoding as a
    /// single immutable blob — one device I/O for every fragment staged
    /// since the last seal. The run stays in memory as the layer's index.
    fn seal_l0(&self, key: SliceKey) -> Result<()> {
        let layers = self.layers(key)?;
        let Some(mut plan) = layers.seal_plan() else {
            return Ok(());
        };
        // The device keeps the encoded run as it was built.
        let blob = std::mem::take(&mut plan.blob);
        let len = blob.len() as u32;
        let offset = self.device.append_shared(blob)?;
        layers.commit_seal(plan, DiskLoc { offset, len });
        self.stats.l0_sealed.inc();
        Ok(())
    }

    /// Merges every sealed L0 into an L1 image layer in one k-way merge of
    /// their sorted runs: each page starts from the base the read path
    /// would pick at the compaction LSN and applies its merged records
    /// above that base once each, and every image goes straight into one
    /// immutable L1 blob. Each image is then registered as an ordinary
    /// directory version inside the blob (`add_version` replaces on equal
    /// LSN, so a re-run after a crash is idempotent), the pool is refreshed
    /// with the clean images, and a GC pass finishes — version purge is a
    /// by-product of the merge. Never holds the replica mutex or the layer
    /// mutex across device I/O.
    fn compact(&self, key: SliceKey) -> Result<()> {
        let (dir, layers, unstaged_first) = {
            let replica = self.replica(key)?;
            let r = replica.lock();
            (r.directory.clone(), r.layers.clone(), r.unstaged_first())
        };
        let Some(job) = layers.compaction_job(unstaged_first) else {
            return Ok(());
        };
        let at = job.compact_lsn;
        let mut images: Vec<(PageId, PageBuf)> = Vec::new();
        let mut merged = job.merge().peekable();
        while let Some(page) = merged.peek().map(|r| r.page) {
            let version = dir.version_at(page, at);
            let pooled = self
                .pool
                .peek(key, page, |lsn| usable_base(lsn, at, version));
            let (mut buf, base_lsn) = self.base_image(pooled, version)?;
            while let Some(rec) = merged.next_if(|r| r.page == page) {
                if rec.lsn > base_lsn && rec.lsn <= at {
                    apply_record(&mut buf, rec)?;
                }
            }
            if buf.lsn().is_valid() {
                images.push((page, buf));
            }
        }
        if images.is_empty() {
            layers.commit_compaction(&job, 0, 0);
            return Ok(());
        }
        // The images go to the device back to back as one blob, each copied
        // once, straight from the buffer it was built in.
        let parts: Vec<&[u8]> = images.iter().map(|(_, buf)| buf.as_bytes()).collect();
        let l1_offset = self.device.append_parts(&parts)?;
        if self.compaction_abort.swap(false, Ordering::SeqCst) {
            // Failpoint: the L1 blob reached the device but no image was
            // registered — the crash window. The partial blob stays
            // unreachable on the append-only device; nothing was committed,
            // so the next compaction re-plans the identical job.
            return Err(TaurusError::Codec("compaction aborted by failpoint"));
        }
        let count = images.len();
        for (i, (page, buf)) in images.into_iter().enumerate() {
            let lsn = buf.lsn();
            dir.add_version(
                page,
                VersionPtr {
                    lsn,
                    loc: DiskLoc {
                        offset: l1_offset + (i * taurus_common::PAGE_SIZE) as u64,
                        len: taurus_common::PAGE_SIZE as u32,
                    },
                },
            );
            // The L1 blob persists the image; the pool only spares the next
            // read of it a device read.
            self.pool
                .put_if_newer(key, page, PooledPage { page: buf, lsn });
        }
        self.stats.pages_compacted.add(count as u64);
        layers.commit_compaction(&job, l1_offset, count as u32);
        self.stats.l1_compactions.inc();
        // GC-as-merge: superseded versions, record pointers, fragment
        // bookkeeping, and dead L0 blobs are reclaimed here.
        self.collect_garbage(key)?;
        Ok(())
    }

    /// Loads parked fragments back into the log cache, oldest first, while
    /// they fit.
    fn pump_backlog(&self) {
        while let Some((key, seq)) = self.log_cache.next_backlog() {
            let Ok(frag) = self.read_fragment_from_disk(key, seq) else {
                break;
            };
            let bytes = frag.payload_bytes();
            if !self
                .log_cache
                .load_from_backlog((key, seq), frag.records, bytes)
            {
                break; // still no space
            }
        }
    }

    // ------------------------------------------------------------------
    // Gossip & rebuild support (paper §4.1 step 6, §5.2)
    // ------------------------------------------------------------------

    /// Fragment inventory `(first, last, prev)` for gossip comparison.
    pub fn inventory(&self, key: SliceKey) -> Result<Vec<(Lsn, Lsn, Lsn)>> {
        Ok(self.replica(key)?.lock().inventory())
    }

    /// LSN ranges this replica is missing (the SAL's Fig. 4(c) query).
    pub fn missing_lsn_ranges(&self, key: SliceKey) -> Result<Vec<(Lsn, Lsn)>> {
        Ok(self.replica(key)?.lock().missing_lsn_ranges())
    }

    /// Highest LSN this replica has seen for the slice (may exceed the
    /// persistent LSN when holes exist).
    pub fn newest_lsn(&self, key: SliceKey) -> Result<Lsn> {
        Ok(self.replica(key)?.lock().newest_lsn())
    }

    /// Re-serves a stored fragment by its LSN bounds (gossip supply side).
    pub fn get_fragment(&self, key: SliceKey, first: Lsn, last: Lsn) -> Result<SliceFragment> {
        let frag_id = self
            .replica(key)?
            .lock()
            .find_fragment(first, last)
            .ok_or(TaurusError::Codec("fragment unknown to slice"))?;
        let prev = self.frag_meta(key, frag_id)?.prev_last_lsn;
        if let Some(records) = self.log_cache.get((key, frag_id)) {
            return Ok(SliceFragment::shared(key, prev, records));
        }
        self.read_fragment_from_disk(key, frag_id)
    }

    /// Exports the latest pages of a slice for a rebuilding peer.
    pub fn export_slice(&self, key: SliceKey) -> Result<SliceExport> {
        let replica = self.replica(key)?;
        let (persistent, recycle_lsn, dir) = {
            let r = replica.lock();
            (r.persistent_lsn(), r.recycle_lsn(), r.directory.clone())
        };
        let mut pages = Vec::new();
        for page in dir.page_ids() {
            let (buf, lsn) = self.materialize(key, page, persistent)?;
            if lsn.is_valid() {
                pages.push((page, buf, lsn));
            }
        }
        Ok(SliceExport {
            pages,
            persistent_lsn: persistent,
            recycle_lsn,
        })
    }

    /// Installs exported pages into a rebuilding replica and makes it
    /// readable.
    pub fn import_pages(&self, key: SliceKey, pages: Vec<(PageId, PageBuf, Lsn)>) -> Result<()> {
        let replica = self.replica(key)?;
        let dir = replica.lock().directory.clone();
        for (page, buf, lsn) in pages {
            let offset = self.device.append(buf.as_bytes())?;
            dir.add_version(
                page,
                VersionPtr {
                    lsn,
                    loc: DiskLoc {
                        offset,
                        len: taurus_common::PAGE_SIZE as u32,
                    },
                },
            );
        }
        replica.lock().rebuilding = false;
        Ok(())
    }

    /// The LSN of the slice's last compaction: every page its records touch
    /// has an image at or below it.
    pub fn compact_lsn(&self, key: SliceKey) -> Result<Lsn> {
        Ok(self.layers(key)?.compact_lsn())
    }

    /// Whether this replica is still rebuilding (write-only).
    pub fn is_rebuilding(&self, key: SliceKey) -> Result<bool> {
        Ok(self.replica(key)?.lock().rebuilding)
    }

    /// Log cache / pool statistics for benches: (log cache hit ratio, pool
    /// hit ratio, pending queue, backlog, directory records).
    pub fn cache_stats(&self) -> (f64, f64, usize, usize, usize) {
        let dir_records: usize = self
            .slice_keys()
            .iter()
            .filter_map(|k| self.replica(*k).ok())
            .map(|r| r.lock().directory.record_count())
            .sum();
        (
            self.log_cache.stats.ratio(),
            self.pool.stats.ratio(),
            self.log_cache.queue_len(),
            self.log_cache.backlog_len(),
            dir_records,
        )
    }

    /// The device I/O statistics (append, random write, read, bytes).
    pub fn device_stats(&self) -> (u64, u64, u64, u64) {
        self.device.io_stats()
    }

    /// Unconsolidated bytes pending (queue + backlog pressure); the SAL uses
    /// this to throttle the master (paper §7).
    pub fn backlog_pressure(&self) -> usize {
        self.log_cache.resident_bytes() + self.log_cache.backlog_len() * 4096
    }
}

/// Whether a pooled image at `pooled_lsn` can be the base of a page version
/// at `as_of`: not newer than `as_of`, and no older than the newest
/// materialized version at or below it, so the records above that version
/// also cover the pooled image.
fn usable_base(pooled_lsn: Lsn, as_of: Lsn, version: Option<VersionPtr>) -> bool {
    pooled_lsn <= as_of && pooled_lsn >= version.map_or(Lsn::ZERO, |v| v.lsn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::clock::ManualClock;
    use taurus_common::config::StorageProfile;
    use taurus_common::page::PageType;
    use taurus_common::record::RecordBody;
    use taurus_common::scan::ScanRequest;
    use taurus_common::{DbId, SliceId};

    use crate::pushdown::ScanSliceRequest;
    use crate::readpages::{PageReadOutcome, ReadPagesRequest};

    /// A server with knobs tiny enough that a handful of fragments produce
    /// seals and compactions. One that is never consolidated replays every
    /// read from the log cache: the reference the layered reads must match.
    fn server() -> Arc<PageStoreServer> {
        server_with_log_cache(1 << 20)
    }

    fn server_with_log_cache(log_cache_bytes: usize) -> Arc<PageStoreServer> {
        let clock = ManualClock::shared();
        PageStoreServer::new(
            StorageDevice::in_memory(clock, StorageProfile::instant()),
            log_cache_bytes,
            64,
            EvictionPolicy::Lfu,
            ConsolidationPolicy::Layered {
                l0_target_bytes: 1, // every staged fragment seals an L0
                compaction_threshold: 2,
            },
        )
    }

    fn key() -> SliceKey {
        SliceKey::new(DbId(1), SliceId(0))
    }

    /// Builds a fragment whose chain link is `prev` (the last LSN previously
    /// sent to the slice).
    fn frag(prev: u64, recs: Vec<LogRecord>) -> SliceFragment {
        SliceFragment::new(key(), Lsn(prev), recs)
    }

    fn format_rec(lsn: u64, page: u64) -> LogRecord {
        LogRecord::new(
            Lsn(lsn),
            PageId(page),
            RecordBody::Format {
                ty: PageType::Leaf,
                level: 0,
            },
        )
    }

    fn insert_rec(lsn: u64, page: u64, k: &str, v: &str) -> LogRecord {
        LogRecord::new(
            Lsn(lsn),
            PageId(page),
            RecordBody::Insert {
                idx: 0,
                key: Bytes::copy_from_slice(k.as_bytes()),
                val: Bytes::copy_from_slice(v.as_bytes()),
            },
        )
    }

    #[test]
    fn write_logs_advances_persistent_lsn() {
        let s = server();
        s.create_slice(key());
        let p = s.write_logs(&frag(0, vec![format_rec(1, 5)])).unwrap();
        assert_eq!(p, Lsn(1));
        let p = s
            .write_logs(&frag(1, vec![insert_rec(2, 5, "a", "1")]))
            .unwrap();
        assert_eq!(p, Lsn(2));
    }

    #[test]
    fn read_page_materializes_from_records_alone() {
        let s = server();
        s.create_slice(key());
        s.write_logs(&frag(0, vec![format_rec(1, 5), insert_rec(2, 5, "a", "1")]))
            .unwrap();
        let (page, lsn) = s.read_page(key(), PageId(5), Lsn(2)).unwrap();
        assert_eq!(lsn, Lsn(2));
        assert_eq!(page.key(0).unwrap(), b"a");
        // Older version: before the insert.
        let (page, lsn) = s.read_page(key(), PageId(5), Lsn(1)).unwrap();
        assert_eq!(lsn, Lsn(1));
        assert_eq!(page.nslots(), 0);
    }

    #[test]
    fn hole_stalls_persistent_and_consolidation_until_filled() {
        let s = server();
        s.create_slice(key());
        s.write_logs(&frag(0, vec![format_rec(1, 5)])).unwrap();
        // Fragment 2 arrives before fragment 1.
        s.write_logs(&frag(2, vec![insert_rec(3, 5, "b", "2")]))
            .unwrap();
        assert_eq!(s.get_persistent_lsn(key()).unwrap(), Lsn(1));
        assert_eq!(s.missing_lsn_ranges(key()).unwrap(), vec![(Lsn(1), Lsn(3))]);
        // Consolidation gets through fragment 0 then stalls at the hole.
        s.consolidate_all();
        assert!(s.log_cache.queue_len() >= 1);
        // Fill the hole: everything consolidates.
        s.write_logs(&frag(1, vec![insert_rec(2, 5, "a", "1")]))
            .unwrap();
        assert_eq!(s.get_persistent_lsn(key()).unwrap(), Lsn(3));
        s.consolidate_all();
        assert_eq!(s.log_cache.queue_len(), 0);
        let (page, _) = s.read_page(key(), PageId(5), Lsn(3)).unwrap();
        assert_eq!(page.nslots(), 2);
    }

    #[test]
    fn duplicate_fragments_are_disregarded() {
        let s = server();
        s.create_slice(key());
        let f = frag(0, vec![format_rec(1, 5), insert_rec(2, 5, "a", "1")]);
        s.write_logs(&f).unwrap();
        s.write_logs(&f).unwrap();
        s.consolidate_all();
        let (page, _) = s.read_page(key(), PageId(5), Lsn(2)).unwrap();
        assert_eq!(page.nslots(), 1);
    }

    /// The one read rule (paper §4.2), checked for every read kind: each of
    /// `ReadPage`, `ReadPages` and `ScanSlice` faces a rebuilding, a fenced
    /// and a behind replica, a snapshot below the recycle LSN, and a head
    /// read after recycling, which must be served.
    #[test]
    fn every_read_kind_applies_the_same_visibility_rule() {
        fn verdict<T>(r: Result<T>, served: impl FnOnce(T) -> String) -> String {
            match r {
                Ok(v) => served(v),
                Err(TaurusError::PageStoreBehind {
                    requested,
                    persistent,
                    ..
                }) => format!("behind: wants {requested}, has {persistent}"),
                Err(TaurusError::SliceFenced {
                    fence, requested, ..
                }) => format!("fenced at {fence}: wants {requested}"),
                Err(TaurusError::VersionRecycled { requested, .. }) => {
                    format!("recycled: wants {requested}")
                }
                Err(e) => e.to_string(),
            }
        }
        type Read = fn(&PageStoreServer, Lsn) -> String;
        let kinds: [(&str, Read); 3] = [
            ("ReadPage", |s, at| {
                verdict(s.read_page(key(), PageId(5), at), |(page, _)| {
                    assert_eq!(page.nslots(), 1);
                    "served".into()
                })
            }),
            ("ReadPages", |s, at| {
                let call = ReadPagesRequest {
                    key: key(),
                    as_of: at,
                    pages: vec![PageId(5), PageId(6)],
                    max_pages: usize::MAX,
                };
                verdict(s.read_pages(&call), |resp| {
                    // Every page of the batch gets its own outcome, and a
                    // slice-level answer is the same for each of them.
                    assert_eq!(resp.pages.len(), 2);
                    let mut each: Vec<String> = resp
                        .pages
                        .iter()
                        .map(|(_, outcome)| match outcome {
                            PageReadOutcome::Ok(page, _) => {
                                assert_eq!(page.nslots(), 1);
                                "served".into()
                            }
                            PageReadOutcome::Recycled { requested } => {
                                format!("recycled: wants {requested}")
                            }
                            PageReadOutcome::Failed(e) => e.clone(),
                        })
                        .collect();
                    each.dedup();
                    each.join(" / ")
                })
            }),
            ("ScanSlice", |s, at| {
                let call = ScanSliceRequest {
                    key: key(),
                    as_of: at,
                    req: ScanRequest::full(),
                    resume_after: None,
                    max_rows: usize::MAX,
                    max_bytes: usize::MAX,
                };
                verdict(s.scan_slice(&call), |resp| {
                    assert_eq!(resp.rows.len(), 2);
                    "served".into()
                })
            }),
        ];
        type Setup = fn(&PageStoreServer);
        // Pages 5 and 6 hold one row each; the persistent LSN is 4.
        let rows: [(&str, Setup, u64, &str); 5] = [
            (
                "rebuilding",
                |s| s.create_rebuilding_slice(key(), Lsn(4), Lsn::ZERO),
                4,
                "behind: wants 4, has 0",
            ),
            (
                "fenced",
                |s| assert!(s.fence_slice(key(), Lsn(3), 1).unwrap()),
                4,
                "fenced at 3: wants 4",
            ),
            ("behind", |_| {}, 9, "behind: wants 9, has 4"),
            (
                "recycled",
                |s| assert!(s.set_recycle_lsn(key(), Lsn(3)).is_ok()),
                2,
                "recycled: wants 2",
            ),
            (
                "head after recycling",
                |s| assert!(s.set_recycle_lsn(key(), Lsn(9)).is_ok()),
                4,
                "served",
            ),
        ];
        for (row, setup, as_of, want) in rows {
            for (kind, read) in kinds {
                let s = server();
                s.create_slice(key());
                s.write_logs(&frag(
                    0,
                    vec![
                        format_rec(1, 5),
                        insert_rec(2, 5, "a", "1"),
                        format_rec(3, 6),
                        insert_rec(4, 6, "b", "2"),
                    ],
                ))
                .unwrap();
                s.consolidate_all();
                setup(&s);
                assert_eq!(read(&s, Lsn(as_of)), want, "{kind} on a {row} replica");
            }
        }
    }

    #[test]
    fn gossip_surface_serves_stored_fragments() {
        let s = server();
        s.create_slice(key());
        let f1 = frag(0, vec![format_rec(1, 5)]);
        s.write_logs(&f1).unwrap();
        assert_eq!(s.get_fragment(key(), Lsn(1), Lsn(1)).unwrap(), f1);
        // After consolidation the fragment leaves the cache but is still
        // served from disk.
        s.consolidate_all();
        assert_eq!(s.get_fragment(key(), Lsn(1), Lsn(1)).unwrap(), f1);
        assert_eq!(s.inventory(key()).unwrap(), vec![(Lsn(1), Lsn(1), Lsn(0))]);
    }

    #[test]
    fn export_import_rebuild_cycle() {
        let donor = server();
        donor.create_slice(key());
        donor
            .write_logs(&frag(0, vec![format_rec(1, 5), insert_rec(2, 5, "a", "1")]))
            .unwrap();
        donor
            .write_logs(&frag(1, vec![insert_rec(3, 5, "b", "2")]))
            .unwrap();
        donor.consolidate_all();
        let export = donor.export_slice(key()).unwrap();
        assert_eq!(export.persistent_lsn, Lsn(3));

        let rebuilt = server();
        rebuilt.create_rebuilding_slice(key(), export.persistent_lsn, export.recycle_lsn);
        // While rebuilding: accepts writes (chained at the donor horizon),
        // refuses reads.
        rebuilt
            .write_logs(&frag(3, vec![insert_rec(4, 5, "c", "3")]))
            .unwrap();
        assert!(rebuilt.read_page(key(), PageId(5), Lsn(3)).is_err());
        assert!(rebuilt.is_rebuilding(key()).unwrap());
        // Import the donor's pages: reads come online, including the write
        // that arrived during the rebuild.
        rebuilt.import_pages(key(), export.pages).unwrap();
        assert_eq!(rebuilt.get_persistent_lsn(key()).unwrap(), Lsn(4));
        let (page, _) = rebuilt.read_page(key(), PageId(5), Lsn(4)).unwrap();
        assert_eq!(page.nslots(), 3);
    }

    #[test]
    fn consolidating_resident_fragments_never_reads_records_from_disk() {
        let s = server();
        s.create_slice(key());
        let mut lsn = 1u64;
        for i in 0..20u64 {
            let page = i % 5 + 1;
            let recs = if i < 5 {
                vec![format_rec(lsn, page), insert_rec(lsn + 1, page, "k", "v")]
            } else {
                vec![insert_rec(lsn, page, "k2", "v2")]
            };
            let prev = lsn - 1;
            lsn += recs.len() as u64;
            s.write_logs(&frag(prev, recs)).unwrap();
        }
        s.consolidate_all();
        assert_eq!(s.disk_record_fetches.get(), 0);
    }

    /// Writes `n` chained two-record fragments cycling over `pages` pages.
    fn churn(s: &PageStoreServer, n: u64, pages: u64, start_lsn: u64) -> u64 {
        let mut lsn = start_lsn;
        for i in 0..n {
            let page = i % pages + 1;
            let recs = if lsn <= 2 * pages {
                vec![format_rec(lsn, page), insert_rec(lsn + 1, page, "k", "v")]
            } else {
                vec![
                    insert_rec(lsn, page, "k2", "v2"),
                    insert_rec(lsn + 1, page, "k3", "v3"),
                ]
            };
            let prev = lsn - 1;
            lsn += recs.len() as u64;
            s.write_logs(&frag(prev, recs)).unwrap();
        }
        lsn - 1
    }

    #[test]
    fn layered_policy_seals_compacts_and_reads_back_identically() {
        let layered = server();
        let baseline = server();
        for s in [&layered, &baseline] {
            s.create_slice(key());
            churn(s, 12, 3, 1);
        }
        layered.consolidate_all();
        assert!(layered.stats.l0_sealed.get() >= 2);
        assert!(layered.stats.l1_compactions.get() >= 1);
        let as_of = layered.get_persistent_lsn(key()).unwrap();
        assert_eq!(as_of, baseline.get_persistent_lsn(key()).unwrap());
        // Byte-identical to the never-consolidated replay at the head and at
        // every historical LSN.
        for lsn in 1..=as_of.0 {
            let a = layered.read_page(key(), PageId(lsn % 3 + 1), Lsn(lsn));
            let b = baseline.read_page(key(), PageId(lsn % 3 + 1), Lsn(lsn));
            match (a, b) {
                (Ok((pa, la)), Ok((pb, lb))) => {
                    assert_eq!(la, lb, "version lsn diverged at {lsn}");
                    assert_eq!(pa.as_bytes(), pb.as_bytes(), "bytes diverged at {lsn}");
                }
                (a, b) => panic!("outcome diverged at {lsn}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn layered_record_fetch_routes_through_l0_blobs() {
        let layered = server();
        layered.create_slice(key());
        let last = churn(&layered, 8, 2, 1);
        layered.consolidate_all();
        // Evict the pool so a historical read must re-materialize from a
        // base + records; the records now live in sealed L0 blobs.
        layered.pool.evict_slice(key());
        let (page, lsn) = layered.read_page(key(), PageId(1), Lsn(last)).unwrap();
        assert!(lsn.is_valid());
        assert!(page.nslots() > 0);
        // Never from a per-fragment blob: nothing was left on the backlog.
        assert_eq!(layered.disk_record_fetches.get(), 0);
    }

    #[test]
    fn backlogged_fragments_are_read_from_their_own_blobs() {
        // A 2 KiB log cache holds a few dozen of these fragments; the rest
        // park on the backlog with their records only on the device. A read
        // before consolidation must fetch those from the fragments' blobs.
        let small = server_with_log_cache(2 << 10);
        let reference = server();
        for s in [&small, &reference] {
            s.create_slice(key());
            churn(s, 64, 4, 1);
        }
        assert!(small.log_cache.backlog_len() > 0, "nothing was backlogged");
        let head = small.get_persistent_lsn(key()).unwrap();
        let assert_matches_reference = || {
            for page in 1..=4u64 {
                let (got, got_lsn) = small.read_page(key(), PageId(page), head).unwrap();
                let (want, want_lsn) = reference.read_page(key(), PageId(page), head).unwrap();
                assert_eq!(got_lsn, want_lsn, "page {page}");
                assert_eq!(got.as_bytes(), want.as_bytes(), "page {page}");
            }
        };
        assert_matches_reference();
        assert!(small.disk_record_fetches.get() > 0);
        assert_eq!(reference.disk_record_fetches.get(), 0);
        // Consolidation pumps the backlog through the cache as space frees.
        small.consolidate_all();
        assert_eq!(small.log_cache.backlog_len(), 0);
        assert_eq!(small.log_cache.queue_len(), 0);
        assert_matches_reference();
    }

    #[test]
    fn aborted_compaction_is_invisible_and_recompaction_is_idempotent() {
        // Threshold high enough that consolidation only seals; the test
        // drives compaction by hand around the failpoint.
        let clock = ManualClock::shared();
        let layered = PageStoreServer::new(
            StorageDevice::in_memory(clock, StorageProfile::instant()),
            1 << 20,
            64,
            EvictionPolicy::Lfu,
            ConsolidationPolicy::Layered {
                l0_target_bytes: 1,
                compaction_threshold: usize::MAX,
            },
        );
        layered.create_slice(key());
        churn(&layered, 4, 2, 1);
        layered.consolidate_all();
        let layers = layered.layers(key()).unwrap();
        assert!(layers.sealed_count() >= 2);
        // Crash between the L1 blob append and image registration: nothing
        // committed, sealed L0s remain, compact LSN unmoved.
        layered.arm_compaction_abort();
        assert!(layered.compact(key()).is_err());
        assert_eq!(layered.stats.l1_compactions.get(), 0);
        assert!(layers.sealed_count() >= 2);
        assert_eq!(layers.compact_lsn(), Lsn::ZERO);
        // Re-run: the identical job completes and reads are unaffected.
        layered.compact(key()).unwrap();
        assert_eq!(layered.stats.l1_compactions.get(), 1);
        assert!(layers.compact_lsn() > Lsn::ZERO);
        let as_of = layered.get_persistent_lsn(key()).unwrap();
        let (page, _) = layered.read_page(key(), PageId(1), as_of).unwrap();
        assert!(page.nslots() > 0);
    }

    #[test]
    fn recycle_reports_reclaimed_fragment_and_layer_bytes_under_churn() {
        let layered = server();
        layered.create_slice(key());
        let last = churn(&layered, 24, 2, 1);
        layered.consolidate_all();
        // Long-lived slice under churn: recycling the whole history must
        // actually reclaim fragment payloads and dead L0 blobs, not just
        // directory pointers.
        let report = layered.set_recycle_lsn(key(), Lsn(last)).unwrap();
        assert!(report.purged_ptrs > 0, "no directory pointers purged");
        assert!(report.frags_dropped > 0, "no fragment bookkeeping dropped");
        assert!(report.bytes_reclaimed > 0, "no bytes reclaimed");
        assert_eq!(
            layered.stats.frag_bytes_reclaimed.get() + layered.stats.layer_bytes_reclaimed.get(),
            report.bytes_reclaimed
        );
        // The head still reads (reconstruction-base rule).
        let (page, _) = layered.read_page(key(), PageId(1), Lsn(last)).unwrap();
        assert!(page.nslots() > 0);
    }

    #[test]
    fn unknown_slice_is_an_error_everywhere() {
        let s = server();
        let missing = SliceKey::new(DbId(9), SliceId(9));
        assert!(matches!(
            s.write_logs(&SliceFragment::new(
                missing,
                Lsn::ZERO,
                vec![format_rec(1, 1)]
            )),
            Err(TaurusError::SliceNotFound(_))
        ));
        assert!(s.read_page(missing, PageId(1), Lsn(1)).is_err());
        assert!(s.get_persistent_lsn(missing).is_err());
        assert!(s.set_recycle_lsn(missing, Lsn(1)).is_err());
    }
}
