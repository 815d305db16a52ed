//! The Storage Abstraction Layer.
//!
//! This file owns the SAL's state (`SalState`, under `sal::state`: the log
//! buffer, the flush spans and the per-slice state), the slice buffers,
//! the quiesce barrier, truncation, placement and snapshots. The log-write
//! pipeline — log buffer → flush spans → durable prefix — is
//! [`crate::log_writer`], and the counter families are in `stats`. The log
//! itself — its N streams, the LSN vector, the merge and the recovery cut
//! — is a [`Log`]. Getting durable records onto a slice replica — the
//! per-replica send pipes, repair, restart redo — is
//! [`crate::slice_writer`] (see DESIGN.md §"Write-pipeline robustness").
//! Each of those is an `impl Sal` block of its own. Reads and pushed-down
//! scans go through [`crate::slice_reader`], shared with read replicas;
//! the SAL contributes a [`FrontEnd`] impl.
//!
//! The cluster-visible LSN (§3.5) is kept at slice granularity, not per
//! log buffer: it is the minimum acked LSN over the slices still owed an
//! ack, or the durable LSN when none is ([`Sal::cv_lsn`], the same value
//! as [`Sal::read_horizon`]). A slice that caps it holds every record up
//! to its acked LSN on a Page Store replica, and a slice that does not
//! has shipped and had acked every record it owns up to the durable LSN,
//! so every record at or below it is durable and on a replica — the
//! paper's guarantee, without tracking which log buffers overlap which
//! slice buffers.

use std::cmp;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Weak};

use parking_lot::{Condvar, Mutex, RwLock};

use taurus_common::clock::ClockRef;
use taurus_common::lsn::LsnWatermark;
use taurus_common::metrics::LogStoreStats;
use taurus_common::scan::ScanRequest;
use taurus_common::{
    DbId, LogRecord, LogRecordGroup, Lsn, NodeId, PageBuf, PageId, Result, SliceKey, TaurusConfig,
    TaurusError,
};
use taurus_logstore::{Log, LogStoreCluster};
use taurus_pagestore::{PageStoreCluster, SliceFragment};

use crate::log_writer::FlushSpan;
pub use crate::slice_reader::TableScan;
use crate::slice_reader::{FrontEnd, SliceReader};
use crate::slice_writer::SliceWriter;
pub use crate::stats::{
    NdpStats, NdpStatsSnapshot, ReadBatchStats, ReadBatchStatsSnapshot, SalStats, SalStatsSnapshot,
};

/// Per-slice state the SAL maintains (paper §3.5, §4).
#[derive(Debug)]
pub(crate) struct SliceState {
    /// Current Page Store replica placement (refreshed from the cluster
    /// manager after a rebuild).
    pub replicas: Vec<NodeId>,
    /// Records accumulated for the next fragment.
    pub(crate) buffer: Vec<LogRecord>,
    pub(crate) buffer_bytes: usize,
    /// Chain link for the next fragment: last LSN ever handed to a flush.
    pub flush_lsn: Lsn,
    /// Last fragment end acknowledged by ≥1 replica ("the slice write is
    /// safe; the buffer can be released").
    pub acked_lsn: Lsn,
    /// The acked LSN [`Sal::read_horizon`] last put on the replica board
    /// for this slice (`None`: not on it yet), so a publish touches only
    /// the entries that moved.
    on_board: Option<Lsn>,
    /// Last persistent LSN reported by each replica (piggybacked on
    /// WriteLogs/ReadPage responses or polled — paper §4.3).
    pub replica_persistent: HashMap<NodeId, Lsn>,
    /// Per replica, how many reports [`SliceState::report`] has taken: a
    /// probe compares it across its round trip to tell whether its answer
    /// is still the newest.
    report_seq: HashMap<NodeId, u64>,
    /// Fabric time of the last persistent-LSN progress on the slowest
    /// replica (stall detection, §5.2).
    pub last_progress_us: u64,
    /// When the current buffer got its first record (flush timeout).
    pub(crate) buffer_opened_us: u64,
}

impl SliceState {
    pub(crate) fn new(replicas: Vec<NodeId>) -> Self {
        SliceState {
            replicas,
            buffer: Vec::new(),
            buffer_bytes: 0,
            flush_lsn: Lsn::ZERO,
            acked_lsn: Lsn::ZERO,
            on_board: None,
            replica_persistent: HashMap::new(),
            report_seq: HashMap::new(),
            last_progress_us: 0,
            buffer_opened_us: 0,
        }
    }

    /// Minimum persistent LSN across this slice's replicas (ZERO until all
    /// have reported).
    pub fn min_replica_persistent(&self) -> Lsn {
        self.replicas
            .iter()
            .map(|n| self.replica_persistent.get(n).copied().unwrap_or(Lsn::ZERO))
            .min()
            .unwrap_or(Lsn::ZERO)
    }

    /// Records the persistent LSN `node` just reported (piggybacked on an
    /// ack or polled) and how it compares with its previous report: `Less`
    /// is the Fig. 4(b) regression signal, `Greater` is progress — which
    /// also restarts the stall timer.
    pub fn report(&mut self, node: NodeId, persistent: Lsn, now_us: u64) -> cmp::Ordering {
        *self.report_seq.entry(node).or_default() += 1;
        let prev = self.replica_persistent.insert(node, persistent);
        let moved = persistent.cmp(&prev.unwrap_or(Lsn::ZERO));
        if moved == cmp::Ordering::Greater {
            self.last_progress_us = now_us;
        }
        moved
    }

    /// [`SliceState::report`]s `persistent` only if it is not below what
    /// the SAL has recorded for `node`. An ack or a quiesce's probe raises
    /// the value and never lowers it: the Page Store may have read it before
    /// a repair, gossip or a newer report landed, and a rebuilt replica that
    /// inherited its predecessor's value must show a decrease to the next
    /// [`Sal::probe`] — the Fig. 4(b) signal, which only a probe reports.
    fn raise(&mut self, node: NodeId, persistent: Lsn, now_us: u64) {
        let recorded = self.replica_persistent.get(&node);
        if recorded.is_none_or(|&r| r <= persistent) {
            self.report(node, persistent, now_us);
        }
    }

    /// What `node` itself last reported, if anything: a value a rebuilt
    /// replica inherited from its predecessor is not its own report.
    fn reported(&self, node: NodeId) -> Option<Lsn> {
        self.report_seq.get(&node)?;
        self.replica_persistent.get(&node).copied()
    }
}

/// Per-slice acked LSNs as published to read replicas, shared between the
/// SAL that maintains them and the master's bulletin ([`Sal::slice_acks`]).
pub type SliceAcks = Arc<RwLock<HashMap<SliceKey, Lsn>>>;

#[derive(Debug, Default)]
pub(crate) struct SalState {
    pub(crate) log_buffer: Vec<LogRecordGroup>,
    pub(crate) log_buffer_bytes: usize,
    /// Ticket of the next prepared flush (log-write pipeline order).
    pub(crate) next_flush_ticket: u64,
    /// End LSN of the newest *prepared* flush — it may still be in flight.
    /// `flush()` waits for the durable LSN to catch up to this.
    pub(crate) last_prepared_end: Lsn,
    /// End LSN of the first log flush that failed outright (the cluster
    /// could not host a new PLog). Everything at or below the durable LSN
    /// stays valid; later flushes sit behind the gap and the durable LSN
    /// stops advancing.
    pub(crate) failed_at: Lsn,
    /// Flush spans in global prepare order, the window over which the
    /// durable LSN advances: popped as a contiguous prefix of
    /// `Durable` spans by [`Sal::advance_durable_prefix_locked`].
    pub(crate) flush_spans: VecDeque<FlushSpan>,
    /// Prepared flushes not yet durable or failed. When every log stream
    /// has one in flight, `flush()` waits and lets the group grow (adaptive
    /// group commit) instead of queueing a tiny span behind the window.
    pub(crate) flushes_in_flight: usize,
    pub slices: HashMap<SliceKey, SliceState>,
    /// Named snapshots: LSNs pinned against version recycling. Because Page
    /// Stores are append-only, creating a snapshot is constant-time — it is
    /// just an LSN (the paper's abstract: "append-only storage, delivering
    /// ... constant-time snapshots").
    snapshots: BTreeMap<String, Lsn>,
}

/// The Storage Abstraction Layer: one per database front end process.
pub struct Sal {
    pub db: DbId,
    /// The compute node this SAL runs on.
    pub me: NodeId,
    pub cfg: TaurusConfig,
    pub(crate) clock: ClockRef,
    pub logs: LogStoreCluster,
    pub pages: PageStoreCluster,
    /// The database log; each prepared flush is one append, by ticket.
    pub log: Log,
    pub(crate) state: Mutex<SalState>,
    /// The replica board: every slice's acked LSN as of the last
    /// [`Sal::read_horizon`], the per-slice half of the master's §6
    /// message. A leaf below `state`; replicas read it on their own.
    slice_acks: SliceAcks,
    /// Signals waiters in [`Sal::flush`] whenever an in-flight log write
    /// completes (or fails). Paired with `state`.
    pub(crate) flush_cv: Condvar,
    /// Highest LSN durable on Log Stores **as a contiguous prefix of
    /// flush spans** (the commit point transactions ack against).
    pub(crate) durable_lsn: LsnWatermark,
    /// Periodically saved database persistent LSN — the recovery starting
    /// point (§4.3 "SAL periodically saves this value for recovery
    /// purposes"). Modeled as a durable control-plane cell that survives
    /// front-end crashes.
    anchor: Arc<LsnWatermark>,
    /// The send pipes and the parked set ([`crate::slice_writer`]), under
    /// their own leaf locks.
    pub(crate) writer: SliceWriter,
    /// The read planner shared with read replicas. Owns the read-routing
    /// state: replica latencies and the suspect set the write pipeline feeds.
    pub(crate) reader: SliceReader,
    /// Self-handle for the per-node sender threads, which must not keep
    /// the SAL alive.
    pub(crate) myself: Weak<Sal>,
    /// Counter families, shared with `reader` (which counts the read side).
    pub stats: Arc<SalStats>,
    pub ndp_stats: Arc<NdpStats>,
    pub read_batch_stats: Arc<ReadBatchStats>,
}

impl std::fmt::Debug for Sal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sal")
            .field("db", &self.db)
            .field("durable_lsn", &self.durable_lsn.get())
            .finish()
    }
}

impl Sal {
    /// Creates the SAL for a brand-new database: creates the log and
    /// registers nothing else — slices appear on first write.
    pub fn create(
        cfg: TaurusConfig,
        db: DbId,
        me: NodeId,
        logs: LogStoreCluster,
        pages: PageStoreCluster,
        anchor: Arc<LsnWatermark>,
    ) -> Result<Arc<Sal>> {
        cfg.validate()?;
        let log = Log::create(&cfg, logs.clone(), db, me)?;
        Ok(Self::build(cfg, db, me, logs, pages, anchor, log))
    }

    /// Assembles the SAL around its log.
    fn build(
        cfg: TaurusConfig,
        db: DbId,
        me: NodeId,
        logs: LogStoreCluster,
        pages: PageStoreCluster,
        anchor: Arc<LsnWatermark>,
        log: Log,
    ) -> Arc<Sal> {
        let clock = logs.fabric.clock.clone();
        let reader = SliceReader::new(cfg.clone(), db, me, pages.clone());
        // `new_cyclic`: the SAL needs a `Weak` handle to itself so that
        // its senders (started lazily, long after build) can reach it
        // without keeping it alive.
        Arc::new_cyclic(|myself| Sal {
            db,
            me,
            cfg,
            clock,
            logs,
            pages,
            log,
            state: Mutex::new(SalState::default()),
            slice_acks: SliceAcks::default(),
            flush_cv: Condvar::new(),
            durable_lsn: LsnWatermark::new(Lsn::ZERO),
            anchor,
            writer: SliceWriter::new(),
            myself: myself.clone(),
            stats: Arc::clone(&reader.stats),
            ndp_stats: Arc::clone(&reader.ndp_stats),
            read_batch_stats: Arc::clone(&reader.read_batch_stats),
            reader,
        })
    }

    // ==================================================================
    // Write path (§4.1)
    // ==================================================================

    /// The slice `page` belongs to: slice placement is static (paper §3.4).
    pub(crate) fn slice_of(&self, page: PageId) -> SliceKey {
        SliceKey::new(self.db, page.slice(self.cfg.pages_per_slice))
    }

    /// The slices `groups` write to, each once.
    pub(crate) fn homes_of(&self, groups: &[LogRecordGroup]) -> Vec<SliceKey> {
        let mut keys = Vec::new();
        for rec in groups.iter().flat_map(|g| &g.records) {
            let key = self.slice_of(rec.page);
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        keys
    }

    /// Periodic driver: flushes slice buffers whose timeout expired and,
    /// once their replicas look reachable, repairs the parked slices in one
    /// pass on this thread ([`Sal::repair_parked`]). Call this from a timer
    /// (or rely on the next log flush). It makes no log flush — every
    /// commit's [`Sal::flush`] pushes the log buffer out — and reads no
    /// Page Store state.
    pub fn tick(&self) {
        let now = self.clock.now_us();
        let timeout = self.cfg.slice_flush_timeout_us;
        self.flush_slices_locked(&mut self.state.lock(), |s| {
            now.saturating_sub(s.buffer_opened_us) >= timeout
        });
        // Parked repairs: skip while every suspect is still unreachable —
        // repair-from-log cannot land anywhere and gossip would spin.
        if !self.parked_slices().is_empty() {
            let suspects = self.reader.suspects();
            if suspects.is_empty() || suspects.iter().any(|n| self.pages.is_live(*n)) {
                self.repair_parked();
            }
        }
    }

    /// Forces every slice buffer out (used by [`Sal::quiesce`] and by tests
    /// that want the fragments on their way without waiting for them).
    pub fn flush_all_slices(&self) {
        self.flush_slices_locked(&mut self.state.lock(), |_| true);
    }

    /// The one barrier of the write path: blocks until every record
    /// durable so far is on every live replica of its slice. It flushes
    /// the slice buffers, waits until every send pipe is empty with nothing
    /// in flight and no repair running, and then needs every live replica
    /// to *report* a persistent LSN at or above its slice's flush LSN (a
    /// slice write is safe after one ack, §4.1; the log may be truncated
    /// only below what all three hold, §4.3). A replica is asked with
    /// `GetPersistentLSN` when its own last report lags — gossip may have
    /// moved it — or when it has not reported since a rebuild put it in
    /// place (its recorded value is its predecessor's). The answer only
    /// raises the recorded value, so a quiesce never swallows the decrease
    /// a recovery round's poll must see; a replica the probe cannot reach
    /// is judged by its recorded value.
    ///
    /// It never sleeps on its own and never moves a `ManualClock`: it
    /// blocks on a signal the pipes raise while it waits. A live replica
    /// still behind once the pipes are idle is
    /// [`TaurusError::ReplicaBehind`] at once — nothing in flight can bring
    /// it there, only a repair (`tick` or a recovery round; a quiesce runs
    /// none) — and the SAL's clock reaching `deadline_us` first is
    /// [`TaurusError::DeadlinePassed`]. A slice is left behind only by a
    /// fault: a failed send, a refusal from a rebuilt-away node, or a
    /// queue abandoned at admission (a straggler or a suspect node). A
    /// burst of commits is held, never shed.
    pub fn quiesce(&self, deadline_us: u64) -> Result<()> {
        loop {
            self.flush_all_slices();
            self.wait_until_pipes_idle(deadline_us)?;
            let mut behind = Vec::new();
            for (key, node, recorded, target) in self.unconfirmed_replicas() {
                let answer = self.pages.persistent_lsn_of(node, self.me, key);
                let at = answer.as_ref().map_or(recorded, |&persistent| persistent);
                if let Ok(persistent) = answer {
                    let now = self.clock.now_us();
                    if let Some(slice) = self.state.lock().slices.get_mut(&key) {
                        slice.raise(node, persistent, now);
                    }
                }
                if at < target {
                    behind.push((key, node, at, target));
                }
            }
            let Some(&(slice, node, at, target)) = behind.first() else {
                return Ok(());
            };
            // A concurrent write has the pipes busy again: round again.
            if self.pipes_idle() {
                return Err(TaurusError::ReplicaBehind {
                    slice,
                    node,
                    at,
                    target,
                });
            }
        }
    }

    /// Each live replica of a written slice whose own last report is below
    /// the slice's flush LSN or missing (a rebuilt replica that has not
    /// reported yet), as `(slice, node, recorded, flush LSN)` in slice and
    /// placement order.
    fn unconfirmed_replicas(&self) -> Vec<(SliceKey, NodeId, Lsn, Lsn)> {
        let mut unconfirmed = Vec::new();
        let st = self.state.lock();
        for (key, slice) in st.slices.iter().filter(|(_, s)| s.flush_lsn.is_valid()) {
            for &node in &slice.replicas {
                if slice.reported(node).is_none_or(|at| at < slice.flush_lsn) {
                    let recorded = slice.replica_persistent.get(&node).copied();
                    let recorded = recorded.unwrap_or(Lsn::ZERO);
                    unconfirmed.push((*key, node, recorded, slice.flush_lsn));
                }
            }
        }
        drop(st);
        unconfirmed.sort_by_key(|l| l.0);
        unconfirmed.retain(|l| self.pages.is_live(l.1));
        unconfirmed
    }

    /// Flushes every non-empty slice buffer that `due` selects.
    pub(crate) fn flush_slices_locked(&self, st: &mut SalState, due: impl Fn(&SliceState) -> bool) {
        let nonempty = st.slices.iter().filter(|(_, s)| !s.buffer.is_empty());
        let keys: Vec<SliceKey> = nonempty.filter(|(_, s)| due(s)).map(|(k, _)| *k).collect();
        for key in keys {
            self.flush_slice_locked(st, key);
        }
    }

    /// Makes sure every key in `keys` has a slice entry, without holding
    /// `state` across the CreateSlice RPC: membership is checked under the
    /// lock, the round trips run unlocked (cluster + server creates are
    /// idempotent), and the results fold back in with `or_insert` so a
    /// racing creator wins exactly once. Slices are never removed from the
    /// map, so an entry observed here stays valid for later lookups.
    pub(crate) fn ensure_slices(&self, keys: &[SliceKey]) -> Result<()> {
        let missing: Vec<SliceKey> = {
            let st = self.state.lock();
            keys.iter()
                .copied()
                .filter(|k| !st.slices.contains_key(k))
                .collect()
        };
        if missing.is_empty() {
            return Ok(());
        }
        let mut created: Vec<(SliceKey, Vec<NodeId>)> = Vec::with_capacity(missing.len());
        for key in missing {
            created.push((key, self.pages.create_slice(key, self.me)?));
        }
        let mut st = self.state.lock();
        for (key, replicas) in created {
            st.slices
                .entry(key)
                .or_insert_with(|| SliceState::new(replicas));
        }
        Ok(())
    }

    /// Ships the slice buffer as one fragment to all replicas via their
    /// per-replica pipes (Step 4; SAL will consider it safe after ONE ack —
    /// Step 5). One fragment is built and shared by `Arc` — no deep clone
    /// per replica.
    pub(crate) fn flush_slice_locked(&self, st: &mut SalState, key: SliceKey) {
        let Some(slice) = st.slices.get_mut(&key) else {
            return;
        };
        if slice.buffer.is_empty() {
            return;
        }
        let mut records = std::mem::take(&mut slice.buffer);
        slice.buffer_bytes = 0;
        records.sort_by_key(|r| r.lsn);
        let frag = Arc::new(SliceFragment::new(key, slice.flush_lsn, records));
        slice.flush_lsn = frag.last_lsn();
        self.stats.slice_flushes.inc();
        self.submit(key, &slice.replicas, &frag);
    }

    /// Ack handler: first-replica acknowledgment releases the buffer and
    /// moves the slice's acked LSN, which the CV-LSN is computed from; an
    /// ack raises the piggybacked persistent LSN it carries (§4.3), and
    /// never lowers it.
    pub(crate) fn on_write_ack(
        &self,
        key: SliceKey,
        node: NodeId,
        frag_last: Lsn,
        persistent: Lsn,
    ) {
        let mut st = self.state.lock();
        let now = self.clock.now_us();
        if let Some(slice) = st.slices.get_mut(&key) {
            // A slice write can only be acked after its records were made
            // durable on the Log Stores (step 2-3 precedes step 4).
            taurus_common::invariant!(
                "slice-ack-behind-durable",
                frag_last <= self.durable_lsn.get(),
                "{key}: ack {frag_last} past durable {}",
                self.durable_lsn.get()
            );
            slice.acked_lsn = slice.acked_lsn.max(frag_last);
            slice.raise(node, persistent, now);
        }
    }

    // ==================================================================
    // Read path (§4.2) and near-data scan pushdown (NDP follow-on paper):
    // thin callers of the shared planner, `crate::slice_reader`
    // ==================================================================

    /// Reads the version of `page` at `as_of` (defaults to the highest LSN
    /// safe for the master: the slice's acked LSN), as a one-page plan of
    /// [`Sal::read_pages`]. Tries replicas in latency order; a replica that
    /// is behind or down is skipped; if all fail, repairs via the Log Stores
    /// and retries (§4.2, §5.2). A version below the recycle LSN is
    /// `VersionRecycled`, except on a head read, which re-plans once at the
    /// slice's new head. An explicit `as_of` is a *global* snapshot LSN: see
    /// [`FrontEnd::snapshots`] on `Sal` for how it maps onto a slice.
    pub fn read_page(&self, page: PageId, as_of: Option<Lsn>) -> Result<PageBuf> {
        self.reader.read_page(self, page, as_of)
    }

    /// Reads many pages at one snapshot in as few round trips as possible:
    /// the ids are grouped by slice, slices are grouped by their primary
    /// replica's node, and one grouped envelope per node goes out per round
    /// of the read plan (see [`crate::slice_reader`]). Returns exactly what N
    /// sequential [`Sal::read_page`] calls at the same `as_of` would, in
    /// request order; snapshot handling matches `read_page`.
    pub fn read_pages(&self, ids: &[PageId], as_of: Option<Lsn>) -> Result<Vec<(PageId, PageBuf)>> {
        self.reader.read_pages(self, ids, as_of)
    }

    /// Plans and executes a pushed-down table scan at snapshot `as_of`: one
    /// `ScanSlice` per active slice, grouped into one envelope per primary
    /// replica node, with the same replica routing and repair escalation as
    /// `read_pages` and a `read_pages`-and-evaluate-locally fallback per
    /// slice.
    /// Results are merged and key-sorted; snapshot handling matches
    /// `read_page`.
    pub fn scan_pushdown(&self, req: &ScanRequest, as_of: Lsn) -> Result<TableScan> {
        self.reader.scan(self, req, as_of)
    }

    // ==================================================================
    // Truncation (§4.3) and repair (§5.2) — driven by RecoveryService
    // ==================================================================

    /// The database persistent LSN: the minimum persistent LSN across the
    /// slices that still have records not yet on all three replicas. Slices
    /// that are fully caught up do not constrain it (§4.3).
    ///
    /// Durable records still sitting in a slice *buffer* are on no replica
    /// at all: they hold the value just below the first buffered LSN, or
    /// truncation would move the recovery anchor past records a crash of
    /// this process loses.
    pub fn database_persistent_lsn(&self) -> Lsn {
        let st = self.state.lock();
        let mut dbp = self.durable_lsn.get();
        for slice in st.slices.values() {
            let min = slice.min_replica_persistent();
            if min < slice.flush_lsn {
                dbp = dbp.min(min);
            }
            if let Some(first) = slice.buffer.iter().map(|r| r.lsn).min() {
                dbp = dbp.min(Lsn(first.0.saturating_sub(1)));
            }
        }
        dbp
    }

    /// Saves the database persistent LSN (recovery anchor) and deletes every
    /// PLog entirely below it (Fig. 3 steps 7-8). Returns PLogs deleted.
    pub fn truncate_log(&self) -> Result<usize> {
        let dbp = self.database_persistent_lsn();
        self.anchor.advance(dbp);
        self.log.truncate_below(dbp)
    }

    /// Polls `GetPersistentLSN` from every replica of every slice, as the
    /// paper's SAL does periodically for recently-updated slices. Returns
    /// slices whose reported value **decreased** — the Fig. 4(b) signal that
    /// a rebuilt replica lost records.
    pub fn poll_persistent_lsns(&self) -> Vec<SliceKey> {
        self.poll_slices(&self.slice_keys())
    }

    /// [`Sal::poll_persistent_lsns`] restricted to `keys`.
    fn poll_slices(&self, keys: &[SliceKey]) -> Vec<SliceKey> {
        let mut regressed = Vec::new();
        for (key, node, _, moved) in self.probe(keys) {
            match moved {
                cmp::Ordering::Less if !regressed.contains(&key) => regressed.push(key),
                // A suspect that reports persistent-LSN progress is serving
                // again.
                cmp::Ordering::Greater => self.note_replica_alive(node),
                _ => {}
            }
        }
        regressed
    }

    /// Asks every replica of `keys` for its persistent LSN and records the
    /// answers. Returns each as `(slice, node, persistent LSN, how it
    /// compares with that replica's previous report)`; unreachable replicas
    /// are left out.
    ///
    /// An answer is applied only if no other report for that replica landed
    /// while the probe was in flight. A `WriteLogs` ack that overtook it
    /// carries a newer persistent LSN than the one the Page Store read at
    /// the probe's arrival; applying the stale answer would look like the
    /// Fig. 4(b) decrease and send the slice into a redo it does not need.
    /// Such an answer is dropped and the newer report returned in its
    /// place, as unchanged.
    pub(crate) fn probe(&self, keys: &[SliceKey]) -> Vec<(SliceKey, NodeId, Lsn, cmp::Ordering)> {
        let mut reports = Vec::new();
        for &key in keys {
            let replicas = match self.state.lock().slices.get(&key) {
                Some(s) => s.replicas.clone(),
                None => continue,
            };
            for node in replicas {
                let seq_of = |s: &SliceState| s.report_seq.get(&node).copied();
                let Some(sent) = self.state.lock().slices.get(&key).map(seq_of) else {
                    continue;
                };
                let Ok(persistent) = self.pages.persistent_lsn_of(node, self.me, key) else {
                    continue;
                };
                let now = self.clock.now_us();
                let mut st = self.state.lock();
                let Some(slice) = st.slices.get_mut(&key) else {
                    continue;
                };
                if seq_of(slice) == sent {
                    reports.push((key, node, persistent, slice.report(node, persistent, now)));
                } else {
                    self.stats.probe_replies_overtaken.inc();
                    let newer = slice.replica_persistent.get(&node);
                    let newer = newer.copied().unwrap_or(persistent);
                    reports.push((key, node, newer, cmp::Ordering::Equal));
                }
            }
        }
        reports
    }

    /// Refreshes replica placement from the cluster manager (after a
    /// rebuild moved a slice replica to a new node).
    pub fn refresh_placement(&self) {
        let mut st = self.state.lock();
        for (key, slice) in st.slices.iter_mut() {
            let current = self.pages.replicas_of(*key);
            if !current.is_empty() && current != slice.replicas {
                // A replacement replica inherits the expectation recorded for
                // the slot it fills: if the rebuilt replica reports a LOWER
                // persistent LSN than its predecessor, the SAL must see the
                // decrease (paper Fig. 4(b)), so the old value carries over.
                for (old, new) in slice.replicas.iter().zip(current.iter()) {
                    if old != new {
                        if let Some(prev) = slice.replica_persistent.remove(old) {
                            slice.replica_persistent.insert(*new, prev);
                        }
                        slice.report_seq.remove(old);
                        self.reader.forget_replica(*key, *old);
                    }
                }
                slice.replicas = current;
            }
        }
    }

    /// Slices whose slowest replica has not made persistent-LSN progress
    /// for `stall_us` while lagging the flush LSN (§5.2 stall detection).
    pub fn stalled_slices(&self, stall_us: u64) -> Vec<SliceKey> {
        let now = self.clock.now_us();
        let st = self.state.lock();
        st.slices
            .iter()
            .filter(|(_, s)| {
                s.flush_lsn.is_valid()
                    && s.min_replica_persistent() < s.flush_lsn
                    && now.saturating_sub(s.last_progress_us) >= stall_us
            })
            .map(|(k, _)| *k)
            .collect()
    }

    /// Triggers targeted gossip for a slice (the SAL-accelerated path that
    /// avoids waiting for the 30-minute periodic sweep, §5.2).
    pub fn trigger_gossip(&self, key: SliceKey) -> usize {
        self.gossip_round(&[key])
    }

    /// Targeted gossip for each of `keys`, then one poll of their replicas
    /// so acked/progress tracking reflects the repair. Returns the
    /// fragments gossip moved.
    pub(crate) fn gossip_round(&self, keys: &[SliceKey]) -> usize {
        self.stats.gossip_triggers.add(keys.len() as u64);
        let moved = keys.iter().map(|&key| self.pages.gossip(key)).sum();
        let _ = self.poll_slices(keys);
        moved
    }

    /// Broadcasts a new recycle LSN to every slice (§3.4, §6: version purge
    /// driven by the minimum transaction-visible LSN). Snapshots cap the
    /// broadcast value: versions a snapshot pins are never purged. Each
    /// slice's acked LSN caps its own share of it.
    pub fn set_recycle_lsn(&self, lsn: Lsn) {
        let (slices, capped) = {
            let st = self.state.lock();
            let min_snapshot = st.snapshots.values().copied().min();
            let capped = match min_snapshot {
                Some(pin) => lsn.min(pin),
                None => lsn,
            };
            // Nor past a slice's acked LSN, which is where the master's
            // next head read of it starts (and only grows): a slice that
            // was quiet below the horizon and has just been written again
            // has no record between its acked LSN and the horizon, so
            // this frees nothing the horizon would have.
            let at = |s: &SliceState| capped.min(s.acked_lsn);
            let slices: Vec<_> = st.slices.iter().map(|(k, s)| (*k, at(s))).collect();
            (slices, capped)
        };
        // Never recycle versions a reader could still request: the broadcast
        // recycle LSN derives from replica read views, all capped at the
        // durable watermark.
        taurus_common::invariant!(
            "recycle-below-durable",
            capped <= self.durable_lsn.get(),
            "recycle {capped} past durable {}",
            self.durable_lsn.get()
        );
        // One grouped round, one envelope per Page Store node. The broadcast
        // reports what it freed (directory pointers, fragment bookkeeping,
        // layer blobs) — account it so recycling is observable instead of
        // fire-and-forget.
        let report = self.pages.set_recycle_lsns(self.me, &slices);
        self.stats
            .recycle_ptrs_purged
            .add(report.purged_ptrs as u64);
        self.stats
            .recycle_bytes_reclaimed
            .add(report.bytes_reclaimed);
    }

    // ==================================================================
    // Snapshots — constant-time thanks to append-only Page Stores
    // ==================================================================

    /// Creates (or replaces) a named snapshot at the current durable LSN.
    /// O(1): no data is copied anywhere; the LSN is simply pinned against
    /// recycling. Returns the snapshot LSN.
    pub fn create_snapshot(&self, name: &str) -> Lsn {
        let lsn = self.durable_lsn();
        self.state.lock().snapshots.insert(name.to_string(), lsn);
        lsn
    }

    /// The LSN a named snapshot pins, if it exists.
    pub fn snapshot_lsn(&self, name: &str) -> Option<Lsn> {
        self.state.lock().snapshots.get(name).copied()
    }

    /// Drops a named snapshot, releasing its versions for future recycling.
    pub fn drop_snapshot(&self, name: &str) -> bool {
        self.state.lock().snapshots.remove(name).is_some()
    }

    /// All named snapshots, by name.
    pub fn snapshots(&self) -> Vec<(String, Lsn)> {
        let st = self.state.lock();
        st.snapshots.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    // ==================================================================
    // Introspection used by the engine
    // ==================================================================

    /// Cluster-visible LSN (§3.5): every record at or below it is durable
    /// on the Log Stores and on at least one Page Store replica. Kept per
    /// slice (see the module docs), so it is the same value as
    /// [`Sal::read_horizon`], read without touching the replica board. It
    /// is not monotone: a quiet slice that is written again caps it at that
    /// slice's acked LSN once more, which is safe because the slice has no
    /// record between its acked LSN and the value it stepped back from.
    pub fn cv_lsn(&self) -> Lsn {
        self.horizon_locked(&self.state.lock())
    }

    /// Highest LSN durable on the Log Stores.
    pub fn durable_lsn(&self) -> Lsn {
        self.durable_lsn.get()
    }

    /// Per-slice acked LSN (the replica-read bound the master publishes to
    /// read replicas, §6).
    pub fn slice_acked_lsn(&self, page: PageId) -> Lsn {
        self.state
            .lock()
            .slices
            .get(&self.slice_of(page))
            .map(|s| s.acked_lsn)
            .unwrap_or(Lsn::ZERO)
    }

    /// The replica board [`Sal::read_horizon`] keeps up to date.
    pub fn slice_acks(&self) -> SliceAcks {
        Arc::clone(&self.slice_acks)
    }

    /// What the master tells its read replicas about the Page Stores (§6),
    /// as one consistent snapshot: brings the replica board — every slice's
    /// acked LSN — up to date and returns the read horizon, the minimum
    /// acked LSN over the slices still owed an ack: the CV-LSN
    /// ([`Sal::cv_lsn`]).
    ///
    /// A quiet slice (nothing buffered, every fragment ever flushed acked)
    /// owes nothing and does not cap the horizon: each of its records up to
    /// the durable LSN is on a Page Store, and its acked LSN will not move
    /// again until somebody writes it. Its replicas' persistent LSN tops
    /// out at its own last record, though, so a replica reading at a
    /// horizon above that must ask the slice for `min(snapshot, acked)` —
    /// exact, because the slice has no record in between. If nobody owes
    /// anything the horizon is the durable LSN itself: a span's records
    /// enter the slice buffers in the same `state` critical section that
    /// advances the durable LSN, so under this lock no durable record can
    /// be hiding outside the buffers.
    ///
    /// Callers race (every commit publishes). The board moves under
    /// `state`, so it is always a whole snapshot and never an older one
    /// than any horizon already returned; a slice's acked LSN only grows,
    /// so a *later* board under an earlier horizon reads the same pages.
    /// Only entries that moved since the last call are written: the cost
    /// beyond the horizon scan is per ack, not per slice.
    pub fn read_horizon(&self) -> Lsn {
        let mut st = self.state.lock();
        let mut board = self.slice_acks.write();
        for (key, slice) in st.slices.iter_mut() {
            if slice.on_board != Some(slice.acked_lsn) {
                slice.on_board = Some(slice.acked_lsn);
                board.insert(*key, slice.acked_lsn);
            }
        }
        drop(board);
        self.horizon_locked(&st)
    }

    /// The CV-LSN / read horizon, computed once for both names.
    fn horizon_locked(&self, st: &SalState) -> Lsn {
        let durable = self.durable_lsn.get();
        let horizon = st
            .slices
            .values()
            .filter(|s| !(s.buffer.is_empty() && s.acked_lsn >= s.flush_lsn))
            .map(|s| s.acked_lsn)
            .min()
            .unwrap_or(durable);
        // Quorum-before-ack: what replicas may read up to never overtakes
        // the commit point.
        taurus_common::invariant!(
            "quorum-before-ack",
            horizon <= durable,
            "cv {horizon} past durable {durable}"
        );
        horizon
    }

    /// Log Store append-path metrics of this SAL's log (latency, in-flight
    /// window, seal-switches). Benches print this next to [`SalStats`].
    pub fn log_stats(&self) -> &LogStoreStats {
        self.log.stats()
    }

    /// The LSN vector ([`Log::durable_vector`]); an entry may run ahead of
    /// [`Sal::durable_lsn`] while an earlier span is still in flight.
    pub fn durable_vector(&self) -> Vec<Lsn> {
        self.log.durable_vector()
    }

    /// The saved recovery anchor (database persistent LSN at last save).
    pub fn recovery_anchor(&self) -> Lsn {
        self.anchor.get()
    }

    /// The order the read planner tries `key`'s replicas in right now:
    /// fastest first, suspects last.
    pub fn ordered_replicas(&self, key: SliceKey) -> Vec<NodeId> {
        self.reader.ordered_replicas(key)
    }

    /// All slices the SAL currently manages.
    pub fn slice_keys(&self) -> Vec<SliceKey> {
        let mut v: Vec<SliceKey> = self.state.lock().slices.keys().copied().collect();
        v.sort();
        v
    }

    // ==================================================================
    // SAL restart recovery (§5.3)
    // ==================================================================

    /// Rebuilds a SAL after a front-end crash. Reads the log from the saved
    /// database persistent LSN, cut at its first hole ([`Log::recover`]),
    /// and hands that window to [`Sal::redo`], which resends to the Page
    /// Stores whatever their replicas are missing — the redo phase that
    /// must complete before the database accepts new requests. Returns the
    /// SAL and the highest LSN found in the log (the restart point for the
    /// LSN allocator).
    pub fn recover(
        cfg: TaurusConfig,
        db: DbId,
        me: NodeId,
        logs: LogStoreCluster,
        pages: PageStoreCluster,
        anchor: Arc<LsnWatermark>,
    ) -> Result<(Arc<Sal>, Lsn)> {
        cfg.validate()?;
        let log = Log::open(&cfg, logs.clone(), db, me, true)?;
        let (groups, max_lsn) = log.recover(anchor.get())?;
        let sal = Self::build(cfg, db, me, logs, pages, anchor, log);
        sal.durable_lsn.advance(max_lsn);
        // The flush pipeline's monotonicity baseline starts where the
        // recovered log ends.
        sal.state.lock().last_prepared_end = max_lsn;
        // Redo over the window just read, for every slice of this database
        // the cluster holds — those with no records in the window too.
        let mut keys = sal.pages.slices();
        keys.retain(|k| k.db == sal.db);
        sal.redo(&keys, Some(groups))?;
        for s in sal.state.lock().slices.values_mut() {
            // Records at or below a replica's persistent LSN are on that
            // replica by definition, so reads at this horizon are safe —
            // without this a freshly recovered SAL would read every page
            // at LSN 0 (i.e. as empty).
            let reported = s.replica_persistent.values().copied().max();
            s.flush_lsn = s.flush_lsn.max(reported.unwrap_or(Lsn::ZERO));
            s.acked_lsn = s.acked_lsn.max(reported.unwrap_or(Lsn::ZERO));
        }
        Ok((sal, max_lsn))
    }
}

/// The master's side of the shared read planner: its snapshot rule and the
/// Log-Store repair hook.
impl FrontEnd for Sal {
    /// `None` pins each slice at its acked LSN (the newest version at least
    /// one replica holds). An explicit `as_of` is a *global* snapshot LSN,
    /// which a quiet slice's replicas can never reach (their persistent LSN
    /// tops out at the slice's own last record): the slice buffer is
    /// flushed if it may hold records inside the snapshot, and the request
    /// is capped at the slice's flush LSN — exact, because after the flush
    /// the slice has no records in `(flush_lsn, as_of]`, so the version at
    /// `as_of` *is* the version at `flush_lsn`.
    fn snapshots(&self, keys: &[SliceKey], as_of: Option<Lsn>) -> Result<Vec<Lsn>> {
        self.ensure_slices(keys)?;
        let mut st = self.state.lock();
        let mut out = Vec::with_capacity(keys.len());
        for &key in keys {
            let unflushed = |s: &SliceState| as_of.is_some_and(|a| a > s.flush_lsn);
            if st.slices.get(&key).is_some_and(unflushed) {
                self.flush_slice_locked(&mut st, key);
            }
            let slice = st.slices.get(&key).ok_or(TaurusError::SliceNotFound(key))?;
            out.push(as_of.map_or(slice.acked_lsn, |a| a.min(slice.flush_lsn)));
        }
        Ok(out)
    }

    /// Pulls the records the slice's replicas are missing from the Log
    /// Stores and resends them, then re-learns placement: a concurrent
    /// rebuild may have moved a replica to a different node.
    fn repair(&self, key: SliceKey) -> bool {
        let _ = self.repair_slice_from_logstores(key);
        self.refresh_placement();
        true
    }
}
