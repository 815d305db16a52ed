//! The database log as an ordered collection of PLogs.
//!
//! "The database log is stored in an ordered collection of PLogs, called
//! data PLogs. The list of these PLogs is recorded in a separate metadata
//! PLog... When a new data PLog is created or removed, all metadata is
//! written in one atomic write to the metadata PLog. When a metadata PLog
//! reaches its size limit, a new metadata PLog is created, the latest
//! metadata is written there, and the old metadata PLog is deleted."
//! (paper §3.3)
//!
//! [`LogStream`] implements exactly that, plus:
//!
//! * PLog rollover at the size limit (64 MB in production, paper §4.1);
//! * seal-and-switch on write failure — a failed 3/3 write is never retried
//!   against the same PLog; a fresh PLog on healthy nodes takes over;
//! * LSN-range tracking per PLog, which drives log truncation (delete every
//!   PLog whose records are all below the database persistent LSN);
//! * recovery: [`LogStream::open_stream`] rebuilds the stream state from
//!   the last snapshot in the metadata PLog.
//!
//! A database's log is N of these; [`crate::Log`] owns them.
//!
//! # The append pipeline
//!
//! Appends are split into a *reservation* and a *commit* so the stream lock
//! is never held across a network round trip:
//!
//! 1. [`LogStream::reserve_append`] — under the lock: pick the tail PLog
//!    (rolling it over first if sealed or full), reserve a per-PLog sequence
//!    number and a byte offset, and take a commit *ticket*. At most
//!    `append_window` reservations are outstanding at once, all of them on
//!    the tail PLog: a rollover waits for the window to drain first.
//! 2. [`LogStream::complete_append`] — **outside** the lock: the replicated
//!    3/3 write ([`LogStoreCluster::append_at`]), whose three replica writes
//!    run in parallel. Multiple groups overlap here — this is what lets the
//!    SAL flush loop pipeline log writes.
//! 3. Back under the lock, bookkeeping commits strictly in ticket order, so
//!    per-PLog LSN ranges stay gap-free and `committed_len` is monotone.
//!
//! A failed write commits nothing: during its (ordered) commit turn it seals
//! every open PLog, fences new reservations, rolls a fresh PLog, re-reserves
//! there and retries. In-flight reservations behind it sit on the same
//! PLog, so they find it sealed (or their bytes unreachable behind the
//! failed write's sequence gap) and do the same, in ticket order — so even
//! after a seal-and-switch, byte order on every PLog equals LSN order and
//! PLog order equals LSN order. (That is why a rollover drains the window:
//! a reservation already on the *next* PLog would succeed there and commit
//! ahead of the re-homed write it was supposed to follow.)

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::{Condvar, Mutex};

use taurus_common::metrics::LogStoreStats;
use taurus_common::{DbId, LogRecordGroup, Lsn, NodeId, PLogId, Result, TaurusError};

use crate::batch::{self, BatchFrame};
use crate::cluster::LogStoreCluster;

/// Seq-number namespace bit marking metadata PLogs.
const META_SEQ_BIT: u64 = 1 << 63;
/// The stream index of a member stream is packed into the PLog seq-number
/// namespace here, below the meta bit, so every stream of a database mints
/// ids from a disjoint range (stream 0 keeps the legacy single-stream ids).
const STREAM_SEQ_SHIFT: u32 = 48;
const SNAPSHOT_MAGIC: u32 = 0x4d45_5441; // "META"

/// Give up after this many seal-and-switch cycles within one append: each
/// failure burns one PLog and picks fresh nodes, so repeated failure means
/// the cluster is really out of healthy capacity.
const MAX_PLOG_SWITCHES: u32 = 4;

/// Position of an incremental tail reader (see [`LogStream::read_tail`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TailCursor {
    plog: Option<PLogId>,
    offset: u64,
    /// End LSN of the last group delivered through this cursor. Detects
    /// data loss when the cursor's PLog is truncated away (the log moved on
    /// past records this reader never saw) and suppresses duplicates when
    /// a group was re-appended to a fresh PLog after a seal-and-switch.
    consumed: Lsn,
}

/// One data PLog in the stream, with its LSN coverage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PLogEntry {
    pub id: PLogId,
    /// LSN of the first record written to this PLog (ZERO if empty).
    pub first_lsn: Lsn,
    /// LSN of the last record written to this PLog (ZERO if empty).
    pub last_lsn: Lsn,
    pub sealed: bool,
    pub bytes: u64,
}

/// A reserved slot in the log: PLog, per-PLog sequence number, byte offset,
/// and commit ticket. Obtained from [`LogStream::reserve_append`] and
/// redeemed (exactly once) by [`LogStream::complete_append`].
#[derive(Debug)]
pub struct AppendReservation {
    ticket: u64,
    plog: PLogId,
    seq: u64,
    offset: u64,
    len: u64,
    first_lsn: Lsn,
    last_lsn: Lsn,
}

#[derive(Debug)]
struct StreamState {
    entries: Vec<PLogEntry>,
    next_seq: u64,
    incarnation: u64,
    meta_plog: PLogId,
    meta_next_seq: u64,
    meta_bytes: u64,
    /// Bytes of `meta_plog` a reader has already decoded ([`LogStream::open`]
    /// and [`LogStream::refresh`]): the next refresh reads past them only.
    meta_seen: u64,
    /// The metadata PLog can no longer accept a *visible* append: a failed
    /// write burned a sequence number, so anything written after it would
    /// stay buried behind the gap forever. Snapshots go straight to a fresh
    /// metadata PLog until the roll succeeds.
    meta_dead: bool,
    /// Bytes reserved (not necessarily yet committed) on the tail PLog.
    tail_reserved_bytes: u64,
    /// Next commit ticket to hand out.
    next_ticket: u64,
    /// Ticket whose commit turn it currently is.
    commit_ticket: u64,
    /// Reservations handed out but not yet committed.
    inflight: usize,
    /// New reservations wait until `commit_ticket` reaches this value. Set
    /// on append failure so every outstanding ticket re-reserves (in ticket
    /// order) on the fresh PLog before any new reservation takes an offset
    /// there — byte order must equal LSN order within a PLog.
    reserve_fence: u64,
    /// Claimed by whoever is writing a metadata snapshot (rollover, meta
    /// roll, truncation). Serializes snapshot writers and freezes the PLog
    /// *list* (not per-entry bookkeeping) without holding the state lock
    /// across the snapshot RPCs.
    meta_busy: bool,
    /// Highest last-LSN of any PLog deleted by truncation. Tail readers
    /// whose cursor falls behind this have lost data and must resync.
    truncated_through: Lsn,
}

/// Writer/reader for one database's log over the Log Store cluster.
pub struct LogStream {
    cluster: LogStoreCluster,
    db: DbId,
    /// Compute node on whose behalf RPCs are issued.
    me: NodeId,
    plog_size_limit: usize,
    /// Max reservations outstanding at once (the append pipeline depth).
    append_window: usize,
    /// Which of the database's parallel log streams this is (0 for the
    /// classic single-stream log).
    stream_id: u32,
    /// Part of a multi-stream group: flush spans are distributed round-robin
    /// across sibling streams, so successive appends to one PLog carry
    /// monotone but *not* contiguous LSN ranges.
    member: bool,
    state: Mutex<StreamState>,
    cond: Condvar,
    /// Shared across every stream of one writer so aggregate append metrics
    /// (and the bench harness's `.clear()`/`.snapshot()`) see all streams.
    stats: Arc<LogStoreStats>,
}

struct RollPlan {
    new_id: PLogId,
    /// The full tail PLog this roll replaces (already sealed when the roll
    /// follows a write failure).
    seal_now: Option<PLogId>,
}

impl LogStream {
    /// Creates one member stream of a database's (possibly multi-stream)
    /// log: a metadata PLog, a first data PLog, and an initial metadata
    /// snapshot. Registers the metadata PLog in the cluster's per-(db,
    /// stream) registry so `open_stream` can find it after a crash.
    ///
    /// `member` marks the stream as part of a multi-stream group, relaxing
    /// the per-PLog LSN-contiguity invariant to monotonicity (sibling
    /// streams carry the interleaved spans).
    #[expect(
        clippy::too_many_arguments,
        reason = "a stream is named by cluster, database, node and stream id, and sized by its limits; `Log` is the caller"
    )]
    pub fn create_stream(
        cluster: LogStoreCluster,
        db: DbId,
        me: NodeId,
        plog_size_limit: usize,
        append_window: usize,
        stream_id: u32,
        member: bool,
        stats: Arc<LogStoreStats>,
    ) -> Result<LogStream> {
        let seq_base = (stream_id as u64) << STREAM_SEQ_SHIFT;
        let meta_plog = PLogId::new(db, META_SEQ_BIT | seq_base, 0);
        cluster.create_plog(meta_plog, me)?;
        cluster.set_meta_plog_stream(db, stream_id, meta_plog);
        let stream = LogStream {
            cluster,
            db,
            me,
            plog_size_limit,
            append_window,
            stream_id,
            member,
            state: Mutex::new(StreamState::new(
                Vec::new(),
                1,
                0,
                meta_plog,
                (META_SEQ_BIT | seq_base) + 1,
                false,
            )),
            cond: Condvar::new(),
            stats,
        };
        let plan = stream.plan_roll(&mut stream.state.lock());
        stream.perform_roll(plan)?;
        Ok(stream)
    }

    /// Reopens an existing member stream after a front-end restart by
    /// reading the newest snapshot from its metadata PLog, then reconciling
    /// each entry against the cluster's authoritative committed length (the
    /// snapshot's per-PLog bookkeeping lags appends made after it was
    /// written).
    #[expect(
        clippy::too_many_arguments,
        reason = "a stream is named by cluster, database, node and stream id, and sized by its limits; `Log` is the caller"
    )]
    pub fn open_stream(
        cluster: LogStoreCluster,
        db: DbId,
        me: NodeId,
        plog_size_limit: usize,
        append_window: usize,
        stream_id: u32,
        member: bool,
        stats: Arc<LogStoreStats>,
    ) -> Result<LogStream> {
        let seq_base = (stream_id as u64) << STREAM_SEQ_SHIFT;
        let meta_plog = cluster.meta_plog_stream(db, stream_id).ok_or_else(|| {
            TaurusError::Internal(format!(
                "no metadata plog registered for {db} stream {stream_id}"
            ))
        })?;
        let raw = cluster.read_from(meta_plog, me, 0)?;
        let meta_seen = raw.len() as u64;
        let (mut entries, next_seq, incarnation) = decode_last_snapshot(raw)?;
        for e in entries.iter_mut() {
            let committed = cluster.committed_len(e.id);
            if committed > e.bytes {
                // Appends landed after the snapshot: recover the LSN range
                // from the data itself.
                let raw = cluster.read_from(e.id, me, 0)?;
                let groups = batch::decode_groups(raw)?;
                if let Some(first) = groups.first() {
                    if !e.first_lsn.is_valid() {
                        e.first_lsn = first.first_lsn();
                    }
                }
                if let Some(last) = groups.last() {
                    e.last_lsn = last.end_lsn();
                }
                e.bytes = committed;
            }
            // A PLog with a reserved-but-never-committed sequence (the
            // writer crashed mid-append, or a failed append left a hole) can
            // never accept a visible write again; and a seal recorded
            // server-side may postdate the snapshot.
            if !e.sealed && (cluster.has_sequence_gap(e.id) || cluster.is_sealed(e.id, me)) {
                e.sealed = true;
            }
        }
        let tail_reserved = entries.last().map(|e| e.bytes).unwrap_or(0);
        let meta_dead = cluster.has_sequence_gap(meta_plog);
        let mut state = StreamState::new(
            entries,
            next_seq,
            incarnation + 1,
            meta_plog,
            (META_SEQ_BIT | seq_base) + 1 + incarnation + 1,
            meta_dead,
        );
        state.tail_reserved_bytes = tail_reserved;
        state.meta_seen = meta_seen;
        Ok(LogStream {
            cluster,
            db,
            me,
            plog_size_limit,
            append_window,
            stream_id,
            member,
            state: Mutex::new(state),
            cond: Condvar::new(),
            stats,
        })
    }

    /// Reserves the next slot in the log for a group covering
    /// `[first_lsn, last_lsn]` of `len` encoded bytes. Blocks while the
    /// append window is full (or a failure fence is draining), and rolls
    /// the tail PLog over first when it is sealed or past the size limit —
    /// once every reservation still in flight on it has committed. Appends
    /// therefore do not pipeline across a rollover: each one stalls the
    /// stream for up to one append round trip (the window draining) on top
    /// of the roll's own RPCs — measured in EXPERIMENTS.md, "what a PLog
    /// rollover costs".
    ///
    /// Reservations must be taken in LSN order and every reservation must
    /// be redeemed by [`LogStream::complete_append`] exactly once — by
    /// another thread, or before the same thread reserves again: a thread
    /// that holds an unredeemed reservation and asks for another blocks
    /// forever when the second one needs a rollover (or a full window, or
    /// a failure fence) to clear first.
    pub fn reserve_append(
        &self,
        first_lsn: Lsn,
        last_lsn: Lsn,
        len: u64,
    ) -> Result<AppendReservation> {
        let mut st = self.state.lock();
        loop {
            if st.inflight >= self.append_window || st.commit_ticket < st.reserve_fence {
                self.cond.wait(&mut st);
                continue;
            }
            let tail_open = st.entries.last().map(|e| !e.sealed).unwrap_or(false)
                && st.tail_reserved_bytes < self.plog_size_limit as u64;
            if tail_open {
                break;
            }
            // Roll only once nothing is in flight on the old tail: every
            // outstanding reservation must sit on one PLog, or a failed
            // write could be re-homed *behind* a successor that already
            // landed on the next PLog (see the module docs).
            if st.meta_busy || st.inflight > 0 {
                self.cond.wait(&mut st);
                continue;
            }
            let plan = self.plan_roll(&mut st);
            drop(st);
            self.perform_roll(plan)?;
            st = self.state.lock();
        }
        let tail = st
            .entries
            .last()
            .ok_or_else(|| TaurusError::Internal("log stream has no tail PLog".into()))?;
        let plog = tail.id;
        let seq = self.cluster.reserve_seq(plog)?;
        let offset = st.tail_reserved_bytes;
        st.tail_reserved_bytes += len;
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.inflight += 1;
        self.stats.appends_in_flight.add(1);
        Ok(AppendReservation {
            ticket,
            plog,
            seq,
            offset,
            len,
            first_lsn,
            last_lsn,
        })
    }

    /// Performs the replicated 3/3 append for a reservation and commits its
    /// bookkeeping in ticket order. The stream lock is **not** held across
    /// the network round trip, so reservations in the append window overlap
    /// their replica writes.
    ///
    /// On write failure: seals every open PLog (a failed write is never
    /// retried to the same PLog — paper §3.3), fences new reservations,
    /// rolls a fresh PLog, re-reserves there and retries. Gives up only
    /// when the cluster cannot host a new PLog at all.
    pub fn complete_append(&self, mut res: AppendReservation, data: Bytes) -> Result<()> {
        let mut switches = 0u32;
        loop {
            let start = self.cluster.fabric.clock.now_us();
            let outcome = self
                .cluster
                .append_at(res.plog, self.me, res.seq, data.clone());
            let elapsed = self.cluster.fabric.clock.now_us().saturating_sub(start);
            self.stats.append_latency.record(elapsed);

            let mut st = self.state.lock();
            while st.commit_ticket < res.ticket {
                self.cond.wait(&mut st);
            }
            // Commit iff our bytes are actually readable: the write acked
            // *and* every earlier sequence on the PLog acked too (a failed
            // predecessor leaves a permanent gap our bytes sit behind).
            let committable = outcome.is_ok()
                && st.entries.iter().any(|e| e.id == res.plog)
                && self.cluster.committed_len(res.plog) >= res.offset + res.len;
            if committable {
                if let Some(entry) = st.entries.iter_mut().find(|e| e.id == res.plog) {
                    taurus_common::invariant!(
                        "plog-append-offset",
                        entry.bytes == res.offset,
                        "commit of [{}, {}] at offset {} but {} holds {} bytes",
                        res.first_lsn,
                        res.last_lsn,
                        res.offset,
                        entry.id,
                        entry.bytes
                    );
                    // Log contiguity: successive appends to one PLog carry
                    // strictly increasing LSN ranges — *gap-free* for a
                    // standalone stream; a member of a multi-stream group
                    // only guarantees monotonicity, because the interleaved
                    // spans live on sibling streams.
                    let continues = if self.member {
                        res.first_lsn > entry.last_lsn
                    } else {
                        res.first_lsn == entry.last_lsn.next()
                    };
                    taurus_common::invariant!(
                        "plog-lsn-contiguous",
                        !entry.last_lsn.is_valid() || continues,
                        "append [{}..{}] does not continue tail {} of {}",
                        res.first_lsn,
                        res.last_lsn,
                        entry.last_lsn,
                        entry.id
                    );
                    if !entry.first_lsn.is_valid() {
                        entry.first_lsn = res.first_lsn;
                    }
                    entry.last_lsn = res.last_lsn;
                    entry.bytes += res.len;
                }
                self.finish_turn(&mut st);
                drop(st);
                self.stats.appends.inc();
                return Ok(());
            }

            // Seal-and-switch, holding our commit turn so re-reservations
            // happen in ticket order. Seal *every* open PLog: in-flight
            // writes behind us may be unreachable behind our sequence gap,
            // and their commit turns will route them here too.
            switches += 1;
            self.stats.seal_switches.inc();
            let mut to_seal = Vec::new();
            for e in st.entries.iter_mut() {
                if !e.sealed {
                    e.sealed = true;
                    to_seal.push(e.id);
                }
            }
            st.reserve_fence = st.reserve_fence.max(st.next_ticket);
            if switches > MAX_PLOG_SWITCHES {
                self.finish_turn(&mut st);
                drop(st);
                for id in to_seal {
                    self.cluster.seal(id, self.me);
                }
                return Err(TaurusError::Internal(
                    "log append failed after repeated PLog switches".into(),
                ));
            }
            drop(st);
            for id in &to_seal {
                self.cluster.seal(*id, self.me);
            }

            let mut st = self.state.lock();
            // Roll a fresh PLog (we just sealed the tail; the loop only
            // waits out a truncation's snapshot write).
            while !st.entries.last().map(|e| !e.sealed).unwrap_or(false) {
                if st.meta_busy {
                    self.cond.wait(&mut st);
                    continue;
                }
                let plan = self.plan_roll(&mut st);
                drop(st);
                let rolled = self.perform_roll(plan);
                st = self.state.lock();
                if let Err(e) = rolled {
                    self.finish_turn(&mut st);
                    return Err(e);
                }
            }
            let tail = st
                .entries
                .last()
                .map(|e| e.id)
                .ok_or_else(|| TaurusError::Internal("log stream has no tail PLog".into()));
            let tail = match tail {
                Ok(id) => id,
                Err(e) => {
                    self.finish_turn(&mut st);
                    return Err(e);
                }
            };
            res.plog = tail;
            res.seq = match self.cluster.reserve_seq(tail) {
                Ok(seq) => seq,
                Err(e) => {
                    self.finish_turn(&mut st);
                    return Err(e);
                }
            };
            res.offset = st.tail_reserved_bytes;
            st.tail_reserved_bytes += res.len;
            drop(st);
        }
    }

    /// Appends one encoded log-record group covering `[first_lsn, last_lsn]`
    /// durably (3/3): a reservation immediately redeemed. Concurrent callers
    /// overlap their replica writes.
    pub fn append_group(&self, data: Bytes, first_lsn: Lsn, last_lsn: Lsn) -> Result<()> {
        let res = self.reserve_append(first_lsn, last_lsn, data.len() as u64)?;
        self.complete_append(res, data)
    }

    /// Ends a commit turn: the next ticket may commit, a window slot frees
    /// up, and (once the last pre-failure ticket drains) the reserve fence
    /// lifts.
    fn finish_turn(&self, st: &mut StreamState) {
        st.inflight -= 1;
        st.commit_ticket += 1;
        self.stats.appends_in_flight.sub(1);
        self.cond.notify_all();
    }

    /// Plans a rollover under the state lock: claims the snapshot-writer
    /// slot, retires (or seals) the current tail, and allocates the next
    /// PLog id. The caller must follow with [`LogStream::perform_roll`].
    fn plan_roll(&self, st: &mut StreamState) -> RollPlan {
        debug_assert!(!st.meta_busy);
        st.meta_busy = true;
        let mut seal_now = None;
        if let Some(tail) = st.entries.last_mut() {
            if !tail.sealed {
                // A full tail: `reserve_append` drained it before rolling
                // (a failure turn seals before it rolls), so seal it now.
                debug_assert!(tail.bytes >= st.tail_reserved_bytes);
                tail.sealed = true;
                seal_now = Some(tail.id);
            }
        }
        let seq_base = (self.stream_id as u64) << STREAM_SEQ_SHIFT;
        let new_id = PLogId::new(self.db, seq_base | st.next_seq, st.incarnation);
        st.next_seq += 1;
        st.incarnation += 1;
        RollPlan { new_id, seal_now }
    }

    /// Executes a planned rollover outside the state lock: creates the new
    /// PLog, persists a metadata snapshot that includes it, and only then
    /// installs it as the tail — so no reservation can land on a PLog whose
    /// existence is not yet durable.
    fn perform_roll(&self, plan: RollPlan) -> Result<()> {
        let result = self.perform_roll_inner(plan);
        let mut st = self.state.lock();
        st.meta_busy = false;
        self.cond.notify_all();
        result
    }

    fn perform_roll_inner(&self, plan: RollPlan) -> Result<()> {
        if let Some(id) = plan.seal_now {
            self.cluster.seal(id, self.me);
        }
        self.cluster.create_plog(plan.new_id, self.me)?;
        let new_entry = PLogEntry {
            id: plan.new_id,
            first_lsn: Lsn::ZERO,
            last_lsn: Lsn::ZERO,
            sealed: false,
            bytes: 0,
        };
        let snapshot = {
            let st = self.state.lock();
            let mut entries = st.entries.clone();
            entries.push(new_entry.clone());
            encode_snapshot(&entries, st.next_seq, st.incarnation)
        };
        self.write_snapshot(snapshot)?;
        let mut st = self.state.lock();
        st.entries.push(new_entry);
        st.tail_reserved_bytes = 0;
        Ok(())
    }

    /// Writes a metadata snapshot as one atomic append, rolling the
    /// metadata PLog when it is dead or past the size limit. The caller
    /// must hold the `meta_busy` claim.
    fn write_snapshot(&self, snapshot: Bytes) -> Result<()> {
        let (meta_plog, meta_dead) = {
            let st = self.state.lock();
            (st.meta_plog, st.meta_dead)
        };
        if !meta_dead {
            match self.cluster.append(meta_plog, self.me, snapshot.clone()) {
                Ok(()) => {
                    let roll = {
                        let mut st = self.state.lock();
                        st.meta_bytes += snapshot.len() as u64;
                        st.meta_bytes >= self.plog_size_limit as u64
                    };
                    if roll {
                        return self.roll_meta_plog(snapshot);
                    }
                    return Ok(());
                }
                Err(_) => {
                    // The failed append burned a sequence number: nothing
                    // appended after it can ever become visible. Never write
                    // to this metadata PLog again.
                    self.state.lock().meta_dead = true;
                }
            }
        }
        self.roll_meta_plog(snapshot)
    }

    /// Replaces the metadata PLog: create new, write latest snapshot, point
    /// the registry at it, delete the old one.
    fn roll_meta_plog(&self, snapshot: Bytes) -> Result<()> {
        let (old, new) = {
            let mut st = self.state.lock();
            let new = PLogId::new(self.db, st.meta_next_seq, st.incarnation);
            st.meta_next_seq += 1;
            (st.meta_plog, new)
        };
        self.cluster.create_plog(new, self.me)?;
        if let Err(e) = self.cluster.append(new, self.me, snapshot) {
            self.cluster.delete_plog(new, self.me);
            return Err(e);
        }
        {
            let mut st = self.state.lock();
            st.meta_plog = new;
            st.meta_bytes = 0;
            st.meta_seen = 0;
            st.meta_dead = false;
        }
        self.cluster
            .set_meta_plog_stream(self.db, self.stream_id, new);
        self.cluster.delete_plog(old, self.me);
        Ok(())
    }

    /// Reads every flush frame whose end LSN is `>= from_lsn`, in log order,
    /// preserving the frame headers (`prev_end` chain links) that
    /// [`crate::Log`] merges and chain-checks across sibling streams.
    pub(crate) fn read_frames_from(&self, from_lsn: Lsn) -> Result<Vec<BatchFrame>> {
        let entries: Vec<PLogEntry> = self.state.lock().entries.clone();
        let mut frames = Vec::new();
        for e in entries {
            // Skip PLogs that end strictly before the requested LSN. An
            // unsealed tail or an entry with unknown range is always read.
            if e.sealed && e.last_lsn.is_valid() && e.last_lsn < from_lsn {
                continue;
            }
            if e.bytes == 0 && e.sealed {
                continue;
            }
            let raw = self.cluster.read_from(e.id, self.me, 0)?;
            for f in batch::decode_frames(raw)? {
                if f.end >= from_lsn {
                    frames.push(f);
                }
            }
        }
        Ok(frames)
    }

    /// Recovery-only: physically discards every flush frame whose LSN range
    /// lies entirely above `cut` (the end of the contiguous durable span
    /// prefix across all member streams). Such frames were appended by
    /// flushes whose predecessor on a sibling stream never became durable —
    /// their transactions were never acknowledged, and replaying them would
    /// apply redo with a hole in it. The affected PLogs are truncated at the
    /// frame boundary and sealed, so subsequent appends (which re-mint the
    /// same LSNs) land on fresh PLogs and no reader ever sees both copies.
    ///
    /// Returns the number of frames discarded. Must not race appends:
    /// [`crate::Log::recover`] calls it before the stream takes any writes.
    pub(crate) fn discard_after(&self, cut: Lsn) -> Result<usize> {
        let mut st = self.state.lock();
        while st.meta_busy {
            self.cond.wait(&mut st);
        }
        let affected: Vec<PLogEntry> = st
            .entries
            .iter()
            .filter(|e| e.last_lsn > cut)
            .cloned()
            .collect();
        if affected.is_empty() {
            return Ok(0);
        }
        st.meta_busy = true;
        drop(st);
        let mut discarded = 0usize;
        let mut result: Result<()> = Ok(());
        for e in &affected {
            match self.discard_tail_of(e, cut) {
                Ok((kept_bytes, kept_frames, kept_last, dropped)) => {
                    discarded += dropped;
                    let mut st = self.state.lock();
                    if let Some(entry) = st.entries.iter_mut().find(|x| x.id == e.id) {
                        entry.bytes = kept_bytes;
                        entry.last_lsn = kept_last;
                        if kept_frames == 0 {
                            entry.first_lsn = Lsn::ZERO;
                        }
                        entry.sealed = true;
                    }
                }
                Err(err) => {
                    result = Err(err);
                    break;
                }
            }
        }
        // Persist the corrected PLog list so a later reopen does not
        // resurrect the orphan bookkeeping from a stale snapshot.
        if result.is_ok() {
            let snapshot = {
                let st = self.state.lock();
                encode_snapshot(&st.entries, st.next_seq, st.incarnation)
            };
            result = self.write_snapshot(snapshot);
        }
        let mut st = self.state.lock();
        st.meta_busy = false;
        // Every affected PLog is now sealed; the next reservation rolls a
        // fresh one, so stale tail byte accounting cannot be reused.
        st.tail_reserved_bytes = st.entries.last().map(|e| e.bytes).unwrap_or(0);
        self.cond.notify_all();
        drop(st);
        result.map(|()| discarded)
    }

    /// Truncates one PLog at the first frame past `cut`; returns the kept
    /// byte length, kept frame count, last kept LSN, and dropped frame count.
    fn discard_tail_of(&self, e: &PLogEntry, cut: Lsn) -> Result<(u64, usize, Lsn, usize)> {
        let raw = self.cluster.read_from(e.id, self.me, 0)?;
        let mut buf = raw.clone();
        let mut kept_bytes = 0u64;
        let mut kept_frames = 0usize;
        let mut kept_last = Lsn::ZERO;
        let mut dropped = 0usize;
        while buf.has_remaining() {
            let before = buf.remaining();
            let frame = batch::decode_unit(&mut buf)?;
            if frame.first > cut {
                dropped += 1;
                continue;
            }
            // Frames in one member PLog carry increasing LSN ranges, so the
            // orphans form a suffix; a kept frame after a dropped one would
            // make the byte-prefix truncation below unsound.
            taurus_common::invariant!(
                "log-cut-on-frame-boundary",
                dropped == 0,
                "kept frame [{}..{}] follows a dropped frame in {}",
                frame.first,
                frame.end,
                e.id
            );
            // A frame straddling the cut would mean the durable prefix ended
            // mid-span, which the span commit rule makes impossible.
            taurus_common::invariant!(
                "log-cut-on-frame-boundary",
                frame.end <= cut,
                "recovery cut {} splits frame [{}..{}] of {}",
                cut,
                frame.first,
                frame.end,
                e.id
            );
            kept_bytes += (before - buf.remaining()) as u64;
            kept_frames += 1;
            kept_last = kept_last.max(frame.end);
        }
        if dropped > 0 {
            self.cluster
                .truncate_plog_to(e.id, self.me, kept_bytes, kept_frames as u64)?;
        }
        self.cluster.seal(e.id, self.me);
        Ok((kept_bytes, kept_frames, kept_last, dropped))
    }

    /// Deletes every sealed data PLog whose records all fall below
    /// `persistent_lsn` (paper Fig. 3 step 8), plus empty sealed PLogs left
    /// behind by seal-and-switch. The surviving PLog list is persisted to
    /// the metadata PLog **before** anything is dropped from memory or the
    /// cluster, so a failed snapshot write leaves the stream (and the data)
    /// untouched. Returns the number of PLogs deleted.
    pub fn truncate_below(&self, persistent_lsn: Lsn) -> Result<usize> {
        let mut st = self.state.lock();
        while st.meta_busy {
            self.cond.wait(&mut st);
        }
        let last = st.entries.len().saturating_sub(1);
        let victims: Vec<PLogEntry> = st
            .entries
            .iter()
            .enumerate()
            .filter(|(i, e)| {
                e.sealed
                    && ((e.last_lsn.is_valid() && e.last_lsn < persistent_lsn)
                        || (!e.last_lsn.is_valid() && e.bytes == 0 && *i != last))
            })
            .map(|(_, e)| e.clone())
            .collect();
        if victims.is_empty() {
            return Ok(0);
        }
        st.meta_busy = true;
        let victim_ids: Vec<PLogId> = victims.iter().map(|e| e.id).collect();
        let survivors: Vec<PLogEntry> = st
            .entries
            .iter()
            .filter(|e| !victim_ids.contains(&e.id))
            .cloned()
            .collect();
        let snapshot = encode_snapshot(&survivors, st.next_seq, st.incarnation);
        drop(st);
        let written = self.write_snapshot(snapshot);
        let mut st = self.state.lock();
        st.meta_busy = false;
        self.cond.notify_all();
        written?;
        let mut truncated_through = st.truncated_through;
        for v in &victims {
            if v.last_lsn.is_valid() {
                truncated_through = truncated_through.max(v.last_lsn);
            }
        }
        st.truncated_through = truncated_through;
        st.entries.retain(|e| !victim_ids.contains(&e.id));
        drop(st);
        for id in &victim_ids {
            self.cluster.delete_plog(*id, self.me);
        }
        Ok(victim_ids.len())
    }

    /// Reads what the metadata PLog gained since the last look and adopts
    /// the newest snapshot in it. Readers (read replicas) call this to
    /// discover PLogs created or deleted by the master since they opened
    /// the stream. Snapshots are whole appends, so the bytes past the ones
    /// already decoded start at a snapshot boundary; when there are none the
    /// cluster answers from its directory and no round trip is made.
    pub fn refresh(&self) -> Result<()> {
        let meta_plog = self
            .cluster
            .meta_plog_stream(self.db, self.stream_id)
            .ok_or_else(|| {
                TaurusError::Internal(format!(
                    "no metadata plog for {} stream {}",
                    self.db, self.stream_id
                ))
            })?;
        // The master rolled the metadata PLog: the new one starts over.
        let seen = {
            let st = self.state.lock();
            if st.meta_plog == meta_plog {
                st.meta_seen
            } else {
                0
            }
        };
        let raw = self.cluster.read_from(meta_plog, self.me, seen)?;
        if raw.is_empty() {
            return Ok(());
        }
        let seen = seen + raw.len() as u64;
        let (entries, next_seq, incarnation) = decode_last_snapshot(raw)?;
        let mut st = self.state.lock();
        if st.meta_plog == meta_plog && st.meta_seen >= seen {
            // A concurrent refresh already adopted these bytes or later ones.
            return Ok(());
        }
        st.meta_seen = seen;
        // PLogs that vanished from the snapshot were truncated by the
        // master; remember how far so stale tail cursors are detected.
        let mut truncated_through = st.truncated_through;
        for old in st.entries.iter() {
            if old.last_lsn.is_valid() && !entries.iter().any(|n| n.id == old.id) {
                truncated_through = truncated_through.max(old.last_lsn);
            }
        }
        st.truncated_through = truncated_through;
        st.entries = entries;
        st.next_seq = st.next_seq.max(next_seq);
        st.incarnation = st.incarnation.max(incarnation);
        st.meta_plog = meta_plog;
        Ok(())
    }

    /// Incremental tail read: returns every complete group appended since
    /// the cursor's position whose end LSN is `<= limit`, and advances the
    /// cursor over exactly those groups. It never re-reads bytes, so a
    /// replica tailing the log does O(new data) work per poll.
    ///
    /// Groups past `limit` are left *unconsumed*: the cursor stops at their
    /// group boundary and a later call (with a higher limit) returns them.
    /// This is what lets a read replica stop at the master's read horizon
    /// without ever dropping log data — durable bytes may run ahead of the
    /// horizon, and anything the cursor skipped would otherwise be lost
    /// forever. Pass `Lsn(u64::MAX)` to read everything available.
    ///
    /// If the cursor's PLog was truncated away *and* records past the
    /// cursor were truncated with it, this returns
    /// [`TaurusError::ReplicaBehindTruncation`]: the reader fell behind the
    /// log's retention window and must resync its state wholesale (it can
    /// not be fed the missing records). A cursor that had consumed
    /// everything the truncation removed just restarts at the first
    /// remaining PLog, skipping groups it already delivered.
    pub(crate) fn read_tail(
        &self,
        cursor: &mut TailCursor,
        limit: Lsn,
    ) -> Result<Vec<LogRecordGroup>> {
        let (entries, truncated_through) = {
            let st = self.state.lock();
            (st.entries.clone(), st.truncated_through)
        };
        let mut groups = Vec::new();
        // Locate the cursor's PLog; if it was truncated away, jump to the
        // first remaining entry — unless that loses records.
        let mut idx = match entries.iter().position(|e| Some(e.id) == cursor.plog) {
            Some(i) => i,
            None => {
                if cursor.plog.is_some() && cursor.consumed < truncated_through {
                    return Err(TaurusError::ReplicaBehindTruncation {
                        consumed: cursor.consumed,
                        truncated_through,
                    });
                }
                cursor.plog = None;
                cursor.offset = 0;
                0
            }
        };
        while idx < entries.len() {
            let entry = &entries[idx];
            cursor.plog = Some(entry.id);
            let data = self.cluster.read_from(entry.id, self.me, cursor.offset)?;
            let mut buf = data.clone();
            let mut deferred = false;
            while buf.has_remaining() {
                let before = buf.remaining();
                // One unit = one batch frame (a whole flush span). A frame
                // whose end is past the limit is
                // deferred *whole*: the consumer's horizon never lands
                // mid-span on the stream that carried the span (durable_lsn
                // advances span-by-span), and deferring at the frame
                // boundary keeps the cursor's byte offset frame-aligned.
                let frame = batch::decode_unit(&mut buf)?;
                if frame.end > limit {
                    deferred = true;
                    break;
                }
                cursor.offset += (before - buf.remaining()) as u64;
                for group in frame.groups {
                    if group.end_lsn() <= cursor.consumed {
                        // Already delivered: a group re-appended to a fresh
                        // PLog after a seal-and-switch, or a restart after
                        // truncation.
                        continue;
                    }
                    cursor.consumed = group.end_lsn();
                    groups.push(group);
                }
            }
            if deferred {
                break;
            }
            // Move to the next PLog only once this one is sealed and fully
            // consumed; the unsealed tail may still grow. The local seal
            // flag can lag (a replica's snapshot may predate the seal), so
            // fall back to asking the Log Store.
            if idx + 1 < entries.len()
                && (entry.sealed || self.cluster.is_sealed(entry.id, self.me))
            {
                idx += 1;
                cursor.offset = 0;
            } else {
                break;
            }
        }
        Ok(groups)
    }

    /// Snapshot of the current PLog list (for tests and introspection).
    pub fn entries(&self) -> Vec<PLogEntry> {
        self.state.lock().entries.clone()
    }

    /// Append-path metrics (latency, in-flight window, seal-switches).
    pub fn stats(&self) -> &LogStoreStats {
        &self.stats
    }
}

impl StreamState {
    fn new(
        entries: Vec<PLogEntry>,
        next_seq: u64,
        incarnation: u64,
        meta_plog: PLogId,
        meta_next_seq: u64,
        meta_dead: bool,
    ) -> StreamState {
        StreamState {
            entries,
            next_seq,
            incarnation,
            meta_plog,
            meta_next_seq,
            meta_bytes: 0,
            meta_seen: 0,
            meta_dead,
            tail_reserved_bytes: 0,
            next_ticket: 0,
            commit_ticket: 0,
            inflight: 0,
            reserve_fence: 0,
            meta_busy: false,
            truncated_through: Lsn::ZERO,
        }
    }
}

fn encode_snapshot(entries: &[PLogEntry], next_seq: u64, incarnation: u64) -> Bytes {
    let mut out = BytesMut::with_capacity(16 + entries.len() * 64);
    out.put_u32_le(SNAPSHOT_MAGIC);
    out.put_u64_le(next_seq);
    out.put_u64_le(incarnation);
    out.put_u32_le(entries.len() as u32);
    for e in entries {
        out.put_slice(&e.id.to_bytes());
        out.put_u64_le(e.first_lsn.0);
        out.put_u64_le(e.last_lsn.0);
        out.put_u8(e.sealed as u8);
        out.put_u64_le(e.bytes);
    }
    out.freeze()
}

/// Decodes the **last** complete snapshot in the metadata PLog contents.
fn decode_last_snapshot(mut raw: Bytes) -> Result<(Vec<PLogEntry>, u64, u64)> {
    let mut last: Option<(Vec<PLogEntry>, u64, u64)> = None;
    while raw.remaining() >= 24 {
        if raw.get_u32_le() != SNAPSHOT_MAGIC {
            return Err(TaurusError::Codec("bad metadata snapshot magic"));
        }
        let next_seq = raw.get_u64_le();
        let incarnation = raw.get_u64_le();
        let count = raw.get_u32_le() as usize;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            if raw.remaining() < 24 + 8 + 8 + 1 + 8 {
                return Err(TaurusError::Codec("metadata snapshot truncated"));
            }
            let mut idb = [0u8; 24];
            raw.copy_to_slice(&mut idb);
            entries.push(PLogEntry {
                id: PLogId::from_bytes(&idb),
                first_lsn: Lsn(raw.get_u64_le()),
                last_lsn: Lsn(raw.get_u64_le()),
                sealed: raw.get_u8() != 0,
                bytes: raw.get_u64_le(),
            });
        }
        last = Some((entries, next_seq, incarnation));
    }
    last.ok_or(TaurusError::Codec("metadata plog holds no snapshot"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::clock::ManualClock;
    use taurus_common::config::{NetworkProfile, StorageProfile};
    use taurus_common::page::PageType;
    use taurus_common::record::{LogRecord, RecordBody};
    use taurus_common::PageId;
    use taurus_fabric::{Fabric, NodeKind};

    fn setup(limit: usize) -> (LogStream, LogStoreCluster, NodeId, Vec<NodeId>) {
        setup_on(ManualClock::shared(), limit)
    }

    fn setup_on(
        clock: taurus_common::clock::ClockRef,
        limit: usize,
    ) -> (LogStream, LogStoreCluster, NodeId, Vec<NodeId>) {
        let fabric = Fabric::new(clock, NetworkProfile::instant(), 7);
        let me = fabric.add_node(NodeKind::Compute);
        let cluster = LogStoreCluster::new(fabric, 3, 1 << 20);
        let nodes = cluster.spawn_servers(6, StorageProfile::instant());
        let stream = create(&cluster, me, limit);
        (stream, cluster, me, nodes)
    }

    /// Stream 0 of database 1 on its own, as a one-stream log has it.
    fn create(cluster: &LogStoreCluster, me: NodeId, limit: usize) -> LogStream {
        let stats = Arc::new(LogStoreStats::default());
        LogStream::create_stream(cluster.clone(), DbId(1), me, limit, 4, 0, false, stats).unwrap()
    }

    /// Stream 0 of database 1 reopened from its metadata PLog.
    fn reopen(cluster: &LogStoreCluster, me: NodeId, limit: usize) -> LogStream {
        let stats = Arc::new(LogStoreStats::default());
        LogStream::open_stream(cluster.clone(), DbId(1), me, limit, 4, 0, false, stats).unwrap()
    }

    fn groups_from(s: &LogStream, from: Lsn) -> Vec<LogRecordGroup> {
        let frames = s.read_frames_from(from).unwrap().into_iter();
        frames
            .flat_map(|f| f.groups)
            .filter(|g| g.end_lsn() >= from)
            .collect()
    }

    fn group(lsns: std::ops::RangeInclusive<u64>) -> (Bytes, Lsn, Lsn) {
        let records: Vec<LogRecord> = lsns
            .clone()
            .map(|l| {
                LogRecord::new(
                    Lsn(l),
                    PageId(l),
                    RecordBody::Format {
                        ty: PageType::Leaf,
                        level: 0,
                    },
                )
            })
            .collect();
        let g = LogRecordGroup::new(DbId(1), records);
        let (first, last) = (Lsn(*lsns.start()), Lsn(*lsns.end()));
        (
            batch::encode_batch(&[g], Lsn(first.0 - 1), first, last),
            first,
            last,
        )
    }

    #[test]
    fn append_and_read_groups() {
        let (s, _, _, _) = setup(1 << 20);
        let (d1, f1, l1) = group(1..=3);
        let (d2, f2, l2) = group(4..=6);
        s.append_group(d1, f1, l1).unwrap();
        s.append_group(d2, f2, l2).unwrap();
        let groups = groups_from(&s, Lsn(1));
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].end_lsn(), Lsn(3));
        assert_eq!(groups[1].end_lsn(), Lsn(6));
        // Tail read skips fully-consumed groups.
        let tail = groups_from(&s, Lsn(5));
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].first_lsn(), Lsn(4));
        assert_eq!(s.stats().appends.get(), 2);
        assert_eq!(s.stats().appends_in_flight.get(), 0);
    }

    #[test]
    fn plogs_roll_over_at_size_limit() {
        let (s, _, _, _) = setup(256);
        let mut lsn = 1u64;
        for _ in 0..10 {
            let (d, f, l) = group(lsn..=lsn + 2);
            s.append_group(d, f, l).unwrap();
            lsn += 3;
        }
        let entries = s.entries();
        assert!(entries.len() > 1, "expected rollover, got {entries:?}");
        assert!(entries[..entries.len() - 1].iter().all(|e| e.sealed));
        // All records still readable across the PLog chain.
        let groups = groups_from(&s, Lsn(1));
        assert_eq!(groups.len(), 10);
    }

    #[test]
    fn rollover_waits_for_the_append_window_to_drain() {
        // Two reservations fill the first PLog. The third needs a fresh one
        // and must not get it while the first two are in flight: every
        // outstanding reservation sits on one PLog.
        let (d1, f1, l1) = group(1..=2);
        let (d2, f2, l2) = group(3..=4);
        let (d3, f3, l3) = group(5..=6);
        let (s, cluster, _, _) = setup(d1.len() + d2.len());
        let r1 = s.reserve_append(f1, l1, d1.len() as u64).unwrap();
        let r2 = s.reserve_append(f2, l2, d2.len() as u64).unwrap();
        assert_eq!(r1.plog, r2.plog, "both fit under the limit");
        let first_plog = r1.plog;
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            let s = &s;
            scope.spawn(move || {
                let r3 = s.reserve_append(f3, l3, d3.len() as u64).unwrap();
                tx.send(r3.plog).unwrap();
                s.complete_append(r3, d3).unwrap();
            });
            // However long we give it, the third reservation stays blocked.
            assert!(rx
                .recv_timeout(std::time::Duration::from_millis(50))
                .is_err());
            assert_eq!(s.entries().len(), 1, "rolled over an undrained PLog");
            s.complete_append(r1, d1).unwrap();
            assert!(rx.try_recv().is_err(), "one reservation is still in flight");
            s.complete_append(r2, d2).unwrap();
            let third_plog = rx.recv().unwrap();
            assert_ne!(third_plog, first_plog, "third reservation rolls over");
        });
        // The roll sealed the drained PLog, server-side too.
        let e = s.entries();
        let first = e.iter().find(|e| e.id == first_plog).unwrap();
        assert!(first.sealed);
        assert_eq!(first.last_lsn, Lsn(4));
        let replica = cluster.replicas_of(first_plog)[0];
        assert!(cluster
            .server_handle(replica)
            .unwrap()
            .is_sealed(first_plog)
            .unwrap());
        assert_eq!(s.stats().appends_in_flight.get(), 0);
        let groups = groups_from(&s, Lsn(1));
        assert_eq!(groups.len(), 3);
        assert_eq!(groups.last().unwrap().end_lsn(), Lsn(6));
    }

    #[test]
    fn failed_append_is_not_overtaken_by_a_successor_across_a_rollover() {
        // The interleaving behind the 1-in-6 `append_concurrency` failure
        // ("gap in the readable log"): A is in flight on a full PLog that
        // has lost a replica; B, reserved after it, needs a fresh PLog. If
        // B could roll over while A is in flight, B would land on the new
        // PLog and commit there, while A — failing on its commit turn —
        // is re-homed to a PLog *after* B's: B reads back before A.
        let (s, cluster, _, _) = setup(64);
        let (da, fa, la) = group(1..=3);
        let (db, fb, lb) = group(4..=5);
        let ra = s.reserve_append(fa, la, da.len() as u64).unwrap();
        assert!(da.len() >= 64, "A must fill its PLog");
        cluster.fabric.set_down(cluster.replicas_of(ra.plog)[0]);
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            let s = &s;
            scope.spawn(move || {
                let rb = s.reserve_append(fb, lb, db.len() as u64).unwrap();
                let _ = tx.send(());
                s.complete_append(rb, db).unwrap();
            });
            // Give B every chance to get ahead before A's write is issued.
            let _ = rx.recv_timeout(std::time::Duration::from_millis(50));
            s.complete_append(ra, da).unwrap();
        });
        assert_eq!(s.stats().seal_switches.get(), 1);
        let groups = groups_from(&s, Lsn(1));
        let firsts: Vec<Lsn> = groups.iter().map(|g| g.first_lsn()).collect();
        assert_eq!(firsts, vec![Lsn(1), Lsn(4)], "log reads back out of order");
        // And PLog order is LSN order in the stream's own bookkeeping.
        let ranges: Vec<(Lsn, Lsn)> = s
            .entries()
            .iter()
            .filter(|e| e.bytes > 0)
            .map(|e| (e.first_lsn, e.last_lsn))
            .collect();
        assert_eq!(ranges, vec![(Lsn(1), Lsn(3)), (Lsn(4), Lsn(5))]);
    }

    #[test]
    fn write_failure_seals_and_switches_plogs() {
        let (s, cluster, _, _) = setup(1 << 20);
        let (d, f, l) = group(1..=2);
        s.append_group(d, f, l).unwrap();
        let tail = s.entries().last().unwrap().clone();
        // Kill one replica of the tail PLog: next write must seal + switch.
        let victim = cluster.replicas_of(tail.id)[0];
        cluster.fabric.set_down(victim);
        let (d2, f2, l2) = group(3..=4);
        s.append_group(d2, f2, l2).unwrap();
        let entries = s.entries();
        assert!(entries.iter().any(|e| e.id == tail.id && e.sealed));
        assert_ne!(entries.last().unwrap().id, tail.id);
        assert_eq!(s.stats().seal_switches.get(), 1);
        // Bring the node back: data written before and after is all readable.
        cluster.fabric.set_up(victim);
        let groups = groups_from(&s, Lsn(1));
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn truncation_deletes_only_fully_persistent_plogs() {
        let (s, cluster, _, _) = setup(120);
        let mut lsn = 1u64;
        for _ in 0..6 {
            let (d, f, l) = group(lsn..=lsn + 1);
            s.append_group(d, f, l).unwrap();
            lsn += 2;
        }
        let before = s.entries().len();
        assert!(before >= 3);
        // Everything below LSN 7 is persistent: plogs ending before 7 go away.
        let deleted = s.truncate_below(Lsn(7)).unwrap();
        assert!(deleted >= 1);
        let after = s.entries();
        assert!(after
            .iter()
            .all(|e| !e.sealed || e.last_lsn >= Lsn(7) || !e.last_lsn.is_valid()));
        // Remaining log still serves the still-needed suffix.
        let groups = groups_from(&s, Lsn(7));
        assert!(groups.iter().all(|g| g.end_lsn() >= Lsn(7)));
        // Deleted plogs are gone from the cluster directory too.
        assert!(cluster.plog_count() >= after.len());
    }

    #[test]
    fn truncation_failure_leaves_stream_state_untouched() {
        let (s, cluster, _, nodes) = setup(120);
        let mut lsn = 1u64;
        for _ in 0..6 {
            let (d, f, l) = group(lsn..=lsn + 1);
            s.append_group(d, f, l).unwrap();
            lsn += 2;
        }
        let before = s.entries();
        // Every Log Store call fails: the survivor snapshot cannot be
        // persisted, so truncation must fail *without* dropping anything —
        // deleting the PLogs first would destroy data the on-disk metadata
        // still points at.
        for &n in &nodes {
            cluster.fabric.set_flaky(n, 1000);
        }
        assert!(s.truncate_below(Lsn(7)).is_err());
        for &n in &nodes {
            cluster.fabric.set_flaky(n, 0);
        }
        assert_eq!(
            s.entries(),
            before,
            "victims must survive a failed snapshot"
        );
        let groups = groups_from(&s, Lsn(1));
        assert_eq!(groups.len(), 6, "all data still readable after the failure");
        // Once the cluster heals, the same truncation goes through (the
        // metadata PLog was burned by the failed append and gets replaced).
        let deleted = s.truncate_below(Lsn(7)).unwrap();
        assert!(deleted >= 1);
        let suffix = groups_from(&s, Lsn(7));
        assert!(suffix.iter().all(|g| g.end_lsn() >= Lsn(7)));
        // And the stream still reopens from the (rolled) metadata PLog.
        let me = NodeId(1);
        let s2 = reopen(&cluster, me, 120);
        assert_eq!(
            s2.entries().iter().map(|e| e.id).collect::<Vec<_>>(),
            s.entries().iter().map(|e| e.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stream_reopens_from_metadata_after_crash() {
        let (s, cluster, me, _) = setup(256);
        let mut lsn = 1u64;
        for _ in 0..8 {
            let (d, f, l) = group(lsn..=lsn + 2);
            s.append_group(d, f, l).unwrap();
            lsn += 3;
        }
        let entries_before = s.entries();
        drop(s); // front-end crash: in-memory state is gone
        let s2 = reopen(&cluster, me, 256);
        let entries_after = s2.entries();
        // The snapshot is written on plog create/delete, so the reopened list
        // must contain every sealed plog and the tail may lag only in its
        // last_lsn bookkeeping.
        assert_eq!(
            entries_before.iter().map(|e| e.id).collect::<Vec<_>>(),
            entries_after.iter().map(|e| e.id).collect::<Vec<_>>()
        );
        // All groups are still readable after reopen.
        let groups = groups_from(&s2, Lsn(1));
        assert_eq!(groups.len(), 8);
    }

    #[test]
    fn tail_cursor_defers_groups_past_the_limit() {
        let (s, _, _, _) = setup(1 << 20);
        let (d1, f1, l1) = group(1..=4);
        let (d2, f2, l2) = group(5..=6);
        s.append_group(d1, f1, l1).unwrap();
        s.append_group(d2, f2, l2).unwrap();
        let mut cursor = TailCursor::default();
        // Limit mid-stream: only the first group is consumed; the second
        // must NOT be skipped — it stays in the plog for the next call.
        let first = s.read_tail(&mut cursor, Lsn(4)).unwrap();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].end_lsn(), Lsn(4));
        // Same limit again: nothing new, cursor does not move or re-read.
        assert!(s.read_tail(&mut cursor, Lsn(4)).unwrap().is_empty());
        // Raised limit: the deferred group is delivered exactly once.
        let second = s.read_tail(&mut cursor, Lsn(u64::MAX)).unwrap();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].end_lsn(), Lsn(6));
        assert!(s.read_tail(&mut cursor, Lsn(u64::MAX)).unwrap().is_empty());
    }

    #[test]
    fn tail_cursor_follows_rollover_across_sealed_plogs() {
        let (s, _, _, _) = setup(96);
        let mut lsn = 1u64;
        for _ in 0..6 {
            let (d, f, l) = group(lsn..=lsn + 1);
            s.append_group(d, f, l).unwrap();
            lsn += 2;
        }
        assert!(s.entries().len() > 1, "expected rollover");
        let mut cursor = TailCursor::default();
        let groups = s.read_tail(&mut cursor, Lsn(u64::MAX)).unwrap();
        assert_eq!(groups.len(), 6);
        assert_eq!(groups.last().unwrap().end_lsn(), Lsn(12));
        // Appends after the cursor caught up are picked up incrementally.
        let (d, f, l) = group(13..=14);
        s.append_group(d, f, l).unwrap();
        let more = s.read_tail(&mut cursor, Lsn(u64::MAX)).unwrap();
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].first_lsn(), Lsn(13));
    }

    #[test]
    fn tail_cursor_behind_truncation_errors_instead_of_losing_records() {
        let (s, _, _, _) = setup(120);
        let mut lsn = 1u64;
        for _ in 0..6 {
            let (d, f, l) = group(lsn..=lsn + 1);
            s.append_group(d, f, l).unwrap();
            lsn += 2;
        }
        // The reader consumes only the first group, then the master
        // truncates past it: the cursor's PLog — and records the reader
        // never saw — are gone.
        let mut cursor = TailCursor::default();
        let first = s.read_tail(&mut cursor, Lsn(2)).unwrap();
        assert_eq!(first.len(), 1);
        s.truncate_below(Lsn(7)).unwrap();
        let err = s.read_tail(&mut cursor, Lsn(u64::MAX)).unwrap_err();
        match err {
            TaurusError::ReplicaBehindTruncation {
                consumed,
                truncated_through,
            } => {
                assert_eq!(consumed, Lsn(2));
                assert!(truncated_through > consumed);
            }
            other => panic!("expected ReplicaBehindTruncation, got {other:?}"),
        }
        // The error is sticky until the reader resyncs (it must not be
        // silently fed a gap on retry).
        assert!(s.read_tail(&mut cursor, Lsn(u64::MAX)).is_err());
        // After a resync (fresh cursor at the new log start) reads work and
        // deliver exactly the surviving records, gap-free.
        let mut fresh = TailCursor::default();
        let rest = s.read_tail(&mut fresh, Lsn(u64::MAX)).unwrap();
        assert!(!rest.is_empty());
        for pair in rest.windows(2) {
            assert_eq!(pair[1].first_lsn(), pair[0].end_lsn().next());
        }
        assert_eq!(rest.last().unwrap().end_lsn(), Lsn(12));
    }

    #[test]
    fn tail_cursor_that_consumed_truncated_plogs_restarts_cleanly() {
        let (s, _, _, _) = setup(120);
        let mut lsn = 1u64;
        for _ in 0..6 {
            let (d, f, l) = group(lsn..=lsn + 1);
            s.append_group(d, f, l).unwrap();
            lsn += 2;
        }
        // The reader consumes everything, then truncation removes the old
        // PLogs: the cursor restarts at the surviving log without error and
        // without re-delivering groups it already consumed.
        let mut cursor = TailCursor::default();
        let all = s.read_tail(&mut cursor, Lsn(u64::MAX)).unwrap();
        assert_eq!(all.len(), 6);
        s.truncate_below(Lsn(7)).unwrap();
        assert!(s.read_tail(&mut cursor, Lsn(u64::MAX)).unwrap().is_empty());
        let (d, f, l) = group(13..=14);
        s.append_group(d, f, l).unwrap();
        let more = s.read_tail(&mut cursor, Lsn(u64::MAX)).unwrap();
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].first_lsn(), Lsn(13));
    }

    #[test]
    fn metadata_plog_rolls_and_old_one_is_deleted() {
        let (s, cluster, _, _) = setup(220);
        let meta_before = cluster.meta_plog_stream(DbId(1), 0).unwrap();
        // Each data-plog rollover appends a snapshot; force many rollovers so
        // the metadata plog crosses the limit and replaces itself.
        let mut lsn = 1u64;
        for _ in 0..30 {
            let (d, f, l) = group(lsn..=lsn + 1);
            s.append_group(d, f, l).unwrap();
            lsn += 2;
        }
        let meta_after = cluster.meta_plog_stream(DbId(1), 0).unwrap();
        assert_ne!(meta_before, meta_after, "metadata plog should have rolled");
        // Old metadata plog is deleted from the directory.
        assert!(cluster.replicas_of(meta_before).is_empty());
        // And the stream still reopens correctly from the new one.
        let s2 = reopen(&cluster, NodeId(1), 220);
        assert_eq!(s2.entries().len(), s.entries().len());
    }
    /// A manual clock that counts deadline waits: every RPC makes two (its
    /// request's arrival, its reply), a single `Fabric::call` included —
    /// which `DispatchSnapshot::inline_jobs` does not count.
    #[derive(Debug, Default)]
    struct WaitCounter {
        time: ManualClock,
        waits: std::sync::atomic::AtomicU64,
    }

    impl taurus_common::clock::Clock for WaitCounter {
        fn now_us(&self) -> u64 {
            self.time.now_us()
        }
        fn sleep_us(&self, us: u64) {
            self.time.sleep_us(us);
        }
        fn sleep_until(&self, deadline_us: u64) {
            self.waits
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.time.sleep_until(deadline_us);
        }
    }

    #[test]
    fn refresh_reads_only_what_is_new_and_still_sees_every_change() {
        // Small PLogs: a rollover every other group, a metadata roll every
        // few rollovers.
        let clock = Arc::new(WaitCounter::default());
        let (writer, cluster, me, _) = setup_on(clock.clone(), 220);
        let reader = reopen(&cluster, me, 220);
        let legs = || {
            let waits = clock.waits.load(std::sync::atomic::Ordering::Relaxed);
            waits / 2 + cluster.fabric.dispatch_snapshot().inline_jobs
        };
        let ids = |s: &LogStream| s.entries().iter().map(|e| e.id).collect::<Vec<_>>();
        let mut lsn = 1u64;
        let mut append = |n: usize| {
            for _ in 0..n {
                let (d, f, l) = group(lsn..=lsn + 1);
                writer.append_group(d, f, l).unwrap();
                lsn += 2;
            }
        };
        // No new snapshot: answered from the directory, no fabric leg runs.
        let quiet = |reader: &LogStream| {
            let before = legs();
            reader.refresh().unwrap();
            reader.refresh().unwrap();
            assert_eq!(legs(), before, "a refresh with nothing new went out");
        };
        quiet(&reader);

        // A rollover is seen, with one read of the new bytes.
        let plogs = writer.entries().len();
        while writer.entries().len() == plogs {
            append(1);
        }
        let before = legs();
        reader.refresh().unwrap();
        assert_eq!(legs(), before + 1);
        assert_eq!(ids(&reader), ids(&writer));
        quiet(&reader);

        // A truncation is seen, and remembered for stale tail cursors.
        append(4);
        reader.refresh().unwrap();
        let cut = writer.entries()[1].last_lsn;
        assert!(writer.truncate_below(cut.next()).unwrap() > 0);
        reader.refresh().unwrap();
        assert_eq!(ids(&reader), ids(&writer));
        assert!(reader.state.lock().truncated_through >= cut);
        quiet(&reader);

        // A metadata-PLog roll is seen: the new PLog is read from its start.
        let meta = cluster.meta_plog_stream(DbId(1), 0).unwrap();
        while cluster.meta_plog_stream(DbId(1), 0).unwrap() == meta {
            append(1);
        }
        reader.refresh().unwrap();
        assert_eq!(ids(&reader), ids(&writer));
        assert_eq!(reader.state.lock().meta_plog, writer.state.lock().meta_plog);
        quiet(&reader);
        // ...and so is what is appended to it afterwards.
        let plogs = writer.entries().len();
        while writer.entries().len() == plogs {
            append(1);
        }
        reader.refresh().unwrap();
        assert_eq!(ids(&reader), ids(&writer));
    }
}
