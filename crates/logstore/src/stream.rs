//! One stream of a database's log: a chain of data PLogs and the append
//! pipeline that fills it.
//!
//! A database's log is N streams, owned by [`crate::Log`], and one
//! manifest (the metadata PLog that lists every stream's chain, paper
//! §3.3; see `manifest.rs`). A [`LogStream`] adds:
//!
//! * PLog rollover at the size limit (64 MB in production, paper §4.1);
//! * seal-and-switch on write failure — a failed 3/3 write is never retried
//!   against the same PLog; a fresh PLog on healthy nodes takes over;
//! * LSN-range tracking per PLog, which drives log truncation (delete every
//!   PLog whose records are all below the database persistent LSN);
//! * the recovery cut ([`LogStream::discard_after`]).
//!
//! Every change to the chain — a rollover, a truncation, a recovery cut —
//! is made under the manifest's claim and published to it before the
//! stream adopts it.
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
//!
//! Frames in one PLog carry increasing LSN ranges and each is one append,
//! so a reopen, a read from an LSN and a recovery cut read frame headers
//! ([`LogStoreCluster::read_append`]), not whole PLogs.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use taurus_common::metrics::LogStoreStats;
use taurus_common::{Lsn, NodeId, PLogId, Result, TaurusError};

use crate::batch::{self, BatchFrame};
use crate::cluster::LogStoreCluster;
use crate::manifest::Manifest;

/// Give up after this many seal-and-switch cycles within one append: each
/// failure burns one PLog and picks fresh nodes, so repeated failure means
/// the cluster is really out of healthy capacity.
const MAX_PLOG_SWITCHES: u32 = 4;

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

#[derive(Debug, Default)]
struct StreamState {
    entries: Vec<PLogEntry>,
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
    /// Highest last-LSN of any PLog deleted by truncation. Tail readers
    /// whose cursor falls behind this have lost data and must resync.
    truncated_through: Lsn,
}

/// Writer/reader of one stream of a database's log.
pub struct LogStream {
    cluster: LogStoreCluster,
    /// Compute node on whose behalf RPCs are issued.
    me: NodeId,
    /// The log's manifest, and this stream's place in it.
    manifest: Arc<Manifest>,
    index: usize,
    plog_size_limit: usize,
    /// Max reservations outstanding at once (the append pipeline depth).
    append_window: usize,
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

impl LogStream {
    /// Stream `index` of the log `manifest` describes, over `chain`, the
    /// PLogs the manifest lists for it. Appends made after the manifest's
    /// snapshot show in the cluster's committed lengths: their LSN range is
    /// read from the PLog's first and last frame headers. A PLog with a
    /// reserved-but-never-committed sequence (the writer crashed
    /// mid-append, or a failed append left a hole) can never accept a
    /// visible write again, and a seal recorded server-side may postdate
    /// the snapshot: both are marked sealed.
    pub(crate) fn open(
        manifest: Arc<Manifest>,
        index: usize,
        mut chain: Vec<PLogEntry>,
        append_window: usize,
        member: bool,
        stats: Arc<LogStoreStats>,
    ) -> Result<LogStream> {
        let (cluster, me) = (manifest.cluster.clone(), manifest.me);
        for e in chain.iter_mut() {
            let committed = cluster.committed_len(e.id);
            if committed > e.bytes {
                let last = cluster.committed_seq(e.id).saturating_sub(1);
                if !e.first_lsn.is_valid() {
                    e.first_lsn = probe(&cluster, me, e.id, 0)?.1;
                }
                e.last_lsn = probe(&cluster, me, e.id, last)?.2;
                e.bytes = committed;
            }
            if !e.sealed && (cluster.has_sequence_gap(e.id) || cluster.is_sealed(e.id, me)) {
                e.sealed = true;
            }
        }
        let state = StreamState {
            tail_reserved_bytes: chain.last().map_or(0, |e| e.bytes),
            entries: chain,
            ..StreamState::default()
        };
        Ok(LogStream {
            cluster,
            me,
            plog_size_limit: manifest.plog_size_limit,
            manifest,
            index,
            append_window,
            member,
            state: Mutex::new(state),
            cond: Condvar::new(),
            stats,
        })
    }

    /// Gives a stream with no PLog its first one.
    pub(crate) fn start(&self) -> Result<()> {
        self.roll(|st| st.entries.is_empty())
    }

    fn tail_open(&self, st: &StreamState) -> bool {
        st.entries.last().is_some_and(|e| !e.sealed)
            && st.tail_reserved_bytes < self.plog_size_limit as u64
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
            if self.tail_open(&st) {
                break;
            }
            // Roll only once nothing is in flight on the old tail: every
            // outstanding reservation must sit on one PLog, or a failed
            // write could be re-homed *behind* a successor that already
            // landed on the next PLog (see the module docs).
            if st.inflight > 0 {
                self.cond.wait(&mut st);
                continue;
            }
            drop(st);
            self.roll(|st| !self.tail_open(st) && st.inflight == 0)?;
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

            // Roll a fresh PLog (we just sealed the tail) and re-reserve.
            let rolled = self.roll(|st| st.entries.last().is_none_or(|e| e.sealed));
            let mut st = self.state.lock();
            let tail = rolled.and_then(|()| {
                let tail = st.entries.last().map(|e| e.id);
                let tail = tail.ok_or_else(|| TaurusError::Internal("no tail PLog".into()))?;
                Ok((tail, self.cluster.reserve_seq(tail)?))
            });
            match tail {
                Ok((plog, seq)) => (res.plog, res.seq) = (plog, seq),
                Err(e) => {
                    self.finish_turn(&mut st);
                    return Err(e);
                }
            }
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

    /// Rolls a fresh tail PLog if `needed` still holds once this thread has
    /// the manifest's claim: seals the old tail (`reserve_append` drained
    /// it first; a failure turn sealed it already), creates the next PLog,
    /// and publishes the chain with it before installing it — so no
    /// reservation can land on a PLog the manifest does not list.
    fn roll(&self, needed: impl Fn(&StreamState) -> bool) -> Result<()> {
        let claim = self.manifest.claim();
        let mut st = self.state.lock();
        if !needed(&st) {
            return Ok(());
        }
        let old = st.entries.last_mut().filter(|tail| !tail.sealed);
        let seal_now = old.map(|tail| {
            tail.sealed = true;
            tail.id
        });
        let mut chain = st.entries.clone();
        drop(st);
        if let Some(id) = seal_now {
            self.cluster.seal(id, self.me);
        }
        let id = self.manifest.mint(&claim);
        self.cluster.create_plog(id, self.me)?;
        let entry = PLogEntry {
            id,
            first_lsn: Lsn::ZERO,
            last_lsn: Lsn::ZERO,
            sealed: false,
            bytes: 0,
        };
        chain.push(entry.clone());
        self.manifest.publish(&claim, self.index, chain)?;
        let mut st = self.state.lock();
        st.entries.push(entry);
        st.tail_reserved_bytes = 0;
        Ok(())
    }

    /// The first of a PLog's `n` frames for which `past(first, end)` holds
    /// (it is false on a prefix of the frames and true after), or `n`: a
    /// bisection over frame headers, O(log n) header-sized reads.
    fn seek(&self, id: PLogId, n: u64, past: impl Fn(Lsn, Lsn) -> bool) -> Result<u64> {
        let (mut lo, mut hi) = (0, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let (_, first, end) = probe(&self.cluster, self.me, id, mid)?;
            if past(first, end) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Ok(lo)
    }

    /// Reads every flush frame whose end LSN is `>= from_lsn`, in log order,
    /// preserving the frame headers (`prev_end` chain links) that
    /// [`crate::Log`] merges and chain-checks across sibling streams. A PLog
    /// that may hold frames below `from_lsn` is entered at the first frame
    /// ending at or after it.
    pub(crate) fn read_frames_from(&self, from_lsn: Lsn) -> Result<Vec<BatchFrame>> {
        let mut frames = Vec::new();
        for e in self.entries() {
            // Skip PLogs that end strictly before the requested LSN. An
            // unsealed tail or an entry with unknown range is searched.
            if e.sealed && e.last_lsn.is_valid() && e.last_lsn < from_lsn {
                continue;
            }
            let n = self.cluster.committed_seq(e.id);
            let k = if e.first_lsn.is_valid() && e.first_lsn >= from_lsn {
                0
            } else {
                self.seek(e.id, n, |_, end| end >= from_lsn)?
            };
            if k < n {
                let (_, raw) = self.cluster.read_append(e.id, self.me, k, u64::MAX)?;
                let read = batch::decode_frames(raw)?.into_iter();
                frames.extend(read.filter(|f| f.end >= from_lsn));
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
    /// frame boundary (found by bisecting frame headers: the orphans are a
    /// suffix) and sealed, so subsequent appends (which re-mint the same
    /// LSNs) land on fresh PLogs and no reader ever sees both copies.
    ///
    /// Returns the number of frames discarded. Must not race appends to
    /// this stream: [`crate::Log::recover`] calls it before the log takes
    /// any writes.
    pub fn discard_after(&self, cut: Lsn) -> Result<usize> {
        let claim = self.manifest.claim();
        let affected: Vec<_> = self
            .entries()
            .into_iter()
            .filter(|e| e.last_lsn > cut)
            .collect();
        let mut discarded = 0;
        for e in &affected {
            let n = self.cluster.committed_seq(e.id);
            let k = self.seek(e.id, n, |first, _| first > cut)?;
            let kept_last = match k {
                0 => Lsn::ZERO,
                k => probe(&self.cluster, self.me, e.id, k - 1)?.2,
            };
            // A frame straddling the cut would mean the durable prefix ended
            // mid-span, which the span commit rule makes impossible.
            taurus_common::invariant!(
                "log-cut-on-frame-boundary",
                kept_last <= cut && k < n,
                "recovery cut {} splits a frame of {} (kept frames end at {})",
                cut,
                e.id,
                kept_last
            );
            if k < n {
                let kept_bytes = probe(&self.cluster, self.me, e.id, k)?.0;
                self.cluster
                    .truncate_plog_to(e.id, self.me, kept_bytes, k)?;
                discarded += (n - k) as usize;
            }
            self.cluster.seal(e.id, self.me);
            let mut st = self.state.lock();
            if let Some(entry) = st.entries.iter_mut().find(|x| x.id == e.id) {
                entry.bytes = self.cluster.committed_len(e.id);
                entry.last_lsn = kept_last;
                if k == 0 {
                    entry.first_lsn = Lsn::ZERO;
                }
                entry.sealed = true;
            }
        }
        if !affected.is_empty() {
            // Persist the corrected PLog list so a later reopen does not
            // resurrect the orphan bookkeeping from a stale snapshot.
            self.manifest.publish(&claim, self.index, self.entries())?;
        }
        // Every affected PLog is now sealed; the next reservation rolls a
        // fresh one, so stale tail byte accounting cannot be reused.
        let mut st = self.state.lock();
        st.tail_reserved_bytes = st.entries.last().map_or(0, |e| e.bytes);
        Ok(discarded)
    }

    /// Deletes every sealed data PLog whose records all fall below
    /// `persistent_lsn` (paper Fig. 3 step 8), plus empty sealed PLogs left
    /// behind by seal-and-switch. The surviving PLog list is published to
    /// the manifest **before** anything is dropped from memory or the
    /// cluster, so a failed snapshot write leaves the stream (and the data)
    /// untouched. Returns the number of PLogs deleted.
    pub fn truncate_below(&self, persistent_lsn: Lsn) -> Result<usize> {
        let doomed = |st: &StreamState| -> Vec<PLogId> {
            let last = st.entries.len().saturating_sub(1);
            let below = |e: &PLogEntry| e.last_lsn.is_valid() && e.last_lsn < persistent_lsn;
            let empty = |e: &PLogEntry| !e.last_lsn.is_valid() && e.bytes == 0;
            let victim =
                |(i, e): &(usize, &PLogEntry)| e.sealed && (below(e) || (empty(e) && *i != last));
            let victims = st.entries.iter().enumerate().filter(victim);
            victims.map(|(_, e)| e.id).collect()
        };
        let nothing = doomed(&self.state.lock()).is_empty();
        if nothing {
            return Ok(0);
        }
        let claim = self.manifest.claim();
        let st = self.state.lock();
        let victims = doomed(&st);
        let (gone, kept): (Vec<PLogEntry>, Vec<PLogEntry>) = st
            .entries
            .iter()
            .cloned()
            .partition(|e| victims.contains(&e.id));
        drop(st);
        if victims.is_empty() {
            return Ok(0);
        }
        self.manifest.publish(&claim, self.index, kept)?;
        let mut st = self.state.lock();
        for v in &gone {
            st.truncated_through = st.truncated_through.max(v.last_lsn);
        }
        st.entries.retain(|e| !victims.contains(&e.id));
        drop(st);
        drop(claim);
        for id in &victims {
            self.cluster.delete_plog(*id, self.me);
        }
        Ok(victims.len())
    }

    /// A reader adopts the chain the writer last published. PLogs that
    /// vanished from it were truncated by the writer: remember how far, so
    /// stale tail cursors are detected.
    pub(crate) fn adopt(&self, chain: Vec<PLogEntry>) {
        let mut st = self.state.lock();
        let gone = st
            .entries
            .iter()
            .filter(|old| !chain.iter().any(|e| e.id == old.id));
        let through = gone.map(|e| e.last_lsn).max().unwrap_or(Lsn::ZERO);
        st.truncated_through = st.truncated_through.max(through);
        st.entries = chain;
    }

    /// Snapshot of the current PLog list (for tests and introspection).
    pub fn entries(&self) -> Vec<PLogEntry> {
        self.state.lock().entries.clone()
    }

    /// The PLog list, and the highest LSN truncation deleted.
    pub(crate) fn chain(&self) -> (Vec<PLogEntry>, Lsn) {
        let st = self.state.lock();
        (st.entries.clone(), st.truncated_through)
    }

    /// Append-path metrics (latency, in-flight window, seal-switches).
    pub fn stats(&self) -> &LogStoreStats {
        &self.stats
    }
}

/// Frame `k` of PLog `id`, from a header-sized read: its byte offset,
/// first LSN and end LSN.
pub(crate) fn probe(
    cluster: &LogStoreCluster,
    me: NodeId,
    id: PLogId,
    k: u64,
) -> Result<(u64, Lsn, Lsn)> {
    let (offset, raw) = cluster.read_append(id, me, k, batch::HEADER_LEN as u64)?;
    let (first, end) = batch::frame_range(&raw)?;
    Ok((offset, first, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::tests::{cluster_on, group, one_stream};
    use crate::Log;
    use taurus_common::clock::ManualClock;
    use taurus_common::{DbId, LogRecordGroup};

    fn setup(limit: usize) -> (LogStream, LogStoreCluster, NodeId, Vec<NodeId>) {
        let (cluster, me, nodes) = cluster_on(ManualClock::shared());
        let stream = create(&cluster, me, limit);
        (stream, cluster, me, nodes)
    }

    /// The stream of database 1's new one-stream log.
    fn create(cluster: &LogStoreCluster, me: NodeId, limit: usize) -> LogStream {
        let log = Log::create(&one_stream(limit), cluster.clone(), DbId(1), me);
        log.unwrap().into_streams().remove(0)
    }

    /// The stream of database 1's one-stream log, reopened from its
    /// manifest.
    fn reopen(cluster: &LogStoreCluster, me: NodeId, limit: usize) -> LogStream {
        let log = Log::open(&one_stream(limit), cluster.clone(), DbId(1), me, false);
        log.unwrap().into_streams().remove(0)
    }

    fn groups_from(s: &LogStream, from: Lsn) -> Vec<LogRecordGroup> {
        let frames = s.read_frames_from(from).unwrap().into_iter();
        frames
            .flat_map(|f| f.groups)
            .filter(|g| g.end_lsn() >= from)
            .collect()
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
}
