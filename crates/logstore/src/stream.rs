//! One stream of a database's log: a chain of data PLogs and the appends
//! that fill it.
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
//! # One append at a time
//!
//! A stream takes its appends one at a time, in turn order
//! ([`LogStream::append`]): the turn spans the whole append — rolling the
//! tail when it is sealed or full, the one 3/3 write
//! ([`LogStoreCluster::append`], whose three replica writes run in
//! parallel), and the bookkeeping. The log's parallelism is its N streams,
//! not overlapping appends on one PLog. So a PLog has one writer with at
//! most one append in flight, every replica applies appends in the order
//! they arrive, and byte order on a PLog is LSN order. A failed write
//! commits nothing: the tail is marked sealed, a fresh PLog is rolled and
//! the write goes there, still inside the turn — no later append can land
//! ahead of it, so PLog order is LSN order too.
//!
//! Frames in one PLog carry increasing LSN ranges and each is one append,
//! so a reopen, a read from an LSN and a recovery cut read frame headers
//! ([`LogStoreCluster::read_append`]), not whole PLogs.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use taurus_common::metrics::LogStoreStats;
use taurus_common::sync::Sequencer;
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

#[derive(Debug, Default)]
struct StreamState {
    entries: Vec<PLogEntry>,
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
    /// Part of a multi-stream group: flush spans are distributed round-robin
    /// across sibling streams, so successive appends to one PLog carry
    /// monotone but *not* contiguous LSN ranges.
    member: bool,
    /// The stream's turnstile: append `t` runs, whole, after append `t - 1`.
    turn: Sequencer,
    state: Mutex<StreamState>,
    /// Shared across every stream of one writer so aggregate append metrics
    /// (and the bench harness's `.clear()`/`.snapshot()`) see all streams.
    stats: Arc<LogStoreStats>,
}

impl LogStream {
    /// Stream `index` of the log `manifest` describes, over `chain`, the
    /// PLogs the manifest lists for it. Appends made after the manifest's
    /// snapshot show in the cluster's committed lengths: their LSN range is
    /// read from the PLog's first and last frame headers. A PLog whose last
    /// append started and never committed (the writer crashed mid-append,
    /// or the append failed on a replica that came back unsealed) can never
    /// accept a write again, and a seal recorded server-side may postdate
    /// the snapshot: both are marked sealed.
    pub(crate) fn open(
        manifest: Arc<Manifest>,
        index: usize,
        mut chain: Vec<PLogEntry>,
        member: bool,
        stats: Arc<LogStoreStats>,
    ) -> Result<LogStream> {
        let (cluster, me) = (manifest.cluster.clone(), manifest.me);
        for e in chain.iter_mut() {
            let committed = cluster.committed_len(e.id);
            if committed > e.bytes {
                let last = cluster.committed_appends(e.id).saturating_sub(1);
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
        Ok(LogStream {
            cluster,
            me,
            plog_size_limit: manifest.plog_size_limit,
            manifest,
            index,
            member,
            turn: Sequencer::new(),
            state: Mutex::new(StreamState {
                entries: chain,
                truncated_through: Lsn::ZERO,
            }),
            stats,
        })
    }

    /// Gives a stream with no PLog its first one.
    pub(crate) fn start(&self) -> Result<()> {
        self.roll(|st| st.entries.is_empty())
    }

    fn tail_open(&self, st: &StreamState) -> bool {
        let open = |e: &PLogEntry| !e.sealed && e.bytes < self.plog_size_limit as u64;
        st.entries.last().is_some_and(open)
    }

    /// Appends one encoded frame covering `[first_lsn, last_lsn]` durably
    /// (3/3) as the stream's append `turn`. Turns are dense from 0 and
    /// follow LSN order; append `turn` waits until every earlier turn has
    /// returned, so concurrent callers queue here and the stream has one
    /// append in flight. Every turn must be appended exactly once.
    ///
    /// Inside the turn: rolls the tail PLog first when it is sealed or past
    /// the size limit, then writes. On write failure the tail is sealed (a
    /// failed write is never retried to the same PLog — paper §3.3), a
    /// fresh PLog is rolled and the write goes there. Gives up after
    /// [`MAX_PLOG_SWITCHES`] switches, or when the cluster cannot host a
    /// new PLog at all.
    pub fn append(&self, turn: u64, data: Bytes, first_lsn: Lsn, last_lsn: Lsn) -> Result<()> {
        let _turn = self.turn.ticket_guard(turn);
        self.stats.appends_in_flight.add(1);
        let appended = self.append_in_turn(data, first_lsn, last_lsn);
        self.stats.appends_in_flight.sub(1);
        appended
    }

    fn append_in_turn(&self, data: Bytes, first_lsn: Lsn, last_lsn: Lsn) -> Result<()> {
        let len = data.len() as u64;
        let mut switches = 0u32;
        loop {
            self.roll(|st| !self.tail_open(st))?;
            let plog = {
                let st = self.state.lock();
                let tail = st.entries.last();
                tail.ok_or_else(|| TaurusError::Internal("log stream has no tail PLog".into()))?
                    .id
            };
            let start = self.cluster.fabric.clock.now_us();
            let outcome = self.cluster.append(plog, self.me, data.clone());
            let elapsed = self.cluster.fabric.clock.now_us().saturating_sub(start);
            self.stats.append_latency.record(elapsed);

            let mut st = self.state.lock();
            let Some(entry) = st.entries.iter_mut().find(|e| e.id == plog) else {
                return Err(TaurusError::Internal(format!(
                    "{plog} left the stream mid-append"
                )));
            };
            if outcome.is_ok() {
                let committed = self.cluster.committed_len(plog);
                taurus_common::invariant!(
                    "plog-append-offset",
                    committed == entry.bytes + len,
                    "commit of [{}, {}] ({} bytes) on {} holding {} bytes, committed {}",
                    first_lsn,
                    last_lsn,
                    len,
                    plog,
                    entry.bytes,
                    committed
                );
                // Log contiguity: successive appends to one PLog carry
                // strictly increasing LSN ranges — *gap-free* for a
                // standalone stream; a member of a multi-stream group only
                // guarantees monotonicity, because the interleaved spans
                // live on sibling streams.
                let continues = if self.member {
                    first_lsn > entry.last_lsn
                } else {
                    first_lsn == entry.last_lsn.next()
                };
                taurus_common::invariant!(
                    "plog-lsn-contiguous",
                    !entry.last_lsn.is_valid() || continues,
                    "append [{}..{}] does not continue tail {} of {}",
                    first_lsn,
                    last_lsn,
                    entry.last_lsn,
                    entry.id
                );
                if !entry.first_lsn.is_valid() {
                    entry.first_lsn = first_lsn;
                }
                entry.last_lsn = last_lsn;
                entry.bytes += len;
                drop(st);
                self.stats.appends.inc();
                return Ok(());
            }
            // Seal-and-switch: the cluster sealed every reachable replica;
            // the next pass rolls a fresh tail and writes there.
            entry.sealed = true;
            drop(st);
            switches += 1;
            self.stats.seal_switches.inc();
            if switches > MAX_PLOG_SWITCHES {
                return Err(TaurusError::Internal(
                    "log append failed after repeated PLog switches".into(),
                ));
            }
        }
    }

    /// Rolls a fresh tail PLog if `needed` still holds once this thread has
    /// the manifest's claim: seals the old tail (a failed append marked it
    /// sealed already), creates the next PLog, and publishes the chain with
    /// it before installing it — so no append can land on a PLog the
    /// manifest does not list.
    fn roll(&self, needed: impl Fn(&StreamState) -> bool) -> Result<()> {
        if !needed(&self.state.lock()) {
            return Ok(());
        }
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
        self.state.lock().entries.push(entry);
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
            let n = self.cluster.committed_appends(e.id);
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
            let n = self.cluster.committed_appends(e.id);
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

    /// Append-path metrics (latency, appends in their turn, seal-switches).
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
    use crate::log::tests::{cluster_on, group, one_stream, WaitCounter};
    use crate::Log;
    use std::ops::RangeInclusive;
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

    /// Appends `lsns` as the stream's append `turn`.
    fn push(s: &LogStream, turn: u64, lsns: RangeInclusive<u64>) {
        let (data, first, last) = group(lsns);
        s.append(turn, data, first, last).unwrap();
    }

    /// Appends `n` frames of `width` LSNs each, from LSN 1.
    fn push_n(s: &LogStream, n: u64, width: u64) {
        for t in 0..n {
            push(s, t, t * width + 1..=(t + 1) * width);
        }
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
        push(&s, 0, 1..=3);
        push(&s, 1, 4..=6);
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
        let (s, cluster, _, _) = setup(256);
        push_n(&s, 10, 3);
        let entries = s.entries();
        assert!(entries.len() > 1, "expected rollover, got {entries:?}");
        assert!(entries[..entries.len() - 1].iter().all(|e| e.sealed));
        // The roll sealed the full PLog server-side too.
        let replica = cluster.replicas_of(entries[0].id)[0];
        let server = cluster.server_handle(replica).unwrap();
        assert!(server.is_sealed(entries[0].id).unwrap());
        // All records still readable across the PLog chain.
        let groups = groups_from(&s, Lsn(1));
        assert_eq!(groups.len(), 10);
    }

    #[test]
    fn write_failure_seals_and_switches_plogs() {
        let (s, cluster, _, _) = setup(1 << 20);
        push(&s, 0, 1..=2);
        let tail = s.entries().last().unwrap().clone();
        // Kill one replica of the tail PLog: next write must seal + switch.
        let victim = cluster.replicas_of(tail.id)[0];
        cluster.fabric.set_down(victim);
        push(&s, 1, 3..=4);
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
    fn a_plog_whose_append_never_committed_is_refused_at_once_and_sealed_at_reopen() {
        let clock = Arc::new(WaitCounter::default());
        let (cluster, me, _) = cluster_on(clock.clone());
        let s = create(&cluster, me, 1 << 20);
        push(&s, 0, 1..=2);
        let tail = s.entries()[0].id;
        // A writer's last append before a crash fails on a downed replica:
        // the stream never learns of it, and that replica, missing the
        // seal, comes back writable.
        let victim = cluster.replicas_of(tail)[0];
        cluster.fabric.set_down(victim);
        let (data, _, _) = group(3..=4);
        assert!(cluster.append(tail, me, data.clone()).is_err());
        cluster.fabric.set_up(victim);
        drop(s);
        let server = cluster.server_handle(victim).unwrap();
        assert!(!server.is_sealed(tail).unwrap());
        assert!(cluster.has_sequence_gap(tail));
        // The directory refuses the PLog before any Log Store is asked.
        let waits = clock.waits();
        let refused = cluster.append(tail, me, data);
        assert!(matches!(refused, Err(TaurusError::PLogSealed(_))));
        assert_eq!(clock.waits(), waits, "a refusal made a round trip");
        // A reopen seals it, though the first replica asked says it is open.
        assert!(!cluster.is_sealed(tail, me));
        let s2 = reopen(&cluster, me, 1 << 20);
        assert!(s2.entries()[0].sealed);
        assert_eq!(
            groups_from(&s2, Lsn(1)).len(),
            1,
            "the failed append stays unread"
        );
    }

    #[test]
    fn truncation_deletes_only_fully_persistent_plogs() {
        let (s, cluster, _, _) = setup(120);
        push_n(&s, 6, 2);
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
        push_n(&s, 6, 2);
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
        push_n(&s, 8, 3);
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
