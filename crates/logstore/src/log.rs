//! A database's log: `cfg.log_streams` [`LogStream`]s and one manifest
//! behind one type.
//!
//! "The database log is stored in an ordered collection of PLogs, called
//! data PLogs. The list of these PLogs is recorded in a separate metadata
//! PLog... When a new data PLog is created or removed, all metadata is
//! written in one atomic write to the metadata PLog. When a metadata PLog
//! reaches its size limit, a new metadata PLog is created, the latest
//! metadata is written there, and the old metadata PLog is deleted."
//! (paper §3.3)
//!
//! [`Log`] is that log. Parallel logging (Xia & Pavlo's LSN-vector design)
//! splits its data PLogs into N streams so flush spans overlap their 3/3
//! appends — one span in flight per stream, so the streams are the log's
//! parallelism; the metadata PLog, the manifest, stays one and lists every
//! stream's PLogs. [`Log`] owns everything that exists only because there
//! are N streams, so the SAL and read replicas never name one: span `t`
//! (tickets are dense, in LSN order) goes to stream `t % n` as that
//! stream's append `t / n`, one batch frame whose `prev_end` is the chain
//! link recovery walks; the LSN vector; the manifest; the merge of the
//! streams in LSN order; the recovery hole cut; the merged tail. Which
//! spans are *visible* stays with the writer.

use std::sync::Arc;

use bytes::Buf;

use taurus_common::lsn::LsnWatermark;
use taurus_common::metrics::LogStoreStats;
use taurus_common::{DbId, LogRecordGroup, Lsn, NodeId, PLogId, Result, TaurusConfig, TaurusError};

use crate::batch::{self, BatchFrame};
use crate::cluster::LogStoreCluster;
use crate::manifest::Manifest;
use crate::stream::{LogStream, PLogEntry};

/// One database's log over the Log Store cluster.
pub struct Log {
    streams: Vec<LogStream>,
    /// The metadata PLog every stream publishes its chain to.
    manifest: Arc<Manifest>,
    /// The LSN vector: per stream, the end of the newest span durable
    /// there, whether or not earlier spans on other streams have landed.
    /// The SAL's prefix walk asserts it covers every span it commits.
    vector: Vec<LsnWatermark>,
    /// Append-path metrics, shared by every stream.
    stats: Arc<LogStoreStats>,
}

/// Position of an incremental tail reader in one stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct TailCursor {
    plog: Option<PLogId>,
    offset: u64,
    /// End LSN of the last group delivered through this cursor. Detects
    /// data loss when the cursor's PLog is truncated away (the log moved on
    /// past records this reader never saw) and suppresses duplicates when
    /// a group was re-appended to a fresh PLog after a seal-and-switch.
    consumed: Lsn,
}

/// Where a reader stands in every stream (see [`Log::tail`]). The default
/// starts at the oldest PLog still in the log.
#[derive(Debug, Default)]
pub struct LogCursor(Vec<TailCursor>);

impl Log {
    /// Creates a brand-new database's log: its manifest, and the first PLog
    /// of every stream.
    pub fn create(
        cfg: &TaurusConfig,
        cluster: LogStoreCluster,
        db: DbId,
        me: NodeId,
    ) -> Result<Log> {
        Self::attach(cfg, cluster, db, me, true, true)
    }

    /// Reattaches to a database's log at its manifest's newest snapshot.
    /// The `writer` (a recovering master) gives a stream with no PLog —
    /// the database ran with fewer streams, or one never wrote and was
    /// truncated away — its first; a reader never creates a PLog.
    pub fn open(
        cfg: &TaurusConfig,
        cluster: LogStoreCluster,
        db: DbId,
        me: NodeId,
        writer: bool,
    ) -> Result<Log> {
        Self::attach(cfg, cluster, db, me, false, writer)
    }

    fn attach(
        cfg: &TaurusConfig,
        cluster: LogStoreCluster,
        db: DbId,
        me: NodeId,
        create: bool,
        writer: bool,
    ) -> Result<Log> {
        let (limit, n) = (cfg.plog_size_limit, cfg.log_streams);
        let manifest = Arc::new(Manifest::open(cluster, db, me, limit, n, create)?);
        let chains = manifest.chains();
        let n = chains.len();
        let stats = Arc::new(LogStoreStats::default());
        let mut streams = Vec::with_capacity(n);
        for (i, chain) in chains.into_iter().enumerate() {
            let (manifest, stats) = (Arc::clone(&manifest), Arc::clone(&stats));
            let stream = LogStream::open(manifest, i, chain, n > 1, stats)?;
            if writer {
                stream.start()?;
            }
            streams.push(stream);
        }
        Ok(Log {
            streams,
            manifest,
            vector: (0..n).map(|_| LsnWatermark::new(Lsn::ZERO)).collect(),
            stats,
        })
    }

    /// How many spans can be in flight without one queueing behind another
    /// on its stream.
    pub fn streams(&self) -> usize {
        self.streams.len()
    }

    fn stream_of(&self, ticket: u64) -> usize {
        (ticket % self.streams.len() as u64) as usize
    }

    /// Appends span `ticket` — `groups`, covering `[first, end]`, the span
    /// before it ending at `prev_end` — as one durable (3/3) frame on its
    /// stream. Earlier spans on other streams may still be in flight when
    /// it returns. Every ticket must be appended exactly once: a stream's
    /// later spans wait until its earlier ones have returned.
    pub fn append(
        &self,
        ticket: u64,
        prev_end: Lsn,
        first: Lsn,
        end: Lsn,
        groups: &[LogRecordGroup],
    ) -> Result<()> {
        let k = self.stream_of(ticket);
        let data = batch::encode_batch(groups, prev_end, first, end);
        let turn = ticket / self.streams.len() as u64;
        self.streams[k].append(turn, data, first, end)?;
        self.vector[k].advance(end);
        Ok(())
    }

    /// The LSN-vector entry of the stream that carries span `ticket`.
    pub fn durable_at(&self, ticket: u64) -> Lsn {
        self.vector[self.stream_of(ticket)].get()
    }

    /// The LSN vector, one entry per stream.
    pub fn durable_vector(&self) -> Vec<Lsn> {
        self.vector.iter().map(LsnWatermark::get).collect()
    }

    /// Every frame ending at or after `from`, merged in LSN order. Each
    /// stream is read from the first frame it needs on.
    fn frames_from(&self, from: Lsn) -> Result<Vec<BatchFrame>> {
        let mut frames = Vec::new();
        for stream in &self.streams {
            frames.extend(stream.read_frames_from(from)?);
        }
        frames.sort_by_key(|f| f.first);
        Ok(frames)
    }

    /// Every group ending at or after `from`, in LSN order, holes and all
    /// (redo drops what lies above each slice's flush LSN).
    pub fn read_from(&self, from: Lsn) -> Result<Vec<LogRecordGroup>> {
        let frames = self.frames_from(from)?.into_iter();
        let mut groups: Vec<_> = frames
            .flat_map(|f| f.groups)
            .filter(|g| g.end_lsn() >= from)
            .collect();
        groups.sort_by_key(|g| g.first_lsn());
        Ok(groups)
    }

    /// The writer's restart: reads the log above `anchor` and walks the
    /// frames' `prev_end` chain. The first broken link is a hole — a crash
    /// landed a later span while an earlier one never made it. Nothing at
    /// or past it was acknowledged (the durable LSN only advances over the
    /// contiguous prefix), so the orphan frames are physically discarded.
    /// Returns the chained groups in LSN order and the log's end, where it
    /// reseeds the LSN vector. Must run before any append.
    pub fn recover(&self, anchor: Lsn) -> Result<(Vec<LogRecordGroup>, Lsn)> {
        let mut groups = Vec::new();
        let mut chain_end: Option<Lsn> = None;
        let mut hole = false;
        for f in self.frames_from(anchor.next())? {
            let chained = match chain_end {
                // The first span past the anchor follows one that ended at
                // or below it (below when the anchor is inside this span).
                None => f.prev_end <= anchor,
                Some(e) => f.prev_end == e,
            };
            if !chained {
                hole = true;
                break;
            }
            chain_end = Some(f.end);
            groups.extend(f.groups);
        }
        if hole {
            let cut = chain_end.unwrap_or(anchor);
            for stream in &self.streams {
                stream.discard_after(cut)?;
            }
        }
        groups.sort_by_key(|g| g.first_lsn());
        // A span's end is its highest LSN, so the chain's end is the log's.
        let end = chain_end.map_or(anchor, |e| e.max(anchor));
        for entry in &self.vector {
            entry.advance(end);
        }
        Ok((groups, end))
    }

    /// Adopts the PLogs the writer created or truncated since the last
    /// look: the manifest's newest snapshot, read only when there is one. A
    /// reader calls it before [`Log::tail`].
    pub fn refresh(&self) -> Result<()> {
        if let Some(chains) = self.manifest.refresh()? {
            for (stream, chain) in self.streams.iter().zip(chains) {
                stream.adopt(chain);
            }
        }
        Ok(())
    }

    /// Every group appended past `cursor` whose frame ends at or below
    /// `limit`, in LSN order; the cursor moves over exactly those. A frame
    /// past `limit` is deferred whole, for a call with a higher limit.
    /// `ReplicaBehindTruncation` when the writer truncated records the
    /// cursor never delivered: the reader resyncs from a default cursor.
    pub fn tail(&self, cursor: &mut LogCursor, limit: Lsn) -> Result<Vec<LogRecordGroup>> {
        cursor.0.resize(self.streams.len(), TailCursor::default());
        let mut groups = Vec::new();
        for (stream, at) in self.streams.iter().zip(cursor.0.iter_mut()) {
            groups.extend(self.read_tail(stream, at, limit)?);
        }
        groups.sort_by_key(|g| g.first_lsn());
        Ok(groups)
    }

    /// One stream's part of [`Log::tail`]. It never re-reads bytes, so a
    /// replica tailing the log does O(new data) work per poll. A frame past
    /// `limit` stays unconsumed — the cursor stops at its boundary — so a
    /// reader can stop at the master's read horizon without dropping log
    /// data. A cursor whose PLog was truncated away restarts at the first
    /// remaining PLog, unless records it never delivered went with it.
    fn read_tail(
        &self,
        stream: &LogStream,
        cursor: &mut TailCursor,
        limit: Lsn,
    ) -> Result<Vec<LogRecordGroup>> {
        let (cluster, me) = (&self.manifest.cluster, self.manifest.me);
        let (entries, truncated_through) = stream.chain();
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
            let mut buf = cluster.read_from(entry.id, me, cursor.offset)?;
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
            if idx + 1 < entries.len() && (entry.sealed || cluster.is_sealed(entry.id, me)) {
                idx += 1;
                cursor.offset = 0;
            } else {
                break;
            }
        }
        Ok(groups)
    }

    /// Deletes every sealed PLog whose records all fall below
    /// `persistent_lsn`. Returns how many went.
    pub fn truncate_below(&self, persistent_lsn: Lsn) -> Result<usize> {
        let mut deleted = 0;
        for stream in &self.streams {
            deleted += stream.truncate_below(persistent_lsn)?;
        }
        Ok(deleted)
    }

    /// Every stream's PLog list (for tests and introspection).
    pub fn entries(&self) -> Vec<Vec<PLogEntry>> {
        self.streams.iter().map(LogStream::entries).collect()
    }

    /// The log's streams, for a caller that appends to each one itself (the
    /// logstore suites); they keep publishing their chains to the log's
    /// manifest.
    pub fn into_streams(self) -> Vec<LogStream> {
        self.streams
    }

    /// Append-path metrics (latency, appends in their turn, seal-switches).
    pub fn stats(&self) -> &LogStoreStats {
        &self.stats
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bytes::Bytes;
    use taurus_common::clock::{ClockRef, ManualClock};
    use taurus_common::config::{NetworkProfile, StorageProfile};
    use taurus_common::page::PageType;
    use taurus_common::record::{LogRecord, RecordBody};
    use taurus_common::PageId;
    use taurus_fabric::{Fabric, NodeKind};

    /// A compute node and six Log Stores on `clock`.
    pub(crate) fn cluster_on(clock: ClockRef) -> (LogStoreCluster, NodeId, Vec<NodeId>) {
        let fabric = Fabric::new(clock, NetworkProfile::instant(), 7);
        let me = fabric.add_node(NodeKind::Compute);
        let cluster = LogStoreCluster::new(fabric, 3, 1 << 20);
        let nodes = cluster.spawn_servers(6, StorageProfile::instant());
        (cluster, me, nodes)
    }

    pub(crate) fn one_stream(limit: usize) -> TaurusConfig {
        TaurusConfig {
            log_streams: 1,
            plog_size_limit: limit,
            ..TaurusConfig::test()
        }
    }

    /// One framed group of database 1 covering `lsns`.
    pub(crate) fn group(lsns: std::ops::RangeInclusive<u64>) -> (Bytes, Lsn, Lsn) {
        let records: Vec<LogRecord> = lsns
            .clone()
            .map(|l| {
                let body = RecordBody::Format {
                    ty: PageType::Leaf,
                    level: 0,
                };
                LogRecord::new(Lsn(l), PageId(l), body)
            })
            .collect();
        let g = LogRecordGroup::new(DbId(1), records);
        let (first, last) = (Lsn(*lsns.start()), Lsn(*lsns.end()));
        let data = batch::encode_batch(&[g], Lsn(first.0 - 1), first, last);
        (data, first, last)
    }

    fn setup(limit: usize) -> (Log, LogStoreCluster, NodeId, Vec<NodeId>) {
        setup_on(ManualClock::shared(), limit)
    }

    fn setup_on(clock: ClockRef, limit: usize) -> (Log, LogStoreCluster, NodeId, Vec<NodeId>) {
        let (cluster, me, nodes) = cluster_on(clock);
        let log = Log::create(&one_stream(limit), cluster.clone(), DbId(1), me).unwrap();
        (log, cluster, me, nodes)
    }

    /// Database 1's one-stream log, reopened by a reader.
    fn reopen(cluster: &LogStoreCluster, me: NodeId, limit: usize) -> Log {
        Log::open(&one_stream(limit), cluster.clone(), DbId(1), me, false).unwrap()
    }

    #[test]
    fn metadata_plog_rolls_and_old_one_is_deleted() {
        let (log, cluster, _, _) = setup(220);
        let s = &log.streams[0];
        let meta_before = cluster.meta_plog(DbId(1)).unwrap();
        // Each data-plog rollover appends a snapshot; force many rollovers so
        // the metadata plog crosses the limit and replaces itself.
        for t in 0..30 {
            let (d, f, l) = group(2 * t + 1..=2 * t + 2);
            s.append(t, d, f, l).unwrap();
        }
        let meta_after = cluster.meta_plog(DbId(1)).unwrap();
        assert_ne!(meta_before, meta_after, "metadata plog should have rolled");
        // Old metadata plog is deleted from the directory.
        assert!(cluster.replicas_of(meta_before).is_empty());
        // And the stream still reopens correctly from the new one.
        let s2 = reopen(&cluster, NodeId(1), 220);
        assert_eq!(s2.streams[0].entries().len(), s.entries().len());
    }

    /// A manual clock that counts deadline waits: every RPC makes two (its
    /// request's arrival, its reply), a single `Fabric::call` included —
    /// which `Fabric::inline_jobs` does not count.
    #[derive(Debug, Default)]
    pub(crate) struct WaitCounter {
        time: ManualClock,
        waits: std::sync::atomic::AtomicU64,
    }

    impl WaitCounter {
        pub(crate) fn waits(&self) -> u64 {
            self.waits.load(std::sync::atomic::Ordering::Relaxed)
        }
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
        let (log, cluster, me, _) = setup_on(clock.clone(), 220);
        let writer = &log.streams[0];
        let reader = reopen(&cluster, me, 220);
        let legs = || clock.waits() / 2 + cluster.fabric.inline_jobs();
        let ids = |s: &LogStream| s.entries().iter().map(|e| e.id).collect::<Vec<_>>();
        let mut turn = 0u64;
        let mut append = |n: usize| {
            for _ in 0..n {
                let (d, f, l) = group(2 * turn + 1..=2 * turn + 2);
                writer.append(turn, d, f, l).unwrap();
                turn += 1;
            }
        };
        // No new snapshot: answered from the directory, no fabric leg runs.
        let quiet = |reader: &Log| {
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
        assert_eq!(ids(&reader.streams[0]), ids(writer));
        quiet(&reader);

        // A truncation is seen, and remembered for stale tail cursors.
        append(4);
        reader.refresh().unwrap();
        let cut = writer.entries()[1].last_lsn;
        assert!(writer.truncate_below(cut.next()).unwrap() > 0);
        reader.refresh().unwrap();
        assert_eq!(ids(&reader.streams[0]), ids(writer));
        assert!(reader.streams[0].chain().1 >= cut);
        quiet(&reader);

        // A metadata-PLog roll is seen: the new PLog is read from its start.
        let meta = cluster.meta_plog(DbId(1)).unwrap();
        while cluster.meta_plog(DbId(1)).unwrap() == meta {
            append(1);
        }
        reader.refresh().unwrap();
        assert_eq!(ids(&reader.streams[0]), ids(writer));
        assert_eq!(reader.manifest.plog(), log.manifest.plog());
        quiet(&reader);
        // ...and so is what is appended to it afterwards.
        let plogs = writer.entries().len();
        while writer.entries().len() == plogs {
            append(1);
        }
        reader.refresh().unwrap();
        assert_eq!(ids(&reader.streams[0]), ids(writer));
    }
}
