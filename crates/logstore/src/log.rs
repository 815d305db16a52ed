//! A database's log: `cfg.log_streams` [`LogStream`]s behind one type.
//!
//! The paper's log is one ordered collection of PLogs (§3.3); parallel
//! logging (Xia & Pavlo's LSN-vector design) splits it into N streams so
//! flush spans overlap their 3/3 appends. [`Log`] owns everything that
//! exists only because there are N of them, so the SAL and read replicas
//! never name a stream: span `t` (tickets are dense, in LSN order) goes to
//! stream `t % n` inside that stream's reserve turn, as one batch frame
//! whose `prev_end` is the chain link recovery walks; the LSN vector; the
//! merge of the streams in LSN order; the recovery hole cut; the merged
//! tail. Which spans are *visible* stays with the writer.

use std::sync::Arc;

use taurus_common::lsn::LsnWatermark;
use taurus_common::metrics::LogStoreStats;
use taurus_common::sync::Sequencer;
use taurus_common::{DbId, LogRecordGroup, Lsn, NodeId, Result, TaurusConfig};

use crate::batch::{self, BatchFrame};
use crate::cluster::LogStoreCluster;
use crate::stream::{LogStream, TailCursor};

/// Reservations a stream keeps in flight: up to this many of its spans
/// overlap their replica writes.
const APPEND_WINDOW: usize = 8;

/// One database's log over the Log Store cluster.
pub struct Log {
    streams: Vec<LogStream>,
    /// Per-stream reserve turnstiles, ordered by the stream-local ticket.
    turns: Vec<Sequencer>,
    /// The LSN vector: per stream, the end of the newest span durable
    /// there, whether or not earlier spans on other streams have landed.
    /// The SAL's prefix walk asserts it covers every span it commits.
    vector: Vec<LsnWatermark>,
    /// Append-path metrics, shared by every stream.
    stats: Arc<LogStoreStats>,
}

/// Where a reader stands in every stream (see [`Log::tail`]). The default
/// starts at the oldest PLog still in the log.
#[derive(Debug, Default)]
pub struct LogCursor(Vec<TailCursor>);

impl Log {
    /// Creates every stream of a brand-new database's log.
    pub fn create(
        cfg: &TaurusConfig,
        cluster: LogStoreCluster,
        db: DbId,
        me: NodeId,
    ) -> Result<Log> {
        Self::attach(cfg, cluster, db, me, |_| true)
    }

    /// Reattaches to the streams with registered metadata. The `writer` (a
    /// recovering master) creates those with none — the database ran with
    /// fewer streams, or one never wrote and was truncated away; a reader
    /// never creates a stream.
    pub fn open(
        cfg: &TaurusConfig,
        cluster: LogStoreCluster,
        db: DbId,
        me: NodeId,
        writer: bool,
    ) -> Result<Log> {
        let missing = |i| cluster.meta_plog_stream(db, i).is_none();
        Self::attach(cfg, cluster.clone(), db, me, |i| writer && missing(i))
    }

    fn attach(
        cfg: &TaurusConfig,
        cluster: LogStoreCluster,
        db: DbId,
        me: NodeId,
        create: impl Fn(u32) -> bool,
    ) -> Result<Log> {
        let n = cfg.log_streams;
        let stats = Arc::new(LogStoreStats::default());
        let mut streams = Vec::with_capacity(n);
        for i in 0..n as u32 {
            let open = if create(i) {
                LogStream::create_stream
            } else {
                LogStream::open_stream
            };
            let (size, stats) = (cfg.plog_size_limit, Arc::clone(&stats));
            streams.push(open(
                cluster.clone(),
                db,
                me,
                size,
                APPEND_WINDOW,
                i,
                n > 1,
                stats,
            )?);
        }
        Ok(Log {
            streams,
            turns: (0..n).map(|_| Sequencer::new()).collect(),
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
    /// later spans wait for its turn.
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
        // The guard passes the turn on every exit path, so a failed
        // reservation cannot wedge this stream's later tickets.
        let reserved = {
            let _turn = self.turns[k].ticket_guard(ticket / self.streams.len() as u64);
            self.streams[k].reserve_append(first, end, data.len() as u64)
        };
        self.streams[k].complete_append(reserved?, data)?;
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

    /// Every frame ending at or after `from`, merged in LSN order.
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
    /// look. A reader calls it before [`Log::tail`].
    pub fn refresh(&self) -> Result<()> {
        self.streams.iter().try_for_each(LogStream::refresh)
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
            groups.extend(stream.read_tail(at, limit)?);
        }
        groups.sort_by_key(|g| g.first_lsn());
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

    /// Append-path metrics (latency, in-flight window, seal-switches).
    pub fn stats(&self) -> &LogStoreStats {
        &self.stats
    }
}
