//! The database log as one [`Log`] over 1, 2 and 4 streams: spans appended
//! out of ticket order read back once each and in LSN order, a stream never
//! has two appends in flight, recovery cuts the merged log at a hole and
//! discards the orphans, and a reader's tail merges the streams and defers
//! a frame past its limit whole. A tail cursor follows rollovers and
//! truncation on a one-stream log, and a failed append is never overtaken
//! by the next span on its stream.

use std::cell::Cell;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use taurus_common::clock::{Clock, ClockRef, ManualClock};
use taurus_common::config::{NetworkProfile, StorageProfile};
use taurus_common::page::PageType;
use taurus_common::record::{LogRecord, LogRecordGroup, RecordBody};
use taurus_common::{DbId, Lsn, NodeId, PageId, TaurusConfig, TaurusError};
use taurus_fabric::{Fabric, NodeKind};
use taurus_logstore::batch::{encode_batch, HEADER_LEN};
use taurus_logstore::{Log, LogCursor, LogStoreCluster, LogStream};

const STREAMS: [usize; 3] = [1, 2, 4];

struct Harness {
    cfg: TaurusConfig,
    cluster: LogStoreCluster,
    me: NodeId,
}

impl Harness {
    fn new(streams: usize) -> Harness {
        Harness::on(ManualClock::shared(), streams)
    }

    fn on(clock: ClockRef, streams: usize) -> Harness {
        let fabric = Fabric::new(clock, NetworkProfile::instant(), 11);
        let me = fabric.add_node(NodeKind::Compute);
        let cluster = LogStoreCluster::new(fabric, 3, 1 << 20);
        cluster.spawn_servers(5, StorageProfile::instant());
        let cfg = TaurusConfig {
            log_streams: streams,
            ..TaurusConfig::test()
        };
        Harness { cfg, cluster, me }
    }

    fn create(&self) -> Log {
        Log::create(&self.cfg, self.cluster.clone(), DbId(1), self.me).unwrap()
    }

    fn open(&self, writer: bool) -> Log {
        Log::open(&self.cfg, self.cluster.clone(), DbId(1), self.me, writer).unwrap()
    }
}

fn group(lsns: std::ops::RangeInclusive<u64>) -> LogRecordGroup {
    let records = lsns
        .map(|l| {
            let body = RecordBody::Format {
                ty: PageType::Leaf,
                level: 0,
            };
            LogRecord::new(Lsn(l), PageId(l % 5), body)
        })
        .collect();
    LogRecordGroup::new(DbId(1), records)
}

/// Span `t` covers LSNs `3t+1 ..= 3t+3` as two groups.
fn span(t: u64) -> (Lsn, Lsn, Lsn, Vec<LogRecordGroup>) {
    let first = 3 * t + 1;
    let groups = vec![group(first..=first + 1), group(first + 2..=first + 2)];
    (Lsn(first - 1), Lsn(first), Lsn(first + 2), groups)
}

fn append(log: &Log, t: u64) {
    let (prev_end, first, end, groups) = span(t);
    log.append(t, prev_end, first, end, &groups).unwrap();
}

fn firsts(groups: &[LogRecordGroup]) -> Vec<u64> {
    groups.iter().map(|g| g.first_lsn().0).collect()
}

/// The group first-LSNs of spans `spans`, in LSN order.
fn expected(spans: std::ops::Range<u64>) -> Vec<u64> {
    spans.flat_map(|t| [3 * t + 1, 3 * t + 3]).collect()
}

#[test]
fn out_of_order_tickets_read_back_once_each_in_lsn_order() {
    const SPANS: u64 = 24;
    const THREADS: u64 = 3;
    for n in STREAMS {
        let h = Harness::new(n);
        let log = h.create();
        // Thread j appends tickets j, j+3, ...: each thread's own tickets
        // rise, so a stream's turn always has a runnable owner, but the
        // threads reach the log in no particular order.
        thread::scope(|scope| {
            for j in 0..THREADS {
                let log = &log;
                scope.spawn(move || {
                    for t in (j..SPANS).step_by(THREADS as usize) {
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "jitter that scatters the order the threads reach the log in"
                        )]
                        thread::sleep(Duration::from_micros((t * 7 + j * 13) % 50));
                        append(log, t);
                    }
                });
            }
        });
        let end = 3 * SPANS;
        assert_eq!(log.durable_vector().len(), n);
        assert_eq!(log.durable_vector().into_iter().max(), Some(Lsn(end)));
        let all = expected(0..SPANS);
        for x in 0..=end + 1 {
            // A group is returned iff it ends at or after `x`.
            let ends_by = |first: u64| if first % 3 == 1 { first + 1 } else { first };
            let want: Vec<u64> = all.iter().copied().filter(|f| ends_by(*f) >= x).collect();
            assert_eq!(
                firsts(&log.read_from(Lsn(x)).unwrap()),
                want,
                "{n} streams, from {x}"
            );
        }
    }
}

#[test]
fn recover_cuts_a_hole_discards_the_orphans_and_is_idempotent() {
    for n in STREAMS {
        let h = Harness::new(n);
        let log = h.create();
        for t in 0..6 {
            append(&log, t);
        }
        let end = Lsn(18);
        drop(log);

        // A crash lost span 6 while a later span landed: a fresh writer
        // handle appends the orphan as its ticket `n - 1` (admitted at
        // once, on the last stream), chained behind the span that does not
        // exist.
        let torn = h.open(true);
        let orphan = vec![group(22..=22)];
        torn.append(n as u64 - 1, Lsn(21), Lsn(22), Lsn(22), &orphan)
            .unwrap();
        assert!(firsts(&torn.read_from(Lsn(1)).unwrap()).contains(&22));
        drop(torn);

        // Recovery from the end of span 1: spans 2..=5 chain, the orphan
        // does not.
        let anchor = Lsn(6);
        let log = h.open(true);
        let (groups, recovered) = log.recover(anchor).unwrap();
        assert_eq!(recovered, end, "{n} streams: the chain ends at the hole");
        assert_eq!(
            firsts(&groups),
            firsts(&h.open(false).read_from(Lsn(7)).unwrap())
        );
        assert_eq!(groups.len(), 8, "spans 2..=5, two groups each");
        assert!(
            log.durable_vector().iter().all(|l| *l == end),
            "vector reseeded to the cut"
        );
        // The orphan is gone from the PLogs themselves.
        let left = h.open(false).read_from(Lsn(1)).unwrap();
        assert_eq!(firsts(&left), expected(0..6), "{n} streams");
        drop(log);

        // A second restart finds nothing to cut.
        let again = h.open(true);
        let (groups2, recovered2) = again.recover(anchor).unwrap();
        assert_eq!((firsts(&groups2), recovered2), (firsts(&groups), end));
        assert_eq!(
            firsts(&h.open(false).read_from(Lsn(1)).unwrap()),
            expected(0..6)
        );

        // And the recovered log takes new spans behind its end.
        let (_, first, next_end, groups) = span(6);
        again.append(0, end, first, next_end, &groups).unwrap();
        assert_eq!(firsts(&again.read_from(Lsn(1)).unwrap()), expected(0..7));
    }
}

#[test]
fn tail_merges_streams_and_defers_a_frame_past_the_limit_whole() {
    for n in STREAMS {
        let h = Harness::new(n);
        let log = h.create();
        let reader = h.open(false);
        let mut cursor = LogCursor::default();
        for t in 0..6 {
            append(&log, t);
        }
        reader.refresh().unwrap();
        // Limit at the end of span 2: spans 0..=2, across every stream.
        let got = reader.tail(&mut cursor, Lsn(9)).unwrap();
        assert_eq!(firsts(&got), expected(0..3), "{n} streams");
        // Limit inside span 4: span 3 comes, span 4 waits whole, though
        // its first group ends below the limit.
        let got = reader.tail(&mut cursor, Lsn(14)).unwrap();
        assert_eq!(firsts(&got), expected(3..4), "{n} streams");
        assert!(reader.tail(&mut cursor, Lsn(14)).unwrap().is_empty());
        // The limit rises: span 4 resumes, then span 5, each group once.
        let got = reader.tail(&mut cursor, Lsn(u64::MAX)).unwrap();
        assert_eq!(firsts(&got), expected(4..6), "{n} streams");
        assert!(reader.tail(&mut cursor, Lsn(u64::MAX)).unwrap().is_empty());
        // New spans are picked up incrementally.
        append(&log, 6);
        reader.refresh().unwrap();
        let got = reader.tail(&mut cursor, Lsn(u64::MAX)).unwrap();
        assert_eq!(firsts(&got), expected(6..7), "{n} streams");
    }
}

/// A new one-stream log with PLogs of `limit` bytes.
fn one_stream(limit: usize) -> Log {
    let mut h = Harness::new(1);
    h.cfg.plog_size_limit = limit;
    h.create()
}

/// Appends `lsns` as span `ticket`, one group.
fn push(log: &Log, ticket: u64, lsns: RangeInclusive<u64>) {
    let (first, end) = (*lsns.start(), *lsns.end());
    let groups = [group(lsns)];
    log.append(ticket, Lsn(first - 1), Lsn(first), Lsn(end), &groups)
        .unwrap();
}

/// Appends spans 0..6, two LSNs each: LSNs 1..=12.
fn push_six(log: &Log) {
    for t in 0..6 {
        push(log, t, 2 * t + 1..=2 * t + 2);
    }
}

#[test]
fn tail_cursor_defers_groups_past_the_limit() {
    let log = one_stream(1 << 20);
    push(&log, 0, 1..=4);
    push(&log, 1, 5..=6);
    let mut cursor = LogCursor::default();
    // Limit mid-stream: only the first group is consumed; the second
    // must NOT be skipped — it stays in the plog for the next call.
    let first = log.tail(&mut cursor, Lsn(4)).unwrap();
    assert_eq!(first.len(), 1);
    assert_eq!(first[0].end_lsn(), Lsn(4));
    // Same limit again: nothing new, cursor does not move or re-read.
    assert!(log.tail(&mut cursor, Lsn(4)).unwrap().is_empty());
    // Raised limit: the deferred group is delivered exactly once.
    let second = log.tail(&mut cursor, Lsn(u64::MAX)).unwrap();
    assert_eq!(second.len(), 1);
    assert_eq!(second[0].end_lsn(), Lsn(6));
    assert!(log.tail(&mut cursor, Lsn(u64::MAX)).unwrap().is_empty());
}

#[test]
fn tail_cursor_follows_rollover_across_sealed_plogs() {
    let log = one_stream(96);
    push_six(&log);
    assert!(log.entries()[0].len() > 1, "expected rollover");
    let mut cursor = LogCursor::default();
    let groups = log.tail(&mut cursor, Lsn(u64::MAX)).unwrap();
    assert_eq!(groups.len(), 6);
    assert_eq!(groups.last().unwrap().end_lsn(), Lsn(12));
    // Appends after the cursor caught up are picked up incrementally.
    push(&log, 6, 13..=14);
    let more = log.tail(&mut cursor, Lsn(u64::MAX)).unwrap();
    assert_eq!(more.len(), 1);
    assert_eq!(more[0].first_lsn(), Lsn(13));
}

#[test]
fn tail_cursor_behind_truncation_errors_instead_of_losing_records() {
    let log = one_stream(120);
    push_six(&log);
    // The reader consumes only the first group, then the master
    // truncates past it: the cursor's PLog — and records the reader
    // never saw — are gone.
    let mut cursor = LogCursor::default();
    let first = log.tail(&mut cursor, Lsn(2)).unwrap();
    assert_eq!(first.len(), 1);
    log.truncate_below(Lsn(7)).unwrap();
    let err = log.tail(&mut cursor, Lsn(u64::MAX)).unwrap_err();
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
    assert!(log.tail(&mut cursor, Lsn(u64::MAX)).is_err());
    // After a resync (fresh cursor at the new log start) reads work and
    // deliver exactly the surviving records, gap-free.
    let mut fresh = LogCursor::default();
    let rest = log.tail(&mut fresh, Lsn(u64::MAX)).unwrap();
    assert!(!rest.is_empty());
    for pair in rest.windows(2) {
        assert_eq!(pair[1].first_lsn(), pair[0].end_lsn().next());
    }
    assert_eq!(rest.last().unwrap().end_lsn(), Lsn(12));
}

#[test]
fn tail_cursor_that_consumed_truncated_plogs_restarts_cleanly() {
    let log = one_stream(120);
    push_six(&log);
    // The reader consumes everything, then truncation removes the old
    // PLogs: the cursor restarts at the surviving log without error and
    // without re-delivering groups it already consumed.
    let mut cursor = LogCursor::default();
    let all = log.tail(&mut cursor, Lsn(u64::MAX)).unwrap();
    assert_eq!(all.len(), 6);
    log.truncate_below(Lsn(7)).unwrap();
    assert!(log.tail(&mut cursor, Lsn(u64::MAX)).unwrap().is_empty());
    push(&log, 6, 13..=14);
    let more = log.tail(&mut cursor, Lsn(u64::MAX)).unwrap();
    assert_eq!(more.len(), 1);
    assert_eq!(more[0].first_lsn(), Lsn(13));
}

/// The Log Store reads, as `(calls, bytes)`, that `f` makes.
fn reads_of<T>(cluster: &LogStoreCluster, f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = cluster.read_stats();
    let out = f();
    let after = cluster.read_stats();
    (out, after.reads - before.reads, after.bytes - before.bytes)
}

/// Bytes of the manifest's last append: the snapshot a reopen reads.
fn manifest_bytes(h: &Harness) -> u64 {
    let meta = h.cluster.meta_plog(DbId(1)).unwrap();
    let last = h.cluster.committed_appends(meta) - 1;
    let (_, snapshot) = h.cluster.read_append(meta, h.me, last, u64::MAX).unwrap();
    snapshot.len() as u64
}

#[test]
fn open_reads_the_same_bytes_whether_tails_are_a_tenth_or_nine_tenths_full() {
    const LIMIT: usize = 64 << 10;
    let header = HEADER_LEN as u64;
    for n in STREAMS {
        let opened = |fill: usize| {
            let mut h = Harness::new(n);
            h.cfg.plog_size_limit = LIMIT;
            let log = h.create();
            let tails_below = |log: &Log| {
                let tails = log.entries().into_iter().map(|c| c.last().unwrap().bytes);
                tails.min().unwrap() < (LIMIT * fill / 10) as u64
            };
            let mut t = 0;
            while tails_below(&log) {
                append(&log, t);
                t += 1;
            }
            assert!(log.entries().iter().all(|c| c.len() == 1), "no rollover");
            drop(log);
            let snapshot = manifest_bytes(&h);
            let (_, calls, bytes) = reads_of(&h.cluster, || h.open(true));
            // The snapshot, then each tail's first and last frame header.
            assert_eq!(calls, 1 + 2 * n as u64, "{n} streams, {fill}0 % full");
            assert!(bytes <= snapshot + 2 * header * n as u64);
            bytes
        };
        assert_eq!(opened(1), opened(9), "{n} streams");
    }
}

#[test]
fn recover_reads_the_window_plus_a_logarithm_of_header_probes() {
    const WINDOW: u64 = 24;
    let header = HEADER_LEN as u64;
    for n in STREAMS {
        let recovered = |below: u64| {
            let mut h = Harness::new(n);
            h.cfg.plog_size_limit = 4 << 20;
            let log = h.create();
            for t in 0..below + WINDOW {
                append(&log, t);
            }
            assert!(log.entries().iter().all(|c| c.len() == 1), "no rollover");
            drop(log);
            let log = h.open(true);
            let anchor = Lsn(3 * below);
            let ((groups, end), calls, bytes) =
                reads_of(&h.cluster, || log.recover(anchor).unwrap());
            assert_eq!(
                (groups.len() as u64, end),
                (2 * WINDOW, Lsn(3 * (below + WINDOW)))
            );
            let window: u64 = (below..below + WINDOW)
                .map(|t| {
                    let (prev_end, first, end, groups) = span(t);
                    encode_batch(&groups, prev_end, first, end).len() as u64
                })
                .sum();
            // Per stream: one read of its part of the window, after a
            // bisection of its frames' headers.
            let frames = (below + WINDOW).div_ceil(n as u64);
            let probes = n as u64 * (u64::BITS - frames.leading_zeros()) as u64;
            assert!(
                calls <= n as u64 + probes,
                "{n} streams, {below} below: {calls} reads"
            );
            assert!(
                bytes <= window + probes * header,
                "{n} streams, {below} below"
            );
            assert!(bytes >= window);
            (calls, bytes - window)
        };
        let (calls_100, probed_100) = recovered(100);
        let (calls_1000, probed_1000) = recovered(1000);
        // Ten times the log below the anchor costs about log2(10) more
        // probes per stream, and nothing else.
        let more = n as u64 * 4;
        assert!(calls_1000 <= calls_100 + more, "{n} streams");
        assert!(probed_1000 <= probed_100 + more * header, "{n} streams");
    }
}

/// Appends `lsns` to `stream` as one frame, its append `*turn`.
fn frame_to(stream: &LogStream, turn: &mut u64, lsns: RangeInclusive<u64>) {
    let (first, end) = (*lsns.start(), *lsns.end());
    let frame = encode_batch(&[group(lsns)], Lsn(first - 1), Lsn(first), Lsn(end));
    stream.append(*turn, frame, Lsn(first), Lsn(end)).unwrap();
    *turn += 1;
}

/// A manual clock that gives the core away at every wait: threads racing
/// through Log Store round trips interleave at each one.
#[derive(Debug, Default)]
struct Yielding(ManualClock);

impl Clock for Yielding {
    fn now_us(&self) -> u64 {
        self.0.now_us()
    }
    fn sleep_us(&self, us: u64) {
        self.0.sleep_us(us);
    }
    fn sleep_until(&self, deadline_us: u64) {
        thread::yield_now();
        self.0.sleep_until(deadline_us);
    }
}

#[test]
fn chain_changes_racing_on_three_streams_leave_one_consistent_manifest() {
    let mut h = Harness::on(std::sync::Arc::new(Yielding::default()), 3);
    h.cfg.plog_size_limit = 400;
    let streams = h.create().into_streams();
    let (rolling, truncating, cutting) = (&streams[0], &streams[1], &streams[2]);
    // Each stream carries its own LSN range, and counts its own turns.
    let mut next = [1u64, 100_001, 200_001];
    let mut turns = [0u64; 3];
    for round in 0..150u64 {
        let barrier = std::sync::Barrier::new(3);
        let [a, b, c] = &mut next;
        let [ta, tb, tc] = &mut turns;
        thread::scope(|scope| {
            scope.spawn(|| {
                barrier.wait();
                // Rollovers: append until the stream has three more PLogs.
                let plogs = rolling.entries().len();
                while rolling.entries().len() < plogs + 3 {
                    frame_to(rolling, ta, *a..=*a + 1);
                    *a += 2;
                }
            });
            scope.spawn(|| {
                barrier.wait();
                for _ in 0..3 {
                    for _ in 0..3 {
                        frame_to(truncating, tb, *b..=*b + 1);
                        *b += 2;
                    }
                    truncating.truncate_below(Lsn(*b - 4)).unwrap();
                }
            });
            scope.spawn(|| {
                barrier.wait();
                for i in 0..3 {
                    for _ in 0..4 {
                        frame_to(cutting, tc, *c..=*c + 1);
                        *c += 2;
                    }
                    // Cut the last frame off, or (now and then) nothing.
                    let cut = if (round + i) % 3 == 0 { *c } else { *c - 3 };
                    cutting.discard_after(Lsn(cut)).unwrap();
                }
            });
        });
        let listed = h.open(false).entries();
        for (k, stream) in streams.iter().enumerate() {
            assert_eq!(listed[k], stream.entries(), "round {round}, stream {k}");
        }
        for e in listed.iter().flatten() {
            assert!(
                !h.cluster.replicas_of(e.id).is_empty(),
                "{} was deleted",
                e.id
            );
        }
    }
    // The rolling stream's writer crashes right after an append to its
    // tail failed on a replica that comes back without the seal: the
    // append started and never committed, and a reopen seals the tail.
    let tail = rolling.entries().last().unwrap().id;
    let victim = h.cluster.replicas_of(tail)[0];
    h.cluster.fabric.set_down(victim);
    let frame = encode_batch(
        &[group(next[0]..=next[0])],
        Lsn(next[0] - 1),
        Lsn(next[0]),
        Lsn(next[0]),
    );
    assert!(h.cluster.append(tail, h.me, frame).is_err());
    h.cluster.fabric.set_up(victim);
    assert!(
        !h.cluster.is_sealed(tail, h.me),
        "the first replica asked missed the seal"
    );
    let reopened = h.open(true).entries();
    let old_tail = reopened[0].iter().find(|e| e.id == tail).unwrap();
    assert!(old_tail.sealed);
}

#[test]
fn failed_append_is_not_overtaken_by_a_successor_across_a_rollover() {
    // One stream, PLogs that one span fills. Span 1 reaches the stream
    // first; span 0's write goes to a tail that has lost a replica, fails,
    // and is re-homed to a fresh PLog. Span 1 waits for span 0's turn to
    // end, rolls past the PLog span 0 filled, and lands behind it.
    let mut h = Harness::new(1);
    h.cfg.plog_size_limit = 64;
    let log = h.create();
    let tail = log.entries()[0][0].id;
    let victim = h.cluster.replicas_of(tail)[0];
    h.cluster.fabric.set_down(victim);
    thread::scope(|scope| {
        let log = &log;
        let later = scope.spawn(move || push(log, 1, 4..=5));
        // Give span 1 every chance to get ahead.
        #[expect(
            clippy::disallowed_methods,
            reason = "span 1 reaching the stream first: nothing signals that it has"
        )]
        thread::sleep(Duration::from_millis(20));
        push(log, 0, 1..=3);
        later.join().unwrap();
    });
    h.cluster.fabric.set_up(victim);
    assert_eq!(log.stats().seal_switches.get(), 1);
    let groups = log.read_from(Lsn(1)).unwrap();
    assert_eq!(firsts(&groups), vec![1, 4], "log reads back out of order");
    // And PLog order is LSN order in the stream's own bookkeeping, one
    // PLog per span.
    let ranges: Vec<(Lsn, Lsn)> = log.entries()[0]
        .iter()
        .filter(|e| e.bytes > 0)
        .map(|e| (e.first_lsn, e.last_lsn))
        .collect();
    assert_eq!(ranges, vec![(Lsn(1), Lsn(3)), (Lsn(4), Lsn(5))]);
}

thread_local! {
    /// The stream the current thread is appending to, and whether its
    /// append has not made an RPC wait yet.
    static APPENDING: Cell<Option<(usize, bool)>> = const { Cell::new(None) };
}

/// A manual clock that counts, per stream, the appending threads inside
/// an RPC wait at once. An append's first wait holds its thread for up to
/// 20 ms, so a second append on the same stream that is not queued behind
/// it gets there while it is held.
#[derive(Debug)]
struct InFlight {
    time: ManualClock,
    inside: Vec<AtomicU64>,
    most: Vec<AtomicU64>,
}

impl InFlight {
    fn new(streams: usize) -> InFlight {
        InFlight {
            time: ManualClock::default(),
            inside: (0..streams).map(|_| AtomicU64::new(0)).collect(),
            most: (0..streams).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Clock for InFlight {
    fn now_us(&self) -> u64 {
        self.time.now_us()
    }
    fn sleep_us(&self, us: u64) {
        self.time.sleep_us(us);
    }
    fn sleep_until(&self, deadline_us: u64) {
        let Some((k, first)) = APPENDING.get() else {
            return self.time.sleep_until(deadline_us);
        };
        let now = self.inside[k].fetch_add(1, Ordering::SeqCst) + 1;
        self.most[k].fetch_max(now, Ordering::SeqCst);
        if first {
            APPENDING.set(Some((k, false)));
            for _ in 0..20 {
                if self.inside[k].load(Ordering::SeqCst) > 1 {
                    break;
                }
                #[expect(
                    clippy::disallowed_methods,
                    reason = "room for a second append to overlap this one, which must never happen"
                )]
                thread::sleep(Duration::from_millis(1));
            }
        }
        self.time.sleep_until(deadline_us);
        self.inside[k].fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn a_stream_never_has_two_appends_in_flight() {
    const N: u64 = 2;
    const THREADS: u64 = 2 * N;
    const SPANS: u64 = 6 * THREADS;
    let clock = Arc::new(InFlight::new(N as usize));
    let h = Harness::on(clock.clone(), N as usize);
    let log = h.create();
    // Thread j appends tickets j, j + 2N, ...: threads j and j + N share a
    // stream and hold its tickets t and t + N, so each stream always has a
    // second append ready while one is in flight.
    thread::scope(|scope| {
        for j in 0..THREADS {
            let log = &log;
            scope.spawn(move || {
                for t in (j..SPANS).step_by(THREADS as usize) {
                    APPENDING.set(Some(((t % N) as usize, true)));
                    append(log, t);
                    APPENDING.set(None);
                }
            });
        }
    });
    for (k, most) in clock.most.iter().enumerate() {
        assert_eq!(
            most.load(Ordering::SeqCst),
            1,
            "stream {k} overlapped appends"
        );
    }
    assert_eq!(log.stats().appends.get(), SPANS);
    let all = firsts(&log.read_from(Lsn(1)).unwrap());
    assert_eq!(all, expected(0..SPANS));
}
