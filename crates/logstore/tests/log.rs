//! The database log as one [`Log`] over 1, 2 and 4 streams: spans appended
//! out of ticket order read back once each and in LSN order, recovery cuts
//! the merged log at a hole and discards the orphans, and a reader's tail
//! merges the streams and defers a frame past its limit whole.

use std::thread;
use std::time::Duration;

use taurus_common::clock::ManualClock;
use taurus_common::config::{NetworkProfile, StorageProfile};
use taurus_common::page::PageType;
use taurus_common::record::{LogRecord, LogRecordGroup, RecordBody};
use taurus_common::{DbId, Lsn, NodeId, PageId, TaurusConfig};
use taurus_fabric::{Fabric, NodeKind};
use taurus_logstore::{Log, LogCursor, LogStoreCluster};

const STREAMS: [usize; 3] = [1, 2, 4];

struct Harness {
    cfg: TaurusConfig,
    cluster: LogStoreCluster,
    me: NodeId,
}

impl Harness {
    fn new(streams: usize) -> Harness {
        let fabric = Fabric::new(ManualClock::shared(), NetworkProfile::instant(), 11);
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
