//! Integration tests for multi-stream parallel group commit: span ordering
//! across streams, the LSN-vector durability rule, crash recovery with a
//! log hole in one stream, and a failed flush latching for the next one.

use std::sync::Arc;

use bytes::Bytes;
use taurus_common::clock::ManualClock;
use taurus_common::config::{NetworkProfile, StorageProfile, REPLICAS};
use taurus_common::lsn::{LsnAllocator, LsnWatermark};
use taurus_common::page::PageType;
use taurus_common::record::{LogRecord, LogRecordGroup, RecordBody};
use taurus_common::{DbId, Lsn, NodeId, PageId, TaurusConfig};
use taurus_core::Sal;
use taurus_fabric::{Fabric, NodeKind};
use taurus_logstore::{Log, LogStoreCluster};
use taurus_pagestore::cluster::PageStoreOptions;
use taurus_pagestore::PageStoreCluster;

struct Harness {
    fabric: Fabric,
    logs: LogStoreCluster,
    pages: PageStoreCluster,
    anchor: Arc<LsnWatermark>,
    me: NodeId,
    cfg: TaurusConfig,
    lsns: LsnAllocator,
}

impl Harness {
    fn new(log_nodes: usize, page_nodes: usize, streams: usize) -> Harness {
        let clock = ManualClock::shared();
        let fabric = Fabric::new(clock.clone(), NetworkProfile::instant(), 777);
        let me = fabric.add_node(NodeKind::Compute);
        let cfg = TaurusConfig {
            log_buffer_bytes: 1, // flush on every group: deterministic spans
            slice_buffer_bytes: 1,
            log_streams: streams,
            ..TaurusConfig::test()
        };
        let logs = LogStoreCluster::new(fabric.clone(), REPLICAS, cfg.logstore_cache_bytes);
        logs.spawn_servers(log_nodes, StorageProfile::instant());
        let pages = PageStoreCluster::new(fabric.clone(), REPLICAS, PageStoreOptions::default());
        pages.spawn_servers(page_nodes, StorageProfile::instant());
        Harness {
            fabric,
            logs,
            pages,
            anchor: Arc::new(LsnWatermark::new(Lsn::ZERO)),
            me,
            cfg,
            lsns: LsnAllocator::new(Lsn::ZERO),
        }
    }

    fn sal(&self) -> Arc<Sal> {
        Sal::create(
            self.cfg.clone(),
            DbId(1),
            self.me,
            self.logs.clone(),
            self.pages.clone(),
            Arc::clone(&self.anchor),
        )
        .unwrap()
    }

    fn recover(&self) -> (Arc<Sal>, Lsn) {
        Sal::recover(
            self.cfg.clone(),
            DbId(1),
            self.me,
            self.logs.clone(),
            self.pages.clone(),
            Arc::clone(&self.anchor),
        )
        .unwrap()
    }

    fn group(&self, page: u64, k: &str, format: bool) -> LogRecordGroup {
        let mut records = Vec::new();
        if format {
            records.push(LogRecord::new(
                self.lsns.alloc(),
                PageId(page),
                RecordBody::Format {
                    ty: PageType::Leaf,
                    level: 0,
                },
            ));
        }
        records.push(LogRecord::new(
            self.lsns.alloc(),
            PageId(page),
            RecordBody::Insert {
                idx: 0,
                key: Bytes::copy_from_slice(k.as_bytes()),
                val: Bytes::from_static(b"v"),
            },
        ));
        LogRecordGroup::new(DbId(1), records)
    }

    fn write_kv(&self, sal: &Sal, page: u64, k: &str, format: bool) -> Lsn {
        let group = self.group(page, k, format);
        let end = group.end_lsn();
        sal.log_group(group).unwrap();
        sal.flush().unwrap();
        end
    }

    /// The database's log as a second handle on the Log Stores sees it.
    fn log(&self, writer: bool) -> Log {
        Log::open(&self.cfg, self.logs.clone(), DbId(1), self.me, writer).unwrap()
    }

    /// The deadline of a quiesce that starts now: on a manual clock only
    /// modelled call costs move it, so this bounds a drill that charges them.
    fn deadline(&self) -> u64 {
        self.fabric.clock.now_us() + 10_000_000
    }
}

/// Sequential flushes land round-robin on every stream; `durable_lsn` is
/// only ever the end of the contiguous span prefix, and the per-stream
/// LSN-vector covers it (no stream's watermark is behind a span the global
/// durable LSN already passed).
#[test]
fn spans_round_robin_across_streams_and_lsn_vector_covers_durable() {
    let h = Harness::new(5, 4, 3);
    let sal = h.sal();
    let mut end = Lsn::ZERO;
    for i in 0..6 {
        end = h.write_kv(&sal, 1, &format!("k{i}"), i == 0);
        assert_eq!(sal.durable_lsn(), end, "flush {i} must ack durably");
    }
    let vec = sal.durable_vector();
    assert_eq!(vec.len(), 3, "one watermark per stream");
    // Six spans over three streams: every stream carried two, so every
    // watermark is a real span end, and their max is the global durable LSN.
    assert!(vec.iter().all(|l| l.is_valid() && *l > Lsn::ZERO));
    assert_eq!(vec.iter().copied().max().unwrap(), sal.durable_lsn());
    // Merge-on-read across the streams reassembles the full LSN sequence.
    let groups = sal.log.read_from(Lsn::ZERO).unwrap();
    let ends: Vec<Lsn> = groups.iter().map(|g| g.end_lsn()).collect();
    let mut sorted = ends.clone();
    sorted.sort();
    assert_eq!(
        ends, sorted,
        "Log::read_from must merge streams in LSN order"
    );
    assert_eq!(*ends.last().unwrap(), end);
    sal.quiesce(h.deadline()).unwrap();
    let page = sal.read_page(PageId(1), None).unwrap();
    assert_eq!(page.nslots(), 6);
}

/// Crash mid-flush with stream 1 durably ahead of stream 0: a span is on
/// stream 1 whose predecessor (assigned to stream 0) never landed. The
/// chain walk must stop at the hole, physically discard the orphan frame
/// (it was never acknowledged to any client), and converge to the same
/// state as a clean run — twice, since recovery must be idempotent.
#[test]
fn log_hole_in_one_stream_is_discarded_on_recovery() {
    let h = Harness::new(5, 4, 2);
    let sal = h.sal();
    let mut end = Lsn::ZERO;
    for i in 0..4 {
        end = h.write_kv(&sal, 1, &format!("k{i}"), i == 0);
    }
    sal.quiesce(h.deadline()).unwrap();
    assert_eq!(sal.durable_lsn(), end);
    // CRASH: drop the SAL with everything acknowledged through `end`.
    drop(sal);

    // Simulate the torn flush: the next two spans were prepared, and the
    // *later* one (round-robined to stream 1) completed its 3/3 append
    // while the earlier one (stream 0) never did. Append the orphan span
    // as ticket 1 of a fresh writer handle — stream 1 — chained behind the
    // span that does not exist.
    let missing = h.lsns.alloc(); // would-be stream-0 span, lost in the crash
    let orphan = h.lsns.alloc();
    let rec = LogRecord::new(
        orphan,
        PageId(1),
        RecordBody::Insert {
            idx: 0,
            key: Bytes::from_static(b"orphan"),
            val: Bytes::from_static(b"v"),
        },
    );
    let g = LogRecordGroup::new(DbId(1), vec![rec]);
    let log = h.log(true);
    log.append(1, missing, orphan, orphan, &[g]).unwrap();
    assert_eq!(
        log.durable_vector()[1],
        orphan,
        "the orphan span went to stream 1"
    );
    assert!(
        log.read_from(Lsn::ZERO)
            .unwrap()
            .iter()
            .any(|g| g.first_lsn() == orphan),
        "orphan frame must be on stream 1 before recovery"
    );
    drop(log);

    // Recovery merges both streams, walks the prev_end chain, finds the
    // hole at `missing`, and cuts there.
    let (sal2, max_lsn) = h.recover();
    assert_eq!(max_lsn, end, "replay must stop at the hole");
    assert_eq!(sal2.durable_lsn(), end);
    let vec = sal2.durable_vector();
    assert!(vec.iter().all(|l| *l == end), "vector reseeded to the cut");
    let groups = sal2.log.read_from(Lsn::ZERO).unwrap();
    assert!(
        groups.iter().all(|g| g.end_lsn() <= end),
        "orphan records must not be readable after recovery"
    );
    let page = sal2.read_page(PageId(1), Some(end)).unwrap();
    assert_eq!(page.nslots(), 4, "clean-run state: k0..k3, no orphan");
    assert!((0..page.nslots()).all(|i| page.key(i).unwrap() != b"orphan"));
    drop(sal2);

    // The discard was physical: a fresh reader no longer sees the frame,
    // so a second recovery converges to the identical state.
    assert!(
        h.log(false)
            .read_from(Lsn::ZERO)
            .unwrap()
            .iter()
            .all(|g| g.first_lsn() != orphan),
        "orphan frame must be truncated from the PLog itself"
    );
    let (sal3, max_lsn2) = h.recover();
    assert_eq!(max_lsn2, end, "recovery must be idempotent");
    let page = sal3.read_page(PageId(1), Some(end)).unwrap();
    assert_eq!(page.nslots(), 4);
}

/// A log flush that fails (every Log Store unreachable) fails the
/// committer whose `flush()` drove it, and the failure latches: the span
/// is a hole in the log, so the next flush fails too, even with the Log
/// Stores back, and the durable LSN stays below the hole. Every log flush
/// has a caller to return its error to, so none is dropped.
#[test]
fn a_failed_flush_fails_its_committer_and_latches_for_the_next() {
    let h = Harness::new(3, 3, 2);
    let sal = h.sal();
    h.write_kv(&sal, 1, "k0", true);
    let durable = sal.durable_lsn();

    let stores = h.fabric.healthy_nodes(NodeKind::LogStore);
    for &node in &stores {
        h.fabric.set_down(node);
    }
    sal.buffer_group(h.group(1, "k1", false));
    assert!(sal.flush().is_err(), "the committer sees its flush fail");
    for &node in &stores {
        h.fabric.set_up(node);
    }
    sal.buffer_group(h.group(1, "k2", false));
    assert!(
        sal.flush().is_err(),
        "the failure latches for the next flush"
    );
    assert_eq!(sal.durable_lsn(), durable);
    assert_eq!(sal.stats.dropped_flush_errors.get(), 0);
}
