//! Concurrency tests of the append path: many threads pushing groups
//! through one [`LogStream`] with per-hop network latency injected. Each
//! takes a turn and an LSN range from one allocator and appends outside
//! it; the stream runs the appends one at a time, in turn order. Every
//! PLog must stay a gap-free, monotone LSN range — including across a
//! mid-run Log Store outage — and the end state must be deterministic.

use std::sync::Arc;
use std::thread;

use bytes::Bytes;
use parking_lot::Mutex;

use taurus_common::clock::ManualClock;
use taurus_common::config::{NetworkProfile, StorageProfile};
use taurus_common::page::PageType;
use taurus_common::record::{LogRecord, LogRecordGroup, RecordBody};
use taurus_common::{invariants, DbId, Lsn, NodeId, PageId};
use taurus_fabric::{Fabric, NodeKind};
use taurus_logstore::batch::encode_batch;
use taurus_logstore::{LogStoreCluster, LogStream};

mod common;
use common::{create_stream, read_back};

fn setup(nodes: usize, plog_limit: usize) -> (Arc<LogStream>, LogStoreCluster, NodeId) {
    let profile = NetworkProfile {
        hop_us: 120,
        jitter_us: 0,
        master_nic_bytes_per_sec: 0,
    };
    let fabric = Fabric::new(ManualClock::shared(), profile, 3);
    let me = fabric.add_node(NodeKind::Compute);
    let cluster = LogStoreCluster::new(fabric, 3, 1 << 20);
    cluster.spawn_servers(nodes, StorageProfile::instant());
    let stream = Arc::new(create_stream(&cluster, DbId(1), me, plog_limit));
    (stream, cluster, me)
}

/// One framed group of `len` records: 60 + 23 × `len` bytes, so the PLog
/// limits below hold a handful of groups each.
fn group(first: u64, len: u64) -> (Bytes, Lsn, Lsn) {
    let records: Vec<LogRecord> = (first..first + len)
        .map(|l| {
            LogRecord::new(
                Lsn(l),
                PageId(l % 11),
                RecordBody::Format {
                    ty: PageType::Leaf,
                    level: 0,
                },
            )
        })
        .collect();
    let g = LogRecordGroup::new(DbId(1), records);
    let (lo, hi) = (Lsn(first), Lsn(first + len - 1));
    (encode_batch(&[g], Lsn(first - 1), lo, hi), lo, hi)
}

/// Hands out the stream's turns and LSN ranges together, in order: turn
/// `t` gets the range right after turn `t - 1`'s.
#[derive(Debug)]
struct Alloc {
    turn: u64,
    next_lsn: u64,
}

/// Runs `threads` appenders, each pushing `per_thread` groups of up to
/// `max_len` records. Each takes its turn and range from `alloc` and
/// appends outside the allocator's lock, so the appenders queue on the
/// stream's turnstile in whatever order they get there. Returns the last
/// LSN handed out.
fn run_appenders(
    stream: &Arc<LogStream>,
    alloc: &Mutex<Alloc>,
    threads: usize,
    per_thread: usize,
    max_len: usize,
) -> Lsn {
    thread::scope(|scope| {
        for t in 0..threads {
            let stream = Arc::clone(stream);
            scope.spawn(move || {
                for i in 0..per_thread {
                    let len = 1 + ((t + i) % max_len) as u64;
                    let (turn, first) = {
                        let mut a = alloc.lock();
                        let taken = (a.turn, a.next_lsn);
                        a.turn += 1;
                        a.next_lsn += len;
                        taken
                    };
                    let (data, first, last) = group(first, len);
                    stream.append(turn, data, first, last).unwrap();
                }
            });
        }
    });
    Lsn(alloc.lock().next_lsn - 1)
}

fn alloc() -> Mutex<Alloc> {
    Mutex::new(Alloc {
        turn: 0,
        next_lsn: 1,
    })
}

/// Every PLog must hold a gap-free LSN run, consecutive PLogs must join
/// without gaps or overlap, and the cluster's committed length must match
/// the stream's byte bookkeeping exactly.
fn assert_plogs_partition_log(stream: &LogStream, cluster: &LogStoreCluster, last: Lsn) {
    let mut prev_last = Lsn::ZERO;
    for e in stream.entries() {
        if e.bytes == 0 {
            continue;
        }
        assert_eq!(
            e.first_lsn,
            prev_last.next(),
            "PLog {} does not start where the previous one ended",
            e.id
        );
        assert!(e.last_lsn >= e.first_lsn, "inverted range in {}", e.id);
        assert_eq!(
            cluster.committed_len(e.id),
            e.bytes,
            "committed length of {} behind stream bookkeeping",
            e.id
        );
        prev_last = e.last_lsn;
    }
    assert_eq!(prev_last, last, "PLog coverage does not reach the log end");
}

fn assert_groups_contiguous(
    cluster: &LogStoreCluster,
    me: NodeId,
    expected_groups: usize,
    last: Lsn,
) {
    let groups = read_back(cluster, me, Lsn(1));
    assert_eq!(groups.len(), expected_groups);
    let mut expect = Lsn(1);
    for g in &groups {
        assert_eq!(g.first_lsn(), expect, "gap in the readable log");
        expect = g.end_lsn().next();
    }
    assert_eq!(expect, last.next());
}

#[test]
fn concurrent_appends_stay_gap_free_per_plog() {
    let violations_before = invariants::violation_count();
    let (stream, cluster, me) = setup(6, 1200);
    let threads = 4;
    let per_thread = 12;
    let last = run_appenders(&stream, &alloc(), threads, per_thread, 4);

    assert_groups_contiguous(&cluster, me, threads * per_thread, last);
    assert_plogs_partition_log(&stream, &cluster, last);
    assert!(
        stream.entries().len() > 1,
        "workload too small to exercise rollover"
    );

    let snap = stream.stats().snapshot();
    assert_eq!(snap.appends, (threads * per_thread) as u64);
    assert_eq!(
        stream.stats().appends_in_flight.get(),
        0,
        "an append still holds its turn"
    );
    assert_eq!(
        invariants::violation_count(),
        violations_before,
        "invariant violations recorded during concurrent appends: {:?}",
        invariants::take_violations()
    );
}

#[test]
fn concurrent_appends_survive_mid_run_outage() {
    let violations_before = invariants::violation_count();
    let (stream, cluster, me) = setup(8, 1540);
    let threads = 3;
    let per_thread = 8;

    let alloc = alloc();
    let mid = run_appenders(&stream, &alloc, threads, per_thread, 4);
    assert!(mid > Lsn::ZERO);

    // Kill one replica of the live tail PLog: the next append to it fails,
    // seals it, and switches to a fresh PLog on healthy nodes (paper §3.3 —
    // a failed write is never retried to the same PLog).
    let tail = stream.entries().last().unwrap().id;
    let victim = cluster.replicas_of(tail)[0];
    cluster.fabric.set_down(victim);

    // Second wave appends concurrently through the failure.
    let last = run_appenders(&stream, &alloc, threads, per_thread, 3);
    cluster.fabric.set_up(victim);

    assert_groups_contiguous(&cluster, me, 2 * threads * per_thread, last);
    assert_plogs_partition_log(&stream, &cluster, last);
    assert!(
        stream.stats().snapshot().seal_switches > 0,
        "outage did not force a seal-and-switch"
    );
    assert_eq!(stream.stats().appends_in_flight.get(), 0);
    assert_eq!(
        invariants::violation_count(),
        violations_before,
        "invariant violations recorded across the outage: {:?}",
        invariants::take_violations()
    );
}

/// The append path must stay deterministic: two identical runs on fresh
/// clusters end with identical PLog layouts and byte-identical replica
/// contents (this is what lets the determinism checker diff end states
/// across seeded runs).
#[test]
fn pipelined_append_end_state_is_deterministic() {
    let run = || {
        let (stream, cluster, _) = setup(5, 1030);
        let mut next = 1u64;
        for i in 0..30u64 {
            let len = 1 + (i % 4);
            let (data, first, last) = group(next, len);
            next += len;
            stream.append(i, data, first, last).unwrap();
        }
        let entries = stream.entries();
        let mut replica_bytes = Vec::new();
        for e in &entries {
            for node in cluster.replicas_of(e.id) {
                let server = cluster.server_handle(node).unwrap();
                replica_bytes.push(server.read_from(e.id, 0).unwrap());
            }
        }
        (entries, replica_bytes)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "PLog layout diverged between identical runs");
    assert_eq!(a.1, b.1, "replica bytes diverged between identical runs");
}
