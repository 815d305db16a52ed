//! Concurrency tests of the lock-free append path: many threads pushing
//! groups through one [`LogStream`] with per-hop network latency injected,
//! asserting the reservation/commit protocol keeps every PLog a gap-free,
//! monotone LSN range — including across a mid-run Log Store outage — and
//! that the pipeline's end state is deterministic.

// Test harness: panicking on setup failure is the desired behavior.
#![allow(clippy::unwrap_used)]

use std::sync::Arc;
use std::thread;

use bytes::Bytes;
use parking_lot::Mutex;

use taurus_common::clock::ManualClock;
use taurus_common::config::{NetworkProfile, StorageProfile};
use taurus_common::page::PageType;
use taurus_common::record::{LogRecord, LogRecordGroup, RecordBody};
use taurus_common::{invariants, DbId, Lsn, PageId};
use taurus_fabric::{Fabric, NodeKind};
use taurus_logstore::{encode_batch, LogStoreCluster, LogStream};

const WINDOW: usize = 4;

fn setup(nodes: usize, plog_limit: usize) -> (Arc<LogStream>, LogStoreCluster) {
    let profile = NetworkProfile {
        hop_us: 120,
        jitter_us: 0,
        master_nic_bytes_per_sec: 0,
    };
    let fabric = Fabric::new(ManualClock::shared(), profile, 3);
    let me = fabric.add_node(NodeKind::Compute);
    let cluster = LogStoreCluster::new(fabric, 3, 1 << 20);
    cluster.spawn_servers(nodes, StorageProfile::instant());
    let stream =
        Arc::new(LogStream::create(cluster.clone(), DbId(1), me, plog_limit, WINDOW).unwrap());
    (stream, cluster)
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

/// Runs `threads` appenders, each pushing `per_thread` groups. LSN ranges
/// come from a shared allocator whose lock is held across `reserve_append`
/// (reservations must be taken in LSN order); the replicated append itself
/// runs outside it, so up to `WINDOW` groups overlap their network round
/// trips.
fn run_appenders(stream: &Arc<LogStream>, threads: usize, per_thread: usize) -> Lsn {
    let alloc = Arc::new(Mutex::new(1u64));
    thread::scope(|scope| {
        for t in 0..threads {
            let stream = Arc::clone(stream);
            let alloc = Arc::clone(&alloc);
            scope.spawn(move || {
                for i in 0..per_thread {
                    let len = 1 + ((t + i) % 4) as u64;
                    let (res, data) = {
                        let mut next = alloc.lock();
                        let _span = parking_lot::held_across_calls(
                            "reservations are taken in LSN order, so the allocator spans \
                             reserve_append; Log Store handlers take no test lock",
                        );
                        let (data, first, last) = group(*next, len);
                        *next += len;
                        let res = stream
                            .reserve_append(first, last, data.len() as u64)
                            .unwrap();
                        (res, data)
                    };
                    stream.complete_append(res, data).unwrap();
                }
            });
        }
    });
    let next = *alloc.lock();
    Lsn(next - 1)
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

fn assert_groups_contiguous(stream: &LogStream, expected_groups: usize, last: Lsn) {
    let groups = stream.read_groups_from(Lsn(1)).unwrap();
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
    let (stream, cluster) = setup(6, 1200);
    let threads = 4;
    let per_thread = 12;
    let last = run_appenders(&stream, threads, per_thread);

    assert_groups_contiguous(&stream, threads * per_thread, last);
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
        "append window not drained"
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
    let (stream, cluster) = setup(8, 1540);
    let threads = 3;
    let per_thread = 8;

    let mid = run_appenders(&stream, threads, per_thread);
    assert!(mid > Lsn::ZERO);

    // Kill one replica of the live tail PLog: the next append to it fails,
    // seals everything reachable, and switches to a fresh PLog on healthy
    // nodes (paper §3.3 — a failed write is never retried to the same PLog).
    let tail = stream.entries().last().unwrap().id;
    let victim = cluster.replicas_of(tail)[0];
    cluster.fabric.set_down(victim);

    // Second wave appends concurrently through the failure.
    let alloc = Arc::new(Mutex::new(mid.0 + 1));
    thread::scope(|scope| {
        for t in 0..threads {
            let stream = Arc::clone(&stream);
            let alloc = Arc::clone(&alloc);
            scope.spawn(move || {
                for i in 0..per_thread {
                    let len = 1 + ((t + i) % 3) as u64;
                    let (res, data) = {
                        let mut next = alloc.lock();
                        let _span = parking_lot::held_across_calls(
                            "reservations are taken in LSN order, so the allocator spans \
                             reserve_append; Log Store handlers take no test lock",
                        );
                        let (data, first, last) = group(*next, len);
                        *next += len;
                        let res = stream
                            .reserve_append(first, last, data.len() as u64)
                            .unwrap();
                        (res, data)
                    };
                    stream.complete_append(res, data).unwrap();
                }
            });
        }
    });
    let last = Lsn(*alloc.lock() - 1);
    cluster.fabric.set_up(victim);

    assert_groups_contiguous(&stream, 2 * threads * per_thread, last);
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

/// The pipelined append path must stay deterministic: two identical runs on
/// fresh clusters end with identical PLog layouts and byte-identical
/// replica contents (this is what lets `taurus-determinism` diff end states
/// across seeded runs).
#[test]
fn pipelined_append_end_state_is_deterministic() {
    let run = || {
        let (stream, cluster) = setup(5, 1030);
        let mut next = 1u64;
        for i in 0..30u64 {
            let len = 1 + (i % 4);
            let (data, first, last) = group(next, len);
            next += len;
            stream.append_group(data, first, last).unwrap();
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
