//! Wall-clock proof that 3/3 replication fans out in parallel: on a real
//! clock with a non-trivial per-hop latency, the ack latency of an append
//! must be close to the *max* of the three replica round trips, not their
//! sum (paper §3.2).

#![expect(
    clippy::disallowed_methods,
    reason = "a wall-clock proof: every measurement reads the real clock"
)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use bytes::Bytes;
use taurus_common::clock::SystemClock;
use taurus_common::config::{NetworkProfile, StorageProfile};
use taurus_common::page::PageType;
use taurus_common::record::{LogRecord, LogRecordGroup, RecordBody};
use taurus_common::{DbId, Lsn, PageId};
use taurus_fabric::{Fabric, NodeKind};
use taurus_logstore::batch::encode_batch;
use taurus_logstore::LogStoreCluster;

mod common;
use common::create_stream;

const HOP_US: u64 = 1500;
const APPENDS: u64 = 10;

fn group(first: u64, len: u64) -> (Bytes, Lsn, Lsn) {
    let records: Vec<LogRecord> = (first..first + len)
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
    let (lo, hi) = (Lsn(first), Lsn(first + len - 1));
    (encode_batch(&[g], Lsn(first - 1), lo, hi), lo, hi)
}

#[test]
fn replica_fanout_ack_latency_is_max_of_three_not_sum() {
    let profile = NetworkProfile {
        hop_us: HOP_US,
        jitter_us: 0,
        master_nic_bytes_per_sec: 0,
    };
    let fabric = Fabric::new(SystemClock::shared(), profile, 3);
    let me = fabric.add_node(NodeKind::Compute);
    let cluster = LogStoreCluster::new(fabric, 3, 1 << 20);
    cluster.spawn_servers(3, StorageProfile::instant());
    // Large limit: no rollover (and no metadata append) inside the loop.
    let stream = create_stream(&cluster, DbId(1), me, 1 << 20);

    let start = Instant::now();
    let mut next = 1u64;
    for t in 0..APPENDS {
        let (data, first, last) = group(next, 2);
        next += 2;
        stream.append(t, data, first, last).unwrap();
    }
    let elapsed_us = start.elapsed().as_micros() as u64;

    // One replica round trip is 2 hops. Appending serially to the three
    // replicas would cost >= 6 hops per group; the parallel fan-out costs
    // ~2 hops (max of three concurrent round trips). Allow 2x headroom for
    // scheduling overhead — still far under the serial bound.
    let parallel_budget = APPENDS * 4 * HOP_US;
    let serial_cost = APPENDS * 6 * HOP_US;
    assert!(
        elapsed_us < parallel_budget,
        "appends took {elapsed_us}us; parallel fan-out should stay under \
         {parallel_budget}us (serial replication would cost {serial_cost}us)"
    );

    // The stream's own latency stats must tell the same story: mean ack
    // latency ~2 hops, strictly below 2x a single round trip.
    let snap = stream.stats().snapshot();
    let mean = snap.append_latency.map(|s| s.mean_us).unwrap_or(f64::MAX);
    assert!(
        mean < (4 * HOP_US) as f64,
        "mean append ack latency {mean:.0}us >= {}us (2x one round trip)",
        4 * HOP_US
    );
}

#[test]
fn shipped_profile_append_ack_costs_about_one_round_trip() {
    // At the shipped profiles (50 µs hop, 20 µs jitter, 20 µs device
    // append) every wait is short enough to be spun out, so whoever waits
    // holds a core — and the host is busy: a second appender drives the
    // same three Log Stores and a bystander spins, as the other
    // connections of a loaded master do. The appending thread must wait
    // everything itself, once: the three legs' hops, and the device time
    // behind them. A leg handed to another thread starts when that thread
    // gets a core (hundreds of µs late on a 2-vCPU host, which is what the
    // loaded benchmark measured and a quiet single-threaded run never
    // saw). Single calls and appends alternate, so host noise hits both
    // medians alike.
    const ROUNDS: usize = 300;
    let fabric = Fabric::new(SystemClock::shared(), NetworkProfile::default(), 3);
    let me = fabric.add_node(NodeKind::Compute);
    let cluster = LogStoreCluster::new(fabric.clone(), 3, 1 << 20);
    let servers = cluster.spawn_servers(3, StorageProfile::default());
    let stream = create_stream(&cluster, DbId(1), me, 1 << 20);
    let neighbour = create_stream(&cluster, DbId(2), me, 1 << 20);

    let mut call_us = Vec::with_capacity(ROUNDS);
    let mut append_us = Vec::with_capacity(ROUNDS);
    let measured = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut t = 0u64;
            while !measured.load(Ordering::Relaxed) {
                let (data, first, last) = group(2 * t + 1, 2);
                neighbour.append(t, data, first, last).unwrap();
                t += 1;
            }
        });
        scope.spawn(|| {
            while !measured.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        for turn in 0..ROUNDS as u64 {
            let t = Instant::now();
            fabric.call(me, servers[0], || ()).unwrap();
            call_us.push(t.elapsed().as_micros() as u64);

            let (data, first, last) = group(2 * turn + 1, 2);
            let t = Instant::now();
            stream.append(turn, data, first, last).unwrap();
            append_us.push(t.elapsed().as_micros() as u64);
        }
        measured.store(true, Ordering::Relaxed);
    });
    let median = |v: &mut Vec<u64>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let (call, append) = (median(&mut call_us), median(&mut append_us));
    assert!(
        append * 10 <= call * 16,
        "median 3/3 append ack {append}us > 1.6 x median single round trip {call}us"
    );
}

/// Measurement, not a gate (EXPERIMENTS.md, "what a PLog rollover costs"):
/// `cargo test --release -p taurus-logstore --test parallel_fanout -- --ignored --nocapture`.
/// Four appenders share one stream at the shipped network profile, taking
/// turns (and LSNs) from one allocator; the stream runs one append at a
/// time, in turn order. The PLog size limit is set so that the stream never
/// rolls over, or rolls every 64 or every 16 appends: the price of a
/// rollover (its seal, create and manifest RPCs, inside the turn that
/// needed it) is the difference between the rows.
#[test]
#[ignore = "prints a measurement"]
fn measure_what_a_plog_rollover_costs() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 1500;
    let group_len = group(1, 2).0.len();
    for appends_per_plog in [usize::MAX / group_len, 64, 16] {
        let fabric = Fabric::new(SystemClock::shared(), NetworkProfile::default(), 3);
        let me = fabric.add_node(NodeKind::Compute);
        let cluster = LogStoreCluster::new(fabric, 3, 1 << 20);
        cluster.spawn_servers(3, StorageProfile::instant());
        let limit = appends_per_plog * group_len;
        let stream = create_stream(&cluster, DbId(1), me, limit);
        // Turns and LSNs are handed out together, in order.
        let alloc = parking_lot::Mutex::new(0u64);
        let start = Instant::now();
        let mut lat_us: Vec<u64> = std::thread::scope(|scope| {
            let appenders: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut lat = Vec::with_capacity(PER_THREAD);
                        for _ in 0..PER_THREAD {
                            let t = Instant::now();
                            let turn = {
                                let mut next = alloc.lock();
                                *next += 1;
                                *next - 1
                            };
                            let (data, first, last) = group(2 * turn + 1, 2);
                            stream.append(turn, data, first, last).unwrap();
                            lat.push(t.elapsed().as_micros() as u64);
                        }
                        lat
                    })
                })
                .collect();
            appenders
                .into_iter()
                .flat_map(|a| a.join().unwrap())
                .collect()
        });
        let secs = start.elapsed().as_secs_f64();
        lat_us.sort_unstable();
        let pct = |p: usize| lat_us[(lat_us.len() - 1) * p / 100];
        println!(
            "appends/PLog {:>8}: {:>6.0} appends/s, append p50 {} us, p99 {} us, {} PLogs",
            if appends_per_plog > 64 {
                "no limit".to_string()
            } else {
                appends_per_plog.to_string()
            },
            lat_us.len() as f64 / secs,
            pct(50),
            pct(99),
            stream.entries().len(),
        );
    }
}
