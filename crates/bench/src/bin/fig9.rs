//! Regenerates **Fig. 9**: replica lag vs master write rate.
//!
//! Paper shape: Taurus replica lag stays in single-digit milliseconds even
//! at 200k writes/s because replicas read the log from the Log Stores (whose
//! FIFO caches serve the fresh tail from memory) — the master's NIC is not
//! on the path. The rejected master-streaming design degrades with
//! write-rate × replica-count because every byte crosses the master NIC.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use taurus_baselines::StreamingReplicaSim;
use taurus_bench::{bench_clock, bench_config, launch_taurus_with, ThreadTimes};
use taurus_common::config::NetworkProfile;
use taurus_common::Lsn;
use taurus_fabric::Fabric;

/// Measures Taurus update-visibility lag at a target write rate: a writer
/// thread updates a value on the master; a watcher observes when the
/// replica's polled view catches up (the paper's stored-procedure probe).
fn taurus_lag_at_rate(writes_per_sec: u64, duration: Duration) -> (f64, f64) {
    let (db, guard) = launch_taurus_with(bench_config(2048)).expect("launch");
    let replica = db.add_replica().expect("replica");
    let master = db.master();
    // Seed the probed row.
    let mut t = master.begin();
    t.put(b"probe", b"0").expect("seed");
    t.commit().expect("seed commit");

    let stop = Arc::new(AtomicBool::new(false));
    // Replica poller: tight loop, like the paper's replica applying the log.
    let poller = {
        let replica = Arc::clone(&replica);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let _ = replica.poll();
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the poller's period: the lag it measures is the bench's output"
                )]
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };

    let clock = bench_clock();
    let duration_us = duration.as_micros() as u64;
    let threads = ThreadTimes::sample();
    let start_us = clock.now_us();
    let mut lags_us: Vec<u64> = Vec::new();
    let mut achieved_writes = 0u64;
    let mut counter = 0u64;
    // Continuous writes at the highest rate the host sustains (bounded by
    // `writes_per_sec` via a pacing check); every 25th commit is probed for
    // replica visibility, like the paper's stored-procedure sampling.
    while clock.now_us().saturating_sub(start_us) < duration_us {
        counter += 1;
        let mut t = master.begin();
        t.put(b"probe", format!("{counter}").as_bytes())
            .expect("write");
        let commit_lsn = t.commit().expect("commit");
        achieved_writes += 1;
        master.publish();
        if counter.is_multiple_of(25) {
            let committed_at_us = clock.now_us();
            loop {
                if replica.visible_lsn() >= commit_lsn {
                    lags_us.push(clock.now_us().saturating_sub(committed_at_us));
                    break;
                }
                if clock.now_us().saturating_sub(committed_at_us) > 500_000 {
                    lags_us.push(500_000);
                    break;
                }
                // The probe waits for background work — the slice flush,
                // the senders' acks — whose threads give their core away
                // while they wait: holding this one would starve them on a
                // two-core host (samples then ran into the 500 ms cap).
                std::thread::yield_now();
            }
        }
        // Pacing: stay at or below the requested rate.
        let target_elapsed_us = 1_000_000 * achieved_writes / writes_per_sec.max(1);
        let elapsed_us = clock.now_us().saturating_sub(start_us);
        if elapsed_us < target_elapsed_us {
            clock.sleep_us(target_elapsed_us - elapsed_us);
        }
    }
    let threads = ThreadTimes::sample().since(&threads);
    let window_secs = clock.now_us().saturating_sub(start_us) as f64 / 1e6;
    stop.store(true, Ordering::Relaxed);
    let _ = poller.join();
    // The beat thread polls the benchmark's replica and runs the recycle
    // rounds: its run share and its runnable-but-waiting share say whether
    // it got a core when it wanted one.
    let (beat_run, beat_wait) = threads.cores("beat", window_secs);
    println!(
        "  [{writes_per_sec} w/s target] beat thread: run {beat_run:.3} of a core, \
         waiting runnable {beat_wait:.3}; {}",
        threads.cores_line(window_secs)
    );
    let stats = db.master().sal.stats.snapshot();
    println!("  [{writes_per_sec} w/s target] SAL: {stats}");
    println!(
        "  [{writes_per_sec} w/s target] recovery: {}",
        taurus_bench::recovery_line(&stats)
    );
    println!(
        "  [{} w/s target] log store: {}",
        writes_per_sec,
        db.master().sal.log_stats().snapshot()
    );
    println!(
        "  [{} w/s target] dispatch: {}",
        writes_per_sec,
        taurus_bench::dispatch_line(&db.master().sal)
    );
    let master = db.master();
    let (hit_ratio, resident) = master.pool_stats();
    let (prefetched, prefetch_hits) = master.pool_prefetch_stats();
    println!(
        "  [{} w/s target] pool: hit_ratio={hit_ratio:.2} resident={resident} \
         prefetched={prefetched} prefetch_hits={prefetch_hits}",
        writes_per_sec
    );
    drop(guard);
    let wall_secs = (clock.now_us().saturating_sub(start_us) as f64 / 1e6).max(1e-9);
    let achieved_rate = achieved_writes as f64 / wall_secs;
    lags_us.sort_unstable();
    let mean = lags_us.iter().sum::<u64>() as f64 / lags_us.len().max(1) as f64;
    (achieved_rate, mean / 1000.0)
}

/// Streaming baseline: analytic + simulated NIC serialization lag at the
/// same log byte rate with 15 replicas over a 10 Gbps master NIC.
fn streaming_lag_at_rate(log_bytes_per_write: usize, writes_per_sec: u64, replicas: usize) -> f64 {
    let nic = 1_250_000_000u64; // 10 Gbps in bytes/s
    let fabric = Fabric::new(
        bench_clock(),
        NetworkProfile {
            hop_us: 50,
            jitter_us: 0,
            master_nic_bytes_per_sec: nic,
        },
        3,
    );
    let sim = StreamingReplicaSim::new(fabric, replicas);
    // Issue a burst representing one second of traffic, compressed in time:
    // the NIC model queues sends, so the mean queueing delay reflects the
    // utilization level.
    let total_writes = writes_per_sec.min(20_000); // bounded burst
    for i in 0..total_writes {
        sim.master_write(Lsn(i + 1), log_bytes_per_write);
    }
    // Wait for receivers to drain.
    #[expect(
        clippy::disallowed_methods,
        reason = "the streaming baseline's receivers signal nothing when they drain"
    )]
    std::thread::sleep(Duration::from_millis(50));
    let lag_ms = sim.mean_lag_us() / 1000.0;
    sim.shutdown();
    // Analytic floor: utilization = rate*bytes*replicas/nic; at u >= 1 the
    // queue diverges (lag unbounded).
    let u = (writes_per_sec as f64) * (log_bytes_per_write as f64) * (replicas as f64) / nic as f64;
    if u >= 1.0 {
        f64::INFINITY
    } else {
        lag_ms
    }
}

fn main() {
    println!("Fig. 9 — replica lag vs master write rate");
    println!("paper shape: Taurus lag ~ms and nearly flat to 200k w/s;");
    println!("master-streaming degrades as write-rate x replicas saturates the NIC\n");

    println!("{:<28} {:>14} {:>12}", "system", "writes/s", "mean lag");
    for target in [200u64, 1000, 4000] {
        let (rate, lag_ms) = taurus_lag_at_rate(target, Duration::from_secs(3));
        println!(
            "{:<28} {:>14.0} {:>10.2}ms",
            "taurus (replica via LogStore)", rate, lag_ms
        );
    }

    println!();
    // Streaming design with the paper's parameters: 500-byte log writes,
    // 15 replicas, 10 Gbps NIC. 100 MB/s of log = 200k writes/s of 500B.
    for (rate, label) in [
        (50_000u64, "25% NIC utilization"),
        (150_000, "75% NIC utilization"),
        (210_000, ">100% NIC utilization"),
    ] {
        let lag = streaming_lag_at_rate(500, rate, 15);
        if lag.is_finite() {
            println!(
                "{:<28} {:>14} {:>10.2}ms   ({label})",
                "master-streaming (15 reps)", rate, lag
            );
        } else {
            println!(
                "{:<28} {:>14} {:>12}   ({label}: queue diverges)",
                "master-streaming (15 reps)", rate, "unbounded"
            );
        }
    }
    println!();
    println!(
        "The Taurus rows stay flat because the log fan-out is served by the\n\
         Log Store tier; the streaming rows blow up exactly when write-rate x\n\
         replica-count exceeds the master NIC — the paper's 12 Gbps argument."
    );
}
