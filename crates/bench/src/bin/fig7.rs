//! Regenerates **Fig. 7**: Taurus vs Amazon-Aurora-style quorum storage on
//! SysBench read-only, SysBench write-only, and TPC-C.
//!
//! The paper reports Taurus ahead in all five benchmarks — slightly (+16%)
//! on read-only, >50% on write-only, up to +160% on TPC-C. In this
//! reproduction both systems run on identical simulated hardware; the only
//! difference is the storage architecture (3/3 Log Stores + wait-for-one
//! Page Stores vs a 6/4 quorum that persists and consolidates the log on
//! all six replicas).

#![forbid(unsafe_code)]

use taurus_baselines::{QuorumEngine, QuorumExecutor, TaurusExecutor};
use taurus_bench::{
    bench_clock, bench_config, header, launch_taurus_with, rel, txns_per_conn, JsonReport,
    ScaleRegime, ThreadTimes,
};
use taurus_common::config::NetworkProfile;
use taurus_fabric::Fabric;
use taurus_workload::{
    driver::load_initial, driver::DriverReport, run_workload, SysbenchMode, SysbenchWorkload,
    TpccWorkload, Workload,
};

fn run_pair(
    workload: &dyn Workload,
    regime: ScaleRegime,
    conns: usize,
) -> (DriverReport, DriverReport) {
    let (rows, pool) = regime.geometry();
    let _ = rows;
    // Taurus.
    let taurus_cfg = {
        let mut cfg = bench_config(pool);
        cfg.engine_buffer_pool_pages = pool;
        cfg
    };
    let (db, guard) = launch_taurus_with(taurus_cfg.clone()).expect("launch taurus");
    let taurus = TaurusExecutor::new(db);
    load_initial(&taurus, workload).expect("load taurus");
    let threads = ThreadTimes::sample();
    let t_report = run_workload(&taurus, workload, conns, txns_per_conn(), 7);
    let threads = ThreadTimes::sample().since(&threads);
    let master = taurus.db.master();
    let sal = &master.sal;
    let stats = sal.stats.snapshot();
    println!("  taurus SAL: {stats}");
    println!("  taurus recovery: {}", taurus_bench::recovery_line(&stats));
    let (hit_ratio, resident) = master.pool_stats();
    let (prefetched, prefetch_hits) = master.pool_prefetch_stats();
    println!(
        "  taurus pool: hit_ratio={hit_ratio:.2} resident={resident} \
         prefetched={prefetched} prefetch_hits={prefetch_hits}"
    );
    println!("  taurus tree latch: {}", master.latch_stats());
    println!(
        "  taurus batched reads: {}",
        sal.read_batch_stats.snapshot()
    );
    for (node, queued, in_flight) in sal.pipeline_gauges() {
        if queued > 0 || in_flight > 0 {
            println!("  taurus SAL pipe {node}: queued={queued} in_flight={in_flight}");
        }
    }
    println!("  taurus dispatch: {}", taurus_bench::dispatch_line(sal));
    let log = sal.log_stats().snapshot();
    println!("  taurus log store: {log}");
    println!("  taurus page store: {}", taurus.db.pages.store_stats());
    println!("  taurus {}", threads.cores_line(t_report.wall_secs));
    drop(guard);

    // Aurora-style 6/4 quorum on identical hardware profiles.
    let fabric = Fabric::new(bench_clock(), NetworkProfile::default(), 7);
    let cfg = bench_config(pool);
    let engine = QuorumEngine::aurora(fabric, cfg.clone(), cfg.storage).expect("launch aurora");
    let consolidation = engine.cluster().start_background_consolidation();
    let aurora = QuorumExecutor { engine };
    load_initial(&aurora, workload).expect("load aurora");
    let a_report = run_workload(&aurora, workload, conns, txns_per_conn(), 7);
    drop(consolidation);

    println!("  taurus : {}", t_report.row());
    println!("  aurora : {}", a_report.row());
    (t_report, a_report)
}

/// CI smoke (`TAURUS_FIG7_ASSERT=1`): on the bench's non-instant network,
/// the mean 3/3 Log Store append ack must cost about one replica round
/// trip (max-of-three), strictly under twice it — serial fan-out would sit
/// at ~3x. Runs single-connection on a quiet cluster, and calibrates the
/// bound on this machine first: `thread::sleep` overshoot dwarfs the
/// simulated microsecond latencies, so a bound computed from the profile
/// alone would be fiction.
fn append_latency_smoke() {
    header("Log Store append smoke: ack latency = max-of-three, not sum");
    let mut cfg = bench_config(4096);
    // A hop big enough that the network model dominates the measurement:
    // at the default 50us hop, thread scheduling noise (~1ms on a busy CI
    // host) swamps the difference between one round trip and three.
    cfg.network.hop_us = 2_000;
    cfg.network.jitter_us = 0;
    let clock = bench_clock();
    let trips = 20u64;
    let t0 = clock.now_us();
    for _ in 0..trips {
        // One replica round trip: request hop, append charge, response hop.
        clock.sleep_us(cfg.network.hop_us);
        clock.sleep_us(cfg.storage.append_us);
        clock.sleep_us(cfg.network.hop_us);
    }
    let single_trip_us = (clock.now_us().saturating_sub(t0) / trips).max(1);

    let (db, guard) = launch_taurus_with(cfg).expect("launch taurus");
    let taurus = TaurusExecutor::new(db);
    let w = SysbenchWorkload::new(SysbenchMode::WriteOnly, 512, 200);
    load_initial(&taurus, &w).expect("load smoke workload");
    let sal = &taurus.db.master().sal;
    sal.log_stats().append_latency.clear();
    let _ = run_workload(&taurus, &w, 1, 150, 11);
    let snap = sal.log_stats().snapshot();
    drop(guard);

    println!("  calibrated single replica trip: {single_trip_us}us");
    println!("  log store: {snap}");
    let mean = snap.append_latency.map(|l| l.mean_us).unwrap_or(f64::MAX);
    let bound = (2 * single_trip_us) as f64;
    assert!(
        mean < bound,
        "mean log append ack {mean:.0}us >= 2x one replica trip ({bound:.0}us) \
         — the 3/3 fan-out is not running in parallel"
    );
    println!("  mean append ack {mean:.0}us < {bound:.0}us: parallel fan-out OK");
}

/// CI smoke (`TAURUS_FIG7_STORBND_ASSERT=1`) on the storage-bound read-only
/// benchmark: the Taurus/Aurora TPS ratio is computed against the baseline
/// measured **in this run on this host** — never against the committed
/// trail, whose absolute Aurora TPS drifts with host speed (the fig7 "reads
/// <1x while Taurus is unchanged" anomaly). The bound is env-tunable for
/// noisy runners (`TAURUS_FIG7_STORBND_RATIO`).
///
/// Both sides run the same layered Page Store, so the ratio isolates the
/// replication scheme. The paper's consolidation-order comparison is a model
/// in the `ablations` bench; no Page Store runs another policy.
fn storage_bound_read_smoke(layered: &DriverReport, aurora: &DriverReport) {
    header("Storage-bound read smoke: same-run ratio");
    let ratio = layered.tps / aurora.tps.max(1e-9);
    let bound: f64 = std::env::var("TAURUS_FIG7_STORBND_RATIO")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.75);
    assert!(
        ratio >= bound,
        "SysBench read-only (storage-bound): same-run taurus/aurora ratio {ratio:.3} \
         < bound {bound:.2}"
    );
    println!("  same-run storage-bound read ratio {ratio:.3} >= {bound:.2}: OK");
}

fn main() {
    let conns = 8;
    println!("Fig. 7 — Taurus vs Aurora-style quorum storage (throughput)");
    println!("paper shape: Taurus wins everywhere; small margin read-only,");
    println!("large margins write-only and TPC-C\n");

    let mut wins = 0;
    let mut total = 0;
    let mut json = JsonReport::new();
    let mut write_cached_ratio = None;
    let mut storbnd_read: Option<(DriverReport, DriverReport)> = None;

    for (label, mode, regime) in [
        (
            "SysBench read-only, cached dataset",
            SysbenchMode::ReadOnly,
            ScaleRegime::Cached,
        ),
        (
            "SysBench read-only, storage-bound dataset",
            SysbenchMode::ReadOnly,
            ScaleRegime::StorageBound,
        ),
        (
            "SysBench write-only, cached dataset",
            SysbenchMode::WriteOnly,
            ScaleRegime::Cached,
        ),
        (
            "SysBench write-only, storage-bound dataset",
            SysbenchMode::WriteOnly,
            ScaleRegime::StorageBound,
        ),
    ] {
        header(label);
        let (rows, _) = regime.geometry();
        let w = SysbenchWorkload::new(mode, rows, 200);
        let (t, a) = run_pair(&w, regime, conns);
        let mut fields = vec![
            ("benchmark", label.into()),
            ("taurus_tps", t.tps.into()),
            ("aurora_tps", a.tps.into()),
        ];
        let ratio = t.tps / a.tps.max(1e-9);
        if (mode, regime) == (SysbenchMode::ReadOnly, ScaleRegime::Cached) {
            // Both sides answer from a resident pool through the same tree
            // latch; what differs is how the host schedules 8 connections
            // on few cores. Run 100–400× longer (1–3 s a side on 2 vCPUs)
            // the ratio still read 1.02–1.22 over six runs, so none is
            // printed or counted. `taurus-benchmark`'s point-read-cached
            // measures this path.
            println!("  taurus vs aurora: no ratio (same engine path on both sides)");
        } else {
            println!("  taurus vs aurora: {}", rel(t.tps, a.tps));
            fields.push(("ratio", ratio.into()));
            total += 1;
            if t.tps > a.tps {
                wins += 1;
            }
        }
        if mode == SysbenchMode::WriteOnly {
            // Write-only rows carry commit latency percentiles: the
            // multi-stream group-commit path trades per-commit waits for
            // throughput, and the tail is where that trade would show.
            fields.push(("taurus_commit_p50_us", t.p50_latency_us.into()));
            fields.push(("taurus_commit_p99_us", t.p99_latency_us.into()));
            fields.push(("aurora_commit_p50_us", a.p50_latency_us.into()));
            fields.push(("aurora_commit_p99_us", a.p99_latency_us.into()));
            if regime == ScaleRegime::Cached {
                write_cached_ratio = Some(ratio);
            }
        } else {
            // Read-only rows carry read latency percentiles: the layered
            // consolidation work targets the storage-bound read tail.
            fields.push(("taurus_read_p50_us", t.p50_latency_us.into()));
            fields.push(("taurus_read_p99_us", t.p99_latency_us.into()));
            fields.push(("aurora_read_p50_us", a.p50_latency_us.into()));
            fields.push(("aurora_read_p99_us", a.p99_latency_us.into()));
            if regime == ScaleRegime::StorageBound {
                storbnd_read = Some((t.clone(), a.clone()));
            }
        }
        json.row(fields);
    }

    header("TPC-C-like");
    let w = TpccWorkload::new(2);
    let (t, a) = run_pair(&w, ScaleRegime::Cached, conns);
    println!("  taurus vs aurora: {}", rel(t.tps, a.tps));
    json.row(vec![
        ("benchmark", "TPC-C-like".into()),
        ("taurus_tps", t.tps.into()),
        ("aurora_tps", a.tps.into()),
        ("ratio", (t.tps / a.tps.max(1e-9)).into()),
    ]);
    total += 1;
    if t.tps > a.tps {
        wins += 1;
    }

    println!();
    println!(
        "Summary: Taurus ahead in {wins}/{total} compared benchmarks \
         (paper: 5/5; the cached read-only row carries no ratio)."
    );
    if let Err(e) = json.write("fig7") {
        eprintln!("fig7: could not write bench_results: {e}");
    }

    if std::env::var("TAURUS_FIG7_ASSERT").as_deref() == Ok("1") {
        append_latency_smoke();
    }
    if std::env::var("TAURUS_FIG7_WRITE_ASSERT").as_deref() == Ok("1") {
        // Write-only (cached) must beat — or in short smoke runs, at least
        // track — the Aurora baseline. The full-length run clears 1.0x; CI
        // smoke runs few transactions on a noisy shared host, so the bound
        // is env-tunable (default leaves headroom for that noise).
        let bound: f64 = std::env::var("TAURUS_FIG7_WRITE_RATIO")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.9);
        let ratio = write_cached_ratio.expect("write-only cached benchmark ran");
        assert!(
            ratio >= bound,
            "SysBench write-only (cached): taurus/aurora ratio {ratio:.3} < bound {bound:.2} \
             — the parallel group-commit path has regressed"
        );
        println!("write-only cached ratio {ratio:.3} >= {bound:.2}: OK");
    }
    if std::env::var("TAURUS_FIG7_STORBND_ASSERT").as_deref() == Ok("1") {
        let (t, a) = storbnd_read.expect("storage-bound read-only benchmark ran");
        storage_bound_read_smoke(&t, &a);
    }
}
