//! Regenerates **Fig. 12** (Appendix A.3): query latency.
//!
//! Paper shape: the read benchmark on a cached ("1 GB") database answers
//! from the front-end buffer pool at ~1 ms, while the storage-bound
//! ("1 TB") database pays the storage layer round trip — ~5 ms, i.e. a few
//! times higher. Write and TPC-C latencies sit in between, dominated by the
//! durable Log Store write.

#![forbid(unsafe_code)]

use taurus_baselines::TaurusExecutor;
use taurus_bench::{bench_config, launch_taurus_with, txns_per_conn, JsonReport, ScaleRegime};
use taurus_workload::{
    driver::load_initial, run_workload, SysbenchMode, SysbenchWorkload, TpccWorkload, Workload,
};

fn run(workload: &dyn Workload, regime: ScaleRegime, conns: usize) -> (f64, u64, u64) {
    let (_, pool) = regime.geometry();
    let (db, guard) = launch_taurus_with(bench_config(pool)).unwrap();
    let exec = TaurusExecutor::new(db);
    load_initial(&exec, workload).unwrap();
    let report = run_workload(&exec, workload, conns, txns_per_conn(), 13);
    drop(guard);
    (
        report.mean_latency_us,
        report.p95_latency_us,
        report.p99_latency_us,
    )
}

fn main() {
    let conns = 8; // the paper's latency figure uses 50 connections at scale
    println!("Fig. 12 — query latency (mean / p95 / p99 per transaction)\n");
    let mut cached_read = 0.0;
    let mut bound_read = 0.0;
    let mut json = JsonReport::new();
    for (label, regime, mode) in [
        (
            "SysBench read, cached   ",
            ScaleRegime::Cached,
            SysbenchMode::ReadOnly,
        ),
        (
            "SysBench read, stor-bnd ",
            ScaleRegime::StorageBound,
            SysbenchMode::ReadOnly,
        ),
        (
            "SysBench write, cached  ",
            ScaleRegime::Cached,
            SysbenchMode::WriteOnly,
        ),
        (
            "SysBench write, stor-bnd",
            ScaleRegime::StorageBound,
            SysbenchMode::WriteOnly,
        ),
    ] {
        let (rows, _) = regime.geometry();
        let w = SysbenchWorkload::new(mode, rows, 200);
        let (mean, p95, p99) = run(&w, regime, conns);
        println!("{label}: {:>8.0}us / {p95:>6}us / {p99:>6}us", mean);
        json.row(vec![
            ("benchmark", label.trim_end().into()),
            ("mean_latency_us", mean.into()),
            ("p95_latency_us", p95.into()),
            ("p99_latency_us", p99.into()),
        ]);
        if mode == SysbenchMode::ReadOnly {
            if regime == ScaleRegime::Cached {
                cached_read = mean;
            } else {
                bound_read = mean;
            }
        }
    }
    let w = TpccWorkload::new(2);
    let (mean, p95, p99) = run(&w, ScaleRegime::Cached, conns);
    println!(
        "TPC-C-like              : {:>8.0}us / {p95:>6}us / {p99:>6}us",
        mean
    );
    json.row(vec![
        ("benchmark", "TPC-C-like".into()),
        ("mean_latency_us", mean.into()),
        ("p95_latency_us", p95.into()),
        ("p99_latency_us", p99.into()),
    ]);
    if let Err(e) = json.write("fig12") {
        eprintln!("fig12: could not write bench_results: {e}");
    }

    println!();
    if cached_read > 0.0 {
        println!(
            "Read latency ratio storage-bound/cached: {:.1}x (paper: ~5x —\n\
              the upper bound of the compute/storage separation overhead).",
            bound_read / cached_read
        );
    }
}
