//! Regenerates **Fig. 10** (Appendix A.1): scaling with front-end instance
//! size. The paper's 16/32/60-vCPU instances map to worker-thread counts
//! with proportionally sized buffer pools; the cached ("1GB") regime scales
//! ~linearly, the storage-bound ("1TB") regime sub-linearly, and TPC-C
//! flattens between the two largest instances due to data contention.

#![forbid(unsafe_code)]

use taurus_baselines::TaurusExecutor;
use taurus_bench::{bench_config, header, launch_taurus_with, txns_per_conn, ScaleRegime};
use taurus_workload::{
    driver::load_initial, run_workload, SysbenchMode, SysbenchWorkload, TpccWorkload, Workload,
};

fn run_instance(workload: &dyn Workload, vcpus: usize, pool_pages: usize) -> f64 {
    let (db, guard) = launch_taurus_with(bench_config(pool_pages)).unwrap();
    let exec = TaurusExecutor::new(db);
    load_initial(&exec, workload).unwrap();
    let report = run_workload(&exec, workload, vcpus, txns_per_conn(), 10);
    drop(guard);
    report.tps
}

fn main() {
    println!("Fig. 10 — scaling with front-end instance size");
    println!("instances: (4 conns, small pool) (8, medium) (15, large)\n");
    // Laptop-scaled instance ladder mirroring 16/32/60 vCPUs with
    // 88/192/280 GB buffer pools.
    let instances = [(4usize, 1024usize), (8, 2048), (15, 3072)];

    for (label, regime, mode) in [
        (
            "SysBench read, cached",
            ScaleRegime::Cached,
            SysbenchMode::ReadOnly,
        ),
        (
            "SysBench write, cached",
            ScaleRegime::Cached,
            SysbenchMode::WriteOnly,
        ),
        (
            "SysBench read, storage-bound",
            ScaleRegime::StorageBound,
            SysbenchMode::ReadOnly,
        ),
        (
            "SysBench write, storage-bound",
            ScaleRegime::StorageBound,
            SysbenchMode::WriteOnly,
        ),
    ] {
        header(label);
        let (rows, _) = regime.geometry();
        let w = SysbenchWorkload::new(mode, rows, 200);
        let mut prev = 0.0;
        for (vcpus, pool) in instances {
            let pool = if regime == ScaleRegime::StorageBound {
                pool / 8
            } else {
                pool
            };
            let tps = run_instance(&w, vcpus, pool);
            let growth = if prev > 0.0 {
                format!("{:.2}x", tps / prev)
            } else {
                "-".into()
            };
            println!("  instance {vcpus:>2} conns: {tps:>10.0} tps (vs previous: {growth})");
            prev = tps;
        }
    }

    header("TPC-C-like (contention limits large instances)");
    let w = TpccWorkload::new(1); // single warehouse: maximal contention
    let mut prev = 0.0;
    for (vcpus, pool) in instances {
        let tps = run_instance(&w, vcpus, pool);
        let growth = if prev > 0.0 {
            format!("{:.2}x", tps / prev)
        } else {
            "-".into()
        };
        println!("  instance {vcpus:>2} conns: {tps:>10.0} tps (vs previous: {growth})");
        prev = tps;
    }
    println!();
    println!(
        "Shape targets: near-linear growth when cached, sub-linear when\n\
         storage-bound, and TPC-C flattening at the largest instance."
    );
}
