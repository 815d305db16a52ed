//! Regenerates **Fig. 8**: performance relative to a monolithic database on
//! local storage.
//!
//! Paper shape:
//! * Socrates ≈ 5% *below* its local-storage baseline (four tiers);
//! * Taurus vs vanilla MySQL: +50% read-only, up to +200% write-only/TPC-C
//!   (append-only remote storage beats write-in-place local flushing);
//! * Taurus vs *optimized* MySQL: −9% read-only (network hop on misses),
//!   +87% write-only, +101% TPC-C.

#![forbid(unsafe_code)]

use taurus_baselines::{LocalEngine, LocalExecutor, SocratesDb, SocratesExecutor, TaurusExecutor};
use taurus_bench::{
    bench_clock, bench_config, header, launch_taurus_with, rel, txns_per_conn, ScaleRegime,
};
use taurus_common::config::StorageProfile;
use taurus_workload::{
    driver::load_initial, run_workload, Executor, SysbenchMode, SysbenchWorkload, TpccWorkload,
    Workload,
};

/// SATA-class device profile: with slower devices the storage architecture
/// (append-only remote vs write-in-place local) dominates the simulation
/// host's CPU noise, which is the regime the paper measures.
fn fig8_storage() -> StorageProfile {
    StorageProfile {
        append_us: 100,
        random_write_us: 400,
        read_us: 250,
    }
}

fn fig8_config(pool: usize) -> taurus_common::TaurusConfig {
    let mut cfg = bench_config(pool);
    cfg.storage = fig8_storage();
    cfg
}

fn measure(executor: &dyn Executor, workload: &dyn Workload, conns: usize) -> f64 {
    load_initial(executor, workload).expect("load");
    run_workload(executor, workload, conns, txns_per_conn(), 11).tps
}

fn main() {
    let conns = 8;
    let regime = ScaleRegime::StorageBound; // storage architecture visible
    let (rows, pool) = regime.geometry();
    println!("Fig. 8 — throughput relative to a monolithic local-storage DB");
    println!("(storage-bound regime so the storage architecture matters)\n");

    let workloads: Vec<(&str, Box<dyn Workload>)> = vec![
        (
            "SysBench read-only",
            Box::new(SysbenchWorkload::new(SysbenchMode::ReadOnly, rows, 200)),
        ),
        (
            "SysBench write-only",
            Box::new(SysbenchWorkload::new(SysbenchMode::WriteOnly, rows, 200)),
        ),
        ("TPC-C-like", Box::new(TpccWorkload::new(2))),
    ];

    for (label, workload) in &workloads {
        header(label);
        // Vanilla monolithic ("MySQL 8.0" bar).
        let vanilla = LocalExecutor {
            engine: LocalEngine::vanilla(bench_clock(), fig8_storage(), pool).unwrap(),
        };
        let vanilla_tps = measure(&vanilla, workload.as_ref(), conns);

        // Optimized monolithic (ported front-end optimizations).
        let optimized = LocalExecutor {
            engine: LocalEngine::optimized(bench_clock(), fig8_storage(), pool).unwrap(),
        };
        let optimized_tps = measure(&optimized, workload.as_ref(), conns);

        // Taurus.
        let (db, guard) = launch_taurus_with(fig8_config(pool)).unwrap();
        let taurus = TaurusExecutor::new(db);
        let taurus_tps = measure(&taurus, workload.as_ref(), conns);
        drop(guard);

        // Socrates-style 4-tier (reads pay the extra tier crossings).
        let sdb = SocratesDb::launch(fig8_config(pool), 6, 6, bench_clock(), 11).unwrap();
        let sguard = sdb.inner.start_background(500);
        let socrates = SocratesExecutor {
            db: std::sync::Arc::new(sdb),
        };
        let socrates_tps = measure(&socrates, workload.as_ref(), conns);
        drop(sguard);

        println!("  monolithic (vanilla)   : {vanilla_tps:>10.0} tps  (baseline = 1.0)");
        println!(
            "  monolithic (optimized) : {optimized_tps:>10.0} tps  {}",
            rel(optimized_tps, vanilla_tps)
        );
        println!(
            "  taurus                 : {taurus_tps:>10.0} tps  vs vanilla {}, vs optimized {}",
            rel(taurus_tps, vanilla_tps),
            rel(taurus_tps, optimized_tps)
        );
        println!(
            "  socrates-style 4-tier  : {socrates_tps:>10.0} tps  vs taurus {}",
            rel(socrates_tps, taurus_tps)
        );
    }

    println!();
    println!(
        "Shape targets: taurus > vanilla on writes (append-only vs\n\
         write-in-place), taurus slightly below optimized local on read-only\n\
         (network hop), socrates below taurus (extra tiers)."
    );
}
