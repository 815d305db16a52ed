//! Regenerates **Table 1** of the paper: the probability of the storage
//! layer being unavailable for writes and reads under each replication
//! scheme, at x ∈ {0.15, 0.05, 0.01}, with exact formulas, the paper's
//! leading-order approximations, and a Monte Carlo cross-check.

#![forbid(unsafe_code)]

use taurus_replication::quorum::{approx_read, approx_write};
use taurus_replication::{
    quorum_read_unavailability, quorum_write_unavailability, simulate_quorum, simulate_taurus,
    taurus_read_unavailability, taurus_write_unavailability, TABLE1_ROWS,
};

fn sci(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else {
        format!("{v:.0e}")
    }
}

fn main() {
    let xs = [0.15, 0.05, 0.01];
    let trials: u64 = std::env::var("TAURUS_BENCH_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000_000);

    println!("Table 1: probability of the storage layer being unavailable");
    println!("(exact closed form | paper's leading-order approximation)");
    println!();
    println!(
        "{:<28} {:>7} {:>22} {:>22} {:>22}",
        "Replication method", "op", "x = 0.15", "x = 0.05", "x = 0.01"
    );
    for cfg in TABLE1_ROWS {
        let w: Vec<String> = xs
            .iter()
            .map(|&x| {
                format!(
                    "{} | {}",
                    sci(quorum_write_unavailability(cfg, x)),
                    sci(approx_write(cfg, x))
                )
            })
            .collect();
        let r: Vec<String> = xs
            .iter()
            .map(|&x| {
                format!(
                    "{} | {}",
                    sci(quorum_read_unavailability(cfg, x)),
                    sci(approx_read(cfg, x))
                )
            })
            .collect();
        println!(
            "{:<28} {:>7} {:>22} {:>22} {:>22}",
            cfg.label, "write", w[0], w[1], w[2]
        );
        println!(
            "{:<28} {:>7} {:>22} {:>22} {:>22}",
            "", "read", r[0], r[1], r[2]
        );
    }
    let tw: Vec<String> = xs
        .iter()
        .map(|&x| sci(taurus_write_unavailability(x)))
        .collect();
    let tr: Vec<String> = xs
        .iter()
        .map(|&x| sci(taurus_read_unavailability(x)))
        .collect();
    println!(
        "{:<28} {:>7} {:>22} {:>22} {:>22}",
        "Taurus", "write", tw[0], tw[1], tw[2]
    );
    println!(
        "{:<28} {:>7} {:>22} {:>22} {:>22}",
        "", "read", tr[0], tr[1], tr[2]
    );

    println!();
    println!("Monte Carlo cross-check at x = 0.05 ({trials} trials):");
    for cfg in TABLE1_ROWS {
        let sim = simulate_quorum(cfg, 0.05, trials, 42);
        println!(
            "  {:<28} write sim={:.2e} exact={:.2e}   read sim={:.2e} exact={:.2e}",
            cfg.label,
            sim.write_unavailability(),
            quorum_write_unavailability(cfg, 0.05),
            sim.read_unavailability(),
            quorum_read_unavailability(cfg, 0.05),
        );
    }
    let sim = simulate_taurus(500, 3, 0.05, trials, 42);
    println!(
        "  {:<28} write sim={:.2e} model=0          read sim={:.2e} model={:.2e}",
        "Taurus (500-node cluster)",
        sim.write_unavailability(),
        sim.read_unavailability(),
        taurus_read_unavailability(0.05),
    );
    println!();
    println!(
        "Shape check: Taurus write unavailability is identically 0 under\n\
         uncorrelated failures, and its read unavailability (x^3) matches\n\
         RAID-1 reads while beating PolarDB (3x^2) everywhere."
    );
}
