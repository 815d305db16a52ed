//! `taurus-determinism` — same-seed/same-state checker.
//!
//! ```text
//! taurus-determinism [--seed N] [--ops N] [--inject-wall-clock]
//! ```
//!
//! Runs the seeded workload twice through the full fabric and diffs the
//! end-state fingerprints. Exits 0 when the two runs match, 1 when they
//! diverge (printing the mismatching fields), 2 on errors.
//! `--inject-wall-clock` deliberately mixes wall-clock time into the
//! workload to demonstrate what a detection looks like.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use taurus_verify::determinism::{check_determinism, Inject};

fn main() -> ExitCode {
    let mut seed = 42u64;
    let mut ops = 400usize;
    let mut inject = Inject::None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("taurus-determinism: --seed requires a number");
                    return ExitCode::from(2);
                }
            },
            "--ops" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => ops = v,
                None => {
                    eprintln!("taurus-determinism: --ops requires a number");
                    return ExitCode::from(2);
                }
            },
            "--inject-wall-clock" => inject = Inject::WallClock,
            "--help" | "-h" => {
                eprintln!("usage: taurus-determinism [--seed N] [--ops N] [--inject-wall-clock]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("taurus-determinism: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let report = match check_determinism(seed, ops, inject) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("taurus-determinism: workload failed: {e}");
            return ExitCode::from(2);
        }
    };
    println!("run 1: {}", report.first);
    println!("run 2: {}", report.second);
    if report.deterministic() {
        println!("taurus-determinism: OK — identical end state for seed {seed} ({ops} ops)");
        ExitCode::SUCCESS
    } else {
        println!("taurus-determinism: MISMATCH — end state differs across same-seed runs:");
        for m in &report.mismatches {
            println!("  {m}");
        }
        ExitCode::FAILURE
    }
}
