//! `taurus-lint` — workspace convention checker.
//!
//! ```text
//! taurus-lint [--root DIR] [--json] [--quiet] [--no-lockgraph]
//! ```
//!
//! Scans `crates/*/src/**/*.rs` under the root (default: the current
//! directory, falling back to the workspace the binary was built from),
//! runs both the line-level convention rules and the `lockgraph`
//! lock-discipline analysis, prints `file:line: [rule] message` diagnostics
//! plus a summary, and exits 1 if any violation is found, 2 on usage or I/O
//! errors, 0 when clean. `--json` swaps the human output for one
//! machine-readable JSON object; `--no-lockgraph` skips the lock analysis.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use taurus_verify::lint::lint_workspace;
use taurus_verify::lockgraph::analyze_workspace;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut quiet = false;
    let mut lockgraph = true;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("taurus-lint: --root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--quiet" => quiet = true,
            "--no-lockgraph" => lockgraph = false,
            "--help" | "-h" => {
                eprintln!("usage: taurus-lint [--root DIR] [--json] [--quiet] [--no-lockgraph]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("taurus-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(|| {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        if cwd.join("crates").is_dir() {
            cwd
        } else {
            // Fall back to the workspace this binary was compiled in.
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .parent()
                .and_then(|p| p.parent())
                .map(PathBuf::from)
                .unwrap_or(cwd)
        }
    });

    let mut report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("taurus-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if lockgraph {
        match analyze_workspace(&root) {
            Ok(a) => {
                report.diagnostics.extend(a.report.diagnostics);
                report.suppressed += a.report.suppressed;
                report.diagnostics.sort_by(|a, b| {
                    (a.file.clone(), a.line, a.rule).cmp(&(b.file.clone(), b.line, b.rule))
                });
            }
            Err(e) => {
                eprintln!(
                    "taurus-lint: lockgraph scan failed under {}: {e}",
                    root.display()
                );
                return ExitCode::from(2);
            }
        }
    }

    if json {
        println!("{}", report.to_json());
    } else {
        if !quiet {
            for d in &report.diagnostics {
                println!("{d}");
            }
        }
        let by_rule = report.by_rule();
        let rule_summary: Vec<String> = by_rule
            .iter()
            .filter(|(_, n)| **n > 0)
            .map(|(r, n)| format!("{r}: {n}"))
            .collect();
        println!(
            "taurus-lint: {} violation(s), {} suppressed, {} file(s) scanned{}",
            report.diagnostics.len(),
            report.suppressed,
            report.files_scanned,
            if rule_summary.is_empty() {
                String::new()
            } else {
                format!(" ({})", rule_summary.join(", "))
            }
        );
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
