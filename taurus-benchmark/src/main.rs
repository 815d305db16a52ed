//! `taurus-benchmark`: the repo's one benchmark. See README.md.
//!
//! ```text
//! taurus-benchmark [--workload <name>|all] [--seed <u64>] [--seconds <n>]
//!                  [--trace <0|1>] [--trace-out <file>] [--out <file.jsonl>]
//! taurus-benchmark --compare <a.jsonl> <b.jsonl>
//! ```
//!
//! Each (workload, pass) run prints its notes, every metric by name with
//! its unit, and as its last line one JSON object with exactly the keys
//! `correct`, `attempted`, `failed`, `metrics`. `--trace 0` is the
//! untraced pass (end-to-end metrics), `--trace 1` the traced pass
//! (per-layer metrics); without `--trace` both run, without `--workload`
//! all four workloads do.

mod compare;
mod exec;
mod gen;
mod hist;
mod json;
mod ladder;
mod layers;
mod report;
mod run;
mod spec;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use spec::{MetricDef, Workload, END_TO_END, PER_LAYER, WORKLOADS};

/// `run_seconds` of BENCHMARK.json, for runs that do not say.
const DEFAULT_SECONDS: f64 = 16.0;

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    /// `Some(false)` untraced only, `Some(true)` traced only, `None` both.
    trace: Option<bool>,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage() -> String {
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: taurus-benchmark [--workload <{}|all>] [--seed <u64>] [--seconds <n>] \
         [--trace <0|1>] [--trace-out <file>] [--out <file.jsonl>]\n       \
         taurus-benchmark --compare <a.jsonl> <b.jsonl>",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        trace_out: None,
        out: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let wl = spec::workload(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?;
                    args.workloads = vec![wl];
                }
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed: {e}\n{}", usage()))?;
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}\n{}", usage()))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                });
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => {
                let a = PathBuf::from(value()?);
                args.compare = Some((a, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

/// Where a traced run leaves its spans unless told otherwise: under the
/// cargo target directory, which is inside the checkout and ignored by git.
fn default_trace_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    target
        .join("taurus-benchmark-trace")
        .join(format!("{workload}.jsonl"))
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

/// Runs one pass of one workload and prints it. `Ok(correct)`.
fn run_pass(wl: &'static Workload, traced: bool, args: &Args) -> Result<bool, String> {
    let clients = wl.clients();
    println!(
        "== {} | {} pass | seed {} | {} s window",
        wl.name,
        if traced { "traced" } else { "untraced" },
        args.seed,
        args.seconds
    );
    println!("   why: {}", wl.why);
    println!(
        "   load model: closed loop, {clients} connections on {clients} OS threads, zero think \
         time, one process; {} rows of {} B, engine pool {} pages{}",
        wl.rows,
        spec::ROW_BYTES,
        wl.pool_pages,
        if wl.replica { ", one read replica" } else { "" }
    );
    let (outcome, defs): (_, Vec<MetricDef>) = if traced {
        let path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| default_trace_path(wl.name));
        (
            run::traced(wl, args.seed, args.seconds, &path),
            PER_LAYER.to_vec(),
        )
    } else {
        (
            run::untraced(wl, args.seed, args.seconds),
            END_TO_END.iter().map(|(d, _)| *d).collect(),
        )
    };
    let outcome = outcome.map_err(|e| format!("{}: run failed: {e:?}", wl.name))?;
    let metrics = outcome.metrics.finish(&defs)?;
    for note in &outcome.notes {
        println!("   {note}");
    }
    print!("{}", report::table(&metrics));
    if !outcome.metrics.undefined.is_empty() {
        println!(
            "   undefined on this run (printed as 0): {}",
            outcome.metrics.undefined.join(", ")
        );
    }
    let line = report::result_json(&outcome.verdict, &metrics);
    if let Some(path) = &args.out {
        let tagged = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, {}",
            json::quote(wl.name),
            args.seed,
            args.seconds,
            u8::from(traced),
            &line[1..]
        );
        append_line(path, &tagged).map_err(|e| format!("--out {}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(outcome.verdict.correct)
}

fn run_compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        compare::RunSet::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (text, any_worse) = compare::compare(&load(a)?, &load(b)?);
    print!("{text}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            return run_compare(a, b);
        }
        let mut all_correct = true;
        for wl in &args.workloads {
            for traced in [false, true] {
                if args.trace.is_none_or(|t| t == traced) {
                    all_correct &= run_pass(wl, traced, &args)?;
                }
            }
        }
        Ok(all_correct)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("taurus-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::spec::Better;

    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn declared(section: &Json) -> Vec<(String, String, String, Option<f64>)> {
        section
            .as_arr()
            .expect("an array of metrics")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    /// `BENCHMARK.json` and the tables in `spec.rs` declare the same
    /// workloads, metrics, units, directions and bounds, in the same order.
    #[test]
    fn benchmark_json_declares_exactly_these_names() {
        let b = benchmark_json();
        let workloads: Vec<&str> = b
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(
            workloads,
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        let dir = |b: Better| b.as_str().to_string();
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(d, bound)| (d.name.into(), d.unit.into(), dir(d.better), Some(*bound)))
            .collect();
        assert_eq!(declared(b.get("end_to_end").unwrap()), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|d| (d.name.into(), d.unit.into(), dir(d.better), None))
            .collect();
        assert_eq!(declared(b.get("per_layer").unwrap()), layers);
        assert_eq!(
            b.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let paths = b.get("paths").and_then(Json::as_arr).unwrap();
        assert_eq!(paths, [Json::Str("taurus-benchmark".into())]);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|(d, _)| d.name));
        names.extend(PER_LAYER.iter().map(|d| d.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|(_, bound)| *bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    fn short_args() -> Args {
        Args {
            workloads: Vec::new(),
            seed: 5,
            seconds: 0.8,
            trace: None,
            trace_out: Some(std::env::temp_dir().join(format!(
                "taurus-benchmark-test-{}.jsonl",
                std::process::id()
            ))),
            out: None,
            compare: None,
        }
    }

    /// Short mode: every workload's traced pass prints exactly the declared
    /// per-layer metrics (`Metrics::finish` inside `run_pass` rejects a
    /// missing, extra or repeated name) and passes its output checks.
    #[test]
    fn every_workload_prints_exactly_the_declared_per_layer_metrics() {
        let args = short_args();
        for wl in &WORKLOADS {
            assert_eq!(run_pass(wl, true, &args), Ok(true), "{}", wl.name);
        }
        let _ = std::fs::remove_file(args.trace_out.unwrap());
    }

    /// The untraced pass is the same code on every workload; the cheapest
    /// one shows it prints exactly the declared end-to-end metrics.
    #[test]
    fn untraced_pass_prints_exactly_the_declared_end_to_end_metrics() {
        assert_eq!(run_pass(&WORKLOADS[0], false, &short_args()), Ok(true));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| {
            let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
            parse_args(&argv)
        };
        let a = parse("--workload write-cached --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workloads.len(), 1);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, Some(true)));
        assert_eq!(parse("").unwrap().workloads.len(), WORKLOADS.len());
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
