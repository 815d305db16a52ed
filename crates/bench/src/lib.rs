//! # taurus-bench
//!
//! Shared harness for the binaries that regenerate every table and figure
//! of the paper's evaluation (see DESIGN.md §3 for the full index):
//!
//! | binary     | paper artifact |
//! |------------|----------------|
//! | `table1`   | Table 1 — storage unavailability per replication scheme |
//! | `fig7`     | Fig. 7 — Taurus vs Aurora-style quorum storage |
//! | `fig8`     | Fig. 8 — throughput relative to a monolithic local DB |
//! | `fig9`     | Fig. 9 — replica lag vs master write rate |
//! | `fig10`    | Fig. 10 — scaling with front-end instance size |
//! | `fig11`    | Fig. 11 — scaling with number of connections |
//! | `fig12`    | Fig. 12 — query latency |
//! | `ablations`| §7 design choices: LFU vs LRU, consolidation policies |
//!
//! Absolute numbers depend on the simulated device/network profiles
//! (DESIGN.md §6); the *shapes* — who wins, by roughly what factor, where
//! crossovers fall — are the reproduction targets.

#![forbid(unsafe_code)]

use std::sync::Arc;

use taurus_common::clock::SystemClock;
use taurus_common::{Result, TaurusConfig};
use taurus_engine::TaurusDb;

/// Scale regimes for the dataset-size axis of the evaluation: the paper's
/// "1 GB" databases fit entirely in the front-end buffer pool, while the
/// "1 TB"/"100 GB" databases overwhelmingly do not (§8.1, Fig. 12).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleRegime {
    /// Dataset fully cached by the engine buffer pool.
    Cached,
    /// Engine buffer pool covers only a few percent of the pages.
    StorageBound,
}

impl ScaleRegime {
    pub fn label(self) -> &'static str {
        match self {
            ScaleRegime::Cached => "cached (1GB-like)",
            ScaleRegime::StorageBound => "storage-bound (1TB-like)",
        }
    }

    /// (rows, engine pool pages) producing the regime at laptop scale.
    pub fn geometry(self) -> (u64, usize) {
        match self {
            // ~8k rows over ~hundreds of pages, pool holds thousands.
            ScaleRegime::Cached => (8_000, 4096),
            // ~40k rows over ~1300 pages; the pool covers ~30% of them,
            // like the paper's 256 GB pool against a 1 TB database.
            ScaleRegime::StorageBound => (40_000, 400),
        }
    }
}

/// A benchmark-grade config: realistic network/storage latency profiles,
/// generous buffers so flushes batch as in production.
pub fn bench_config(pool_pages: usize) -> TaurusConfig {
    TaurusConfig {
        pages_per_slice: 512,
        engine_buffer_pool_pages: pool_pages,
        log_buffer_bytes: 32 << 10,
        slice_buffer_bytes: 16 << 10,
        slice_flush_timeout_us: 1_000,
        // One log stream per driver connection: commit throughput on the
        // write benchmarks is bounded by parallel appends in flight, and
        // the driver runs 8 connections.
        log_streams: 8,
        ..TaurusConfig::default()
    }
}

/// Launches a Taurus cluster on the system clock with background
/// consolidation and housekeeping running.
pub fn launch_taurus(
    pool_pages: usize,
) -> Result<(Arc<TaurusDb>, taurus_engine::db::BackgroundGuard)> {
    let db = TaurusDb::launch(bench_config(pool_pages), 6, 6)?;
    let guard = db.start_background(500);
    Ok((db, guard))
}

/// Launches with an explicit config.
pub fn launch_taurus_with(
    cfg: TaurusConfig,
) -> Result<(Arc<TaurusDb>, taurus_engine::db::BackgroundGuard)> {
    let db = TaurusDb::launch(cfg, 6, 6)?;
    let guard = db.start_background(500);
    Ok((db, guard))
}

/// Shared clock handle for baselines in the same experiment.
pub fn bench_clock() -> taurus_common::clock::ClockRef {
    SystemClock::shared()
}

/// Prints a section header in harness output.
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Formats a ratio as the paper does ("+50%", "-9%", "2.0x").
pub fn rel(ours: f64, baseline: f64) -> String {
    if baseline <= 0.0 {
        return "n/a".into();
    }
    let ratio = ours / baseline;
    if ratio >= 1.0 {
        format!("+{:.0}% ({ratio:.2}x)", (ratio - 1.0) * 100.0)
    } else {
        format!("-{:.0}% ({ratio:.2}x)", (1.0 - ratio) * 100.0)
    }
}

/// The SAL's recovery-side counters on one line: what Fig. 4 repairs
/// resent, how many log reads they cost, the poll answers dropped because
/// an ack overtook them (each one a redo that did not happen), and what
/// recycling freed on the Page Stores.
pub fn recovery_line(s: &taurus_core::SalStatsSnapshot) -> String {
    format!(
        "resends={} redo_log_reads={} probe_replies_overtaken={} \
         recycle_ptrs_purged={} recycle_bytes_reclaimed={}",
        s.resends,
        s.redo_log_reads,
        s.probe_replies_overtaken,
        s.recycle_ptrs_purged,
        s.recycle_bytes_reclaimed
    )
}

/// The role of a thread, from the name its spawner gave it.
pub fn thread_role(name: &str) -> &'static str {
    if name.starts_with("taurus-consolidate") {
        "consolidation"
    } else if name.starts_with("taurus-fabric") {
        "dispatcher"
    } else if name == "taurus-beat" {
        "beat"
    } else if name.starts_with("taurus-client") {
        "clients"
    } else {
        "other"
    }
}

/// Run time and run-queue time of this process's threads, summed by role
/// (`/proc/self/task/*/schedstat`: nanoseconds on a CPU, nanoseconds
/// runnable but waiting for one). Empty where `/proc` is not available.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreadTimes {
    /// `role → (run ns, wait ns)`.
    pub by_role: std::collections::BTreeMap<&'static str, (u64, u64)>,
}

impl ThreadTimes {
    /// Sums every live thread of this process by [`thread_role`].
    pub fn sample() -> ThreadTimes {
        let mut out = ThreadTimes::default();
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return out;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            let name = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
            let stat = std::fs::read_to_string(dir.join("schedstat")).unwrap_or_default();
            let mut fields = stat
                .split_whitespace()
                .map(|f| f.parse::<u64>().unwrap_or(0));
            let (run, wait) = (fields.next().unwrap_or(0), fields.next().unwrap_or(0));
            let slot = out.by_role.entry(thread_role(name.trim())).or_default();
            slot.0 += run;
            slot.1 += wait;
        }
        out
    }

    /// What each role spent since `earlier` (threads that exited in
    /// between are missing from both sides' difference).
    pub fn since(&self, earlier: &ThreadTimes) -> ThreadTimes {
        let mut out = self.clone();
        for (role, (run, wait)) in &mut out.by_role {
            let (run0, wait0) = earlier.by_role.get(role).copied().unwrap_or_default();
            *run = run.saturating_sub(run0);
            *wait = wait.saturating_sub(wait0);
        }
        out
    }

    /// `(run, wait)` of `role` as shares of one core over `wall_secs`.
    pub fn cores(&self, role: &str, wall_secs: f64) -> (f64, f64) {
        let (run, wait) = self.by_role.get(role).copied().unwrap_or_default();
        let per_core = wall_secs.max(1e-9) * 1e9;
        (run as f64 / per_core, wait as f64 / per_core)
    }

    /// One line of cores by role over `wall_secs`: `role run/wait` each.
    pub fn cores_line(&self, wall_secs: f64) -> String {
        let roles: Vec<String> = self
            .by_role
            .keys()
            .map(|role| {
                let (run, wait) = self.cores(role, wall_secs);
                format!("{role} {run:.3}/{wait:.3}")
            })
            .collect();
        format!(
            "cores run/waiting over {wall_secs:.1}s: {}",
            roles.join(", ")
        )
    }
}

/// Transactions per connection used by the throughput benches; kept small
/// enough for CI-grade runtimes, large enough to average out noise.
pub fn txns_per_conn() -> u64 {
    std::env::var("TAURUS_BENCH_TXNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120)
}

/// One machine-readable datapoint value. Numbers are emitted bare; strings
/// are JSON-escaped.
#[derive(Clone, Debug)]
pub enum JsonValue {
    Str(String),
    U64(u64),
    F64(f64),
}

impl JsonValue {
    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            JsonValue::U64(n) => out.push_str(&n.to_string()),
            JsonValue::F64(x) => {
                if x.is_finite() {
                    out.push_str(&format!("{x:.4}"));
                } else {
                    out.push_str("null");
                }
            }
        }
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::U64(n)
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::F64(x)
    }
}

/// Collects bench datapoints and writes them as a JSON array of flat
/// objects to `bench_results/<bench>.json` (hand-rolled writer — the
/// harness must stay dependency-free). Each `row` call is one object.
#[derive(Debug, Default)]
pub struct JsonReport {
    rows: Vec<Vec<(String, JsonValue)>>,
}

impl JsonReport {
    pub fn new() -> Self {
        JsonReport::default()
    }

    /// Appends one datapoint (an ordered list of key/value fields).
    pub fn row(&mut self, fields: Vec<(&str, JsonValue)>) {
        self.rows.push(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        );
    }

    /// Serializes all rows as a pretty-enough JSON array.
    pub fn render(&self) -> String {
        let mut out = String::from("[\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("  {");
            for (j, (k, v)) in row.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                JsonValue::Str(k.clone()).write(&mut out);
                out.push_str(": ");
                v.write(&mut out);
            }
            out.push('}');
            if i + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push(']');
        out.push('\n');
        out
    }

    /// Writes `bench_results/<bench>.json`, creating the directory as
    /// needed. Prints the path so harness logs link the artifact.
    pub fn write(&self, bench: &str) -> std::io::Result<()> {
        let dir = std::path::Path::new("bench_results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{bench}.json"));
        std::fs::write(&path, self.render())?;
        println!("[{bench}] wrote {}", path.display());
        Ok(())
    }
}

#[cfg(test)]
mod thread_time_tests {
    use super::*;

    #[test]
    fn threads_are_grouped_by_the_role_their_name_gives() {
        assert_eq!(thread_role("taurus-consolidate-3"), "consolidation");
        assert_eq!(thread_role("taurus-fabric-0"), "dispatcher");
        assert_eq!(thread_role("taurus-beat"), "beat");
        assert_eq!(thread_role("taurus-client-1"), "clients");
        assert_eq!(thread_role("fig7"), "other");
    }

    #[test]
    fn a_busy_named_thread_shows_up_under_its_role() {
        let before = ThreadTimes::sample();
        std::thread::Builder::new()
            .name("taurus-beat".into())
            .spawn(|| {
                let t = std::time::Instant::now();
                while t.elapsed() < std::time::Duration::from_millis(20) {
                    std::hint::black_box(0u64);
                }
                // Sampled while the thread is still alive.
                ThreadTimes::sample()
            })
            .unwrap()
            .join()
            .map(|during| {
                if during.by_role.is_empty() {
                    return; // no /proc on this host
                }
                let spent = during.since(&before);
                let (run, _) = spent.cores("beat", 0.020);
                assert!(run > 0.2, "{}", spent.cores_line(0.020));
            })
            .unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regimes_differ_in_coverage() {
        let (cached_rows, cached_pool) = ScaleRegime::Cached.geometry();
        let (big_rows, big_pool) = ScaleRegime::StorageBound.geometry();
        assert!(big_rows > cached_rows);
        assert!(big_pool < cached_pool);
    }

    #[test]
    fn rel_formatting() {
        assert!(rel(150.0, 100.0).starts_with("+50%"));
        assert!(rel(91.0, 100.0).starts_with("-9%"));
        assert_eq!(rel(1.0, 0.0), "n/a");
    }

    #[test]
    fn bench_config_is_valid() {
        bench_config(1024).validate().unwrap();
    }

    #[test]
    fn json_report_renders_flat_objects() {
        let mut r = JsonReport::new();
        r.row(vec![
            ("bench", "ndp".into()),
            ("rows", 42u64.into()),
            ("ratio", 5.25f64.into()),
        ]);
        r.row(vec![("note", "a \"quoted\"\nline".into())]);
        let s = r.render();
        assert!(s.starts_with("[\n"));
        assert!(s.contains("\"bench\": \"ndp\", \"rows\": 42, \"ratio\": 5.2500"));
        assert!(s.contains("\\\"quoted\\\"\\n"));
        assert!(s.trim_end().ends_with(']'));
    }

    #[test]
    fn json_report_handles_non_finite() {
        let mut r = JsonReport::new();
        r.row(vec![("x", f64::NAN.into())]);
        assert!(r.render().contains("\"x\": null"));
    }
}
