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
