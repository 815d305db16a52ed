//! **readpath** — batched, prefetching read path vs single-page fetches.
//!
//! Two identical databases are loaded with the same deterministic table and
//! driven through the same point-read and range-scan phases. One runs with
//! B-tree readahead disabled (`btree_readahead_window = 0`: every buffer
//! pool miss crosses the fabric as its own `ReadPage` RPC); the other with
//! readahead on (leaf-chain hints batch pool misses into `ReadPages` RPCs
//! through `Sal::read_pages`). The buffer pool is deliberately tiny so scans
//! keep missing.
//!
//! Both must return byte-identical rows; the batched path should issue
//! several times fewer miss-path RPCs on the scan phase, and a bounded
//! 20-row scan must ship only the leaves its limit can reach.
//! `TAURUS_READPATH_ASSERT=1` turns the identical-results checks, the ≥4x
//! fewer-RPCs gate and the ≤3 pages-per-bounded-scan gate into hard
//! failures for CI.

#![forbid(unsafe_code)]

use std::sync::Arc;

use taurus_baselines::TaurusExecutor;
use taurus_bench::{bench_config, header, launch_taurus_with, rel, JsonReport};
use taurus_common::metrics::LatencyRecorder;
use taurus_engine::TaurusDb;
use taurus_workload::{driver::load_initial, ScanHeavyWorkload};

/// One database under test plus the workload that seeded it.
fn launch(window: usize, rows: u64) -> (Arc<TaurusDb>, taurus_engine::db::BackgroundGuard) {
    // A pool far smaller than the leaf count: scans must keep missing, or
    // there is no miss path to measure.
    let mut cfg = bench_config(32);
    cfg.pages_per_slice = 64;
    cfg.btree_readahead_window = window;
    let (db, guard) = launch_taurus_with(cfg).unwrap();
    let exec = TaurusExecutor::new(Arc::clone(&db));
    let mut w = ScanHeavyWorkload::new(rows, 120);
    w.write_fraction = 0.0; // deterministic: both databases hold the same rows
    load_initial(&exec, &w).unwrap();
    db.quiesce(db.fabric.clock.now_us() + 30_000_000)
        .expect("quiesce");
    (db, guard)
}

/// Miss-path RPCs so far: single-page `ReadPage` calls plus batched
/// `ReadPages` calls (a batch RPC counts once — that is the point).
fn miss_rpcs(db: &TaurusDb) -> u64 {
    let sal = &db.master().sal;
    sal.stats.snapshot().page_reads + sal.read_batch_stats.snapshot().batch_rpcs
}

/// Pages asked of the Page Stores so far, demand reads and hints alike.
fn pages_fetched(db: &TaurusDb) -> u64 {
    let sal = &db.master().sal;
    sal.stats.snapshot().page_reads + sal.read_batch_stats.snapshot().pages_requested
}

fn point_phase(db: &TaurusDb, rows: u64, reads: u64) -> (LatencyRecorder, u64) {
    let master = db.master();
    let lat = LatencyRecorder::new();
    let before = miss_rpcs(db);
    for i in 0..reads {
        let row = (i * 37) % rows; // deterministic stride over the table
        let key = format!("sh{row:012}");
        #[expect(clippy::disallowed_methods, reason = "bench harness timing")]
        let t0 = std::time::Instant::now();
        let got = master.get(key.as_bytes()).unwrap();
        lat.record(t0.elapsed().as_micros() as u64);
        assert!(got.is_some(), "seeded row {row} missing");
    }
    (lat, miss_rpcs(db) - before)
}

type Rows = Vec<(Vec<u8>, Vec<u8>)>;

/// Scans `limit` rows from each start key in turn. Returns the latencies,
/// the miss-path RPCs, the pages fetched, and every row read.
fn scan_phase(
    db: &TaurusDb,
    starts: &[Vec<u8>],
    limit: usize,
) -> (LatencyRecorder, u64, u64, Rows) {
    let master = db.master();
    let lat = LatencyRecorder::new();
    let (rpcs, pages) = (miss_rpcs(db), pages_fetched(db));
    let mut all = Vec::new();
    for start in starts {
        #[expect(clippy::disallowed_methods, reason = "bench harness timing")]
        let t0 = std::time::Instant::now();
        let got = master.scan(start, limit).unwrap();
        lat.record(t0.elapsed().as_micros() as u64);
        all.extend(got);
    }
    (lat, miss_rpcs(db) - rpcs, pages_fetched(db) - pages, all)
}

fn lat_line(label: &str, lat: &LatencyRecorder) -> String {
    match lat.summary() {
        Some(s) => format!(
            "{label}: p50={}us p99={}us mean={:.0}us over {} ops",
            s.p50_us, s.p99_us, s.mean_us, s.count
        ),
        None => format!("{label}: no samples"),
    }
}

fn main() {
    let assert_mode = std::env::var("TAURUS_READPATH_ASSERT").as_deref() == Ok("1");
    let rows: u64 = std::env::var("TAURUS_READPATH_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let point_reads = 200u64.min(rows);
    let full_scans = vec![Vec::new(); 5];
    // 20-row scans from a deterministic stride of start keys.
    let bounded_scans: Vec<Vec<u8>> = (0..200u64)
        .map(|i| format!("sh{:012}", (i * 151) % rows).into_bytes())
        .collect();

    println!("readpath — batched ReadPages + leaf readahead vs single-page ReadPage");
    println!("shape target: identical rows, >=4x fewer miss-path RPCs on scans\n");

    let (single, _g1) = launch(0, rows);
    let (batched, _g2) = launch(16, rows);
    println!(
        "  table: {rows} rows across {} slices, pool bound {} frames",
        single.pages.slices().len(),
        32
    );

    header("point reads (no readahead on descents: both paths fetch per page)");
    let (single_pt, single_pt_rpcs) = point_phase(&single, rows, point_reads);
    let (batched_pt, batched_pt_rpcs) = point_phase(&batched, rows, point_reads);
    println!("  {}", lat_line("single ", &single_pt));
    println!("  {}", lat_line("batched", &batched_pt));
    println!("  miss-path RPCs: single {single_pt_rpcs} vs batched {batched_pt_rpcs}");

    header("full-table scans (leaf-chain readahead batches the misses)");
    let (single_sc, single_sc_rpcs, _, single_rows) = scan_phase(&single, &full_scans, usize::MAX);
    let (batched_sc, batched_sc_rpcs, _, batched_rows) =
        scan_phase(&batched, &full_scans, usize::MAX);
    println!("  {}", lat_line("single ", &single_sc));
    println!("  {}", lat_line("batched", &batched_sc));
    let ratio = single_sc_rpcs as f64 / batched_sc_rpcs.max(1) as f64;
    println!(
        "  miss-path RPCs: single {single_sc_rpcs} vs batched {batched_sc_rpcs} — {}",
        rel(single_sc_rpcs as f64, batched_sc_rpcs as f64)
    );

    header("bounded range scans (20 rows: readahead is sized by the limit)");
    let (single_bd, single_bd_rpcs, single_bd_pages, single_bd_rows) =
        scan_phase(&single, &bounded_scans, 20);
    let (batched_bd, batched_bd_rpcs, batched_bd_pages, batched_bd_rows) =
        scan_phase(&batched, &bounded_scans, 20);
    println!("  {}", lat_line("single ", &single_bd));
    println!("  {}", lat_line("batched", &batched_bd));
    let per_scan = |n: u64| n as f64 / bounded_scans.len() as f64;
    let bounded_pages = per_scan(batched_bd_pages);
    println!(
        "  per scan: single {:.2} pages in {:.2} RPCs vs batched {bounded_pages:.2} pages in {:.2} RPCs",
        per_scan(single_bd_pages),
        per_scan(single_bd_rpcs),
        per_scan(batched_bd_rpcs),
    );

    header("verdict");
    let identical = single_rows == batched_rows && single_bd_rows == batched_bd_rows;
    let m = batched.master();
    let (hit_ratio, resident) = m.pool_stats();
    let (prefetched, prefetch_hits) = m.pool_prefetch_stats();
    let batch_stats = m.sal.read_batch_stats.snapshot();
    println!(
        "  identical results: {identical} ({} rows compared)",
        single_rows.len() + single_bd_rows.len()
    );
    println!(
        "  batched pool: hit_ratio={hit_ratio:.2} resident={resident} \
         prefetched={prefetched} prefetch_hits={prefetch_hits}"
    );
    println!("  batched read stats: {batch_stats}");

    let mut json = JsonReport::new();
    let p = |l: &LatencyRecorder, f: &dyn Fn(taurus_common::metrics::LatencySummary) -> u64| {
        l.summary().map(&f).unwrap_or(0)
    };
    json.row(vec![
        ("bench", "readpath".into()),
        ("rows", rows.into()),
        ("point_p50_us_single", p(&single_pt, &|s| s.p50_us).into()),
        ("point_p99_us_single", p(&single_pt, &|s| s.p99_us).into()),
        ("point_p50_us_batched", p(&batched_pt, &|s| s.p50_us).into()),
        ("point_p99_us_batched", p(&batched_pt, &|s| s.p99_us).into()),
        ("scan_p50_us_single", p(&single_sc, &|s| s.p50_us).into()),
        ("scan_p99_us_single", p(&single_sc, &|s| s.p99_us).into()),
        ("scan_p50_us_batched", p(&batched_sc, &|s| s.p50_us).into()),
        ("scan_p99_us_batched", p(&batched_sc, &|s| s.p99_us).into()),
        ("scan_rpcs_single", single_sc_rpcs.into()),
        ("scan_rpcs_batched", batched_sc_rpcs.into()),
        ("scan_rpc_ratio", ratio.into()),
        ("bounded_p50_us_single", p(&single_bd, &|s| s.p50_us).into()),
        (
            "bounded_p50_us_batched",
            p(&batched_bd, &|s| s.p50_us).into(),
        ),
        (
            "bounded_rpcs_per_scan_single",
            per_scan(single_bd_rpcs).into(),
        ),
        (
            "bounded_rpcs_per_scan_batched",
            per_scan(batched_bd_rpcs).into(),
        ),
        (
            "bounded_pages_per_scan_single",
            per_scan(single_bd_pages).into(),
        ),
        ("bounded_pages_per_scan_batched", bounded_pages.into()),
        ("prefetched", prefetched.into()),
        ("prefetch_hits", prefetch_hits.into()),
        ("identical_results", u64::from(identical).into()),
    ]);
    if let Err(e) = json.write("readpath") {
        eprintln!("readpath: could not write bench_results: {e}");
    }

    if assert_mode {
        assert!(identical, "batched and single-page scans disagree");
        assert!(
            ratio >= 4.0,
            "batched scan issued only {ratio:.1}x fewer miss-path RPCs (gate: >=4x): \
             single {single_sc_rpcs} vs batched {batched_sc_rpcs}"
        );
        assert!(
            bounded_pages <= 3.0,
            "a 20-row scan fetched {bounded_pages:.2} pages (gate: <=3): hints beyond its limit"
        );
        println!(
            "\nTAURUS_READPATH_ASSERT: all gates passed ({ratio:.1}x fewer RPCs, \
             {bounded_pages:.2} pages per bounded scan)."
        );
    }
}
