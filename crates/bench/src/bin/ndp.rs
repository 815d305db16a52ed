//! **NDP** — near-data processing: versioned scan/aggregate pushdown to the
//! Page Stores (the NDP follow-on paper; see PAPERS.md).
//!
//! A selective scan over a multi-slice table runs two ways at the same
//! snapshot LSN:
//!
//! * **fetch-and-filter** — the classic path: every page crosses the fabric
//!   through `ReadPage` and the master evaluates the predicate locally;
//! * **pushdown** — the SAL fans one `ScanSlice` call per slice out to the
//!   Page Stores, which materialize pages *at the snapshot LSN*, evaluate
//!   the same shared operator next to the data, and return only matching
//!   rows.
//!
//! Both must return byte-identical results; pushdown should move an order
//! of magnitude fewer bytes master-ward. `TAURUS_NDP_ASSERT=1` turns the
//! ≥5x bytes-moved gate and the identical-results check into hard failures
//! for CI.

#![forbid(unsafe_code)]

use taurus_baselines::TaurusExecutor;
use taurus_bench::{bench_config, header, launch_taurus_with, rel, txns_per_conn, JsonReport};
use taurus_common::scan::Aggregate;
use taurus_common::PAGE_SIZE;
use taurus_workload::{driver::load_initial, run_workload, ScanHeavyWorkload};

fn main() {
    let assert_mode = std::env::var("TAURUS_NDP_ASSERT").as_deref() == Ok("1");
    println!("NDP — scan/aggregate pushdown vs fetch-and-filter");
    println!("shape target: identical results, >=5x fewer bytes moved master-ward\n");

    // Small slices so the table spans many of them: the planner's fan-out
    // and per-slice routing are the point of the exercise.
    let mut cfg = bench_config(4096);
    cfg.pages_per_slice = 64;
    let (db, guard) = launch_taurus_with(cfg).unwrap();
    let exec = TaurusExecutor::new(db);

    let rows = std::env::var("TAURUS_NDP_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let w = ScanHeavyWorkload::new(rows, 48);
    load_initial(&exec, &w).unwrap();

    header("mixed scan/write driver phase (Op::Scan traffic)");
    let report = run_workload(&exec, &w, 4, txns_per_conn().min(60), 21);
    println!("  {}", report.row());

    let master = exec.db.master();
    let sal = &master.sal;
    // Quiesce so both paths observe the same final state.
    exec.db
        .quiesce(exec.db.fabric.clock.now_us() + 30_000_000)
        .expect("quiesce");
    master.create_snapshot("ndp");
    let slices = exec.db.pages.slices().len();
    println!("  table: {rows} rows across {slices} slices");

    let req = w.selective_request(7);

    header("fetch-and-filter (ReadPage every page, evaluate on master)");
    // Pages cross the fabric on two paths: demand `ReadPage`s and the
    // readahead's batched `ReadPages` (which carries almost all of a scan).
    let pages_moved =
        || sal.stats.snapshot().page_reads + sal.read_batch_stats.snapshot().pages_returned;
    let before = pages_moved();
    #[expect(clippy::disallowed_methods, reason = "bench harness timing")]
    let t0 = std::time::Instant::now();
    let fetched = master.snapshot_scan("ndp", b"", usize::MAX).unwrap();
    let fetch_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let matching: Vec<Vec<u8>> = fetched
        .iter()
        .filter(|(k, v)| req.matches(k, v))
        .map(|(k, _)| k.clone())
        .collect();
    let fetch_pages = pages_moved() - before;
    let fetch_bytes = fetch_pages * PAGE_SIZE as u64;
    let fetch_rows_sec = fetched.len() as f64 / fetch_secs;
    println!(
        "  scanned {} rows, {} matched",
        fetched.len(),
        matching.len()
    );
    println!("  pages fetched: {fetch_pages} ({fetch_bytes} bytes across the fabric)");
    println!("  rows/sec: {fetch_rows_sec:.0}");

    header("pushdown (ScanSlice per slice, evaluate on Page Stores)");
    let before = sal.ndp_stats.snapshot();
    #[expect(clippy::disallowed_methods, reason = "bench harness timing")]
    let t0 = std::time::Instant::now();
    let pushed = master.snapshot_scan_pushdown("ndp", &req).unwrap();
    let push_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let after = sal.ndp_stats.snapshot();
    let push_bytes = (after.bytes_returned - before.bytes_returned)
        + (after.fallback_bytes - before.fallback_bytes);
    let push_rows_sec = (after.rows_scanned - before.rows_scanned) as f64 / push_secs;
    let fallbacks = after.fallbacks - before.fallbacks;
    println!(
        "  scanned {} rows remotely, {} matched, {} slices pushed down, {} fell back",
        after.rows_scanned - before.rows_scanned,
        pushed.rows.len(),
        pushed.pushdown_slices,
        pushed.fallback_slices,
    );
    println!(
        "  bytes moved master-ward: {push_bytes} (saved {} vs fetch)",
        after.bytes_saved_vs_fetch()
    );
    println!("  rows/sec: {push_rows_sec:.0}   fallback slice scans: {fallbacks}");
    println!("  ndp stats: {after}");

    header("verdict");
    let identical = pushed.rows.iter().map(|(k, _)| k).eq(matching.iter());
    let ratio = fetch_bytes as f64 / (push_bytes.max(1)) as f64;
    println!("  identical results: {identical}");
    println!(
        "  bytes moved, fetch vs pushdown: {fetch_bytes} vs {push_bytes} — {}",
        rel(fetch_bytes as f64, push_bytes as f64)
    );

    // Aggregate-only pushdown: COUNT ships back a single number per slice.
    let count = master
        .snapshot_scan_pushdown("ndp", &req.clone().with_aggregate(Aggregate::Count))
        .unwrap();
    println!(
        "  COUNT pushdown: {} (expected {})",
        count.agg.count,
        matching.len()
    );

    let mut json = JsonReport::new();
    json.row(vec![
        ("bench", "ndp".into()),
        ("rows", rows.into()),
        ("slices", (slices as u64).into()),
        ("matched", (matching.len() as u64).into()),
        ("fetch_bytes", fetch_bytes.into()),
        ("pushdown_bytes", push_bytes.into()),
        ("bytes_ratio", ratio.into()),
        ("fetch_rows_per_sec", fetch_rows_sec.into()),
        ("pushdown_rows_per_sec", push_rows_sec.into()),
        ("fallback_slice_scans", fallbacks.into()),
        ("identical_results", u64::from(identical).into()),
    ]);
    if let Err(e) = json.write("ndp") {
        eprintln!("ndp: could not write bench_results: {e}");
    }
    drop(guard);

    if assert_mode {
        assert!(identical, "pushdown and fetch-and-filter disagree");
        assert_eq!(
            count.agg.count,
            matching.len() as u64,
            "COUNT pushdown wrong"
        );
        assert!(
            ratio >= 5.0,
            "pushdown moved only {ratio:.1}x fewer bytes (gate: >=5x): \
             fetch {fetch_bytes} vs pushdown {push_bytes}"
        );
        println!("\nTAURUS_NDP_ASSERT: all gates passed ({ratio:.1}x fewer bytes).");
    }
}
