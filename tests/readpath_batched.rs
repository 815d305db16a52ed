//! Differential tests for the batched read path: for any workload, any page
//! set, and any snapshot LSN, one `Sal::read_pages` call (grouped into
//! per-slice `ReadPages` RPCs, with per-page straggler retries) must return
//! byte-identical pages — content *and* LSN — to N sequential
//! `Sal::read_page` calls at the same `as_of`. The same holds for the
//! engine pool's batched miss path (`get_or_fetch_many`), including while a
//! concurrent writer keeps committing and after a Page Store replica is
//! killed mid-run.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use taurus::common::clock::ManualClock;
use taurus::engine::MasterEngine;
use taurus::prelude::*;

fn launch(seed: u64) -> Arc<TaurusDb> {
    let cfg = TaurusConfig {
        pages_per_slice: 8,      // spread even small tables across several slices
        read_batch_max_pages: 3, // force continuation loops inside every batch
        ..TaurusConfig::test()
    };
    TaurusDb::launch_with_clock(cfg, 4, 6, ManualClock::shared(), seed).unwrap()
}

/// The deadline of a quiesce that starts now, on the deployment's clock
/// (a manual one moves only by modelled call costs: this bounds a drill).
fn deadline(db: &TaurusDb) -> u64 {
    db.fabric.clock.now_us() + 10_000_000
}

fn key(i: u32) -> Vec<u8> {
    format!("k{i:03}").into_bytes()
}

/// Every page id of the database, straight from the Page Stores' slice
/// directories: the union over each slice's replicas, so a replica that
/// missed a write (down when it was sent) hides no page.
fn all_page_ids(db: &TaurusDb) -> Vec<PageId> {
    let mut ids = BTreeSet::new();
    for key in db.pages.slices() {
        if key.db != db.db {
            continue;
        }
        for node in db.pages.replicas_of(key) {
            if let Ok(pages) = db.pages.page_ids_of(node, node, key) {
                ids.extend(pages);
            }
        }
    }
    ids.into_iter().collect()
}

/// The differential check itself: batched vs sequential at one `as_of`.
fn check_batched_matches_sequential(db: &TaurusDb, ids: &[PageId], as_of: Option<Lsn>) {
    let sal = &db.master().sal;
    let batched = sal.read_pages(ids, as_of).unwrap();
    assert_eq!(batched.len(), ids.len(), "one result per requested page");
    for (i, (page, buf)) in batched.iter().enumerate() {
        assert_eq!(*page, ids[i], "results must come back in request order");
        let single = sal.read_page(*page, as_of).unwrap();
        assert_eq!(buf.lsn(), single.lsn(), "page {page:?} at {as_of:?}");
        assert_eq!(
            buf.as_bytes(),
            single.as_bytes(),
            "page {page:?} bytes diverged at {as_of:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Proptest: random workload, live head + pinned snapshot
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum WOp {
    Put(u32, Vec<u8>),
    Del(u32),
}

fn apply(master: &Arc<MasterEngine>, model: &mut BTreeMap<Vec<u8>, Vec<u8>>, op: &WOp) {
    match op {
        WOp::Put(i, v) => {
            let k = key(*i);
            let mut t = master.begin();
            t.put(&k, v).unwrap();
            t.commit().unwrap();
            model.insert(k, v.clone());
        }
        WOp::Del(i) => {
            let k = key(*i);
            let mut t = master.begin();
            t.delete(&k).unwrap();
            t.commit().unwrap();
            model.remove(&k);
        }
    }
}

fn ops(max: usize) -> impl Strategy<Value = Vec<WOp>> {
    let value = || prop::collection::vec(any::<u8>(), 0..24);
    prop::collection::vec(
        prop_oneof![
            (0..48u32, value()).prop_map(|(k, v)| WOp::Put(k, v)),
            (0..48u32, value()).prop_map(|(k, v)| WOp::Put(k, v)),
            (0..48u32, value()).prop_map(|(k, v)| WOp::Put(k, v)),
            (0..48u32).prop_map(WOp::Del),
        ],
        1..max,
    )
}

proptest! {
    // Every case launches a full simulated cluster; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn batched_reads_match_sequential_reads(
        pre in ops(100),
        post in ops(40),
    ) {
        let db = launch(31);
        let master = db.master();
        let mut model = BTreeMap::new();
        for op in &pre {
            apply(&master, &mut model, op);
        }
        db.quiesce(deadline(&db)).unwrap();
        let ids = all_page_ids(&db);
        prop_assert!(!ids.is_empty());

        // Live head, natural order.
        check_batched_matches_sequential(&db, &ids, None);

        // Reversed order with duplicates: request order and duplicate
        // handling must survive the slice regrouping.
        let mut shuffled: Vec<PageId> = ids.iter().rev().copied().collect();
        shuffled.extend(ids.iter().take(3));
        check_batched_matches_sequential(&db, &shuffled, None);

        // Pin a snapshot, keep writing, and re-check at the *pinned* LSN:
        // every page in the batch must materialize at the old version even
        // though newer records have landed on top.
        let pin = master.create_snapshot("pin");
        for op in &post {
            apply(&master, &mut model, op);
        }
        db.quiesce(deadline(&db)).unwrap();
        check_batched_matches_sequential(&db, &ids, Some(pin));

        // The engine pool's batched miss path returns the same bytes the
        // SAL serves at the live head (the pool is clean after the quiesce).
        let pooled = master.get_pages(&ids).unwrap();
        for (page, buf) in &pooled {
            let single = master.sal.read_page(*page, None).unwrap();
            prop_assert_eq!(buf.as_bytes(), single.as_bytes());
        }
        // And it was genuinely batched: the SAL counted batch calls.
        let stats = master.sal.read_batch_stats.snapshot();
        prop_assert!(stats.batches > 0);
        prop_assert!(stats.pages_returned + stats.partial_failures <= stats.pages_requested);
    }
}

// ---------------------------------------------------------------------
// Concurrent writer + mid-run replica kill (deterministic)
// ---------------------------------------------------------------------

#[test]
fn batched_reads_survive_concurrent_writes_and_replica_loss() {
    let db = launch(47);
    let master = db.master();
    for i in 0..120u32 {
        let mut t = master.begin();
        t.put(&key(i), format!("v{}", i % 7).as_bytes()).unwrap();
        t.commit().unwrap();
    }
    db.quiesce(deadline(&db)).unwrap();
    let ids = all_page_ids(&db);
    let pin = master.create_snapshot("pin");

    // A writer hammers a disjoint key range the whole time.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let master = db.master();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let mut t = master.begin();
                t.put(format!("w{i:06}").as_bytes(), b"noise").unwrap();
                t.commit().unwrap();
                i += 1;
            }
        })
    };

    for round in 0..5 {
        if round == 2 {
            // Kill a Page Store replica mid-run: the whole-batch failover
            // (next replica) and per-page straggler retries must keep the
            // batch identical to sequential reads.
            db.fabric.set_down(db.pages.server_nodes()[0]);
        }
        // The pinned LSN freezes the snapshot, so the churning writer can
        // never tear the comparison.
        check_batched_matches_sequential(&db, &ids, Some(pin));
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();

    // Snapshot scans (which prefetch through the batched path but must not
    // warm the shared pool) still agree with a plain filtered read.
    db.quiesce(deadline(&db)).unwrap();
    let scanned = master.snapshot_scan("pin", b"k", usize::MAX).unwrap();
    let live: Vec<(Vec<u8>, Vec<u8>)> = master
        .scan(b"k", usize::MAX)
        .unwrap()
        .into_iter()
        .filter(|(k, _)| k.starts_with(b"k"))
        .collect();
    let frozen: Vec<(Vec<u8>, Vec<u8>)> = scanned
        .into_iter()
        .filter(|(k, _)| k.starts_with(b"k"))
        .collect();
    assert_eq!(frozen, live, "k-range never changed after the pin");
    assert_eq!(frozen.len(), 120);
}
