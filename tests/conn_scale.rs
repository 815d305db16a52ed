//! Differential tests for per-node RPC coalescing (PR 10).
//!
//! A grouped fan-out — one `ReadPages`/`ScanSlice` envelope per Page Store
//! node, demuxed per slice — is a pure transport optimization: for any
//! workload a batched read must return byte-identical results to N
//! single-page reads (which never ride an envelope) on the same cluster,
//! and a pushed-down scan must return exactly the rows of a `BTreeMap`
//! model of the committed writes — at the live head and at a pinned
//! snapshot, with a concurrent writer churning and after a replica is
//! killed mid-run. Coalescing is the only transport, so there is no
//! coalescing-off twin cluster to compare against; the per-page path and
//! the model are the reference.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use taurus::common::clock::ManualClock;
use taurus::common::scan::ScanRequest;
use taurus::core::TableScan;
use taurus::engine::MasterEngine;
use taurus::prelude::*;

fn launch(seed: u64) -> Arc<TaurusDb> {
    let cfg = TaurusConfig {
        pages_per_slice: 4, // spread even small tables across several slices
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
/// directories (first reachable replica per slice).
fn all_page_ids(db: &TaurusDb) -> Vec<PageId> {
    let mut ids = BTreeSet::new();
    for key in db.pages.slices() {
        if key.db != db.db {
            continue;
        }
        for node in db.pages.replicas_of(key) {
            if let Ok(pages) = db.pages.page_ids_of(node, node, key) {
                ids.extend(pages);
                break;
            }
        }
    }
    ids.into_iter().collect()
}

/// The node the master's read planner tries first for the most slices of
/// the database right now, among the nodes not in `avoid`.
fn first_choice(db: &TaurusDb, avoid: &BTreeSet<NodeId>) -> NodeId {
    let sal = &db.master().sal;
    let mut firsts: BTreeMap<NodeId, usize> = BTreeMap::new();
    for key in db.pages.slices().into_iter().filter(|k| k.db == db.db) {
        let order = sal.ordered_replicas(key);
        if let Some(&node) = order.first().filter(|n| !avoid.contains(n)) {
            *firsts.entry(node).or_default() += 1;
        }
    }
    let most = firsts
        .into_iter()
        .max_by_key(|&(node, n)| (n, std::cmp::Reverse(node)));
    most.expect("some node outside `avoid` is a first choice").0
}

/// Grouped batch vs the per-page path on the same database: byte identity.
fn check_grouped_matches_singles(db: &TaurusDb, ids: &[PageId], as_of: Option<Lsn>) {
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

/// A pushed-down scan (grouped per node) returns exactly the model's rows,
/// in key order.
fn check_scan_matches_model(scan: &TableScan, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    let expected: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(scan.rows, expected, "pushdown rows diverged from the model");
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
    // Every case launches a full simulated cluster; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn coalesced_path_is_invisible_to_results(
        pre in ops(80),
        post in ops(30),
    ) {
        let db = launch(31);
        let master = db.master();
        let mut model = BTreeMap::new();
        // A page-spanning base table: without it a tiny random workload
        // fits one slice and the grouped path would never engage.
        for i in 0..300u32 {
            apply(&master, &mut model, &WOp::Put(i, vec![b'p'; 240]));
        }
        for op in &pre {
            apply(&master, &mut model, op);
        }
        db.quiesce(deadline(&db)).unwrap();
        let ids = all_page_ids(&db);
        prop_assert!(!ids.is_empty());

        // Grouped vs per-page, and grouped scan vs the model, live head.
        check_grouped_matches_singles(&db, &ids, None);
        check_scan_matches_model(&master.scan_pushdown(&ScanRequest::full()).unwrap(), &model);

        // Pin a snapshot, keep writing, and re-check at the *pinned* LSN:
        // grouped reads and scans must materialize the old version of
        // every page.
        let pin = master.create_snapshot("pin");
        let frozen = model.clone();
        for op in &post {
            apply(&master, &mut model, op);
        }
        db.quiesce(deadline(&db)).unwrap();
        check_grouped_matches_singles(&db, &ids, Some(pin));
        let pinned = master.snapshot_scan_pushdown("pin", &ScanRequest::full()).unwrap();
        check_scan_matches_model(&pinned, &frozen);
        check_scan_matches_model(&master.scan_pushdown(&ScanRequest::full()).unwrap(), &model);

        // Multi-slice plans exist at pages_per_slice=4, so the reads above
        // really rode grouped envelopes.
        prop_assert!(master.sal.stats.snapshot().grouped_envelopes > 0);
    }
}

// ---------------------------------------------------------------------
// Concurrent writer + mid-run replica kill (deterministic)
// ---------------------------------------------------------------------

#[test]
fn grouped_reads_survive_concurrent_writes_and_replica_loss() {
    let db = launch(47);
    let master = db.master();
    let value = |i: u32| format!("v{}", i % 7).repeat(40);
    for i in 0..300u32 {
        let mut t = master.begin();
        t.put(&key(i), value(i).as_bytes()).unwrap();
        t.commit().unwrap();
    }
    // The quiesce waits for all three replicas: one that still trailed the
    // pin would refuse the first read at it, take the planner's failure
    // penalty, and stop being its slice's first choice — and the node
    // killed below must be somebody's first choice.
    db.quiesce(deadline(&db)).unwrap();
    assert_eq!(
        master.sal.database_persistent_lsn(),
        master.sal.durable_lsn()
    );
    let ids = all_page_ids(&db);
    let pin = master.create_snapshot("pin");

    // A writer hammers a few loaded keys the whole time, rewriting each
    // with its own value, so grouped write envelopes keep flowing while we
    // read and the pinned pages stay as they were. A same-size value never
    // splits a leaf: every commit writes the same pages — those keys'
    // leaves and the control page (its `TxnCommit`). One pass up front
    // finds their slices by the acks that move.
    let hot = 0..8u32;
    let rewrite = {
        let master = Arc::clone(&master);
        move |i: u32| {
            let mut t = master.begin();
            t.put(&key(i), value(i).as_bytes()).unwrap();
            t.commit().unwrap();
        }
    };
    let acked = || -> Vec<Lsn> { ids.iter().map(|&p| master.sal.slice_acked_lsn(p)).collect() };
    let before = acked();
    hot.clone().for_each(&rewrite);
    db.quiesce(deadline(&db)).unwrap();
    let mut writer_hosts = BTreeSet::new();
    for ((page, was), now) in ids.iter().zip(before).zip(acked()) {
        if now != was {
            let slice = SliceKey::new(db.db, page.slice(db.cfg.pages_per_slice));
            writer_hosts.extend(db.pages.replicas_of(slice));
        }
    }
    assert!(
        !writer_hosts.is_empty(),
        "the rewrite pass must have written"
    );

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                hot.clone().for_each(&rewrite);
            }
        })
    };

    for round in 0..5 {
        if round == 2 {
            // Kill a Page Store replica mid-run: grouped envelopes to the
            // dead node fail over per slice, which retries healthy
            // replicas — results stay identical to the per-page path. The
            // victim is the read planner's first choice for the most
            // slices among the nodes that host none of the writer's: the
            // next grouped read sends it an envelope, and no send of the
            // writer's can fail on it first and demote it to suspect.
            db.fabric.set_down(first_choice(&db, &writer_hosts));
        }
        check_grouped_matches_singles(&db, &ids, Some(pin));
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();

    let stats = master.sal.stats.snapshot();
    assert!(stats.grouped_envelopes > 0, "grouped path must have run");
    assert!(
        stats.grouped_fallback_slices > 0,
        "the dead node must have forced per-slice fallback"
    );
}
