//! Differential tests for near-data scan pushdown: for any workload and any
//! `ScanRequest`, pushing the scan to the Page Stores (one `ScanSlice` per
//! slice, pages materialized at the snapshot LSN next to the data) must
//! return exactly what the engine computes locally over a model of the
//! table — including while a concurrent writer keeps committing and after
//! one Page Store replica is killed mid-run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use taurus::common::clock::ManualClock;
use taurus::common::scan::{AggState, Aggregate, CmpOp, Field, Operand, Projection, ScanRequest};
use taurus::core::TableScan;
use taurus::engine::MasterEngine;
use taurus::prelude::*;

fn launch(seed: u64) -> Arc<TaurusDb> {
    let cfg = TaurusConfig {
        pages_per_slice: 8, // spread even small tables across several slices
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

/// Pushdown result vs an engine-local model evaluation of the same request.
fn check(scan: &TableScan, model: &BTreeMap<Vec<u8>, Vec<u8>>, req: &ScanRequest) {
    if let Some(a) = req.aggregate {
        let mut agg = AggState::default();
        for (k, v) in model {
            if req.matches(k, v) {
                agg.update(v);
            }
        }
        assert_eq!(scan.agg.count, agg.count, "req: {req:?}");
        assert_eq!(scan.agg.result(a), agg.result(a), "req: {req:?}");
        assert!(scan.rows.is_empty(), "aggregate scans return no rows");
    } else {
        let want: Vec<(Vec<u8>, Vec<u8>)> = model
            .iter()
            .filter(|(k, v)| req.matches(k, v))
            .map(|(k, v)| req.projection.apply(k, v))
            .collect();
        assert_eq!(scan.rows, want, "req: {req:?}");
    }
}

// ---------------------------------------------------------------------
// Proptest: random workload × random requests
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

fn value() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Arbitrary payloads…
        prop::collection::vec(any::<u8>(), 0..24),
        // …and 8-byte LE integers so SUM/MIN/MAX aggregates have food.
        any::<u64>().prop_map(|n| n.to_le_bytes().to_vec()),
    ]
}

fn ops(max: usize) -> impl Strategy<Value = Vec<WOp>> {
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

fn operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        // Key-shaped bytes so range/equality predicates actually select.
        (0..48u32).prop_map(|i| Operand::Bytes(key(i))),
        prop::collection::vec(any::<u8>(), 0..6).prop_map(Operand::Bytes),
        any::<u64>().prop_map(Operand::U64),
    ]
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Ge),
        Just(CmpOp::Gt),
    ]
}

fn request() -> impl Strategy<Value = ScanRequest> {
    let field = prop_oneof![Just(Field::Key), Just(Field::Value)];
    let aggregate = prop_oneof![
        Just(Aggregate::Count),
        Just(Aggregate::SumU64),
        Just(Aggregate::MinU64),
        Just(Aggregate::MaxU64),
    ];
    let maybe_key = || prop_oneof![Just(None), (0..48u32).prop_map(Some)];
    (
        maybe_key(),
        maybe_key(),
        prop::collection::vec((field, cmp_op(), operand()), 0..3),
        any::<bool>(),
        prop_oneof![Just(None), aggregate.prop_map(Some)],
    )
        .prop_map(|(start, end, preds, key_only, agg)| {
            let mut req = ScanRequest::full();
            if let Some(s) = start {
                req.start = key(s);
            }
            if let Some(e) = end {
                req.end = Some(key(e));
            }
            for (f, op, operand) in preds {
                req = req.with_predicate(f, op, operand);
            }
            if key_only {
                req = req.with_projection(Projection::KeyOnly);
            }
            if let Some(a) = agg {
                req = req.with_aggregate(a);
            }
            req
        })
}

proptest! {
    // Every case launches a full simulated cluster; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pushdown_matches_model_at_every_snapshot(
        pre in ops(100),
        post in ops(40),
        reqs in prop::collection::vec(request(), 1..4),
    ) {
        let db = launch(11);
        let master = db.master();
        let mut model = BTreeMap::new();
        for op in &pre {
            apply(&master, &mut model, op);
        }
        db.quiesce(deadline(&db)).unwrap();

        // Live head: pushdown vs model.
        for req in &reqs {
            check(&master.scan_pushdown(req).unwrap(), &model, req);
        }

        // Pin a snapshot, keep writing, and re-check against the *frozen*
        // model: the Page Stores must materialize every page at the pinned
        // LSN even though newer records have landed on top.
        master.create_snapshot("pin");
        let frozen = model.clone();
        for op in &post {
            apply(&master, &mut model, op);
        }
        db.quiesce(deadline(&db)).unwrap();
        for req in &reqs {
            check(&master.snapshot_scan_pushdown("pin", req).unwrap(), &frozen, req);
        }

        // Kill one Page Store node: per-slice retry (next replica) and the
        // local ReadPage fallback must keep answers identical.
        db.fabric.set_down(db.pages.server_nodes()[0]);
        for req in &reqs {
            check(&master.scan_pushdown(req).unwrap(), &model, req);
        }
    }
}

// ---------------------------------------------------------------------
// Concurrent writer + mid-run replica kill (deterministic)
// ---------------------------------------------------------------------

#[test]
fn pushdown_agrees_with_fetch_under_concurrent_writes_and_replica_loss() {
    let db = launch(23);
    let master = db.master();
    for i in 0..120u32 {
        let mut t = master.begin();
        t.put(&key(i), format!("v{}", i % 7).as_bytes()).unwrap();
        t.commit().unwrap();
    }
    db.quiesce(deadline(&db)).unwrap();

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

    // Scans only see the seeded range; the writer churns underneath.
    let req = ScanRequest::full()
        .with_range(b"k", Some(b"l"))
        .with_predicate(Field::Value, CmpOp::Eq, Operand::Bytes(b"v3".to_vec()));
    for round in 0..5 {
        let name = format!("s{round}");
        master.create_snapshot(&name);
        if round == 2 {
            // Kill a Page Store replica mid-run: retries and the ReadPage
            // fallback must keep both paths in agreement.
            db.fabric.set_down(db.pages.server_nodes()[0]);
        }
        let fetched: Vec<(Vec<u8>, Vec<u8>)> = master
            .snapshot_scan(&name, b"", usize::MAX)
            .unwrap()
            .into_iter()
            .filter(|(k, v)| req.matches(k, v))
            .collect();
        let pushed = master.snapshot_scan_pushdown(&name, &req).unwrap();
        assert_eq!(pushed.rows, fetched, "round {round}");
        assert_eq!(pushed.rows.len(), 17, "120 rows, every 7th has v3");
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}
