//! `Txn::scan` reads its own writes: a transaction's puts, deletes and
//! delete-then-reinserts overlay the committed rows of its range, in key
//! order, cut at `limit` — exactly what a `BTreeMap` model of the table plus
//! the write set returns.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use taurus_common::clock::ManualClock;
use taurus_common::TaurusConfig;
use taurus_engine::TaurusDb;

/// Committed rows: the even keys below this (so writes land between,
/// before and after them), several leaves' worth.
const KEYS: u32 = 800;

fn key(i: u32) -> Vec<u8> {
    format!("k{i:05}").into_bytes()
}

type Rows = BTreeMap<Vec<u8>, Vec<u8>>;

/// One database holding the committed rows, shared by every case: a case's
/// transaction never commits, so the table stays as loaded.
fn table() -> &'static (Arc<TaurusDb>, Rows) {
    static TABLE: OnceLock<(Arc<TaurusDb>, Rows)> = OnceLock::new();
    TABLE.get_or_init(|| {
        let db = TaurusDb::launch_with_clock(TaurusConfig::test(), 5, 6, ManualClock::shared(), 9)
            .unwrap();
        let master = db.master();
        let rows: Rows = (0..KEYS)
            .step_by(2)
            .map(|i| {
                (
                    key(i),
                    format!("committed-{i}-{}", "c".repeat(90)).into_bytes(),
                )
            })
            .collect();
        let mut txn = master.begin();
        for (k, v) in &rows {
            txn.put(k, v).unwrap();
        }
        txn.commit().unwrap();
        (db, rows)
    })
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig { cases: 64 })]

    #[test]
    fn a_transactions_scan_matches_a_model_of_its_writes(
        ops in proptest::prelude::prop::collection::vec((0u8..3, 0u32..KEYS + 20), 0..40),
        start in 0u32..KEYS + 20,
        limit in 0usize..(KEYS as usize / 2 + 20),
    ) {
        let (db, committed) = table();
        let master = db.master();
        let mut model = committed.clone();
        let mut txn = master.begin();
        for (n, (kind, i)) in ops.into_iter().enumerate() {
            let (k, v) = (key(i), format!("mine-{n}").into_bytes());
            match kind {
                0 => {
                    txn.put(&k, &v).unwrap();
                    model.insert(k, v);
                }
                1 => {
                    txn.delete(&k).unwrap();
                    model.remove(&k);
                }
                _ => {
                    txn.delete(&k).unwrap();
                    txn.put(&k, &v).unwrap();
                    model.insert(k, v);
                }
            }
        }
        let start = key(start);
        let text = |rows: Vec<(&Vec<u8>, &Vec<u8>)>| -> Vec<String> {
            let row = |(k, v): (&Vec<u8>, &Vec<u8>)| {
                format!("{}={}", String::from_utf8_lossy(k), String::from_utf8_lossy(v))
            };
            rows.into_iter().map(row).collect()
        };
        for limit in [limit, usize::MAX] {
            let got = txn.scan(&start, limit).unwrap();
            let want = model.range(start.clone()..).take(limit).collect();
            assert_eq!(
                text(got.iter().map(|(k, v)| (k, v)).collect()),
                text(want),
                "limit {limit}"
            );
        }
        txn.rollback();
    }
}
