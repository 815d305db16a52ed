//! Property-based tests (proptest) on the core data structures and
//! invariants: the slotted page vs a model map, the log-record codec, redo
//! idempotence, and the B+tree vs a model map under arbitrary op sequences.

use std::collections::BTreeMap;

use bytes::Bytes;
use proptest::prelude::*;

use taurus::common::apply::apply_record;
use taurus::common::lsn::LsnAllocator;
use taurus::common::page::{PageBuf, PageType};
use taurus::common::record::{LogRecord, LogRecordGroup, RecordBody};
use taurus::common::{DbId, Lsn, PageId, TxnId};
use taurus::engine::btree::{BTree, MutCtx};

// ---------------------------------------------------------------------
// Slotted page vs model
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum PageOp {
    Insert(Vec<u8>, Vec<u8>),
    Remove(Vec<u8>),
    Update(Vec<u8>, Vec<u8>),
}

fn page_ops() -> impl Strategy<Value = Vec<PageOp>> {
    prop::collection::vec(
        prop_oneof![
            (
                prop::collection::vec(any::<u8>(), 1..12),
                prop::collection::vec(any::<u8>(), 0..40)
            )
                .prop_map(|(k, v)| PageOp::Insert(k, v)),
            prop::collection::vec(any::<u8>(), 1..12).prop_map(PageOp::Remove),
            (
                prop::collection::vec(any::<u8>(), 1..12),
                prop::collection::vec(any::<u8>(), 0..40)
            )
                .prop_map(|(k, v)| PageOp::Update(k, v)),
        ],
        0..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn slotted_page_matches_model_map(ops in page_ops()) {
        let mut page = PageBuf::new();
        page.format(PageType::Leaf, 0);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                PageOp::Insert(k, v) | PageOp::Update(k, v) => {
                    match page.search(&k) {
                        Ok(idx) => {
                            if page.update_value(idx, &v).is_ok() {
                                model.insert(k, v);
                            }
                        }
                        Err(idx) => {
                            if page.insert(idx, &k, &v).is_ok() {
                                model.insert(k, v);
                            }
                        }
                    }
                }
                PageOp::Remove(k) => {
                    if let Ok(idx) = page.search(&k) {
                        page.remove(idx).unwrap();
                        model.remove(&k);
                    }
                }
            }
        }
        // The page must contain exactly the model, in sorted order.
        prop_assert_eq!(page.nslots(), model.len());
        for (i, (k, v)) in model.iter().enumerate() {
            prop_assert_eq!(page.key(i).unwrap(), &k[..]);
            prop_assert_eq!(page.value(i).unwrap(), &v[..]);
        }
        // And it must round-trip through raw bytes.
        let back = PageBuf::from_bytes(page.as_bytes()).unwrap();
        prop_assert_eq!(back, page);
    }
}

// ---------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------

fn arb_body() -> impl Strategy<Value = RecordBody> {
    prop_oneof![
        (0u8..3, any::<u8>()).prop_map(|(t, level)| RecordBody::Format {
            ty: match t {
                0 => PageType::Leaf,
                1 => PageType::Internal,
                _ => PageType::Control,
            },
            level,
        }),
        (
            any::<u16>(),
            prop::collection::vec(any::<u8>(), 0..50),
            prop::collection::vec(any::<u8>(), 0..200)
        )
            .prop_map(|(idx, k, v)| RecordBody::Insert {
                idx,
                key: Bytes::from(k),
                val: Bytes::from(v),
            }),
        any::<u16>().prop_map(|idx| RecordBody::Remove { idx }),
        (any::<u16>(), prop::collection::vec(any::<u8>(), 0..200)).prop_map(|(idx, v)| {
            RecordBody::UpdateValue {
                idx,
                val: Bytes::from(v),
            }
        }),
        any::<u16>().prop_map(|idx| RecordBody::TruncateFrom { idx }),
        (any::<u64>(), any::<u64>()).prop_map(|(next, prev)| RecordBody::SetLinks { next, prev }),
        any::<u64>().prop_map(|t| RecordBody::TxnCommit { txn: TxnId(t) }),
        any::<u64>().prop_map(|t| RecordBody::TxnAbort { txn: TxnId(t) }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn record_codec_roundtrips(lsn in 1u64..u64::MAX, page in any::<u64>(), body in arb_body()) {
        let rec = LogRecord::new(Lsn(lsn), PageId(page), body);
        let mut enc = rec.encode();
        prop_assert_eq!(enc.len(), rec.encoded_len());
        let back = LogRecord::decode(&mut enc).unwrap();
        prop_assert_eq!(back, rec);
    }

    #[test]
    fn group_codec_roundtrips(bodies in prop::collection::vec(arb_body(), 1..20)) {
        let records: Vec<LogRecord> = bodies
            .into_iter()
            .enumerate()
            .map(|(i, b)| LogRecord::new(Lsn(i as u64 + 1), PageId(i as u64), b))
            .collect();
        let group = LogRecordGroup::new(DbId(7), records);
        let mut enc = group.encode();
        let back = LogRecordGroup::decode(&mut enc).unwrap();
        prop_assert_eq!(back, group);
    }

    #[test]
    fn decoding_arbitrary_bytes_never_panics(junk in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut buf = Bytes::from(junk);
        let _ = LogRecord::decode(&mut buf); // must not panic
    }
}

// ---------------------------------------------------------------------
// Redo idempotence: applying a valid chain twice equals applying it once.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn redo_application_is_idempotent(
        kvs in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 1..8), prop::collection::vec(any::<u8>(), 0..16)),
            1..40
        )
    ) {
        // Build a valid chain by performing inserts through the page itself.
        let mut chain = Vec::new();
        let mut builder = PageBuf::new();
        let mut lsn = 0u64;
        lsn += 1;
        let format = LogRecord::new(Lsn(lsn), PageId(1), RecordBody::Format { ty: PageType::Leaf, level: 0 });
        apply_record(&mut builder, &format).unwrap();
        chain.push(format);
        for (k, v) in kvs {
            if let Err(idx) = builder.search(&k) {
                lsn += 1;
                let rec = LogRecord::new(Lsn(lsn), PageId(1), RecordBody::Insert {
                    idx: idx as u16,
                    key: Bytes::from(k),
                    val: Bytes::from(v),
                });
                if apply_record(&mut builder, &rec).is_ok() {
                    chain.push(rec);
                }
            }
        }
        let mut once = PageBuf::new();
        for rec in &chain {
            apply_record(&mut once, rec).unwrap();
        }
        let mut twice = PageBuf::new();
        for rec in chain.iter().chain(chain.iter()) {
            apply_record(&mut twice, rec).unwrap();
        }
        prop_assert_eq!(once.as_bytes(), twice.as_bytes());
    }
}

// ---------------------------------------------------------------------
// B+tree vs model under arbitrary put/delete sequences
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum TreeOp {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
}

fn tree_ops() -> impl Strategy<Value = Vec<TreeOp>> {
    prop::collection::vec(
        prop_oneof![
            (
                prop::collection::vec(1u8..=120, 1..16),
                prop::collection::vec(any::<u8>(), 0..60)
            )
                .prop_map(|(k, v)| TreeOp::Put(k, v)),
            prop::collection::vec(1u8..=120, 1..16).prop_map(TreeOp::Delete),
        ],
        0..250,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn btree_matches_model_map(ops in tree_ops()) {
        use parking_lot::Mutex;
        use std::collections::HashMap;
        use std::sync::Arc;

        #[derive(Default)]
        struct MemPages(Mutex<HashMap<PageId, Arc<PageBuf>>>);
        let pages = MemPages::default();
        let fetch = |id: PageId| -> taurus::common::Result<Arc<PageBuf>> {
            Ok(pages
                .0
                .lock()
                .get(&id)
                .cloned()
                .unwrap_or_else(|| Arc::new(PageBuf::new())))
        };
        let lsns = LsnAllocator::new(Lsn::ZERO);
        let absorb = |ctx: MutCtx<'_>| {
            let mut map = pages.0.lock();
            for (id, page) in ctx.pages {
                map.insert(id, Arc::new(page));
            }
        };
        {
            let mut ctx = MutCtx::new(&lsns, &fetch);
            BTree::bootstrap(&mut ctx).unwrap();
            absorb(ctx);
        }
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in ops {
            let mut ctx = MutCtx::new(&lsns, &fetch);
            match op {
                TreeOp::Put(k, v) => {
                    BTree::put(&mut ctx, &k, &v).unwrap();
                    model.insert(k, v);
                }
                TreeOp::Delete(k) => {
                    let existed = BTree::delete(&mut ctx, &k).unwrap();
                    prop_assert_eq!(existed, model.remove(&k).is_some());
                }
            }
            absorb(ctx);
        }
        // Every model key readable; scan equals model order.
        for (k, v) in &model {
            let got = BTree::get(&fetch, k).unwrap();
            prop_assert_eq!(got.as_deref(), Some(&v[..]));
        }
        let scanned = BTree::scan(&fetch, b"", usize::MAX).unwrap();
        prop_assert_eq!(scanned.len(), model.len());
        for ((sk, sv), (mk, mv)) in scanned.iter().zip(model.iter()) {
            prop_assert_eq!(sk, mk);
            prop_assert_eq!(sv, mv);
        }
    }
}
