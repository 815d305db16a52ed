//! Property-based tests of Page Store invariants under arbitrary fragment
//! delivery orders, duplication, and partial delivery — the conditions the
//! wait-for-one write path creates in production.

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use taurus_common::clock::ManualClock;
use taurus_common::config::StorageProfile;
use taurus_common::page::PageType;
use taurus_common::record::{LogRecord, RecordBody};
use taurus_common::{DbId, Lsn, PageId, SliceId, SliceKey};
use taurus_fabric::StorageDevice;
use taurus_pagestore::{ConsolidationPolicy, EvictionPolicy, PageStoreServer, SliceFragment};

fn server() -> Arc<PageStoreServer> {
    PageStoreServer::new(
        StorageDevice::in_memory(ManualClock::shared(), StorageProfile::instant()),
        1 << 20,
        256,
        EvictionPolicy::Lfu,
        // Small knobs: a few fragments seal L0s and run compactions.
        ConsolidationPolicy::Layered {
            l0_target_bytes: 64,
            compaction_threshold: 2,
        },
    )
}

fn key() -> SliceKey {
    SliceKey::new(DbId(1), SliceId(0))
}

/// Builds a chain of `n` single-record fragments over `pages` pages.
/// Fragment i carries LSN i+1 and chains after LSN i.
fn build_chain(n: u64, pages: u64) -> Vec<SliceFragment> {
    let mut formatted = std::collections::HashSet::new();
    let mut frags = Vec::new();
    for i in 0..n {
        let page = (i % pages) + 1;
        let lsn = i + 1;
        let body = if formatted.insert(page) {
            RecordBody::Format {
                ty: PageType::Leaf,
                level: 0,
            }
        } else {
            RecordBody::Insert {
                idx: 0,
                key: Bytes::from(format!("k{lsn:06}")),
                val: Bytes::from(format!("v{lsn}")),
            }
        };
        frags.push(SliceFragment::new(
            key(),
            Lsn(lsn - 1),
            vec![LogRecord::new(Lsn(lsn), PageId(page), body)],
        ));
    }
    frags
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Delivering a complete chain in ANY order (with arbitrary duplicates)
    /// always converges to persistent LSN == chain end, and all pages
    /// materialize identically to in-order delivery.
    #[test]
    fn any_delivery_order_converges(
        n in 2u64..24,
        order in prop::collection::vec(any::<prop::sample::Index>(), 0..48),
    ) {
        let frags = build_chain(n, 3);

        // Reference: in-order delivery.
        let reference = server();
        reference.create_slice(key());
        for f in &frags {
            reference.write_logs(f).unwrap();
        }
        reference.consolidate_all();
        prop_assert_eq!(reference.get_persistent_lsn(key()).unwrap(), Lsn(n));

        // Shuffled + duplicated delivery, then fill in whatever is missing.
        let shuffled = server();
        shuffled.create_slice(key());
        let mut delivered = std::collections::HashSet::new();
        for idx in &order {
            let f = &frags[idx.index(frags.len())];
            shuffled.write_logs(f).unwrap();
            delivered.insert(f.first_lsn());
        }
        for f in &frags {
            shuffled.write_logs(f).unwrap();
        }
        shuffled.consolidate_all();
        prop_assert_eq!(shuffled.get_persistent_lsn(key()).unwrap(), Lsn(n));

        // Bit-identical page materialization.
        for page in 1..=3u64 {
            let a = reference.read_page(key(), PageId(page), Lsn(n));
            let b = shuffled.read_page(key(), PageId(page), Lsn(n));
            match (a, b) {
                (Ok((pa, la)), Ok((pb, lb))) => {
                    prop_assert_eq!(pa.as_bytes(), pb.as_bytes());
                    prop_assert_eq!(la, lb);
                }
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "divergent read outcomes: {a:?} vs {b:?}"),
            }
        }
    }

    /// With a PARTIAL delivery, the persistent LSN is exactly the end of the
    /// longest delivered prefix, and the missing ranges exactly complement
    /// what was delivered.
    #[test]
    fn persistent_lsn_is_longest_prefix(
        n in 3u64..20,
        subset_bits in any::<u32>(),
    ) {
        let frags = build_chain(n, 2);
        let s = server();
        s.create_slice(key());
        let mut delivered = vec![false; n as usize];
        for (i, f) in frags.iter().enumerate() {
            if subset_bits & (1 << (i % 32)) != 0 {
                s.write_logs(f).unwrap();
                delivered[i] = true;
            }
        }
        let expected_prefix = delivered.iter().take_while(|d| **d).count() as u64;
        prop_assert_eq!(
            s.get_persistent_lsn(key()).unwrap(),
            Lsn(expected_prefix),
            "delivered={:?}", delivered
        );
        // Reads at the persistent LSN always succeed; beyond it, never.
        if expected_prefix > 0 {
            s.consolidate_all();
            prop_assert!(s.read_page(key(), PageId(1), Lsn(expected_prefix)).is_ok());
        }
        if expected_prefix < n {
            prop_assert!(s.read_page(key(), PageId(1), Lsn(n)).is_err());
        }
        // Missing ranges, when present, must start after the prefix.
        for (after, before) in s.missing_lsn_ranges(key()).unwrap() {
            prop_assert!(after >= Lsn(expected_prefix));
            prop_assert!(before > after);
        }
    }

    /// Recycle purging never breaks reads at or above the recycle LSN.
    #[test]
    fn recycle_preserves_readability_above_the_horizon(
        n in 4u64..20,
        recycle in 1u64..20,
    ) {
        let recycle = recycle.min(n);
        let frags = build_chain(n, 2);
        let s = server();
        s.create_slice(key());
        for f in &frags {
            s.write_logs(f).unwrap();
        }
        s.consolidate_all();
        s.set_recycle_lsn(key(), Lsn(recycle)).unwrap();
        // Everything at or after the recycle LSN stays readable.
        for as_of in recycle..=n {
            prop_assert!(
                s.read_page(key(), PageId(1), Lsn(as_of)).is_ok(),
                "read at {as_of} (recycle {recycle}, n {n}) failed"
            );
        }
    }
}
