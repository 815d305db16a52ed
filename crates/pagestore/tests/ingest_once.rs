//! A Page Store handles each logged record once. One fragment ingested by
//! three replicas is encoded once, and its records stay one allocation from
//! the three log caches through the open L0 and the sealed run: the only
//! owners of that allocation are the fragment and one layer per replica.
//! The encode counter is process-global, so this test lives in its own
//! integration-test binary (its own process).

// Test harness: panicking on setup failure is the desired behavior.
#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use bytes::Bytes;

use taurus_common::clock::ManualClock;
use taurus_common::config::StorageProfile;
use taurus_common::page::PageType;
use taurus_common::record::{LogRecord, RecordBody};
use taurus_common::{DbId, Lsn, PageId, SliceId, SliceKey};
use taurus_fabric::StorageDevice;
use taurus_pagestore::{
    encode_count, ConsolidationPolicy, EvictionPolicy, PageStoreServer, SliceFragment,
};

fn key() -> SliceKey {
    SliceKey::new(DbId(1), SliceId(0))
}

/// A replica that seals every staged fragment and compacts after `threshold`
/// sealed L0s.
fn replica(threshold: usize) -> Arc<PageStoreServer> {
    let server = PageStoreServer::new(
        StorageDevice::in_memory(ManualClock::shared(), StorageProfile::instant()),
        1 << 20,
        64,
        EvictionPolicy::Lfu,
        ConsolidationPolicy::Layered {
            l0_target_bytes: 1,
            compaction_threshold: threshold,
        },
    );
    server.create_slice(key());
    server
}

fn fragment(prev: u64, first: u64) -> Arc<SliceFragment> {
    let records = vec![
        LogRecord::new(
            Lsn(first),
            PageId(3),
            RecordBody::Format {
                ty: PageType::Leaf,
                level: 0,
            },
        ),
        LogRecord::new(
            Lsn(first + 1),
            PageId(3),
            RecordBody::Insert {
                idx: 0,
                key: Bytes::from(format!("k{first}")),
                val: Bytes::from_static(b"v"),
            },
        ),
    ];
    Arc::new(SliceFragment::new(key(), Lsn(prev), records))
}

#[test]
fn three_replicas_encode_a_fragment_once_and_share_its_records_until_compaction() {
    let replicas = [replica(2), replica(2), replica(2)];
    let first = fragment(0, 1);
    let encodes = encode_count();
    for r in &replicas {
        r.write_logs(&first).unwrap();
    }
    assert_eq!(
        encode_count() - encodes,
        1,
        "one encoding for three replicas"
    );
    // Each log cache holds the fragment's own allocation.
    assert_eq!(Arc::strong_count(&first.records), 1 + replicas.len());

    // Staged into the open L0, then sealed: still the same allocation, now
    // owned by each replica's sealed run.
    for r in &replicas {
        r.consolidate_all();
        assert_eq!(r.stats.l0_sealed.get(), 1);
    }
    assert_eq!(Arc::strong_count(&first.records), 1 + replicas.len());

    // A record fetch against the sealed run reads those records in place.
    for r in &replicas {
        let (page, lsn) = r.read_page(key(), PageId(3), Lsn(2)).unwrap();
        assert_eq!((lsn, page.nslots()), (Lsn(2), 1));
    }

    // The second fragment's seal triggers the compaction; the merged run
    // lets go of both allocations (the L1 images and the pool hold pages).
    let second = fragment(2, 3);
    for r in &replicas {
        r.write_logs(&second).unwrap();
    }
    assert_eq!(encode_count() - encodes, 2);
    for r in &replicas {
        r.consolidate_all();
        assert_eq!(r.stats.l1_compactions.get(), 1);
        assert_eq!(r.compact_lsn(key()).unwrap(), Lsn(4));
    }
    assert_eq!(Arc::strong_count(&first.records), 1);
    assert_eq!(Arc::strong_count(&second.records), 1);
}
