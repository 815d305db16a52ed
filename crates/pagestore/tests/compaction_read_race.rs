//! Reads racing seal + compaction on one Page Store. Alone in its binary:
//! the invariant registry is process-wide and the test asserts it empty.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bytes::Bytes;

use taurus_common::clock::ManualClock;
use taurus_common::config::StorageProfile;
use taurus_common::invariants::take_violations;
use taurus_common::page::PageType;
use taurus_common::record::{LogRecord, RecordBody};
use taurus_common::{DbId, Lsn, PageId, SliceId, SliceKey};
use taurus_fabric::StorageDevice;
use taurus_pagestore::{ConsolidationPolicy, EvictionPolicy, PageStoreServer, SliceFragment};

const PAGES: u64 = 3;

/// A read takes its directory snapshot, a compaction lands, and the
/// `layer-bounded-replay` check must still compare the snapshot's record
/// list against a compact LSN the snapshot had seen — the read itself
/// replays what its snapshot names and is right either way.
#[test]
fn reads_racing_seal_and_compaction_never_trip_layer_bounded_replay() {
    let server = PageStoreServer::new(
        StorageDevice::in_memory(ManualClock::shared(), StorageProfile::instant()),
        1 << 20,
        64,
        EvictionPolicy::Lfu,
        ConsolidationPolicy::Layered {
            l0_target_bytes: 1, // every staged fragment seals an L0
            compaction_threshold: 2,
        },
    );
    let key = SliceKey::new(DbId(1), SliceId(0));
    server.create_slice(key);
    let record = |lsn: u64, body| LogRecord::new(Lsn(lsn), PageId(lsn % PAGES + 1), body);
    let insert = |lsn: u64| RecordBody::Insert {
        idx: 0,
        key: Bytes::from(format!("k{lsn:06}")),
        val: Bytes::from_static(b"v"),
    };
    let format = RecordBody::Format {
        ty: PageType::Leaf,
        level: 0,
    };
    for lsn in 1..=PAGES {
        let frag = SliceFragment::new(key, Lsn(lsn - 1), vec![record(lsn, format.clone())]);
        server.write_logs(&frag).unwrap();
    }
    let (head, stop) = (AtomicU64::new(PAGES), AtomicBool::new(false));
    std::thread::scope(|s| {
        for reader in 0..3u64 {
            let (server, head, stop) = (&server, &head, &stop);
            s.spawn(move || {
                let mut reads = reader;
                while !stop.load(Ordering::Acquire) {
                    let as_of = head.load(Ordering::Acquire);
                    let page = PageId(reads % PAGES + 1);
                    let (buf, lsn) = server.read_page(key, page, Lsn(as_of)).unwrap();
                    // The newest record of `page` at or below `as_of`.
                    let newest = (as_of + 1 - PAGES..=as_of).find(|l| l % PAGES + 1 == page.0);
                    assert_eq!(Some(lsn.0), newest);
                    assert_eq!(buf.lsn(), lsn);
                    reads += 1;
                }
            });
        }
        // The writer: ingest one fragment, then seal and compact under the
        // readers until there is nothing left to do.
        for lsn in PAGES + 1..=PAGES + 400 {
            let frag = SliceFragment::new(key, Lsn(lsn - 1), vec![record(lsn, insert(lsn))]);
            server.write_logs(&frag).unwrap();
            head.store(lsn, Ordering::Release);
            while server.consolidate_step() {}
        }
        stop.store(true, Ordering::Release);
    });
    assert!(
        server.stats.l1_compactions.get() > 10,
        "compactions must have raced the reads"
    );
    let violations = take_violations();
    assert!(violations.is_empty(), "{violations:?}");
}
