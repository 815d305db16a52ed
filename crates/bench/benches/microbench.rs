//! Criterion micro-benchmarks of the hot paths: redo application, the
//! record codec, slotted-page operations, Page Store ingestion and
//! consolidation, the engine's resident read path, and end-to-end
//! single-transaction commit.

use std::sync::Arc;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use taurus_common::apply::apply_record;
use taurus_common::clock::ManualClock;
use taurus_common::config::StorageProfile;
use taurus_common::page::{PageBuf, PageType};
use taurus_common::record::{LogRecord, RecordBody};
use taurus_common::{DbId, Lsn, PageId, SliceId, SliceKey, TaurusConfig};
use taurus_engine::TaurusDb;
use taurus_fabric::StorageDevice;
use taurus_pagestore::{ConsolidationPolicy, EvictionPolicy, PageStoreServer, SliceFragment};

fn bench_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("redo");
    group.bench_function("apply_insert_record", |b| {
        let mut lsn = 0u64;
        let mut page = PageBuf::new();
        page.format(PageType::Leaf, 0);
        b.iter(|| {
            lsn += 1;
            let rec = LogRecord::new(
                Lsn(lsn),
                PageId(1),
                RecordBody::Insert {
                    idx: 0,
                    key: Bytes::from(format!("k{:08}", lsn % 50)),
                    val: Bytes::from_static(b"value-payload-64-bytes-xxxxxxxxxxxxxxxxxxxxx"),
                },
            );
            if apply_record(&mut page, &rec).is_err() || page.nslots() > 60 {
                page.format(PageType::Leaf, 0);
                // Re-format consumed the lsn ordering; restart versioning.
                page.set_lsn(Lsn(lsn));
            }
        });
    });
    group.bench_function("record_encode_decode", |b| {
        let rec = LogRecord::new(
            Lsn(42),
            PageId(7),
            RecordBody::Insert {
                idx: 3,
                key: Bytes::from_static(b"some-key-12b"),
                val: Bytes::from(vec![0x5a; 120]),
            },
        );
        b.iter(|| {
            let mut enc = rec.encode();
            LogRecord::decode(&mut enc).unwrap()
        });
    });
    group.finish();
}

fn bench_page(c: &mut Criterion) {
    let mut group = c.benchmark_group("page");
    group.bench_function("search_in_full_page", |b| {
        let mut page = PageBuf::new();
        page.format(PageType::Leaf, 0);
        let mut i = 0;
        while page
            .insert(page.nslots(), format!("key{i:06}").as_bytes(), &[0u8; 40])
            .is_ok()
        {
            i += 1;
        }
        b.iter(|| page.search(b"key000077"));
    });
    group.bench_function("insert_remove_cycle", |b| {
        let mut page = PageBuf::new();
        page.format(PageType::Leaf, 0);
        for i in 0..50 {
            page.insert(i, format!("key{i:06}").as_bytes(), &[0u8; 40])
                .unwrap();
        }
        b.iter(|| {
            page.insert(25, b"key-mid", &[1u8; 40]).unwrap();
            let idx = page.search(b"key-mid").unwrap();
            page.remove(idx).unwrap();
        });
    });
    group.finish();
}

fn pagestore_server() -> Arc<PageStoreServer> {
    PageStoreServer::new(
        StorageDevice::in_memory(ManualClock::shared(), StorageProfile::instant()),
        32 << 20,
        2048,
        EvictionPolicy::Lfu,
        // Small layer knobs: the consolidation bench seals and compacts.
        ConsolidationPolicy::Layered {
            l0_target_bytes: 1 << 10,
            compaction_threshold: 2,
        },
    )
}

fn bench_pagestore(c: &mut Criterion) {
    let key = SliceKey::new(DbId(1), SliceId(0));
    let mut group = c.benchmark_group("pagestore");
    group.bench_function("write_logs_one_fragment", |b| {
        let server = pagestore_server();
        server.create_slice(key);
        let mut lsn = 0u64;
        b.iter(|| {
            let prev = Lsn(lsn);
            lsn += 1;
            let rec = if lsn == 1 {
                LogRecord::new(
                    Lsn(lsn),
                    PageId(1),
                    RecordBody::Format {
                        ty: PageType::Leaf,
                        level: 0,
                    },
                )
            } else {
                LogRecord::new(
                    Lsn(lsn),
                    PageId(1),
                    RecordBody::SetLinks { next: lsn, prev: 0 },
                )
            };
            let frag = SliceFragment::new(key, prev, vec![rec]);
            server.write_logs(&frag).unwrap()
        });
    });
    group.bench_function("consolidate_and_read_page", |b| {
        b.iter_batched(
            || {
                let server = pagestore_server();
                server.create_slice(key);
                let mut lsn = 0u64;
                for page in 1..=16u64 {
                    let prev = Lsn(lsn);
                    let mut recs = vec![LogRecord::new(
                        Lsn(lsn + 1),
                        PageId(page),
                        RecordBody::Format {
                            ty: PageType::Leaf,
                            level: 0,
                        },
                    )];
                    for j in 0..8u64 {
                        recs.push(LogRecord::new(
                            Lsn(lsn + 2 + j),
                            PageId(page),
                            RecordBody::Insert {
                                idx: j as u16,
                                key: Bytes::from(format!("k{j}")),
                                val: Bytes::from_static(b"v"),
                            },
                        ));
                    }
                    lsn += 9;
                    server
                        .write_logs(&SliceFragment::new(key, prev, recs))
                        .unwrap();
                }
                (server, Lsn(lsn))
            },
            |(server, as_of)| {
                server.consolidate_all();
                for page in 1..=16u64 {
                    server.read_page(key, PageId(page), as_of).unwrap();
                }
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(20);
    group.bench_function("single_txn_commit_instant_profiles", |b| {
        let db = TaurusDb::launch_with_clock(TaurusConfig::test(), 4, 4, ManualClock::shared(), 1)
            .unwrap();
        let master = db.master();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut t = master.begin();
            t.put(format!("bench{i:010}").as_bytes(), b"value").unwrap();
            t.commit().unwrap()
        });
    });
    group.finish();
}

/// Reads a launched database answers from its buffer pool alone: an
/// 8 000-row table, every page of it resident, read by one thread through
/// the master's tree latch. No storage layer takes part.
fn bench_engine(c: &mut Criterion) {
    let db =
        TaurusDb::launch_with_clock(TaurusConfig::test(), 4, 4, ManualClock::shared(), 1).unwrap();
    let master = db.master();
    let keys: Vec<Vec<u8>> = (0..8_000u32)
        .map(|i| format!("row{i:011}").into_bytes())
        .collect();
    for chunk in keys.chunks(500) {
        let mut t = master.begin();
        for k in chunk {
            t.put(k, &[b'v'; 100]).unwrap();
        }
        t.commit().unwrap();
    }
    assert_eq!(master.scan(b"", usize::MAX).unwrap().len(), keys.len());
    // A stride through the table, so consecutive reads land on other leaves.
    let mut at = 0;
    let mut next = || {
        at = (at + 7_919) % keys.len();
        &keys[at][..]
    };
    let mut group = c.benchmark_group("engine");
    group.bench_function("cached_get", |b| b.iter(|| master.get(next()).unwrap()));
    group.bench_function("cached_scan20", |b| {
        b.iter(|| master.scan(next(), 20).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_apply,
    bench_page,
    bench_pagestore,
    bench_engine,
    bench_end_to_end
);
criterion_main!(benches);
