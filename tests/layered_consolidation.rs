//! Differential tests for log-structured (layered) consolidation: the
//! layered read path must return byte-identical pages and version LSNs to a
//! straight-line replay model (every record of the stream for the page, up
//! to the read LSN, applied in order to a fresh page) — at the live head, at
//! a pinned snapshot, under a concurrent writer, and across a crash
//! mid-compaction (the partial L1 blob is discarded and re-compaction is
//! idempotent). Every image a compaction writes (one merge of the sealed
//! runs) equals the replay at its compaction LSN, under duplicate and
//! overlapping resends, out-of-order arrival, pooled and device bases, and
//! pages whose records span several sealed L0s.

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use taurus::common::apply::apply_record;
use taurus::common::clock::ManualClock;
use taurus::common::config::StorageProfile;
use taurus::common::page::PageType;
use taurus::common::record::{LogRecord, RecordBody};
use taurus::common::{DbId, Lsn, PageBuf, PageId, SliceId, SliceKey};
use taurus::fabric::StorageDevice;
use taurus::pagestore::{ConsolidationPolicy, EvictionPolicy, PageStoreServer, SliceFragment};

const PAGES: u64 = 4;

fn key() -> SliceKey {
    SliceKey::new(DbId(1), SliceId(0))
}

/// A layered server with small knobs, so short streams exercise seal and
/// compaction.
fn server() -> Arc<PageStoreServer> {
    // Tiny pool: reads must rebuild pages from versions + records, which is
    // exactly the path that must stay byte-identical.
    server_with(8, 2)
}

fn server_with(pool_pages: usize, compaction_threshold: usize) -> Arc<PageStoreServer> {
    let s = PageStoreServer::new(
        StorageDevice::in_memory(ManualClock::shared(), StorageProfile::instant()),
        1 << 20,
        pool_pages,
        EvictionPolicy::Lfu,
        ConsolidationPolicy::Layered {
            l0_target_bytes: 96,
            compaction_threshold,
        },
    );
    s.create_slice(key());
    s
}

/// Turns a page-visit sequence into chained fragments. The first visit of a
/// page formats it; later visits insert a unique row. Fragment boundaries
/// come from a cheap deterministic mix of `seed`.
fn build_frags(visits: &[u8], seed: u64) -> Vec<SliceFragment> {
    let mut formatted = [false; PAGES as usize];
    let mut frags = Vec::new();
    let mut records = Vec::new();
    let mut lsn = 1u64;
    let mut prev = 0u64;
    let mut mix = seed | 1;
    for &v in visits {
        let page = (v as u64) % PAGES;
        let body = if !formatted[page as usize] {
            formatted[page as usize] = true;
            RecordBody::Format {
                ty: PageType::Leaf,
                level: 0,
            }
        } else {
            RecordBody::Insert {
                idx: 0,
                key: Bytes::from(format!("k{lsn}")),
                val: Bytes::from(format!("v{lsn}")),
            }
        };
        records.push(LogRecord::new(Lsn(lsn), PageId(page), body));
        lsn += 1;
        mix = mix
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if mix.is_multiple_of(3) && !records.is_empty() {
            let first_prev = prev;
            prev = lsn - 1;
            frags.push(SliceFragment::new(
                key(),
                Lsn(first_prev),
                std::mem::take(&mut records),
            ));
        }
    }
    if !records.is_empty() {
        frags.push(SliceFragment::new(key(), Lsn(prev), records));
    }
    frags
}

/// The reference: every record of the stream for `page` with LSN at or
/// below `as_of`, applied in LSN order to a fresh page.
fn replay(frags: &[SliceFragment], page: PageId, as_of: Lsn) -> PageBuf {
    let mut buf = PageBuf::new();
    for rec in frags.iter().flat_map(|f| f.records.iter()) {
        if rec.page == page && rec.lsn <= as_of {
            apply_record(&mut buf, rec).unwrap();
        }
    }
    buf
}

/// Asserts the server serves every page at `as_of` exactly as the replay
/// model builds it.
fn assert_matches_replay_at(layered: &PageStoreServer, frags: &[SliceFragment], as_of: Lsn) {
    for page in 0..PAGES {
        let (got, lsn) = layered
            .read_page(key(), PageId(page), as_of)
            .unwrap_or_else(|e| panic!("page {page} unreadable at {as_of}: {e:?}"));
        let want = replay(frags, PageId(page), as_of);
        assert_eq!(
            lsn,
            want.lsn(),
            "page {page} version lsn diverged at {as_of}"
        );
        assert_eq!(
            got.as_bytes(),
            want.as_bytes(),
            "page {page} bytes diverged at {as_of}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random fragment streams with duplicate resends and interleaved
    /// consolidation: the layered server must agree with the replay model
    /// everywhere — live head, a pinned snapshot, and history above it.
    #[test]
    fn layered_reads_match_replay_baseline(
        visits in prop::collection::vec(0u8..PAGES as u8, 2..120),
        seed in any::<u64>(),
    ) {
        let layered = server();
        let frags = build_frags(&visits, seed);
        let mut mix = seed | 1;
        for f in &frags {
            layered.write_logs(f).unwrap();
            mix = mix.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if mix.is_multiple_of(4) {
                // Duplicate resend (recovery replay): disregarded.
                layered.write_logs(f).unwrap();
            }
            if mix.is_multiple_of(2) {
                layered.consolidate_all();
            }
        }
        layered.consolidate_all();
        let head = layered.get_persistent_lsn(key()).unwrap();
        prop_assert_eq!(head, Lsn(visits.len() as u64));

        // Live head and full history.
        for lsn in 1..=head.0 {
            assert_matches_replay_at(&layered, &frags, Lsn(lsn));
        }

        // Pin a mid-stream snapshot, recycle everything below it, and check
        // the snapshot plus the surviving suffix still agree byte-for-byte.
        let snapshot = Lsn(head.0 / 2 + 1);
        layered.set_recycle_lsn(key(), snapshot).unwrap();
        for lsn in snapshot.0..=head.0 {
            assert_matches_replay_at(&layered, &frags, Lsn(lsn));
        }
    }
}

/// One step of a deterministic mix of `seed`.
fn step(mix: &mut u64) -> u64 {
    *mix = mix
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *mix >> 33
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Compaction is one merge of the sealed runs. After every step that
    /// moves the compaction LSN, each page read at that LSN — the image the
    /// compaction just wrote, from the pool or from the L1 blob — equals the
    /// replay there. Arrival mixes in-order fragments, neighbours swapped
    /// (the later one stalls at the hole and is staged first), duplicate
    /// resends and overlapping resends (two fragments re-sent as one,
    /// chained at the first one's link). A one-page pool makes most bases
    /// device reads; a 64-page pool makes them pooled images. A threshold
    /// of up to four sealed L0s per compaction and 96-byte L0s spread a
    /// page's records over several runs.
    #[test]
    fn every_compaction_image_matches_replay_at_its_compact_lsn(
        visits in prop::collection::vec(0u8..PAGES as u8, 2..120),
        seed in any::<u64>(),
        pooled in 0u8..2,
        threshold in 2usize..5,
    ) {
        let layered = server_with(if pooled == 1 { 64 } else { 1 }, threshold);
        let frags = build_frags(&visits, seed);
        let mut mix = seed | 1;
        let mut checked = Lsn::ZERO;
        let mut i = 0;
        while i < frags.len() {
            let choice = step(&mut mix) % 6;
            let next = frags.get(i + 1);
            match (choice, next) {
                (0, Some(next)) => {
                    layered.write_logs(next).unwrap();
                    layered.write_logs(&frags[i]).unwrap();
                    i += 2;
                }
                (1, Some(next)) => {
                    let both: Vec<LogRecord> =
                        frags[i].records.iter().chain(next.records.iter()).cloned().collect();
                    layered.write_logs(&frags[i]).unwrap();
                    let resend = SliceFragment::new(key(), frags[i].prev_last_lsn, both);
                    layered.write_logs(&resend).unwrap();
                    i += 2;
                }
                (2, _) => {
                    layered.write_logs(&frags[i]).unwrap();
                    layered.write_logs(&frags[i]).unwrap();
                    i += 1;
                }
                _ => {
                    layered.write_logs(&frags[i]).unwrap();
                    i += 1;
                }
            }
            for _ in 0..step(&mut mix) % 4 {
                layered.consolidate_step();
            }
            let compacted = layered.compact_lsn(key()).unwrap();
            if compacted > checked {
                assert_matches_replay_at(&layered, &frags, compacted);
                checked = compacted;
            }
        }
        layered.consolidate_all();
        let compacted = layered.compact_lsn(key()).unwrap();
        assert_matches_replay_at(&layered, &frags, compacted);
        let head = layered.get_persistent_lsn(key()).unwrap();
        prop_assert_eq!(head, Lsn(visits.len() as u64));
        for lsn in 1..=head.0 {
            assert_matches_replay_at(&layered, &frags, Lsn(lsn));
        }
    }
}

/// A writer races consolidation on the layered server. Concurrent
/// staging/sealing/compaction must not lose, duplicate, or reorder any
/// record.
#[test]
fn layered_matches_baseline_under_concurrent_writer() {
    let layered = server();
    let visits: Vec<u8> = (0..240u32).map(|i| (i % PAGES as u32) as u8).collect();
    let frags = build_frags(&visits, 0x5eed);
    std::thread::scope(|scope| {
        let writer = {
            let layered = Arc::clone(&layered);
            let frags = &frags;
            scope.spawn(move || {
                for f in frags {
                    layered.write_logs(f).unwrap();
                }
            })
        };
        // Consolidate concurrently with the writer until it finishes.
        while !writer.is_finished() {
            layered.consolidate_step();
        }
        writer.join().unwrap();
    });
    layered.consolidate_all();
    let head = layered.get_persistent_lsn(key()).unwrap();
    assert_eq!(head, Lsn(visits.len() as u64));
    for lsn in 1..=head.0 {
        assert_matches_replay_at(&layered, &frags, Lsn(lsn));
    }
}

/// Crash mid-compaction: the L1 blob reaches the device but no image is
/// registered. The partial layer must be invisible, ingestion continues,
/// and the re-run compaction converges to the same state — reads stay
/// byte-identical to the replay model throughout.
#[test]
fn crash_mid_compaction_discards_partial_l1_and_recompacts_idempotently() {
    let layered = server();
    let visits: Vec<u8> = (0..120u32)
        .map(|i| ((i * 7 + 3) % PAGES as u32) as u8)
        .collect();
    let frags = build_frags(&visits, 0xdead);
    let mid = frags.len() / 2;
    for f in &frags[..mid] {
        layered.write_logs(f).unwrap();
    }
    // The compactor "dies" between its blob append and registration.
    layered.arm_compaction_abort();
    layered.consolidate_all();
    let head = layered.get_persistent_lsn(key()).unwrap();
    for lsn in 1..=head.0 {
        assert_matches_replay_at(&layered, &frags, Lsn(lsn));
    }
    // Ingestion continues after the crash; a later compaction re-runs the
    // merge (add_version replaces on equal LSN, so the re-run is idempotent
    // even where the aborted run had registered nothing).
    for f in &frags[mid..] {
        layered.write_logs(f).unwrap();
    }
    layered.consolidate_all();
    assert!(
        layered.stats.l1_compactions.get() >= 1,
        "no compaction completed after the aborted one"
    );
    let head = layered.get_persistent_lsn(key()).unwrap();
    assert_eq!(head, Lsn(visits.len() as u64));
    for lsn in 1..=head.0 {
        assert_matches_replay_at(&layered, &frags, Lsn(lsn));
    }
}
