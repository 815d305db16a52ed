//! Differential tests for elastic slice management (DESIGN.md §14).
//!
//! Two identically-driven databases — one undergoing online split/merge/move
//! cut-overs mid-workload, one with static placement — must stay
//! byte-identical on every read. Also covered: a crash between the
//! placement commit and the delta replay (the `cutover_abort` failpoint),
//! a concurrent writer racing the fence, and the engine-level rebalancer
//! loop reshaping placement under a hotspot without corrupting data.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use taurus_common::clock::ManualClock;
use taurus_common::TaurusConfig;
use taurus_core::{merge_slices, move_slice_replica, split_slice};
use taurus_engine::TaurusDb;

fn launch() -> Arc<TaurusDb> {
    let cfg = TaurusConfig {
        log_buffer_bytes: 1,
        slice_buffer_bytes: 1,
        // Tiny engine pool: reads must go to the Page Stores, exercising
        // epoch/fence routing instead of being served from cache.
        engine_buffer_pool_pages: 48,
        ..TaurusConfig::test()
    };
    TaurusDb::launch_with_clock(cfg, 5, 6, ManualClock::shared(), 7).unwrap()
}

/// Quiesce: flush slice buffers and wait for Page Store acks.
fn settle(db: &TaurusDb) {
    let master = db.master();
    master.sal.flush_all_slices();
    for _ in 0..300 {
        master.maintain();
        if master.sal.cv_lsn() == master.sal.durable_lsn() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

/// One random workload step: a put or (1 in 8) a delete.
#[derive(Clone, Debug)]
struct Step {
    row: usize,
    value: String,
    delete: bool,
}

fn step_strategy(rows: usize) -> impl Strategy<Value = Step> {
    (0..rows, any::<u64>(), 0u8..8).prop_map(|(row, tag, d)| Step {
        row,
        value: format!("v{tag:016x}"),
        delete: d == 0,
    })
}

fn key_of(row: usize) -> Vec<u8> {
    format!("row{:06}", row).into_bytes()
}

/// Applies one chunk of steps to a database and the model map.
fn apply_chunk(db: &TaurusDb, model: &mut BTreeMap<Vec<u8>, Vec<u8>>, chunk: &[Step]) {
    let master = db.master();
    for s in chunk {
        let mut t = master.begin();
        if s.delete {
            t.delete(&key_of(s.row)).unwrap();
            model.remove(&key_of(s.row));
        } else {
            t.put(&key_of(s.row), s.value.as_bytes()).unwrap();
            model.insert(key_of(s.row), s.value.clone().into_bytes());
        }
        t.commit().unwrap();
    }
}

/// Full-scan comparison against the model and a second database.
fn assert_identical(elastic: &TaurusDb, control: &TaurusDb, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    let a = elastic.master().scan(b"", usize::MAX).unwrap();
    let b = control.master().scan(b"", usize::MAX).unwrap();
    assert_eq!(a, b, "elastic and static databases diverged");
    let want: Vec<(Vec<u8>, Vec<u8>)> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(a, want, "database diverged from the model");
}

/// Splits the widest live slice at its range midpoint; returns the two
/// children. Panics if the database has no splittable slice.
fn split_widest(db: &TaurusDb) -> (taurus_common::SliceKey, taurus_common::SliceKey) {
    let sal = &db.master().sal;
    let pps = sal.cfg.pages_per_slice;
    let (key, (s, e)) = sal
        .slice_keys()
        .into_iter()
        // `slice_keys` includes retired cut-over parents (they serve
        // history below their fence until GC); only live slices split.
        .filter(|&k| !sal.pages.is_retired(k))
        .filter_map(|k| sal.pages.slice_range(k, pps).map(|r| (k, r)))
        .max_by_key(|&(k, (s, e))| (e - s, k))
        .expect("a splittable slice");
    assert!(e - s >= 2, "slice {key} too narrow to split");
    let rep = split_slice(sal, key, s + (e - s) / 2).unwrap();
    assert!(!rep.aborted);
    assert_eq!(rep.created.len(), 2);
    (rep.created[0], rep.created[1])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5 })]

    /// The core differential property: split, replica move, and merge
    /// executed mid-workload never change what any read returns.
    #[test]
    fn elastic_ops_preserve_reads(steps in prop::collection::vec(step_strategy(160), 60..140)) {
        let elastic = launch();
        let control = launch();
        let mut model = BTreeMap::new();

        let chunks: Vec<&[Step]> = steps.chunks(steps.len().div_ceil(4)).collect();

        // Chunk 0, then an online split of the widest slice.
        apply_chunk(&elastic, &mut model.clone(), chunks[0]);
        apply_chunk(&control, &mut model, chunks[0]);
        let (left, right) = split_widest(&elastic);
        settle(&elastic);
        settle(&control);
        assert_identical(&elastic, &control, &model);

        // Chunk 1, then move one replica of the left child to a node that
        // does not hold one.
        if let Some(c) = chunks.get(1) {
            apply_chunk(&elastic, &mut model.clone(), c);
            apply_chunk(&control, &mut model, c);
        }
        let sal = &elastic.master().sal;
        let replicas = sal.pages.replicas_of(left);
        let target = elastic
            .pages
            .server_nodes()
            .into_iter()
            .find(|n| !replicas.contains(n));
        if let (Some(&from), Some(to)) = (replicas.first(), target) {
            move_slice_replica(sal, left, from, to).unwrap();
        }
        settle(&elastic);
        settle(&control);
        assert_identical(&elastic, &control, &model);

        // Chunk 2, then merge the split children back together.
        if let Some(c) = chunks.get(2) {
            apply_chunk(&elastic, &mut model.clone(), c);
            apply_chunk(&control, &mut model, c);
        }
        merge_slices(&elastic.master().sal, left, right).unwrap();
        settle(&elastic);
        settle(&control);
        assert_identical(&elastic, &control, &model);

        // Final chunk with the merged layout.
        if let Some(c) = chunks.get(3) {
            apply_chunk(&elastic, &mut model.clone(), c);
            apply_chunk(&control, &mut model, c);
        }
        settle(&elastic);
        settle(&control);
        assert_identical(&elastic, &control, &model);

        // The elastic database went through epoch bumps; the static one
        // stayed at zero. Reads agreed throughout regardless.
        prop_assert!(elastic.master().sal.placement_epoch() >= 2);
        prop_assert_eq!(control.master().sal.placement_epoch(), 0);
    }
}

/// A crash between the placement commit and the delta replay (the
/// `cutover_abort` failpoint) must leave a database that heals itself: the
/// placement switch is the atomic commit point, and recovery + gossip
/// replay the missing delta on the children.
#[test]
fn crash_mid_cutover_heals() {
    let db = launch();
    let mut model = BTreeMap::new();
    let master = db.master();
    for i in 0..220usize {
        let mut t = master.begin();
        let v = format!("v{i}");
        t.put(&key_of(i), v.as_bytes()).unwrap();
        model.insert(key_of(i), v.into_bytes());
        t.commit().unwrap();
    }
    settle(&db);

    // Arm the failpoint: the next cut-over stops right after the placement
    // commit, before fencing the parent replicas or replaying the delta.
    master.sal.arm_cutover_abort();
    let sal = &master.sal;
    let pps = sal.cfg.pages_per_slice;
    let key = sal.slice_keys()[0];
    let (s, e) = sal.pages.slice_range(key, pps).unwrap();
    let rep = split_slice(sal, key, s + (e - s) / 2).unwrap();
    assert!(rep.aborted, "failpoint must fire");

    // Real crash: the master restarts with a cold buffer pool, so every
    // read below must come from the Page Stores through the *new*
    // placement; SAL recovery redistributes the log tail by ingest filter
    // and the children pull the (E, F] delta from the Log Stores.
    db.crash_and_recover_master().unwrap();
    let master = db.master();
    for _ in 0..5 {
        db.run_recovery_round();
        master.maintain();
    }
    settle(&db);

    // Every committed row survives, including rows whose delta had not yet
    // been replayed when the "crash" hit.
    for (k, v) in &model {
        assert_eq!(
            master.get(k).unwrap().as_ref(),
            Some(v),
            "{} lost across mid-cut-over crash",
            String::from_utf8_lossy(k)
        );
    }

    // The database keeps accepting writes and further elastic ops.
    let mut t = master.begin();
    t.put(b"post-crash", b"alive").unwrap();
    t.commit().unwrap();
    assert_eq!(master.get(b"post-crash").unwrap(), Some(b"alive".to_vec()));
    split_widest(&db);
    settle(&db);
    assert_eq!(
        master.get(&key_of(0)).unwrap(),
        model.get(&key_of(0)).cloned()
    );
}

/// A writer committing transactions concurrently with a cut-over: every
/// commit that succeeded must be readable afterwards — spans racing the
/// fence land either below F (replayed onto the children) or above it
/// (routed to the children directly).
#[test]
fn concurrent_writer_races_fence() {
    let db = launch();
    let master = db.master();
    for i in 0..120usize {
        let mut t = master.begin();
        t.put(&key_of(i), b"seed").unwrap();
        t.commit().unwrap();
    }
    settle(&db);

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let master = db.master();
            let mut committed: Vec<(usize, u64)> = Vec::new();
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                round += 1;
                for i in (0..120usize).step_by(7) {
                    let mut t = master.begin();
                    let v = format!("r{round}");
                    t.put(&key_of(i), v.as_bytes()).unwrap();
                    if t.commit().is_ok() {
                        committed.push((i, round));
                    }
                }
            }
            committed
        })
    };

    // Three cut-overs while the writer hammers the same rows.
    let (left, right) = split_widest(&db);
    let (l2, _r2) = split_widest(&db);
    let _ = l2;
    // left/right may no longer be mergeable if the second split divided
    // one of them — the race is the point, the merge is opportunistic.
    let _ = merge_slices(&master.sal, left, right);
    std::thread::sleep(std::time::Duration::from_millis(20));
    stop.store(true, Ordering::Relaxed);
    let committed = writer.join().unwrap();
    settle(&db);

    // Last committed round per row wins.
    let mut last: BTreeMap<usize, u64> = BTreeMap::new();
    for (i, round) in committed {
        last.insert(i, round);
    }
    assert!(!last.is_empty(), "writer never committed");
    for (i, round) in last {
        assert_eq!(
            master.get(&key_of(i)).unwrap(),
            Some(format!("r{round}").into_bytes()),
            "row {i}: committed write lost across the fence race"
        );
    }
}

/// The engine-level rebalancer under a hotspot: repeated rounds split the
/// dominating slice (and may move replicas), the placement epoch advances,
/// and every row still reads back exactly.
#[test]
fn rebalancer_reshapes_hotspot_without_corruption() {
    let db = launch();
    let master = db.master();
    let mut model = BTreeMap::new();
    // Hot traffic: all writes land in the first pages of the key space.
    let mut actions = 0;
    // 100 writes x 3 replicas per round clears the rebalancer's 256-op
    // minimum, so the heat delta is trusted from the first round on.
    for round in 0..4u64 {
        for i in 0..100usize {
            let mut t = master.begin();
            let v = format!("hot{round}-{i}");
            t.put(&key_of(i), v.as_bytes()).unwrap();
            model.insert(key_of(i), v.into_bytes());
            t.commit().unwrap();
        }
        settle(&db);
        let rep = db.run_rebalance_round().unwrap();
        actions += rep.splits + rep.moves + rep.merges;
    }
    assert!(
        actions >= 1,
        "rebalancer never acted on a 100%-hot slice over 4 rounds"
    );
    assert!(master.sal.placement_epoch() >= 1);
    settle(&db);
    for (k, v) in &model {
        assert_eq!(master.get(k).unwrap().as_ref(), Some(v));
    }
}
