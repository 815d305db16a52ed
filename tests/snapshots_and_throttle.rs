//! Constant-time snapshots (the paper abstract's append-only benefit) and
//! the §7 master write throttle, plus a concurrent-writer consistency
//! stress test.

use std::sync::Arc;

use taurus::common::clock::{Clock, ManualClock};
use taurus::prelude::*;

fn launch() -> Arc<TaurusDb> {
    let cfg = TaurusConfig {
        log_buffer_bytes: 1,
        slice_buffer_bytes: 1,
        ..TaurusConfig::test()
    };
    TaurusDb::launch_with_clock(cfg, 5, 6, ManualClock::shared(), 11).unwrap()
}

/// The deadline of a quiesce that starts now, on the deployment's clock
/// (a manual one moves only by modelled call costs: this bounds a drill).
fn deadline(db: &TaurusDb) -> u64 {
    db.fabric.clock.now_us() + 10_000_000
}

#[test]
fn snapshot_reads_are_frozen_in_time() {
    let db = launch();
    let master = db.master();
    let mut t = master.begin();
    t.put(b"account", b"100").unwrap();
    t.put(b"name", b"ada").unwrap();
    t.commit().unwrap();
    db.quiesce(deadline(&db)).unwrap();

    let lsn = master.create_snapshot("before-raise");
    assert!(lsn.is_valid());

    // Mutate after the snapshot.
    let mut t = master.begin();
    t.put(b"account", b"900").unwrap();
    t.delete(b"name").unwrap();
    t.commit().unwrap();
    db.quiesce(deadline(&db)).unwrap();

    // Live reads see the new state; the snapshot sees the old.
    assert_eq!(master.get(b"account").unwrap(), Some(b"900".to_vec()));
    assert_eq!(master.get(b"name").unwrap(), None);
    assert_eq!(
        master.snapshot_get("before-raise", b"account").unwrap(),
        Some(b"100".to_vec())
    );
    assert_eq!(
        master.snapshot_get("before-raise", b"name").unwrap(),
        Some(b"ada".to_vec())
    );
    // Snapshot scans reflect the frozen record set.
    let snap_rows = master.snapshot_scan("before-raise", b"", 100).unwrap();
    assert_eq!(snap_rows.len(), 2);
    // Unknown snapshot errors cleanly.
    assert!(master.snapshot_get("missing", b"account").is_err());
}

#[test]
fn snapshots_pin_versions_against_recycling() {
    let db = launch();
    let master = db.master();
    let mut t = master.begin();
    t.put(b"k", b"v1").unwrap();
    t.commit().unwrap();
    db.quiesce(deadline(&db)).unwrap();
    let snap_lsn = master.create_snapshot("pin");

    // Many subsequent versions + aggressive recycle requests.
    for i in 0..20 {
        let mut t = master.begin();
        t.put(b"k", format!("v{i}").as_bytes()).unwrap();
        t.commit().unwrap();
    }
    db.quiesce(deadline(&db)).unwrap();
    // Even asking to recycle everything must not purge the pinned version.
    master.sal.set_recycle_lsn(master.sal.durable_lsn());
    assert_eq!(
        master.snapshot_get("pin", b"k").unwrap(),
        Some(b"v1".to_vec()),
        "snapshot at {snap_lsn} must survive recycling"
    );
    // Dropping the snapshot releases the pin; recycling may now proceed.
    assert!(master.drop_snapshot("pin"));
    assert!(!master.drop_snapshot("pin"));
    master.sal.set_recycle_lsn(master.sal.durable_lsn());
}

#[test]
fn snapshot_creation_is_constant_time() {
    // Creating a snapshot must not scale with database size: it copies no
    // data. We verify it is a pure LSN pin by checking it does not touch
    // the Page Stores at all (no device I/O while the fabric is instant).
    let db = launch();
    let master = db.master();
    for i in 0..200u32 {
        let mut t = master.begin();
        t.put(format!("row{i:05}").as_bytes(), &[b'x'; 128])
            .unwrap();
        t.commit().unwrap();
    }
    // Every replica holds every record: none is still taking a late
    // delivery that writes to its device.
    db.quiesce(deadline(&db)).unwrap();
    let before: Vec<_> = db
        .pages
        .server_nodes()
        .iter()
        .map(|n| db.pages.server_handle(*n).unwrap().device_stats())
        .collect();
    let lsn = master.create_snapshot("big-db-snap");
    let after: Vec<_> = db
        .pages
        .server_nodes()
        .iter()
        .map(|n| db.pages.server_handle(*n).unwrap().device_stats())
        .collect();
    assert_eq!(before, after, "snapshot creation performed storage I/O");
    assert_eq!(master.sal.snapshot_lsn("big-db-snap"), Some(lsn));
    assert_eq!(master.sal.snapshots().len(), 1);
}

/// A deployment whose every Page Store is "behind" (a one-byte backlog
/// limit), on a manual clock that only a throttle moves, with no
/// consolidation running.
fn launch_throttled() -> (Arc<TaurusDb>, Arc<ManualClock>) {
    let cfg = TaurusConfig {
        log_buffer_bytes: 1,
        slice_buffer_bytes: 1,
        consolidation_backlog_limit: 1,
        ..TaurusConfig::test()
    };
    let clock = ManualClock::shared();
    let db = TaurusDb::launch_with_clock(cfg, 4, 4, clock.clone(), 3).unwrap();
    (db, clock)
}

fn commit(db: &TaurusDb, key: &str) {
    let mut t = db.master().begin();
    t.put(key.as_bytes(), &[b'v'; 200]).unwrap();
    t.commit().unwrap();
}

/// The §7 throttle rides the `WriteLogs` acks: commits past the limit
/// throttle the master's log flushes, and once consolidation catches up
/// the acks of one more commit release it. Nothing polls the Page Stores.
#[test]
fn write_throttle_engages_when_consolidation_falls_behind() {
    let (db, clock) = launch_throttled();
    let sal = &db.master().sal;
    // Build up unconsolidated log (no consolidation is being driven).
    for i in 0..10u32 {
        commit(&db, &format!("k{i}"));
    }
    db.quiesce(deadline(&db)).unwrap();
    let throttle = sal.current_throttle_us();
    assert!(
        throttle > 0,
        "backlog over the limit must throttle the master (§7)"
    );
    // The next flush pays it: only the throttle moves this clock.
    let before = clock.now_us();
    commit(&db, "k10");
    assert!(clock.now_us() - before >= throttle);
    db.quiesce(deadline(&db)).unwrap();
    // Consolidation catches up: the next commit's acks release the throttle.
    db.pages.consolidate_all();
    commit(&db, "k11");
    db.quiesce(deadline(&db)).unwrap();
    assert_eq!(sal.current_throttle_us(), 0);
}

/// The throttle counts only the nodes it waits on: a Page Store that goes
/// down while over the limit stops throttling the writer, though its
/// memory still holds the backlog.
#[test]
fn a_page_store_down_over_the_limit_no_longer_throttles_the_writer() {
    let (db, clock) = launch_throttled();
    let sal = &db.master().sal;
    for i in 0..10u32 {
        commit(&db, &format!("k{i}"));
    }
    db.quiesce(deadline(&db)).unwrap();
    // Every node but one replica of the rows' slice catches up; the next
    // commit's acks say so.
    let straggler = db.pages.replicas_of(SliceKey::new(DbId(1), SliceId(0)))[0];
    for n in db.pages.server_nodes() {
        if n != straggler {
            db.pages.server_handle(n).unwrap().consolidate_all();
        }
    }
    commit(&db, "k10");
    db.quiesce(deadline(&db)).unwrap();
    assert!(sal.current_throttle_us() > 0, "one node is still behind");

    db.fabric.set_down(straggler);
    assert!(
        db.pages.max_backlog_pressure() > 2048,
        "its memory still holds it"
    );
    assert_eq!(sal.current_throttle_us(), 0);
    let before = clock.now_us();
    commit(&db, "k11");
    assert_eq!(clock.now_us(), before, "the commit was throttled");
}

#[test]
fn concurrent_writers_produce_a_serializable_history() {
    let db = launch();
    let master = db.master();
    // 4 threads × 50 increments on disjoint counters plus a contended one.
    let threads = 4u64;
    let per_thread = 50u64;
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let master = db.master();
            scope.spawn(move || {
                for i in 0..per_thread {
                    // Disjoint key: must never conflict.
                    let mut t = master.begin();
                    t.put(format!("own-{tid}-{i}").as_bytes(), b"1").unwrap();
                    t.commit().unwrap();
                    // Contended counter: SELECT FOR UPDATE + retry on
                    // conflict — lock first, then read, so no lost updates.
                    loop {
                        let mut t = master.begin();
                        let cur = match t.get_for_update(b"counter") {
                            Ok(v) => v,
                            Err(_) => {
                                t.rollback();
                                std::thread::yield_now();
                                continue;
                            }
                        };
                        let n: u64 = cur
                            .and_then(|v| String::from_utf8(v).ok())
                            .and_then(|s| s.parse().ok())
                            .unwrap_or(0);
                        t.put(b"counter", format!("{}", n + 1).as_bytes()).unwrap();
                        if t.commit().is_ok() {
                            break;
                        }
                    }
                }
            });
        }
    });
    // Every disjoint write committed.
    for tid in 0..threads {
        for i in 0..per_thread {
            assert!(
                master
                    .get(format!("own-{tid}-{i}").as_bytes())
                    .unwrap()
                    .is_some(),
                "lost own-{tid}-{i}"
            );
        }
    }
    // The contended counter reflects every successful increment exactly once
    // (first-updater-wins + retry = a serializable counter).
    let final_count: u64 = String::from_utf8(master.get(b"counter").unwrap().unwrap())
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(final_count, threads * per_thread);
    // And the whole history survives a crash.
    db.quiesce(deadline(&db)).unwrap();
    db.crash_and_recover_master().unwrap();
    let master = db.master();
    let recovered: u64 = String::from_utf8(master.get(b"counter").unwrap().unwrap())
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(recovered, threads * per_thread);
}
