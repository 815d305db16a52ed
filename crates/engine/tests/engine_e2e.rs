//! End-to-end tests of the full Taurus stack through the public engine API:
//! master transactions, read replicas, crash recovery, fail-over.

// Test harness: panicking on setup failure is the desired behavior.
#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use taurus_common::clock::{Clock, ManualClock};
use taurus_common::page::{PageType, HEADER_SIZE, PAGE_SIZE, SLOT_SIZE};
use taurus_common::{PageId, TaurusConfig, TaurusError};
use taurus_engine::TaurusDb;

fn launch() -> Arc<TaurusDb> {
    let cfg = TaurusConfig {
        log_buffer_bytes: 1,
        slice_buffer_bytes: 1,
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

/// Quiesce until all three replicas of every slice hold every durable
/// record: each sealed PLog is then due for truncation at the next
/// recovery round (which this does not run).
fn make_truncation_due(master: &taurus_engine::MasterEngine) {
    master.sal.flush_all_slices();
    for _ in 0..2_000 {
        master.maintain();
        let _ = master.sal.poll_persistent_lsns();
        if master.sal.database_persistent_lsn() == master.sal.durable_lsn() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    panic!(
        "replicas never caught up: persistent {:?} durable {:?}",
        master.sal.database_persistent_lsn(),
        master.sal.durable_lsn()
    );
}

/// Drives master publication + replica polling until the replica's visible
/// LSN catches the master's durable LSN (bounded wait).
fn sync_replica(db: &TaurusDb, replica: &taurus_engine::ReplicaEngine) {
    let master = db.master();
    for _ in 0..300 {
        master.maintain();
        let _ = replica.poll();
        if replica.visible_lsn() >= master.sal.durable_lsn() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    panic!(
        "replica never caught up: visible {:?} durable {:?}",
        replica.visible_lsn(),
        master.sal.durable_lsn()
    );
}

#[test]
fn autocommit_put_get_delete_scan() {
    let db = launch();
    let master = db.master();
    let mut txn = master.begin();
    txn.put(b"user:1", b"ada").unwrap();
    txn.put(b"user:2", b"grace").unwrap();
    txn.put(b"user:3", b"edsger").unwrap();
    txn.commit().unwrap();

    assert_eq!(master.get(b"user:2").unwrap(), Some(b"grace".to_vec()));
    assert_eq!(master.get(b"user:9").unwrap(), None);

    let all = master.scan(b"user:", 10).unwrap();
    assert_eq!(all.len(), 3);
    assert_eq!(all[0].0, b"user:1".to_vec());

    let mut txn = master.begin();
    txn.delete(b"user:2").unwrap();
    txn.commit().unwrap();
    assert_eq!(master.get(b"user:2").unwrap(), None);
    assert_eq!(master.scan(b"user:", 10).unwrap().len(), 2);
}

#[test]
fn transaction_isolation_and_read_your_writes() {
    let db = launch();
    let master = db.master();
    let mut t1 = master.begin();
    t1.put(b"k", b"uncommitted").unwrap();
    // Own writes visible inside the txn; invisible outside until commit.
    assert_eq!(t1.get(b"k").unwrap(), Some(b"uncommitted".to_vec()));
    assert_eq!(master.get(b"k").unwrap(), None);
    t1.commit().unwrap();
    assert_eq!(master.get(b"k").unwrap(), Some(b"uncommitted".to_vec()));
}

#[test]
fn write_write_conflicts_abort_the_second_writer() {
    let db = launch();
    let master = db.master();
    let mut t1 = master.begin();
    let mut t2 = master.begin();
    t1.put(b"hot", b"one").unwrap();
    assert!(matches!(
        t2.put(b"hot", b"two"),
        Err(TaurusError::WriteConflict { .. })
    ));
    // Disjoint keys proceed.
    t2.put(b"cold", b"fine").unwrap();
    t1.commit().unwrap();
    t2.commit().unwrap();
    assert_eq!(master.get(b"hot").unwrap(), Some(b"one".to_vec()));
    assert_eq!(master.get(b"cold").unwrap(), Some(b"fine".to_vec()));
}

#[test]
fn rollback_leaves_no_trace() {
    let db = launch();
    let master = db.master();
    let mut t = master.begin();
    t.put(b"ghost", b"boo").unwrap();
    t.rollback();
    assert_eq!(master.get(b"ghost").unwrap(), None);
    // The key lock is released: a new txn can take it.
    let mut t2 = master.begin();
    t2.put(b"ghost", b"real").unwrap();
    t2.commit().unwrap();
    assert_eq!(master.get(b"ghost").unwrap(), Some(b"real".to_vec()));
}

fn bulk_row(i: u32) -> (Vec<u8>, Vec<u8>) {
    (
        format!("row{i:08}").into_bytes(),
        format!("payload-{i:06}-{}", "d".repeat(100)).into_bytes(),
    )
}

/// Loads `leaves` leaves' worth of `bulk_row`s in ascending key order, 50
/// rows to a transaction, and returns the row count. Sized by the pages
/// the caller needs: an ascending load fills each leaf before it starts
/// the next.
fn bulk_load(master: &Arc<taurus_engine::MasterEngine>, leaves: usize) -> u32 {
    let (k, v) = bulk_row(0);
    let rows_per_leaf = (PAGE_SIZE - HEADER_SIZE) / (2 + k.len() + v.len() + SLOT_SIZE);
    let n = (leaves * rows_per_leaf) as u32;
    for chunk in (0..n).collect::<Vec<_>>().chunks(50) {
        let mut t = master.begin();
        for i in chunk {
            let (k, v) = bulk_row(*i);
            t.put(&k, &v).unwrap();
        }
        t.commit().unwrap();
    }
    n
}

/// Used share of every leaf, in chain order, read through the master.
fn leaf_fills(master: &taurus_engine::MasterEngine) -> Vec<f64> {
    let page = |id: u64| master.get_pages(&[PageId(id)]).unwrap().remove(0).1;
    let u64_cell = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().unwrap());
    let control = page(0);
    let mut id = u64_cell(control.value(control.search(b"root").unwrap()).unwrap());
    while page(id).page_type() == PageType::Internal {
        id = u64_cell(page(id).value(0).unwrap());
    }
    let mut fills = Vec::new();
    while id != 0 {
        let leaf = page(id);
        fills.push(1.0 - leaf.usable_space() as f64 / (PAGE_SIZE - HEADER_SIZE) as f64);
        id = leaf.next();
    }
    fills
}

#[test]
fn bulk_workload_spans_slices_and_survives_pool_pressure() {
    let db = launch();
    let master = db.master();
    // One and a half slices of leaves (pages_per_slice=64 in the test
    // config), whatever a row weighs.
    let leaves = master.sal.cfg.pages_per_slice as usize * 3 / 2;
    let n = bulk_load(&master, leaves);
    settle(&db);
    assert!(
        db.master().sal.slice_keys().len() > 1,
        "expected a multi-slice database"
    );
    // The ascending load left every leaf but the last one full.
    let fills = leaf_fills(&master);
    assert!(fills.len() >= leaves && fills.len() <= leaves + 2);
    let (_, full) = fills.split_last().unwrap();
    let min = full.iter().copied().fold(1.0, f64::min);
    assert!(min >= 0.95, "a leaf of the ascending load is {min} full");
    for i in (0..n).step_by(211) {
        let (k, v) = bulk_row(i);
        assert_eq!(master.get(&k).unwrap(), Some(v), "row {i}");
    }
}

#[test]
fn dense_load_reads_the_same_through_master_replica_and_snapshot() {
    let db = launch();
    let master = db.master();
    let replica = db.add_replica().unwrap();
    let n = bulk_load(&master, 80);
    settle(&db);
    master.create_snapshot("dense");
    sync_replica(&db, &replica);
    let fills = leaf_fills(&master);
    let mean = fills.iter().sum::<f64>() / fills.len() as f64;
    assert!(mean >= 0.9, "mean leaf fill {mean}");

    let expected: Vec<_> = (0..n).map(bulk_row).collect();
    assert_eq!(master.scan(b"", usize::MAX).unwrap(), expected);
    assert_eq!(replica.scan(b"", usize::MAX).unwrap(), expected);
    assert_eq!(
        master.snapshot_scan("dense", b"", usize::MAX).unwrap(),
        expected
    );
    // Bounded scans (the LIMIT-sized readahead) and point reads, from
    // starts on both sides of leaf and slice boundaries.
    for start in (0..n).step_by(97) {
        let (k, v) = bulk_row(start);
        let end = (start as usize + 20).min(expected.len());
        let want = &expected[start as usize..end];
        assert_eq!(master.scan(&k, 20).unwrap(), want, "master from {start}");
        assert_eq!(replica.scan(&k, 20).unwrap(), want, "replica from {start}");
        assert_eq!(
            master.snapshot_scan("dense", &k, 20).unwrap(),
            want,
            "snapshot from {start}"
        );
        assert_eq!(replica.get(&k).unwrap().as_ref(), Some(&v));
        assert_eq!(master.snapshot_get("dense", &k).unwrap(), Some(v));
    }
}

#[test]
fn replica_sees_committed_data_and_lags_by_bounded_amount() {
    let db = launch();
    let master = db.master();
    let replica = db.add_replica().unwrap();
    let mut t = master.begin();
    t.put(b"a", b"1").unwrap();
    t.commit().unwrap();
    settle(&db);
    sync_replica(&db, &replica);
    assert_eq!(replica.get(b"a").unwrap(), Some(b"1".to_vec()));
    // Replica never runs ahead of the master's durable horizon.
    assert!(replica.visible_lsn() <= master.sal.durable_lsn());
    // Logical consistency bookkeeping saw the commit record.
    assert!(replica.committed_count() >= 1);
}

#[test]
fn replica_snapshot_is_pinned_at_tv_lsn() {
    let db = launch();
    let master = db.master();
    let replica = db.add_replica().unwrap();
    let mut t = master.begin();
    t.put(b"x", b"v1").unwrap();
    t.commit().unwrap();
    settle(&db);
    sync_replica(&db, &replica);
    let snapshot = replica.begin();
    assert_eq!(snapshot.get(b"x").unwrap(), Some(b"v1".to_vec()));
    // Master moves on; the replica applies the new state...
    let mut t = master.begin();
    t.put(b"x", b"v2").unwrap();
    t.commit().unwrap();
    settle(&db);
    sync_replica(&db, &replica);
    // ...but the pinned snapshot still reads v1 (versioned page reads),
    // while a fresh transaction reads v2.
    assert_eq!(snapshot.get(b"x").unwrap(), Some(b"v1".to_vec()));
    let fresh = replica.begin();
    assert_eq!(fresh.get(b"x").unwrap(), Some(b"v2".to_vec()));
}

#[test]
fn replicas_reject_writes() {
    let db = launch();
    let replica = db.add_replica().unwrap();
    assert!(matches!(
        replica.put(b"k", b"v"),
        Err(TaurusError::ReadOnlyReplica)
    ));
}

#[test]
fn replica_tv_feedback_becomes_recycle_lsn() {
    let db = launch();
    let master = db.master();
    let replica = db.add_replica().unwrap();
    for i in 0..20 {
        let mut t = master.begin();
        t.put(format!("k{i}").as_bytes(), b"v").unwrap();
        t.commit().unwrap();
    }
    settle(&db);
    sync_replica(&db, &replica);
    // A transaction opens and closes: its TV-LSN flows back to the master.
    {
        let txn = replica.begin();
        let _ = txn.get(b"k1").unwrap();
    }
    assert!(master.bulletin.min_replica_tv().is_some());
    // maintain() pushes the recycle LSN into the Page Stores without error.
    master.maintain();
}

#[test]
fn master_crash_recovery_preserves_all_committed_data() {
    let db = launch();
    {
        let master = db.master();
        for i in 0..200u32 {
            let mut t = master.begin();
            t.put(
                format!("key{i:05}").as_bytes(),
                format!("val{i}").as_bytes(),
            )
            .unwrap();
            t.commit().unwrap();
        }
    }
    settle(&db);
    db.crash_and_recover_master().unwrap();
    let master = db.master();
    for i in (0..200u32).step_by(13) {
        let k = format!("key{i:05}");
        assert_eq!(
            master.get(k.as_bytes()).unwrap(),
            Some(format!("val{i}").into_bytes()),
            "{k} lost across crash"
        );
    }
    // The recovered master keeps accepting writes.
    let mut t = master.begin();
    t.put(b"post-crash", b"alive").unwrap();
    t.commit().unwrap();
    assert_eq!(master.get(b"post-crash").unwrap(), Some(b"alive".to_vec()));
}

#[test]
fn master_crash_under_a_live_background_beat_recovers_with_truncation_due() {
    use taurus_common::clock::SystemClock;
    use taurus_common::config::{NetworkProfile, StorageProfile};
    // Real latencies, so `Sal::recover` spends milliseconds reading the
    // log, and small PLogs, so each window leaves many sealed ones behind.
    let cfg = TaurusConfig {
        network: NetworkProfile::default(),
        storage: StorageProfile::default(),
        plog_size_limit: 4 << 10,
        log_buffer_bytes: 1,
        slice_buffer_bytes: 1,
        ..TaurusConfig::test()
    };
    let db = TaurusDb::launch_with_clock(cfg, 5, 6, SystemClock::shared(), 7).unwrap();
    let mut acked = 0u32;
    for round in 0..3 {
        // A write window with no housekeeping: every sealed PLog of it is
        // still there, and once all three replicas of every slice have
        // caught up all of them are due for truncation.
        let master = db.master();
        for _ in 0..120 {
            let mut t = master.begin();
            t.put(format!("key{acked:05}").as_bytes(), &[round as u8; 96])
                .unwrap();
            t.commit().unwrap();
            acked += 1;
        }
        make_truncation_due(&master);
        drop(master);
        // The beat is as fast as it goes: the dead master's first recovery
        // round (64 beats in) falls inside the recover below. It must not
        // run — its truncation deletes PLogs the new SAL is reading.
        let background = db.start_background(1);
        db.crash_and_recover_master()
            .unwrap_or_else(|e| panic!("recovery {round} raced housekeeping: {e:?}"));
        drop(background);
        // Truncation really was due: the new master's service does it now.
        assert!(db.run_recovery_round().plogs_truncated > 0);
        let master = db.master();
        for i in 0..acked {
            let k = format!("key{i:05}");
            assert!(
                master.get(k.as_bytes()).unwrap().is_some(),
                "{k} lost across crash {round}"
            );
        }
    }
}

/// A manual clock that runs a hook in the middle of the `n`-th wait the
/// arming thread makes. An RPC waits on two deadlines — its request's
/// arrival, then its reply (the handler's device time and the response hop
/// in one wait) — and a fan-out on one per leg plus one for the last reply.
/// On the instant profile every one of them has already passed, so the
/// hook counts deadline waits (`sleep_until`) whether or not they sleep:
/// that interposes at a chosen RPC boundary, deterministically and on the
/// waiting thread itself.
#[derive(Default)]
struct HookClock {
    time: ManualClock,
    armed: parking_lot::Mutex<Option<HookArm>>,
}

struct HookArm {
    thread: std::thread::ThreadId,
    waits_left: usize,
    hook: Box<dyn FnOnce() + Send>,
}

impl std::fmt::Debug for HookClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HookClock({})", self.time.now_us())
    }
}

impl HookClock {
    /// Counts one wait of the armed thread and runs the hook on its `n`-th.
    fn interpose(&self) {
        let due = {
            let mut armed = self.armed.lock();
            match armed.as_mut() {
                Some(a) if a.thread == std::thread::current().id() => {
                    a.waits_left -= 1;
                    if a.waits_left == 0 {
                        armed.take()
                    } else {
                        None
                    }
                }
                _ => None,
            }
        };
        if let Some(arm) = due {
            (arm.hook)();
        }
    }
}

impl Clock for HookClock {
    fn now_us(&self) -> u64 {
        self.time.now_us()
    }

    fn sleep_us(&self, us: u64) {
        self.interpose();
        self.time.sleep_us(us);
    }

    fn sleep_until(&self, deadline_us: u64) {
        self.interpose();
        self.time.sleep_until(deadline_us);
    }
}

#[test]
fn dead_masters_recovery_round_cannot_run_at_any_rpc_of_the_recover() {
    // The race, forced: truncation is due, and one recovery round fires in
    // the middle of the `n`-th wait of `crash_and_recover_master` — both
    // deadlines of every RPC — for every `n` until the recover is shorter
    // than that. Unfenced, a round that lands after the new SAL has listed
    // the PLogs and before it has read them is the OLD master's: it
    // truncates the log underneath and the recover fails with
    // `PLogNotFound`.
    let cfg = TaurusConfig {
        plog_size_limit: 1 << 10,
        log_buffer_bytes: 1,
        slice_buffer_bytes: 1,
        ..TaurusConfig::test()
    };
    for n in 1.. {
        let clock = Arc::new(HookClock::default());
        let db = TaurusDb::launch_with_clock(cfg.clone(), 5, 6, clock.clone(), 7).unwrap();
        let master = db.master();
        for i in 0..40u32 {
            let mut t = master.begin();
            t.put(format!("key{i:05}").as_bytes(), &[7u8; 96]).unwrap();
            t.commit().unwrap();
        }
        make_truncation_due(&master);
        drop(master);
        let hook_db = Arc::clone(&db);
        *clock.armed.lock() = Some(HookArm {
            thread: std::thread::current().id(),
            waits_left: n,
            hook: Box::new(move || {
                hook_db.run_recovery_round();
            }),
        });
        db.crash_and_recover_master()
            .unwrap_or_else(|e| panic!("a round at RPC {n} of the recover broke it: {e:?}"));
        let fired = clock.armed.lock().take().is_none();
        let master = db.master();
        for i in 0..40u32 {
            let k = format!("key{i:05}");
            assert!(master.get(k.as_bytes()).unwrap().is_some(), "{k} lost");
        }
        if !fired {
            // The recover made fewer than `n` waits: every boundary is done.
            // It makes 36 today; far fewer means the clock no longer sees the
            // RPCs and the sweep tests nothing.
            assert!(n > 30, "recover made only {n} waits: the sweep is vacuous");
            return;
        }
    }
}

#[test]
fn a_failed_recover_leaves_the_old_master_with_its_housekeeping() {
    // A recover that fails produced no successor: the old master stays in
    // service, and its recovery service and rebalancer — fenced for the
    // duration — must come back with it, or every later round is a no-op.
    let cfg = TaurusConfig {
        plog_size_limit: 1 << 10,
        log_buffer_bytes: 1,
        slice_buffer_bytes: 1,
        ..TaurusConfig::test()
    };
    let db = TaurusDb::launch_with_clock(cfg, 5, 6, ManualClock::shared(), 7).unwrap();
    let master = db.master();
    for i in 0..40u32 {
        let mut t = master.begin();
        t.put(format!("key{i:05}").as_bytes(), &[7u8; 96]).unwrap();
        t.commit().unwrap();
    }
    make_truncation_due(&master);
    // No Log Store answers: the recover cannot read the log.
    let log_stores = db.fabric.healthy_nodes(taurus_fabric::NodeKind::LogStore);
    for &n in &log_stores {
        db.fabric.set_down(n);
    }
    db.crash_and_recover_master()
        .expect_err("a recover with every Log Store down cannot succeed");
    for &n in &log_stores {
        db.fabric.set_up(n);
    }
    // Same master, and its housekeeping runs: the truncation that was due
    // before the failed recover happens now.
    assert!(Arc::ptr_eq(&master, &db.master()));
    let report = db.run_recovery_round();
    assert!(report.plogs_truncated > 0, "round did nothing: {report:?}");
    db.run_rebalance_round().unwrap();
    let mut t = master.begin();
    t.put(b"after", b"alive").unwrap();
    t.commit().unwrap();
    // And a second attempt goes through, with everything acknowledged.
    settle(&db);
    db.crash_and_recover_master().unwrap();
    let master = db.master();
    for i in 0..40u32 {
        let k = format!("key{i:05}");
        assert!(master.get(k.as_bytes()).unwrap().is_some(), "{k} lost");
    }
    assert_eq!(master.get(b"after").unwrap(), Some(b"alive".to_vec()));
}

#[test]
fn crash_loses_uncommitted_but_keeps_committed() {
    let db = launch();
    let master = db.master();
    let mut committed = master.begin();
    committed.put(b"durable", b"yes").unwrap();
    committed.commit().unwrap();
    // An open transaction never reaches the log...
    let mut open = master.begin();
    open.put(b"volatile", b"no").unwrap();
    settle(&db);
    drop(open); // crash takes it down (undo is trivial: nothing was logged)
    db.crash_and_recover_master().unwrap();
    let master = db.master();
    assert_eq!(master.get(b"durable").unwrap(), Some(b"yes".to_vec()));
    assert_eq!(master.get(b"volatile").unwrap(), None);
}

#[test]
fn replica_promotion_takes_over_writes() {
    let db = launch();
    {
        let master = db.master();
        let mut t = master.begin();
        t.put(b"before", b"failover").unwrap();
        t.commit().unwrap();
    }
    settle(&db);
    let _replica_a = db.add_replica().unwrap();
    let _replica_b = db.add_replica().unwrap();
    db.maintain();
    // Promote replica 0: it becomes the writer.
    db.promote_replica(0).unwrap();
    let new_master = db.master();
    assert_eq!(
        new_master.get(b"before").unwrap(),
        Some(b"failover".to_vec())
    );
    let mut t = new_master.begin();
    t.put(b"after", b"promotion").unwrap();
    t.commit().unwrap();
    assert_eq!(
        new_master.get(b"after").unwrap(),
        Some(b"promotion".to_vec())
    );
    // The remaining replica follows the new master.
    settle(&db);
    let replicas = db.replicas();
    assert_eq!(replicas.len(), 1);
    sync_replica(&db, &replicas[0]);
    assert_eq!(
        replicas[0].get(b"after").unwrap(),
        Some(b"promotion".to_vec())
    );
}

#[test]
fn workload_continues_through_storage_failures_with_recovery_service() {
    let db = launch();
    let master = db.master();
    for i in 0..50u32 {
        let mut t = master.begin();
        t.put(format!("pre{i:03}").as_bytes(), b"v").unwrap();
        t.commit().unwrap();
    }
    settle(&db);
    // Kill one Page Store node and one Log Store node.
    let ps_victim = db.pages.server_nodes()[0];
    let ls_victim = db.fabric.healthy_nodes(taurus_fabric::NodeKind::LogStore)[0];
    db.fabric.set_down(ps_victim);
    db.fabric.set_down(ls_victim);
    // Writes keep committing (log: seal-and-switch; pages: wait-for-one).
    for i in 0..50u32 {
        let mut t = master.begin();
        t.put(format!("mid{i:03}").as_bytes(), b"v").unwrap();
        t.commit().unwrap();
    }
    db.run_recovery_round(); // classifies short-term failures
    settle(&db);
    // Reads succeed throughout.
    assert!(master.get(b"pre000").unwrap().is_some());
    assert!(master.get(b"mid000").unwrap().is_some());
    assert_eq!(db.run_recovery_round().long_term_failures, 0);
}

#[test]
fn master_scan_pushdown_matches_fetch_and_filter() {
    use taurus_common::scan::{Aggregate, CmpOp, Field, Operand, ScanRequest};
    let db = launch();
    let master = db.master();
    for i in 0..40u32 {
        let mut t = master.begin();
        t.put(
            format!("k{i:03}").as_bytes(),
            format!("v{}", i % 4).as_bytes(),
        )
        .unwrap();
        t.commit().unwrap();
    }
    settle(&db);
    // Full scan agrees with the classic B-tree scan.
    let scan = master.scan_pushdown(&ScanRequest::full()).unwrap();
    assert_eq!(scan.rows, master.scan(b"", usize::MAX).unwrap());
    assert!(scan.pushdown_slices >= 1);
    assert_eq!(scan.fallback_slices, 0);
    // Selective predicate agrees with filtering client-side.
    let req =
        ScanRequest::full().with_predicate(Field::Value, CmpOp::Eq, Operand::Bytes(b"v3".to_vec()));
    let filtered = master.scan_pushdown(&req).unwrap();
    let expect: Vec<_> = master
        .scan(b"", usize::MAX)
        .unwrap()
        .into_iter()
        .filter(|(_, v)| v == b"v3")
        .collect();
    assert_eq!(filtered.rows, expect);
    assert_eq!(filtered.rows.len(), 10);
    // Aggregate pushdown returns no rows, just the result.
    let count = master
        .scan_pushdown(&req.clone().with_aggregate(Aggregate::Count))
        .unwrap();
    assert!(count.rows.is_empty());
    assert_eq!(count.agg.count, 10);
}

#[test]
fn snapshot_scan_pushdown_reads_the_pinned_lsn() {
    use taurus_common::scan::ScanRequest;
    let db = launch();
    let master = db.master();
    let mut t = master.begin();
    t.put(b"a", b"old").unwrap();
    t.commit().unwrap();
    settle(&db);
    master.create_snapshot("before");
    let mut t = master.begin();
    t.put(b"a", b"new").unwrap();
    t.put(b"b", b"2").unwrap();
    t.commit().unwrap();
    settle(&db);
    let snap = master
        .snapshot_scan_pushdown("before", &ScanRequest::full())
        .unwrap();
    assert_eq!(
        snap.rows,
        master.snapshot_scan("before", b"", usize::MAX).unwrap()
    );
    assert_eq!(snap.rows, vec![(b"a".to_vec(), b"old".to_vec())]);
    let head = master.scan_pushdown(&ScanRequest::full()).unwrap();
    assert_eq!(head.rows.len(), 2);
    assert_eq!(head.rows[0].1, b"new");
}

#[test]
fn replica_scan_pins_one_tv_lsn_for_the_whole_traversal() {
    use taurus_common::scan::ScanRequest;
    let db = launch();
    let master = db.master();
    let replica = db.add_replica().unwrap();
    for i in 0..10u32 {
        let mut t = master.begin();
        t.put(format!("k{i:02}").as_bytes(), b"v1").unwrap();
        t.commit().unwrap();
    }
    settle(&db);
    sync_replica(&db, &replica);
    // Pin a read transaction, then let the database move on and the
    // replica apply the new groups.
    let pinned = replica.begin();
    let tv = pinned.tv_lsn();
    for i in 0..10u32 {
        let mut t = master.begin();
        t.put(format!("k{i:02}").as_bytes(), b"v2").unwrap();
        t.commit().unwrap();
    }
    settle(&db);
    sync_replica(&db, &replica);
    assert!(replica.visible_lsn() > tv, "replica must have advanced");
    // The pinned traversal — local B-tree scan and pushdown alike — still
    // reads the old values on every page, with no v2 mixed in (torn read).
    let local = pinned.scan(b"", usize::MAX).unwrap();
    assert_eq!(local.len(), 10);
    assert!(local.iter().all(|(_, v)| v == b"v1"));
    let pushed = pinned.scan_pushdown(&ScanRequest::full()).unwrap();
    assert_eq!(pushed.rows, local);
    // A fresh auto-commit scan pins the *new* visible LSN — and both paths
    // agree on it too.
    let fresh = replica.scan(b"", usize::MAX).unwrap();
    assert!(fresh.iter().all(|(_, v)| v == b"v2"));
    assert_eq!(
        replica.scan_pushdown(&ScanRequest::full()).unwrap().rows,
        fresh
    );
}
