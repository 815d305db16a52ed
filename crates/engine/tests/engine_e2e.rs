//! End-to-end tests of the full Taurus stack through the public engine API:
//! master transactions, read replicas, crash recovery, fail-over.

// Test harness: panicking on setup failure is the desired behavior.
#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use taurus_common::clock::{Clock, ManualClock};
use taurus_common::page::{PageType, HEADER_SIZE, PAGE_SIZE, SLOT_SIZE};
use taurus_common::{PageBuf, PageId, TaurusConfig, TaurusError};
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

/// `bulk_row`s that fill one leaf.
fn rows_per_leaf() -> u32 {
    let (k, v) = bulk_row(0);
    ((PAGE_SIZE - HEADER_SIZE) / (2 + k.len() + v.len() + SLOT_SIZE)) as u32
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
    let n = leaves as u32 * rows_per_leaf();
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

/// Every leaf, in chain order, read through the master.
fn leaf_chain(master: &taurus_engine::MasterEngine) -> Vec<(PageId, Arc<PageBuf>)> {
    let page = |id: u64| master.get_pages(&[PageId(id)]).unwrap().remove(0).1;
    let u64_cell = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().unwrap());
    let control = page(0);
    let mut id = u64_cell(control.value(control.search(b"root").unwrap()).unwrap());
    while page(id).page_type() == PageType::Internal {
        id = u64_cell(page(id).value(0).unwrap());
    }
    let mut chain = Vec::new();
    while id != 0 {
        let leaf = page(id);
        chain.push((PageId(id), Arc::clone(&leaf)));
        id = leaf.next();
    }
    chain
}

/// Used share of every leaf, in chain order.
fn leaf_fills(master: &taurus_engine::MasterEngine) -> Vec<f64> {
    leaf_chain(master)
        .iter()
        .map(|(_, leaf)| 1.0 - leaf.usable_space() as f64 / (PAGE_SIZE - HEADER_SIZE) as f64)
        .collect()
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

/// A replica that stops polling while the master truncates log it never
/// consumed cannot be fed the missing records: its next poll resyncs
/// (drops its pool, jumps its visible LSN over the truncated range, and
/// re-tails from fresh cursors). Afterwards it reads every acknowledged
/// value at its visible LSN.
#[test]
fn a_replica_behind_truncation_resyncs_and_serves_every_acked_value() {
    let cfg = TaurusConfig {
        plog_size_limit: 4 << 10,
        log_buffer_bytes: 1,
        slice_buffer_bytes: 1,
        ..TaurusConfig::test()
    };
    let db = TaurusDb::launch_with_clock(cfg, 5, 6, ManualClock::shared(), 7).unwrap();
    let master = db.master();
    let replica = db.add_replica().unwrap();
    let mut model = std::collections::BTreeMap::new();
    let mut commit = |i: usize| {
        let (k, v) = (format!("key{:02}", i % 40), format!("v{i}"));
        let mut t = master.begin();
        t.put(k.as_bytes(), v.as_bytes()).unwrap();
        t.commit().unwrap();
        model.insert(k, v);
    };
    for i in 0..40 {
        commit(i);
    }
    settle(&db);
    sync_replica(&db, &replica);

    // The replica stops polling (`master.maintain` does not poll it). The
    // master commits across many 4 KiB PLogs and truncates all of them.
    let resumed_at = replica.visible_lsn();
    let commits = 200;
    for i in 40..40 + commits {
        commit(i);
    }
    make_truncation_due(&master);
    let report = db.run_recovery_round();
    assert!(report.plogs_truncated > 0, "{report:?}");
    assert_eq!(replica.visible_lsn(), resumed_at);

    // Every commit is one group. Tailing from the old cursors would apply
    // all of them; the resync skips those the truncation removed.
    let applied = replica.poll().unwrap();
    assert!(
        applied < commits,
        "resync applied {applied} of {commits} groups: nothing was truncated past the replica"
    );
    sync_replica(&db, &replica);
    let snapshot = replica.begin();
    assert_eq!(snapshot.tv_lsn(), replica.visible_lsn());
    for (k, v) in &model {
        assert_eq!(
            snapshot.get(k.as_bytes()).unwrap().as_deref(),
            Some(v.as_bytes()),
            "{k} at the replica's visible LSN {:?}",
            replica.visible_lsn()
        );
    }
}

/// Log Directory record pointers summed over every Page Store.
fn directory_records(db: &TaurusDb) -> usize {
    let server = |n| db.pages.server_handle(n).unwrap();
    let records = |n| server(n).cache_stats().4;
    db.pages.server_nodes().into_iter().map(records).sum()
}

/// Commits `n` rewrites of 40 rows under a maintenance beat per commit,
/// waits for every replica to hold them all, lets consolidation catch up,
/// and lets two recycle rounds pass.
fn churn_under_beats(db: &TaurusDb, round: usize, n: usize) {
    let master = db.master();
    for i in 0..n {
        let mut t = master.begin();
        let k = format!("row{:02}", i % 40);
        t.put(k.as_bytes(), format!("{round}-{i}").as_bytes())
            .unwrap();
        t.commit().unwrap();
        master.maintain();
    }
    make_truncation_due(&master);
    db.pages.consolidate_all();
    for _ in 0..32 {
        master.maintain();
    }
}

#[test]
fn a_master_without_replicas_recycles_and_still_serves_its_snapshot() {
    let db = launch();
    let master = db.master();
    let mut t = master.begin();
    for i in 0..40 {
        t.put(format!("row{i:02}").as_bytes(), b"pinned").unwrap();
    }
    t.commit().unwrap();
    settle(&db);
    master.create_snapshot("before");
    churn_under_beats(&db, 0, 400);
    // The snapshot caps every recycle LSN: what it reads is still there.
    for i in 0..40 {
        let k = format!("row{i:02}");
        let pinned = master.snapshot_get("before", k.as_bytes()).unwrap();
        assert_eq!(pinned.as_deref(), Some(&b"pinned"[..]), "{k}");
    }
    assert!(master.drop_snapshot("before"));
    // With no replica and no snapshot the Page Stores keep what the last
    // compaction has not covered — a few 4 KiB L0s of these records on
    // each replica — however many commits ran. (Kept whole, 1 000 commits
    // leave 6 000 pointers.)
    churn_under_beats(&db, 1, 200);
    let after_200 = directory_records(&db);
    churn_under_beats(&db, 2, 800);
    let after_1000 = directory_records(&db);
    assert!(
        after_200 < 1_000 && after_1000 < 1_000,
        "directories hold {after_200} then {after_1000} record pointers"
    );
    assert!(master.sal.stats.snapshot().recycle_ptrs_purged > 0);
    for i in 0..40 {
        let k = format!("row{i:02}");
        let v = master.get(k.as_bytes()).unwrap().unwrap();
        assert!(v.starts_with(b"2-"), "{k}: {v:?}");
    }
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

// ---------------------------------------------------------------------
// The B+tree latch protocol: no latch across a Page Store round trip
// ---------------------------------------------------------------------

/// A cluster on `clock` whose master pool is one LRU of `frames` frames.
fn launch_small_pool(clock: taurus_common::clock::ClockRef, frames: usize) -> Arc<TaurusDb> {
    let cfg = TaurusConfig {
        log_buffer_bytes: 1,
        slice_buffer_bytes: 1,
        engine_buffer_pool_pages: frames,
        engine_pool_shards: 1,
        ..TaurusConfig::test()
    };
    TaurusDb::launch_with_clock(cfg, 5, 6, clock, 7).unwrap()
}

/// First row of the `bulk_load`ed leaf number `leaf`.
fn row_on_leaf(leaf: u32) -> u32 {
    leaf * rows_per_leaf()
}

/// Reads one row of each leaf in `leaves`: with a one-LRU pool of fewer
/// frames than that, every other leaf is evicted (if its slice acked it).
fn read_leaves(master: &taurus_engine::MasterEngine, leaves: std::ops::Range<u32>) {
    for leaf in leaves {
        let (k, v) = bulk_row(row_on_leaf(leaf));
        assert_eq!(master.get(&k).unwrap(), Some(v));
    }
}

/// Commits `k = v` on a thread of its own and waits for it, but not for
/// ever: behind a latch held across the caller's round trip it never ends.
fn commit_from_another_connection(master: &Arc<taurus_engine::MasterEngine>, k: &[u8], v: &[u8]) {
    let (done, wait) = std::sync::mpsc::channel();
    let (master, k, v) = (Arc::clone(master), k.to_vec(), v.to_vec());
    let committer = std::thread::spawn(move || {
        let mut t = master.begin();
        t.put(&k, &v).unwrap();
        let _ = done.send(t.commit());
    });
    wait.recv_timeout(std::time::Duration::from_secs(20))
        .expect("a commit is stuck behind a reader's miss round trip")
        .unwrap();
    committer.join().unwrap();
}

/// `settle`s a `bulk_load`, then brings the pool back to its size. Frames
/// the load pinned while their acks were in flight (a slow host delays the
/// write pipe) stay resident past the size until an install evicts them:
/// one commit rewrites a row of `last_leaf` as it was, and settles again.
fn settle_to_pool_size(db: &TaurusDb, last_leaf: u32) {
    settle(db);
    let (k, v) = bulk_row(row_on_leaf(last_leaf) + 1);
    commit_from_another_connection(&db.master(), &k, &v);
    settle(db);
}

#[test]
fn a_commit_completes_inside_a_readers_miss_round_trip() {
    let clock = Arc::new(HookClock::default());
    let db = launch_small_pool(clock.clone(), 8);
    let master = db.master();
    bulk_load(&master, 20);
    settle_to_pool_size(&db, 19);
    // Leaf 10 is out of the pool; the spine above it is in.
    read_leaves(&master, 0..9);
    let (k, v) = bulk_row(row_on_leaf(10));
    let committed = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hook = {
        let (master, committed) = (Arc::clone(&master), Arc::clone(&committed));
        move || {
            // Another connection writes another leaf while this one's read
            // of leaf 10 is on the wire.
            commit_from_another_connection(&master, &bulk_row(row_on_leaf(3)).0, b"meanwhile");
            committed.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    };
    *clock.armed.lock() = Some(HookArm {
        thread: std::thread::current().id(),
        waits_left: 1,
        hook: Box::new(hook),
    });
    assert_eq!(master.get(&k).unwrap(), Some(v));
    assert!(committed.load(std::sync::atomic::Ordering::SeqCst));
    let stats = master.latch_stats();
    assert_eq!((stats.read_latch_fallbacks, stats.loads_discarded), (0, 0));
    assert_eq!(
        master.get(&bulk_row(row_on_leaf(3)).0).unwrap(),
        Some(b"meanwhile".to_vec())
    );
}

#[test]
fn a_head_read_a_recycle_round_overtook_replans_at_the_head() {
    let clock = Arc::new(HookClock::default());
    let db = launch_small_pool(clock.clone(), 8);
    let master = db.master();
    bulk_load(&master, 20);
    settle_to_pool_size(&db, 19);
    // Leaf 10 is out of the pool; all twenty leaves share one slice.
    read_leaves(&master, 0..9);
    let (k, v) = bulk_row(row_on_leaf(10));
    let hook = {
        let db = Arc::clone(&db);
        move || {
            // The read of leaf 10 is on the wire at its slice's acked LSN.
            // Another connection writes leaf 3, every replica takes it, and
            // two recycle rounds pass: the recycle LSN is now above the
            // read's snapshot, and no replica is still at it.
            let master = db.master();
            commit_from_another_connection(&master, &bulk_row(row_on_leaf(3)).0, b"meanwhile");
            make_truncation_due(&master);
            for _ in 0..32 {
                master.maintain();
            }
        }
    };
    *clock.armed.lock() = Some(HookArm {
        thread: std::thread::current().id(),
        waits_left: 1,
        hook: Box::new(hook),
    });
    let refused = master.sal.stats.snapshot().read_retries;
    assert_eq!(master.get(&k).unwrap(), Some(v));
    assert!(clock.armed.lock().is_none(), "the hook never ran");
    assert!(master.sal.stats.snapshot().read_retries > refused);
    assert_eq!(
        master.get(&bulk_row(row_on_leaf(3)).0).unwrap(),
        Some(b"meanwhile".to_vec())
    );
}

#[test]
fn a_page_read_before_a_commit_is_never_installed_after_it() {
    // The stale install, forced at every wait of the reader's round trip
    // for leaf P: a commit rewrites a row on P, P's slice acks it, P is
    // evicted again — and then the reader's copy of P arrives. At the first
    // wait the Page Store has not served the read yet; at the second it has,
    // and the copy on the wire is the old version.
    for n in 1.. {
        let clock = Arc::new(HookClock::default());
        let db = launch_small_pool(clock.clone(), 8);
        let master = db.master();
        bulk_load(&master, 20);
        settle_to_pool_size(&db, 19);
        let (p, before) = {
            let (id, leaf) = &leaf_chain(&master)[10];
            (*id, leaf.lsn())
        };
        read_leaves(&master, 0..9);
        let (k, old) = bulk_row(row_on_leaf(10) + 1);
        let new = vec![b'n'; old.len()];
        let hook = {
            let (db, k, new) = (Arc::clone(&db), k.clone(), new.clone());
            move || {
                let master = db.master();
                commit_from_another_connection(&master, &k, &new);
                settle(&db);
                read_leaves(&master, 0..9);
            }
        };
        *clock.armed.lock() = Some(HookArm {
            thread: std::thread::current().id(),
            waits_left: n,
            hook: Box::new(hook),
        });
        let got = master.get(&k).unwrap();
        if clock.armed.lock().take().is_some() {
            // The read made fewer than `n` waits: every boundary is done.
            assert_eq!(got, Some(old));
            assert!(n > 2, "the miss made only {n} waits: the sweep is vacuous");
            return;
        }
        // The late copy was dropped, the reader started over and saw the
        // commit, and so does everybody after it.
        assert_eq!(master.latch_stats().loads_discarded, 1, "hook at wait {n}");
        assert_eq!(got.as_ref(), Some(&new), "hook at wait {n}");
        assert_eq!(master.get(&k).unwrap(), Some(new));
        let frame = master.get_pages(&[p]).unwrap().remove(0).1;
        assert!(frame.lsn() > before, "P is resident at its old version");
    }
}

#[test]
fn a_commit_whose_warmed_leaves_were_evicted_reads_none_of_them_twice() {
    let db = launch_small_pool(ManualClock::shared(), 4);
    let master = db.master();
    bulk_load(&master, 20);
    settle_to_pool_size(&db, 19);
    // Twelve leaves through a pool of four frames: the warm-up's own
    // installs push its first leaves out again before the apply.
    let rows: Vec<u32> = (2..14).map(|leaf| row_on_leaf(leaf) + 5).collect();
    let pages_read = || {
        let sal = &master.sal;
        sal.stats.snapshot().page_reads + sal.read_batch_stats.snapshot().pages_requested
    };
    let (before, read_before) = (master.latch_stats(), pages_read());
    let mut t = master.begin();
    for &row in &rows {
        t.put(&bulk_row(row).0, b"rewritten").unwrap();
    }
    t.commit().unwrap();
    // The apply put the evicted leaves back from the copies the write set
    // kept (their loading marks were intact): twelve leaves read once, and
    // under the latch at most the spine they pushed out.
    let stats = master.latch_stats();
    let warmed = stats.commit_warm_pages - before.commit_warm_pages;
    let under_latch = stats.commit_fetches_under_latch - before.commit_fetches_under_latch;
    assert!(warmed >= 12, "{stats}");
    assert!(under_latch <= 2, "{stats}");
    assert_eq!(pages_read() - read_before, warmed + under_latch);
    assert!(
        warmed + under_latch <= 12 + 4,
        "a leaf was read twice: {stats}"
    );
    for &row in &rows {
        let k = bulk_row(row).0;
        assert_eq!(master.get(&k).unwrap(), Some(b"rewritten".to_vec()));
        let (k, v) = bulk_row(row + 1);
        assert_eq!(master.get(&k).unwrap(), Some(v));
    }
}

#[test]
fn an_unbounded_scan_larger_than_the_pool_ends_through_the_fallback() {
    let db = launch_small_pool(ManualClock::shared(), 8);
    let master = db.master();
    let n = bulk_load(&master, 30);
    settle_to_pool_size(&db, 29);
    let expected: Vec<_> = (0..n).map(bulk_row).collect();
    let before = master.latch_stats().read_latch_fallbacks;
    assert_eq!(master.scan(b"", usize::MAX).unwrap(), expected);
    assert!(master.latch_stats().read_latch_fallbacks > before);
    // A bounded scan over the same table never needs it.
    let before = master.latch_stats().read_latch_fallbacks;
    for start in (0..n).step_by(131) {
        let end = (start as usize + 20).min(expected.len());
        let got = master.scan(&bulk_row(start).0, 20).unwrap();
        assert_eq!(got, &expected[start as usize..end]);
    }
    assert_eq!(master.latch_stats().read_latch_fallbacks, before);
}

#[test]
fn threaded_reads_and_commits_through_a_tiny_pool_match_the_model() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    const ROWS: u32 = 600;
    const TOKENS: u32 = 4;
    const COMMITS: u32 = 400;
    let row_key = |i: u32| format!("row{i:06}").into_bytes();
    let row_val = |v: u64| format!("{v:012}-{}", "d".repeat(96)).into_bytes();
    let version = |val: &[u8]| -> u64 { std::str::from_utf8(&val[..12]).unwrap().parse().unwrap() };
    // A token sits at one end of the key space or at the other.
    let token_key =
        |t: u32, far: bool| format!("{}token{t}", if far { 'z' } else { 'a' }).into_bytes();

    let db = launch_small_pool(ManualClock::shared(), 8);
    let master = db.master();
    for chunk in (0..ROWS).collect::<Vec<_>>().chunks(50) {
        let mut t = master.begin();
        for &i in chunk {
            t.put(&row_key(i), &row_val(0)).unwrap();
        }
        t.commit().unwrap();
    }
    let mut t = master.begin();
    for tok in 0..TOKENS {
        t.put(&token_key(tok, false), b"token").unwrap();
    }
    t.commit().unwrap();
    settle(&db);
    // Acks keep coming while the threads run, so frames keep leaving.
    let background = db.start_background(200);

    // Per row: the newest version whose commit was acknowledged, and the
    // newest one whose commit was started. One writer per row.
    let acked: Vec<AtomicU64> = (0..ROWS).map(|_| AtomicU64::new(0)).collect();
    let started: Vec<AtomicU64> = (0..ROWS).map(|_| AtomicU64::new(0)).collect();
    let writers_left = AtomicU64::new(2);
    let failed = AtomicBool::new(false);
    let check_rows = |rows: &[(Vec<u8>, Vec<u8>)], first: u32, floors: &[u64]| {
        for (n, (k, val)) in rows.iter().enumerate() {
            let i = first + n as u32;
            if i >= ROWS {
                break;
            }
            assert_eq!(k, &row_key(i), "scan skipped or repeated a row");
            let v = version(val);
            assert!(
                v >= floors[n],
                "row {i}: read {v}, acked {} before",
                floors[n]
            );
            let ceiling = started[i as usize].load(Ordering::SeqCst);
            assert!(
                v <= ceiling,
                "row {i}: read {v}, never written past {ceiling}"
            );
        }
    };
    std::thread::scope(|s| {
        for w in 0..2u32 {
            let (master, acked, started) = (&master, &acked, &started);
            let (writers_left, failed) = (&writers_left, &failed);
            s.spawn(move || {
                let _done = OnDrop(|| {
                    writers_left.fetch_sub(1, Ordering::SeqCst);
                    if std::thread::panicking() {
                        failed.store(true, Ordering::SeqCst);
                    }
                });
                let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ w as u64;
                let mut far = [false; TOKENS as usize];
                for n in 0..COMMITS {
                    let mut t = master.begin();
                    if n % 4 == 3 {
                        // Move a token: a delete and an insert on leaves at
                        // opposite ends of the chain, in one transaction.
                        let tok = 2 * (next(&mut rng) as u32 % (TOKENS / 2)) + w;
                        let at = &mut far[tok as usize];
                        t.delete(&token_key(tok, *at)).unwrap();
                        t.put(&token_key(tok, !*at), b"token").unwrap();
                        *at = !*at;
                        t.commit().unwrap();
                    } else {
                        let i = 2 * (next(&mut rng) as u32 % (ROWS / 2)) + w;
                        let v = started[i as usize].load(Ordering::SeqCst) + 1;
                        started[i as usize].store(v, Ordering::SeqCst);
                        t.put(&row_key(i), &row_val(v)).unwrap();
                        t.commit().unwrap();
                        acked[i as usize].store(v, Ordering::SeqCst);
                    }
                }
            });
        }
        for r in 0..2u32 {
            let (master, acked, check_rows) = (&master, &acked, &check_rows);
            let (writers_left, failed) = (&writers_left, &failed);
            s.spawn(move || {
                let _done = OnDrop(|| {
                    if std::thread::panicking() {
                        failed.store(true, Ordering::SeqCst);
                    }
                });
                let floors = |first: u32, n: u32| -> Vec<u64> {
                    (first..(first + n).min(ROWS))
                        .map(|i| acked[i as usize].load(Ordering::SeqCst))
                        .collect()
                };
                let mut rng = 0xD1B5_4A32_D192_ED03u64 ^ r as u64;
                let mut ops = 0u32;
                while writers_left.load(Ordering::SeqCst) > 0 && !failed.load(Ordering::SeqCst) {
                    ops += 1;
                    let i = next(&mut rng) as u32 % ROWS;
                    if ops.is_multiple_of(64) {
                        // The whole table, larger than the pool: every row
                        // once, every token in exactly one of its places.
                        let before = floors(0, ROWS);
                        let all = master.scan(b"", usize::MAX).unwrap();
                        for tok in 0..TOKENS {
                            let seen = [false, true]
                                .map(|far| all.iter().any(|(k, _)| k == &token_key(tok, far)));
                            assert!(seen[0] != seen[1], "token {tok} torn: {seen:?}");
                        }
                        let rows: Vec<_> = all
                            .into_iter()
                            .filter(|(k, _)| k.starts_with(b"row"))
                            .collect();
                        assert_eq!(rows.len(), ROWS as usize);
                        check_rows(&rows, 0, &before);
                    } else if ops.is_multiple_of(4) {
                        let before = floors(i, 20);
                        let mut rows = master.scan(&row_key(i), 20).unwrap();
                        rows.retain(|(k, _)| k.starts_with(b"row"));
                        assert_eq!(rows.len(), 20.min((ROWS - i) as usize));
                        check_rows(&rows, i, &before);
                    } else {
                        let before = floors(i, 1);
                        let val = master.get(&row_key(i)).unwrap().expect("a row vanished");
                        check_rows(&[(row_key(i), val)], i, &before);
                    }
                }
            });
        }
    });
    drop(background);
    // The run went through the protocol, and ends on the model.
    let stats = master.latch_stats();
    assert!(
        stats.read_restarts > 0 && stats.commit_warm_pages > 0,
        "{stats}"
    );
    let rows = master.scan(b"row", ROWS as usize).unwrap();
    let floors: Vec<u64> = acked.iter().map(|a| a.load(Ordering::SeqCst)).collect();
    check_rows(&rows, 0, &floors);
    // (Only the pool's rule: the Page Stores' `layer-bounded-replay` check
    // reads the compact LSN after its directory snapshot and so misfires
    // when a compaction lands in between — before this test as after.)
    assert!(taurus_common::invariants::violations()
        .iter()
        .all(|v| v.name != "pool-dirty-eviction"));
}

/// Runs a closure when dropped (a thread's exit, panicking or not).
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}

/// xorshift64: a seeded op stream per thread, no shared state.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}
