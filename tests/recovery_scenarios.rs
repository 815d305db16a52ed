//! Cross-crate integration tests: the paper's Fig. 4 recovery scenarios
//! driven through the full public stack (TaurusDb), plus durability
//! invariants under combined failures and log truncation.

use std::sync::Arc;

use taurus::common::clock::ManualClock;
use taurus::prelude::*;

fn launch(clock: Arc<ManualClock>) -> Arc<TaurusDb> {
    let cfg = TaurusConfig {
        log_buffer_bytes: 1,
        slice_buffer_bytes: 1,
        ..TaurusConfig::test()
    };
    TaurusDb::launch_with_clock(cfg, 6, 8, clock, 99).unwrap()
}

/// The deadline of a quiesce that starts now, on the deployment's clock
/// (a manual one moves only by modelled call costs: this bounds a drill).
fn deadline(db: &TaurusDb) -> u64 {
    db.fabric.clock.now_us() + 10_000_000
}

fn put(db: &TaurusDb, k: &str, v: &str) {
    let master = db.master();
    let mut t = master.begin();
    t.put(k.as_bytes(), v.as_bytes()).unwrap();
    t.commit().unwrap();
}

#[test]
fn fig4a_short_term_failure_repaired_by_gossip_through_recovery_service() {
    let clock = ManualClock::shared();
    let db = launch(clock);
    put(&db, "r1", "v");
    db.quiesce(deadline(&db)).unwrap();
    let master = db.master();
    let slice = master.sal.slice_keys()[0];
    let replica3 = db.pages.replicas_of(slice)[2];
    // Short-term outage misses a write.
    db.fabric.set_down(replica3);
    let down_report = db.run_recovery_round(); // detector registers the outage
    assert_eq!(down_report.short_term_failures, 1, "{down_report:?}");
    put(&db, "r2", "v");
    db.quiesce(deadline(&db)).unwrap();
    db.fabric.set_up(replica3);
    // The recovery service notices the node returned and triggers gossip.
    let report = db.run_recovery_round();
    assert!(report.gossip_triggered >= 1, "{report:?}");
    let compute = master.sal.me;
    assert_eq!(
        db.pages
            .persistent_lsn_of(replica3, compute, slice)
            .unwrap(),
        master.sal.durable_lsn()
    );
}

#[test]
fn fig4b_rebuild_from_lagging_donor_heals_via_logstore_resend() {
    let clock = ManualClock::shared();
    let db = launch(Arc::clone(&clock));
    put(&db, "r1", "v");
    db.quiesce(deadline(&db)).unwrap();
    let master = db.master();
    let slice = master.sal.slice_keys()[0];
    let replicas = db.pages.replicas_of(slice);
    // r2, r3 offline; record 2 lands only on r1 and is dismissed.
    db.fabric.set_down(replicas[1]);
    db.fabric.set_down(replicas[2]);
    put(&db, "r2", "v");
    db.quiesce(deadline(&db)).unwrap();
    db.fabric.set_up(replicas[1]);
    db.fabric.set_up(replicas[2]);
    let _ = db.run_recovery_round();
    // r1 dies for good before gossip copies record 2 anywhere.
    db.fabric.set_down(replicas[0]);
    clock.advance(db.cfg.short_term_failure_us + 1);
    let report = db.run_recovery_round();
    assert_eq!(report.long_term_failures, 1, "{report:?}");
    assert_eq!(report.slices_rebuilt, 1, "{report:?}");
    // More rounds: regression detection + Log Store resend heal the slice.
    for _ in 0..3 {
        let _ = db.run_recovery_round();
    }
    let compute = master.sal.me;
    for node in db.pages.replicas_of(slice) {
        assert_eq!(
            db.pages.persistent_lsn_of(node, compute, slice).unwrap(),
            master.sal.durable_lsn(),
            "replica {node} not healed"
        );
    }
    // And the data is all there.
    assert!(master.get(b"r1").unwrap().is_some());
    assert!(master.get(b"r2").unwrap().is_some());
}

#[test]
fn fig4c_hole_on_all_replicas_healed_by_recovery_rounds() {
    let clock = ManualClock::shared();
    let db = launch(Arc::clone(&clock));
    put(&db, "r1", "v");
    db.quiesce(deadline(&db)).unwrap();
    let master = db.master();
    let slice = master.sal.slice_keys()[0];
    let replicas = db.pages.replicas_of(slice);
    // Record 2 reaches nobody.
    for &r in &replicas {
        db.fabric.set_down(r);
    }
    put(&db, "r2", "v");
    // No replica is live: the quiesce waits out the pipes' failed sends only.
    db.quiesce(deadline(&db)).unwrap();
    for &r in &replicas {
        db.fabric.set_up(r);
    }
    // Record 3 reaches everyone, chained past the hole: once the pipes are
    // idle the SAL names the hole (the deployment's quiesce would repair
    // it, as the beat does; here the recovery rounds must).
    put(&db, "r3", "v");
    let rest = master.sal.quiesce(deadline(&db));
    assert!(
        matches!(rest, Err(TaurusError::ReplicaBehind { slice: s, .. }) if s == slice),
        "{rest:?}"
    );
    // The recovery service detects the stall, gossip can't help, the Log
    // Store resend fills the hole.
    clock.advance(db.cfg.lag_repair_timeout_us + 1);
    let mut healed = false;
    for _ in 0..4 {
        let _ = db.run_recovery_round();
        let compute = master.sal.me;
        if db.pages.replicas_of(slice).iter().all(|&n| {
            db.pages.persistent_lsn_of(n, compute, slice).unwrap() == master.sal.durable_lsn()
        }) {
            healed = true;
            break;
        }
        clock.advance(db.cfg.lag_repair_timeout_us + 1);
    }
    assert!(healed, "hole was never repaired");
    assert!(master.get(b"r2").unwrap().is_some());
}

#[test]
fn committed_data_survives_arbitrary_failure_storm() {
    let clock = ManualClock::shared();
    let db = launch(Arc::clone(&clock));
    let mut committed = Vec::new();
    // Alternate writes with failure injection across tiers.
    for round in 0..6u32 {
        for i in 0..10u32 {
            let k = format!("key-{round}-{i}");
            put(&db, &k, "v");
            committed.push(k);
        }
        match round % 3 {
            0 => {
                let n = db.fabric.healthy_nodes(NodeKind::LogStore)[0];
                db.fabric.set_down(n);
            }
            1 => {
                let n = db.fabric.healthy_nodes(NodeKind::PageStore)[0];
                db.fabric.set_down(n);
            }
            _ => {
                // Bring everything back and run recovery.
                for n in db.fabric.all_nodes(NodeKind::LogStore) {
                    db.fabric.set_up(n);
                }
                for n in db.fabric.all_nodes(NodeKind::PageStore) {
                    db.fabric.set_up(n);
                }
                let _ = db.run_recovery_round();
            }
        }
    }
    for n in db.fabric.all_nodes(NodeKind::LogStore) {
        db.fabric.set_up(n);
    }
    for n in db.fabric.all_nodes(NodeKind::PageStore) {
        db.fabric.set_up(n);
    }
    db.quiesce(deadline(&db)).unwrap();
    let _ = db.run_recovery_round();
    // Crash the master for good measure.
    db.crash_and_recover_master().unwrap();
    let master = db.master();
    for k in &committed {
        assert!(
            master.get(k.as_bytes()).unwrap().is_some(),
            "committed key {k} lost"
        );
    }
}

#[test]
fn truncated_log_never_strands_data() {
    let clock = ManualClock::shared();
    let cfg = TaurusConfig {
        log_buffer_bytes: 1,
        slice_buffer_bytes: 1,
        plog_size_limit: 2 << 10,
        ..TaurusConfig::test()
    };
    let db = TaurusDb::launch_with_clock(cfg, 5, 6, clock, 4).unwrap();
    for i in 0..120u32 {
        put(&db, &format!("k{i:04}"), "v");
    }
    db.quiesce(deadline(&db)).unwrap();
    let report = db.run_recovery_round();
    assert!(
        report.plogs_truncated > 0,
        "log should have truncated: {report:?}"
    );
    // After truncation a master crash must still recover everything:
    // whatever left the log is on all three Page Store replicas.
    db.crash_and_recover_master().unwrap();
    let master = db.master();
    for i in (0..120u32).step_by(7) {
        assert!(master.get(format!("k{i:04}").as_bytes()).unwrap().is_some());
    }
}

#[test]
fn write_availability_through_mass_log_store_failure() {
    let clock = ManualClock::shared();
    let db = launch(clock);
    put(&db, "before", "v");
    // Kill half of the Log Store fleet: writes must keep committing as long
    // as three healthy nodes remain (the paper's headline claim).
    let nodes = db.fabric.healthy_nodes(NodeKind::LogStore);
    for &n in &nodes[..3] {
        db.fabric.set_down(n);
    }
    for i in 0..20u32 {
        put(&db, &format!("during{i}"), "v");
    }
    db.quiesce(deadline(&db)).unwrap();
    let master = db.master();
    assert!(master.get(b"during0").unwrap().is_some());
    assert!(master.get(b"during19").unwrap().is_some());
}
