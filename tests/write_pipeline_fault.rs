//! Fault-injection end-to-end test for the resilient SAL → Page Store write
//! pipeline: one of three Page Store replicas dies mid-workload, the
//! workload completes (durability comes from the Log Stores; Page Stores are
//! wait-for-one), no fragment is lost, and after the node returns the
//! recovery machinery catches it back up and clears its *suspect* mark.

use std::sync::Arc;

use taurus::common::clock::ManualClock;
use taurus::prelude::*;

fn settle(db: &TaurusDb) {
    let master = db.master();
    master.sal.flush_all_slices();
    for _ in 0..1500 {
        master.maintain();
        if master.sal.cv_lsn() == master.sal.durable_lsn() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

fn put(db: &TaurusDb, k: &str, v: &str) {
    let master = db.master();
    let mut t = master.begin();
    t.put(k.as_bytes(), v.as_bytes()).unwrap();
    t.commit().unwrap();
}

#[test]
fn replica_death_mid_workload_parks_suspects_and_heals() {
    let clock = ManualClock::shared();
    let cfg = TaurusConfig {
        log_buffer_bytes: 1, // flush on every commit: maximal pipeline traffic
        slice_buffer_bytes: 1,
        ..TaurusConfig::test()
    };
    let manual = Arc::clone(&clock);
    let db = TaurusDb::launch_with_clock(cfg, 6, 8, clock, 99).unwrap();
    let clock = manual;
    for i in 0..30u32 {
        put(&db, &format!("pre-{i:02}"), "v");
    }
    settle(&db);

    let master = db.master();
    let slice = master.sal.slice_keys()[0];
    let victim = db.pages.replicas_of(slice)[0];
    db.fabric.set_down(victim);
    let _ = db.run_recovery_round(); // failure detector registers the outage

    // The workload keeps committing: two live replicas satisfy
    // wait-for-one, and the Log Stores hold durability regardless.
    for i in 0..30u32 {
        put(&db, &format!("post-{i:02}"), "v");
    }
    settle(&db);
    assert_eq!(master.sal.cv_lsn(), master.sal.durable_lsn());

    // Every committed key reads back while the replica is still down.
    for i in 0..30u32 {
        assert!(master
            .get(format!("pre-{i:02}").as_bytes())
            .unwrap()
            .is_some());
        assert!(master
            .get(format!("post-{i:02}").as_bytes())
            .unwrap()
            .is_some());
    }

    // The victim's sender worker exhausts its retry budget in the
    // background: fragments for it are parked and the node is demoted. (A
    // shed fragment demotes it too, possibly before its sender has run at
    // all — wait for the sender's retries as well.)
    for _ in 0..2500 {
        if master.sal.is_suspect(victim) && master.sal.stats.write_retries.get() >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    let mid = master.sal.stats.snapshot();
    assert!(
        master.sal.is_suspect(victim),
        "victim must be suspect: {mid}"
    );
    assert!(mid.write_retries >= 1, "retries must be counted: {mid}");
    assert!(
        mid.fragments_parked + mid.queue_full_drops >= 1,
        "undelivered fragments must be parked or shed, not lost: {mid}"
    );
    assert!(mid.suspect_demotions >= 1, "{mid}");

    // The node returns. Recovery rounds (which drain the parked set) plus
    // routine maintenance catch it up and resurrect it.
    db.fabric.set_up(victim);
    let compute = master.sal.me;
    let mut healed = false;
    for _ in 0..300 {
        master.maintain();
        let _ = db.run_recovery_round();
        let caught_up = master.sal.slice_keys().iter().all(|&key| {
            let replicas = db.pages.replicas_of(key);
            if !replicas.contains(&victim) {
                return true;
            }
            let target = replicas
                .iter()
                .filter_map(|&n| db.pages.persistent_lsn_of(n, compute, key).ok())
                .max()
                .unwrap();
            db.pages
                .persistent_lsn_of(victim, compute, key)
                .is_ok_and(|l| l >= target)
        });
        if caught_up && !master.sal.is_suspect(victim) {
            healed = true;
            break;
        }
        clock.advance(db.cfg.lag_repair_timeout_us + 1);
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    assert!(
        healed,
        "victim never caught up: {}",
        master.sal.stats.snapshot()
    );

    let end = master.sal.stats.snapshot();
    assert!(
        end.resends + end.gossip_triggers >= 1,
        "catch-up must go through repair: {end}"
    );
    assert!(end.suspect_resurrections >= 1, "{end}");
    assert!(
        master.sal.parked_slices().is_empty(),
        "no fragment may stay parked after repair"
    );

    // Nothing was lost end to end.
    for i in 0..30u32 {
        assert!(master
            .get(format!("pre-{i:02}").as_bytes())
            .unwrap()
            .is_some());
        assert!(master
            .get(format!("post-{i:02}").as_bytes())
            .unwrap()
            .is_some());
    }
}
