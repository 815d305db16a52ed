//! Fault-injection end-to-end test for the resilient SAL → Page Store write
//! pipeline: one of three Page Store replicas dies mid-workload, the
//! workload completes (durability comes from the Log Stores; Page Stores are
//! wait-for-one), no fragment is lost, and after the node returns the
//! recovery machinery catches it back up and clears its *suspect* mark.

use taurus::common::clock::ManualClock;
use taurus::prelude::*;

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
fn replica_death_mid_workload_parks_suspects_and_heals() {
    let cfg = TaurusConfig {
        log_buffer_bytes: 1, // flush on every commit: maximal pipeline traffic
        slice_buffer_bytes: 1,
        ..TaurusConfig::test()
    };
    let db = TaurusDb::launch_with_clock(cfg, 6, 8, ManualClock::shared(), 99).unwrap();
    for i in 0..30u32 {
        put(&db, &format!("pre-{i:02}"), "v");
    }
    db.quiesce(deadline(&db)).unwrap();

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
    db.quiesce(deadline(&db)).unwrap();
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

    // The quiesce waited out the victim's sender: each envelope to it
    // failed once, so its fragments are parked for repair from the log and
    // the node is demoted. (A down node's queue holds no flush, so nothing
    // is abandoned at the admission deadline here.)
    let mid = master.sal.stats.snapshot();
    assert!(
        master.sal.is_suspect(victim),
        "victim must be suspect: {mid}"
    );
    assert!(
        mid.write_retries >= 1,
        "failed envelopes must be counted: {mid}"
    );
    assert!(
        mid.fragments_parked >= 1,
        "undelivered fragments must be parked, not lost: {mid}"
    );
    assert!(mid.suspect_demotions >= 1, "{mid}");

    // The node returns. A maintenance beat (which repairs the parked set)
    // and a recovery round catch it up and resurrect it; the SAL's barrier
    // repairs nothing, so it only waits for what they sent.
    db.fabric.set_up(victim);
    master.maintain();
    let _ = db.run_recovery_round();
    master.sal.quiesce(deadline(&db)).unwrap();
    let compute = master.sal.me;
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
    assert!(
        caught_up && !master.sal.is_suspect(victim),
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
