//! Multi-tenancy: several databases sharing one storage fleet (paper §3.2
//! "multi-tenant cloud database system"; Page Stores host slices from
//! different databases, Log Stores host PLogs from different databases).

use std::sync::Arc;

use taurus::common::clock::ManualClock;
use taurus::common::config::{StorageProfile, REPLICAS};
use taurus::pagestore::cluster::PageStoreOptions;
use taurus::prelude::*;

fn shared_fleet() -> (Fabric, LogStoreCluster, PageStoreCluster, TaurusConfig) {
    let cfg = TaurusConfig {
        log_buffer_bytes: 1,
        slice_buffer_bytes: 1,
        ..TaurusConfig::test()
    };
    let fabric = Fabric::new(
        ManualClock::shared(),
        taurus::common::config::NetworkProfile::instant(),
        77,
    );
    let logs = LogStoreCluster::new(fabric.clone(), REPLICAS, cfg.logstore_cache_bytes);
    logs.spawn_servers(5, StorageProfile::instant());
    let pages = PageStoreCluster::new(fabric.clone(), REPLICAS, PageStoreOptions::default());
    pages.spawn_servers(5, StorageProfile::instant());
    (fabric, logs, pages, cfg)
}

#[test]
fn tenants_share_storage_but_stay_isolated() {
    let (fabric, logs, pages, cfg) = shared_fleet();
    let db_a = TaurusDb::launch_tenant(
        cfg.clone(),
        fabric.clone(),
        logs.clone(),
        pages.clone(),
        DbId(1),
    )
    .unwrap();
    let db_b = TaurusDb::launch_tenant(cfg, fabric, logs, pages.clone(), DbId(2)).unwrap();

    let a = db_a.master();
    let b = db_b.master();
    let mut t = a.begin();
    t.put(b"shared-key", b"tenant-a").unwrap();
    t.commit().unwrap();
    let mut t = b.begin();
    t.put(b"shared-key", b"tenant-b").unwrap();
    t.commit().unwrap();

    // Same key, fully isolated values.
    assert_eq!(a.get(b"shared-key").unwrap(), Some(b"tenant-a".to_vec()));
    assert_eq!(b.get(b"shared-key").unwrap(), Some(b"tenant-b".to_vec()));

    // The Page Store fleet hosts slices from BOTH databases.
    let slices = pages.slices();
    assert!(slices.iter().any(|s| s.db == DbId(1)));
    assert!(slices.iter().any(|s| s.db == DbId(2)));
}

#[test]
fn tenant_crash_recovery_does_not_disturb_the_other_tenant() {
    let (fabric, logs, pages, cfg) = shared_fleet();
    let db_a = TaurusDb::launch_tenant(
        cfg.clone(),
        fabric.clone(),
        logs.clone(),
        pages.clone(),
        DbId(1),
    )
    .unwrap();
    let db_b = TaurusDb::launch_tenant(cfg, fabric, logs, pages, DbId(2)).unwrap();

    for i in 0..30u32 {
        let mut t = db_a.master().begin();
        t.put(format!("a{i:03}").as_bytes(), b"v").unwrap();
        t.commit().unwrap();
        let mut t = db_b.master().begin();
        t.put(format!("b{i:03}").as_bytes(), b"v").unwrap();
        t.commit().unwrap();
    }
    // Tenant A's master crashes and recovers from the shared Log Stores.
    db_a.crash_and_recover_master().unwrap();
    for i in (0..30u32).step_by(5) {
        assert!(db_a
            .master()
            .get(format!("a{i:03}").as_bytes())
            .unwrap()
            .is_some());
        assert!(db_b
            .master()
            .get(format!("b{i:03}").as_bytes())
            .unwrap()
            .is_some());
    }
    // B keeps writing normally throughout.
    let mut t = db_b.master().begin();
    t.put(b"b-final", b"v").unwrap();
    t.commit().unwrap();
    assert!(db_b.master().get(b"b-final").unwrap().is_some());
}

#[test]
fn tenants_log_streams_are_independent() {
    let (fabric, logs, pages, cfg) = shared_fleet();
    let db_a = TaurusDb::launch_tenant(
        cfg.clone(),
        fabric.clone(),
        logs.clone(),
        pages.clone(),
        DbId(1),
    )
    .unwrap();
    let db_b = TaurusDb::launch_tenant(cfg, fabric, logs.clone(), pages, DbId(2)).unwrap();

    // Both databases registered distinct metadata PLogs.
    let meta_a = logs.meta_plog(DbId(1)).unwrap();
    let meta_b = logs.meta_plog(DbId(2)).unwrap();
    assert_ne!(meta_a, meta_b);

    // A read replica of tenant A sees only tenant A's data.
    let mut t = db_a.master().begin();
    t.put(b"only-a", b"1").unwrap();
    t.commit().unwrap();
    let mut t = db_b.master().begin();
    t.put(b"only-b", b"2").unwrap();
    t.commit().unwrap();
    let replica_a = db_a.add_replica().unwrap();
    db_a.quiesce(db_a.fabric.clock.now_us() + 10_000_000)
        .unwrap();
    assert_eq!(replica_a.visible_lsn(), db_a.master().sal.durable_lsn());
    assert_eq!(replica_a.get(b"only-a").unwrap(), Some(b"1".to_vec()));
    assert_eq!(replica_a.get(b"only-b").unwrap(), None);
    let _ = Arc::strong_count(&replica_a);
}
