//! The write pipeline must share one encoded fragment across all three
//! replica pipes via `Arc` — zero deep clones of `SliceFragment` on the hot
//! path. The deep-clone counter is process-global, so this test lives in
//! its own integration-test binary (its own process).

use taurus::common::clock::ManualClock;
use taurus::prelude::*;

#[test]
fn healthy_workload_deep_clones_no_fragments() {
    let cfg = TaurusConfig {
        log_buffer_bytes: 1, // flush on every commit: maximal fragment traffic
        slice_buffer_bytes: 1,
        ..TaurusConfig::test()
    };
    let db = TaurusDb::launch_with_clock(cfg, 6, 8, ManualClock::shared(), 7).unwrap();
    let master = db.master();
    for i in 0..40u32 {
        let mut t = master.begin();
        t.put(format!("key-{i:02}").as_bytes(), b"v").unwrap();
        t.commit().unwrap();
    }
    db.quiesce(db.fabric.clock.now_us() + 10_000_000).unwrap();
    for i in 0..40u32 {
        assert!(master
            .get(format!("key-{i:02}").as_bytes())
            .unwrap()
            .is_some());
    }
    assert_eq!(
        taurus::pagestore::deep_clone_count(),
        0,
        "flush path must ship one shared fragment, never deep copies"
    );
}
