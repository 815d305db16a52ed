//! The lock witness's fabric rule through a real `Fabric`: a lock held
//! across a call fires, the same call inside a `held_across_calls` scope
//! passes, and a lock taken after the scope opened still fires. Compiled
//! only under `RUSTFLAGS="--cfg taurus_lock_witness"`.
//!
//! One test function in its own binary: the witness's order graph and
//! report queue are process-global.
#![cfg(taurus_lock_witness)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use parking_lot::Mutex;
use taurus_common::clock::ManualClock;
use taurus_common::config::NetworkProfile;
use taurus_fabric::{Fabric, NodeKind};

/// Runs `f`, which must panic with a witness finding; returns the message.
fn finding(f: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("the witness must fire");
    err.downcast_ref::<String>().cloned().unwrap_or_default()
}

#[test]
fn a_lock_held_across_a_call_fires_outside_its_scope() {
    let fabric = Fabric::new(ManualClock::shared(), NetworkProfile::instant(), 7);
    let me = fabric.add_node(NodeKind::Compute);
    let peer = fabric.add_node(NodeKind::LogStore);
    let held = Mutex::new(0u32);
    let later = Mutex::new(0u32);

    // No lock held: a call and a fan-out are fine.
    assert_eq!(fabric.call(me, peer, || 1).ok(), Some(1));
    let legs: Vec<(_, Box<dyn FnOnce() -> u32 + Send>)> =
        vec![(peer, Box::new(|| 2)), (peer, Box::new(|| 3))];
    assert_eq!(fabric.call_all(me, legs).len(), 2);

    let message = finding(|| {
        let _g = held.lock();
        let _ = fabric.call(me, peer, || ());
    });
    assert!(
        message.contains("lock held across a fabric call")
            && message.contains("witness_lock_across_call.rs"),
        "the report names the held lock's construction site: {message}"
    );
    let message = finding(|| {
        let _g = held.lock();
        let legs: Vec<(_, Box<dyn FnOnce() + Send>)> =
            vec![(peer, Box::new(|| ())), (peer, Box::new(|| ()))];
        let _ = fabric.call_all(me, legs);
    });
    assert!(
        message.contains("lock held across a fabric call"),
        "{message}"
    );

    // The same call inside a scope opened while the lock is held passes.
    {
        let _g = held.lock();
        let _span = parking_lot::held_across_calls("fixture: the handler takes no lock");
        assert_eq!(fabric.call(me, peer, || 4).ok(), Some(4));
    }

    // A lock taken after the scope opened is not covered by its proof.
    let message = finding(|| {
        let _g = held.lock();
        let _span = parking_lot::held_across_calls("fixture: the handler takes no lock");
        let _h = later.lock();
        let _ = fabric.call(me, peer, || ());
    });
    assert!(
        message.contains("taken after the held_across_calls scope opened")
            && message.contains("fixture: the handler takes no lock"),
        "{message}"
    );

    // A closed scope exempts nothing, and every finding was also queued.
    let message = finding(|| {
        let _g = held.lock();
        drop(parking_lot::held_across_calls("fixture: closed at once"));
        let _ = fabric.call(me, peer, || ());
    });
    assert!(
        message.contains("lock held across a fabric call"),
        "{message}"
    );
    assert_eq!(parking_lot::witness_take_reports().len(), 4);
}
