//! Deliberate lock-order inversion, proving the runtime lockdep witness
//! fires. Compiled (and meaningful) only under
//! `RUSTFLAGS="--cfg taurus_lock_witness"`; a plain build compiles this file
//! to nothing.
//!
//! Lives in its own integration-test binary on purpose: the witness order
//! graph and report queue are process-global, and the inversion seeded here
//! must not leak into the shim's other tests. For the same reason this is a
//! single test function — parallel tests would race on `take_reports`.
#![cfg(taurus_lock_witness)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use parking_lot::Mutex;

/// Runs `f`, which must panic with a witness finding; returns the message.
fn finding(f: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("the witness must fire");
    err.downcast_ref::<String>().cloned().unwrap_or_default()
}

#[test]
fn deliberate_inversion_is_reported_with_both_chains() {
    let a = Mutex::new(0u32);
    let b = Mutex::new(0u32);

    // Establish the order a -> b ...
    {
        let _ga = a.lock();
        let _gb = b.lock();
    }
    // ... then acquire in the reverse order. Single-threaded, so this cannot
    // actually deadlock — the witness must still flag the inversion, which
    // is the whole point: it reports orders that *could* deadlock under an
    // adversarial interleaving, before one ever does. The finding panics on
    // this thread before `a` is taken, and is queued as well.
    let message = finding(|| {
        let _gb = b.lock();
        let _ga = a.lock();
    });
    assert!(message.contains("lock-order inversion"), "panic: {message}");

    let reports = parking_lot::witness_take_reports();
    assert_eq!(
        reports.len(),
        1,
        "exactly one inversion expected, got: {reports:#?}"
    );
    let report = &reports[0];
    assert!(
        report.contains("lock-order inversion"),
        "missing header: {report}"
    );
    // Both chains must appear: this thread's chain (holding b, acquiring a)
    // and the previously established a -> b order, each naming this file's
    // construction sites.
    assert!(
        report.contains("this thread's chain"),
        "missing acquiring chain: {report}"
    );
    assert!(
        report.contains("conflicting established order"),
        "missing established chain: {report}"
    );
    assert!(
        report.contains("witness_inversion.rs"),
        "chains should name construction sites in this file: {report}"
    );
    assert_eq!(&message, report, "the panic carries the queued report");

    // One report per conflicting class pair: repeating the inversion does
    // not spam.
    {
        let _gb = b.lock();
        let _ga = a.lock();
    }
    assert!(
        parking_lot::witness_take_reports().is_empty(),
        "repeat inversion must not re-report"
    );

    // A try-acquire against the established order contributes an edge but
    // cannot deadlock at its own site, so it must not fire a report.
    let x = Mutex::new(0u32);
    let y = Mutex::new(0u32);
    {
        let _gx = x.lock();
        let _gy = y.lock();
    }
    {
        let _gy = y.lock();
        let _gx = x.try_lock().expect("uncontended try_lock");
    }
    assert!(
        parking_lot::witness_take_reports().is_empty(),
        "try-acquire must not fire a report"
    );
}
