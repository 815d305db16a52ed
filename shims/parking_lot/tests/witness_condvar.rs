//! The witness's condvar rule: a condvar waits with mutexes of one class,
//! the class of the first one it waited with. Compiled only under
//! `RUSTFLAGS="--cfg taurus_lock_witness"`; one test function in its own
//! binary, because the witness state is process-global.
#![cfg(taurus_lock_witness)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

#[test]
fn a_condvar_waited_with_two_mutex_classes_fires() {
    let cv = Condvar::new();
    let first = Mutex::new(());
    let other = Mutex::new(());

    // Waiting twice with the first class is fine.
    for _ in 0..2 {
        let mut g = first.lock();
        assert!(cv.wait_for(&mut g, Duration::ZERO).timed_out());
    }

    let err = catch_unwind(AssertUnwindSafe(|| {
        let mut g = other.lock();
        let _ = cv.wait_for(&mut g, Duration::ZERO);
    }))
    .expect_err("a second mutex class must fire");
    let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        message.contains("condvar waited with a foreign mutex"),
        "{message}"
    );
    assert_eq!(parking_lot::witness_take_reports(), vec![message]);

    // The pairing stays with the first class; both locks were released.
    let mut g = first.lock();
    assert!(cv.wait_for(&mut g, Duration::ZERO).timed_out());
    assert!(other.try_lock().is_some());
}
