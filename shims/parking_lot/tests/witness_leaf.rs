//! The witness's leaf rule: nothing is acquired while a `Mutex::new_leaf`
//! lock is held, while a leaf may itself be taken under other locks.
//! Compiled only under `RUSTFLAGS="--cfg taurus_lock_witness"`; one test
//! function in its own binary, because the witness state is process-global.
#![cfg(taurus_lock_witness)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use parking_lot::{Mutex, RwLock};

fn finding(f: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("the witness must fire");
    err.downcast_ref::<String>().cloned().unwrap_or_default()
}

#[test]
fn an_acquisition_under_a_leaf_fires() {
    let leaf = Mutex::new_leaf(0u32);
    let outer = Mutex::new(0u32);
    let other = RwLock::new(0u32);

    // Taking the leaf under another lock is what a leaf is for.
    {
        let _o = outer.lock();
        let _l = leaf.lock();
    }

    let message = finding(|| {
        let _l = leaf.lock();
        let _r = other.read();
    });
    assert!(
        message.contains("lock under a leaf") && message.contains("witness_leaf.rs"),
        "{message}"
    );
    // A try-acquire under a leaf is still nesting.
    let message = finding(|| {
        let _l = leaf.lock();
        let _o = outer.try_lock();
    });
    assert!(message.contains("lock under a leaf"), "{message}");
    assert_eq!(parking_lot::witness_take_reports().len(), 2);

    // The findings fired before the inner lock was taken: the held stack
    // is empty again, so a plain acquisition is clean.
    let _r = other.read();
    assert!(parking_lot::witness_take_reports().is_empty());
}
