//! A `held_across_calls` scope must carry its proof: the witness refuses an
//! empty reason. Compiled only under `RUSTFLAGS="--cfg taurus_lock_witness"`;
//! one test function in its own binary, because the witness state is
//! process-global.
#![cfg(taurus_lock_witness)]

use std::panic::catch_unwind;

#[test]
fn an_empty_exemption_reason_is_refused() {
    for reason in ["", "   "] {
        assert!(
            catch_unwind(|| drop(parking_lot::held_across_calls(reason))).is_err(),
            "reason {reason:?} must be refused"
        );
    }
    drop(parking_lot::held_across_calls("fixture: nothing is held"));
    parking_lot::assert_no_lock_held();
}
