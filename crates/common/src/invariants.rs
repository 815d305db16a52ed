//! Runtime invariant checking (the `invariants` feature).
//!
//! Safety properties of the design — LSN monotonicity, quorum-before-ack,
//! recycle ≤ persistent, slice-log contiguity — are easy to state and easy
//! to silently violate under refactoring. This module gives every layer a
//! single cheap way to assert them in production code paths:
//!
//! ```
//! use taurus_common::invariant;
//! let (durable, acked) = (10u64, 7u64);
//! invariant!("quorum-before-ack", acked <= durable, "acked {acked} > durable {durable}");
//! ```
//!
//! Violations are *recorded*, not panicked on (a storage fleet must degrade,
//! not crash, when a check fires); tests and the verification harness drain
//! the registry via [`take_violations`] and fail loudly. Set the environment
//! variable `TAURUS_INVARIANT_PANIC=1` to turn every violation into an
//! immediate panic while debugging.
//!
//! With the `invariants` feature disabled (`--no-default-features`), the
//! checks compile down to evaluating the condition expression only; nothing
//! is formatted or recorded.

use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(feature = "invariants")]
use parking_lot::Mutex;

/// Keep at most this many violation records; later ones only bump the
/// counter. A broken invariant in a hot loop must not exhaust memory.
const MAX_RECORDED: usize = 1024;

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable invariant name, e.g. `"lsn-monotonic"`.
    pub name: &'static str,
    /// Human-readable detail formatted at the check site.
    pub detail: String,
    /// `module_path!()` of the check site.
    pub module: &'static str,
    /// `line!()` of the check site.
    pub line: u32,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.name, self.module, self.line, self.detail
        )
    }
}

static CHECKS: AtomicU64 = AtomicU64::new(0);
static VIOLATIONS: AtomicU64 = AtomicU64::new(0);

#[cfg(feature = "invariants")]
static REGISTRY: Mutex<Vec<Violation>> = Mutex::new(Vec::new());

/// Records the outcome of one invariant check. Called by [`crate::invariant!`];
/// not meant to be used directly.
#[cfg(feature = "invariants")]
pub fn check<F: FnOnce() -> String>(
    name: &'static str,
    holds: bool,
    detail: F,
    module: &'static str,
    line: u32,
) {
    CHECKS.fetch_add(1, Ordering::Relaxed);
    if holds {
        return;
    }
    VIOLATIONS.fetch_add(1, Ordering::Relaxed);
    let v = Violation {
        name,
        detail: detail(),
        module,
        line,
    };
    if std::env::var_os("TAURUS_INVARIANT_PANIC").is_some() {
        panic!("invariant violated: {v}");
    }
    let mut reg = REGISTRY.lock();
    if reg.len() < MAX_RECORDED {
        reg.push(v);
    }
}

/// No-op twin used when the feature is off: the condition is still evaluated
/// by the macro (it is an argument), but nothing else happens.
#[cfg(not(feature = "invariants"))]
#[inline(always)]
pub fn check<F: FnOnce() -> String>(
    _name: &'static str,
    _holds: bool,
    _detail: F,
    _module: &'static str,
    _line: u32,
) {
}

/// Total invariant checks performed since process start (feature on only).
pub fn checks_performed() -> u64 {
    CHECKS.load(Ordering::Relaxed)
}

/// Total violations observed since process start (including ones past the
/// recording cap).
pub fn violation_count() -> u64 {
    VIOLATIONS.load(Ordering::Relaxed)
}

/// Drains and returns all recorded violations.
#[cfg(feature = "invariants")]
pub fn take_violations() -> Vec<Violation> {
    std::mem::take(&mut *REGISTRY.lock())
}

#[cfg(not(feature = "invariants"))]
pub fn take_violations() -> Vec<Violation> {
    Vec::new()
}

/// Snapshot of recorded violations without draining them.
#[cfg(feature = "invariants")]
pub fn violations() -> Vec<Violation> {
    REGISTRY.lock().clone()
}

#[cfg(not(feature = "invariants"))]
pub fn violations() -> Vec<Violation> {
    Vec::new()
}

/// Drains the runtime lockdep witness (built only under
/// `RUSTFLAGS="--cfg taurus_lock_witness"`) and records every finding it
/// queued — a lock-order inversion, an acquisition under a leaf lock, a
/// lock held across a fabric call, a condvar waited with a second mutex
/// class — as a `lock-order-acyclic` invariant violation. The thread that
/// made a finding already panicked with it; this catches the findings of
/// background threads nobody joins.
///
/// Callable unconditionally — without the cfg it is a no-op returning 0 —
/// so crates that do not opt into `check-cfg` plumbing can still call it
/// from maintenance paths. Returns the number of findings drained.
pub fn lock_witness_sweep() -> usize {
    #[cfg(taurus_lock_witness)]
    {
        let reports = parking_lot::witness_take_reports();
        let drained = reports.len();
        for report in reports {
            check(
                "lock-order-acyclic",
                false,
                || report.clone(),
                module_path!(),
                line!(),
            );
        }
        drained
    }
    #[cfg(not(taurus_lock_witness))]
    0
}

/// Asserts a named runtime invariant.
///
/// `invariant!(name, cond)` or `invariant!(name, cond, format-args...)`.
/// The format arguments are only evaluated when the condition is false, so
/// a passing check costs one branch and two relaxed atomic increments.
#[macro_export]
macro_rules! invariant {
    ($name:expr, $cond:expr $(,)?) => {
        $crate::invariants::check(
            $name,
            $cond,
            || ::std::string::String::new(),
            ::core::module_path!(),
            ::core::line!(),
        )
    };
    ($name:expr, $cond:expr, $($arg:tt)+) => {
        $crate::invariants::check(
            $name,
            $cond,
            || ::std::format!($($arg)+),
            ::core::module_path!(),
            ::core::line!(),
        )
    };
}

#[cfg(all(test, feature = "invariants"))]
mod tests {
    use super::*;

    // The registry is process-global; run the whole lifecycle in one test to
    // avoid cross-test interference.
    #[test]
    fn macro_records_violations_and_skips_passing_checks() {
        let before_checks = checks_performed();
        let before_violations = violation_count();

        crate::invariant!("test-pass", 1 + 1 == 2);
        crate::invariant!("test-pass", true, "never formatted {}", 42);
        assert_eq!(checks_performed() - before_checks, 2);
        assert_eq!(violation_count(), before_violations);

        crate::invariant!("test-fail", false, "lsn {} regressed below {}", 3, 7);
        assert_eq!(violation_count() - before_violations, 1);
        let recorded = take_violations();
        let v = recorded
            .iter()
            .find(|v| v.name == "test-fail")
            .expect("violation recorded");
        assert_eq!(v.detail, "lsn 3 regressed below 7");
        assert!(v.module.contains("invariants"));
        assert!(v.to_string().contains("test-fail"));

        // Drained: a second take returns nothing new.
        assert!(take_violations().iter().all(|v| v.name != "test-fail"));
    }
}
