//! Log sequence numbers.
//!
//! An [`Lsn`] is a monotonically increasing logical sequence number that
//! uniquely identifies and orders every change to a database (paper §3.4).
//! Page versions are identified by `(PageId, Lsn)`; the Storage Abstraction
//! Layer tracks several derived LSNs (cluster-visible, slice flush, slice
//! persistent, database persistent, recycle) that are all plain [`Lsn`]s.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A log sequence number. `Lsn::ZERO` sorts before every real record; the
/// first record a database produces has LSN 1.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The zero LSN: "before any change". Used as the initial persistent,
    /// visible, and recycle LSN of a fresh database.
    pub const ZERO: Lsn = Lsn(0);
    /// Largest representable LSN; used as a sentinel upper bound.
    pub const MAX: Lsn = Lsn(u64::MAX);

    /// The LSN immediately after this one.
    #[inline]
    pub fn next(self) -> Lsn {
        Lsn(self.0 + 1)
    }

    /// Saturating predecessor, never underflowing below [`Lsn::ZERO`].
    #[inline]
    pub fn prev(self) -> Lsn {
        Lsn(self.0.saturating_sub(1))
    }

    /// Whether this LSN denotes an actual record (i.e. is non-zero).
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Debug for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Lsn {
    fn from(v: u64) -> Self {
        Lsn(v)
    }
}

/// Thread-safe monotone LSN allocator used by the master to version changes.
///
/// The master is the only component that mints LSNs (paper §3.4: "the master
/// assigns the page a version, a monotonically increasing logical sequence
/// number").
#[derive(Debug)]
pub struct LsnAllocator {
    next: AtomicU64,
}

impl LsnAllocator {
    /// Creates an allocator whose first allocated LSN is `start.next()`.
    pub fn new(start: Lsn) -> Self {
        LsnAllocator {
            next: AtomicU64::new(start.0 + 1),
        }
    }

    /// Allocates the next single LSN.
    pub fn alloc(&self) -> Lsn {
        Lsn(self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// Allocates a dense run of `n` LSNs, returning the first. The run is
    /// `first ..= first + n - 1`.
    pub fn alloc_run(&self, n: u64) -> Lsn {
        Lsn(self.next.fetch_add(n, Ordering::Relaxed))
    }

    /// The highest LSN handed out so far (ZERO if none).
    pub fn last_allocated(&self) -> Lsn {
        Lsn(self.next.load(Ordering::Relaxed) - 1)
    }
}

/// A shared watermark: a monotonically advancing LSN cell (e.g. CV-LSN,
/// replica-visible LSN). Advancing to a smaller value is a no-op, which makes
/// concurrent publication race-free.
#[derive(Debug, Default)]
pub struct LsnWatermark {
    value: AtomicU64,
}

impl LsnWatermark {
    pub fn new(initial: Lsn) -> Self {
        LsnWatermark {
            value: AtomicU64::new(initial.0),
        }
    }

    /// Current value of the watermark.
    pub fn get(&self) -> Lsn {
        Lsn(self.value.load(Ordering::Acquire))
    }

    /// Advance the watermark to `to` if that moves it forward. Returns `true`
    /// if the stored value changed.
    pub fn advance(&self, to: Lsn) -> bool {
        self.value.fetch_max(to.0, Ordering::AcqRel) < to.0
    }

    /// Force-set the watermark (used only by recovery when reconstructing
    /// state; normal operation must use [`LsnWatermark::advance`]).
    pub fn reset(&self, to: Lsn) {
        self.value.store(to.0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsn_ordering_and_navigation() {
        assert!(Lsn::ZERO < Lsn(1));
        assert_eq!(Lsn(5).next(), Lsn(6));
        assert_eq!(Lsn(5).prev(), Lsn(4));
        assert_eq!(Lsn::ZERO.prev(), Lsn::ZERO);
        assert!(!Lsn::ZERO.is_valid());
        assert!(Lsn(1).is_valid());
    }

    #[test]
    fn allocator_is_dense_and_monotone() {
        let a = LsnAllocator::new(Lsn::ZERO);
        assert_eq!(a.alloc(), Lsn(1));
        assert_eq!(a.alloc(), Lsn(2));
        let run = a.alloc_run(10);
        assert_eq!(run, Lsn(3));
        assert_eq!(a.alloc(), Lsn(13));
        assert_eq!(a.last_allocated(), Lsn(13));
    }

    #[test]
    fn allocator_resumes_from_recovered_lsn() {
        let a = LsnAllocator::new(Lsn(100));
        assert_eq!(a.alloc(), Lsn(101));
    }

    #[test]
    fn watermark_only_moves_forward() {
        let w = LsnWatermark::new(Lsn(10));
        assert!(w.advance(Lsn(20)));
        assert!(!w.advance(Lsn(15)));
        assert_eq!(w.get(), Lsn(20));
        assert!(!w.advance(Lsn(20)));
        w.reset(Lsn(5));
        assert_eq!(w.get(), Lsn(5));
    }

    #[test]
    fn watermark_concurrent_advance() {
        use std::sync::Arc;
        let w = Arc::new(LsnWatermark::new(Lsn::ZERO));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        w.advance(Lsn(t * 1000 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(w.get(), Lsn(7999));
    }
}
