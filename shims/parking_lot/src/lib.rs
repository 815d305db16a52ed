//! Offline shim for `parking_lot`.
//!
//! The build container cannot reach crates.io, so this crate provides the
//! subset of the `parking_lot` API the workspace uses — `Mutex`, `RwLock`,
//! and `Condvar` with non-poisoning, non-`Result` lock methods — implemented
//! on top of `std::sync`. Poison is deliberately ignored: a panicked holder
//! simply releases the lock, matching parking_lot semantics.
//!
//! # Lockdep witness (`--cfg taurus_lock_witness`)
//!
//! Built with `RUSTFLAGS="--cfg taurus_lock_witness"`, every lock carries
//! its construction-site class and the witness checks the workspace's lock
//! rules as they happen: lock order (the first inversion of a class pair,
//! with both acquisition chains), nothing taken under a
//! [`Mutex::new_leaf`] lock, no lock held across a fabric call
//! ([`assert_no_lock_held`], outside a [`held_across_calls`] scope), and
//! one mutex class per [`Condvar`]. A finding panics on the thread that
//! made it and is queued for [`witness_take_reports`]. See `witness.rs`
//! for the model. The cfg exists for tests and CI — without it every hook
//! compiles to nothing and the plain path is exactly as before.

#![expect(
    clippy::disallowed_types,
    reason = "this crate is the wrapper over `std::sync` that the rest of the workspace uses instead"
)]

use std::fmt;
use std::marker::PhantomData;
use std::sync::{self, TryLockError};
use std::time::Duration;

#[cfg(taurus_lock_witness)]
mod witness;
#[cfg(taurus_lock_witness)]
pub use witness::take_reports as witness_take_reports;

#[cfg(not(taurus_lock_witness))]
pub use sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// parking_lot-style mutex: `lock()` returns the guard directly.
pub struct Mutex<T: ?Sized> {
    #[cfg(taurus_lock_witness)]
    tag: witness::LockTag,
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    #[track_caller]
    pub const fn new(value: T) -> Self {
        Mutex {
            #[cfg(taurus_lock_witness)]
            tag: witness::LockTag::new(std::panic::Location::caller(), false),
            inner: sync::Mutex::new(value),
        }
    }

    /// A mutex under which nothing else is ever locked: the witness fires
    /// on any acquisition while one of this class is held. Without the
    /// witness this is [`Mutex::new`].
    #[track_caller]
    pub const fn new_leaf(value: T) -> Self {
        Mutex {
            #[cfg(taurus_lock_witness)]
            tag: witness::LockTag::new(std::panic::Location::caller(), true),
            inner: sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(taurus_lock_witness)]
        let class = {
            let class = self.tag.class();
            witness::acquired(class, true);
            class
        };
        let inner = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        #[cfg(taurus_lock_witness)]
        return MutexGuard { class, inner };
        #[cfg(not(taurus_lock_witness))]
        inner
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        #[cfg(taurus_lock_witness)]
        {
            let class = self.tag.class();
            witness::acquired(class, false);
            Some(MutexGuard { class, inner })
        }
        #[cfg(not(taurus_lock_witness))]
        Some(inner)
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    #[track_caller]
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

impl<T> From<T> for Mutex<T> {
    #[track_caller]
    fn from(value: T) -> Self {
        Mutex::new(value)
    }
}

/// parking_lot-style reader-writer lock.
pub struct RwLock<T: ?Sized> {
    #[cfg(taurus_lock_witness)]
    tag: witness::LockTag,
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    #[track_caller]
    pub const fn new(value: T) -> Self {
        RwLock {
            #[cfg(taurus_lock_witness)]
            tag: witness::LockTag::new(std::panic::Location::caller(), false),
            inner: sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(taurus_lock_witness)]
        let class = {
            let class = self.tag.class();
            witness::acquired(class, true);
            class
        };
        let inner = match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        #[cfg(taurus_lock_witness)]
        return RwLockReadGuard { class, inner };
        #[cfg(not(taurus_lock_witness))]
        inner
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(taurus_lock_witness)]
        let class = {
            let class = self.tag.class();
            witness::acquired(class, true);
            class
        };
        let inner = match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        #[cfg(taurus_lock_witness)]
        return RwLockWriteGuard { class, inner };
        #[cfg(not(taurus_lock_witness))]
        inner
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let inner = match self.inner.try_read() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        #[cfg(taurus_lock_witness)]
        {
            let class = self.tag.class();
            witness::acquired(class, false);
            Some(RwLockReadGuard { class, inner })
        }
        #[cfg(not(taurus_lock_witness))]
        Some(inner)
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let inner = match self.inner.try_write() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        #[cfg(taurus_lock_witness)]
        {
            let class = self.tag.class();
            witness::acquired(class, false);
            Some(RwLockWriteGuard { class, inner })
        }
        #[cfg(not(taurus_lock_witness))]
        Some(inner)
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    #[track_caller]
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            None => f.write_str("RwLock(<locked>)"),
        }
    }
}

impl<T> From<T> for RwLock<T> {
    #[track_caller]
    fn from(value: T) -> Self {
        RwLock::new(value)
    }
}

// ====================================================================
// Witness guard wrappers
// ====================================================================
//
// Under the witness cfg the guards are thin wrappers that pop the lock's
// class from the thread's held stack on drop. Workspace code only ever
// uses guards through Deref/DerefMut, so the wrappers are drop-in.

#[cfg(taurus_lock_witness)]
macro_rules! witness_guard {
    ($name:ident, $std:ident, $($mutability:ident)?) => {
        pub struct $name<'a, T: ?Sized> {
            class: witness::ClassId,
            inner: sync::$std<'a, T>,
        }

        impl<T: ?Sized> std::ops::Deref for $name<'_, T> {
            type Target = T;
            fn deref(&self) -> &T {
                &self.inner
            }
        }

        $(witness_guard!(@$mutability $name);)?

        impl<T: ?Sized> Drop for $name<'_, T> {
            fn drop(&mut self) {
                witness::released(self.class);
            }
        }

        impl<T: ?Sized + fmt::Debug> fmt::Debug for $name<'_, T> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.inner.fmt(f)
            }
        }
    };
    (@mutable $name:ident) => {
        impl<T: ?Sized> std::ops::DerefMut for $name<'_, T> {
            fn deref_mut(&mut self) -> &mut T {
                &mut self.inner
            }
        }
    };
}

#[cfg(taurus_lock_witness)]
witness_guard!(MutexGuard, MutexGuard, mutable);
#[cfg(taurus_lock_witness)]
witness_guard!(RwLockReadGuard, RwLockReadGuard,);
#[cfg(taurus_lock_witness)]
witness_guard!(RwLockWriteGuard, RwLockWriteGuard, mutable);

// ====================================================================
// Locks held across fabric calls
// ====================================================================

/// Called on entry to every fabric RPC. Under the witness it fires if the
/// calling thread holds any lock that no open [`held_across_calls`] scope
/// covers; without it, it does nothing.
#[inline]
pub fn assert_no_lock_held() {
    #[cfg(taurus_lock_witness)]
    witness::assert_no_lock_held();
}

/// Opens an audited exemption: until the returned guard drops, fabric calls
/// on this thread may hold the locks it holds *now*. A lock taken after the
/// guard still fires. `reason` is the proof that no handler on the far side
/// can reach the held locks; the witness refuses an empty one.
#[inline]
pub fn held_across_calls(reason: &'static str) -> HeldAcrossCalls {
    #[cfg(not(taurus_lock_witness))]
    let _ = reason;
    HeldAcrossCalls {
        #[cfg(taurus_lock_witness)]
        depth: witness::open_span(reason),
        _thread: PhantomData,
    }
}

/// Scope guard of [`held_across_calls`]; tied to the thread that opened it.
#[must_use = "the exemption ends when the guard drops"]
pub struct HeldAcrossCalls {
    #[cfg(taurus_lock_witness)]
    depth: usize,
    _thread: PhantomData<*const ()>,
}

#[cfg(taurus_lock_witness)]
impl Drop for HeldAcrossCalls {
    fn drop(&mut self) {
        witness::close_span(self.depth);
    }
}

/// parking_lot-style condvar paired with [`Mutex`].
#[derive(Default)]
pub struct Condvar {
    /// The class of the first mutex waited with, plus one (0: none yet).
    #[cfg(taurus_lock_witness)]
    mutex_class: std::sync::atomic::AtomicU32,
    inner: sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            #[cfg(taurus_lock_witness)]
            mutex_class: std::sync::atomic::AtomicU32::new(0),
            inner: sync::Condvar::new(),
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        // The wait window releases the mutex: the held stack must not list
        // it while the thread sleeps, and the wake-up reacquisition is an
        // ordering event like any other.
        #[cfg(taurus_lock_witness)]
        {
            witness::condvar_wait(&self.mutex_class, guard.class);
            witness::released(guard.class);
        }
        // Safety-free dance: std's condvar consumes and returns the guard,
        // parking_lot's mutates it in place. Temporarily move it out.
        take_guard(inner_guard(guard), |g| match self.inner.wait(g) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        });
        #[cfg(taurus_lock_witness)]
        witness::acquired(guard.class, true);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        #[cfg(taurus_lock_witness)]
        {
            witness::condvar_wait(&self.mutex_class, guard.class);
            witness::released(guard.class);
        }
        let mut timed_out = false;
        take_guard(inner_guard(guard), |g| {
            match self.inner.wait_timeout(g, timeout) {
                Ok((g, r)) => {
                    timed_out = r.timed_out();
                    g
                }
                Err(p) => {
                    let (g, r) = p.into_inner();
                    timed_out = r.timed_out();
                    g
                }
            }
        });
        #[cfg(taurus_lock_witness)]
        witness::acquired(guard.class, true);
        WaitTimeoutResult { timed_out }
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// Projects the shim guard onto the `std::sync` guard `take_guard` needs.
#[cfg(taurus_lock_witness)]
fn inner_guard<'g, 'a, T: ?Sized>(
    guard: &'g mut MutexGuard<'a, T>,
) -> &'g mut sync::MutexGuard<'a, T> {
    &mut guard.inner
}

#[cfg(not(taurus_lock_witness))]
fn inner_guard<'g, 'a, T: ?Sized>(
    guard: &'g mut MutexGuard<'a, T>,
) -> &'g mut sync::MutexGuard<'a, T> {
    guard
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

fn take_guard<'a, T>(
    slot: &mut sync::MutexGuard<'a, T>,
    f: impl FnOnce(sync::MutexGuard<'a, T>) -> sync::MutexGuard<'a, T>,
) {
    // Move the guard out of the slot, run `f`, and put the result back.
    // The `ManuallyDrop` + pointer dance avoids requiring `T: Default`.
    //
    // While `f` runs, the caller's slot holds a moved-out guard; if `f`
    // unwound (std's Condvar can panic, e.g. on a mutex mismatch), the
    // panic would drop the moved guard and the caller would later drop the
    // same bits again — a double mutex unlock. `AbortOnUnwind` is armed
    // across the call so that path aborts instead of corrupting the lock.
    use std::mem::ManuallyDrop;
    use std::ptr;

    struct AbortOnUnwind;
    impl Drop for AbortOnUnwind {
        fn drop(&mut self) {
            std::process::abort();
        }
    }

    unsafe {
        let guard = ptr::read(slot as *mut sync::MutexGuard<'a, T>);
        let bomb = AbortOnUnwind;
        let new = f(guard);
        std::mem::forget(bomb);
        let mut new = ManuallyDrop::new(new);
        ptr::copy_nonoverlapping(&mut *new as *mut sync::MutexGuard<'a, T>, slot, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn condvar_wakes() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock() = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            cv.wait(&mut done);
        }
        drop(done);
        h.join().unwrap();
    }
}
