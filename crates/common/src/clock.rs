//! Pluggable time.
//!
//! Failure drills (short-term vs long-term failures, gossip intervals, flush
//! timeouts) must be reproducible, so every component that consults time does
//! so through a [`Clock`]. Production-style runs use [`SystemClock`]; tests
//! use [`ManualClock`] and advance time explicitly.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

thread_local! {
    /// Set once by [`mark_background_thread`]; never cleared.
    static BACKGROUND: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as one no client is ever blocked on: a
/// dispatcher worker, a Page Store consolidation thread, the housekeeping
/// beat. From then on a short [`SystemClock::sleep_us`] on it still spins,
/// but yields its core to any runnable thread at every turn of the loop
/// instead of holding it. Call it once, first thing on the new thread.
pub fn mark_background_thread() {
    BACKGROUND.with(|b| b.set(true));
}

/// Spawns a background thread named `name` (so a profile or a schedstat
/// dump can tell its role) and marks it with [`mark_background_thread`]
/// before `body` runs. Panics if the OS cannot spawn it, as
/// `std::thread::spawn` does.
pub fn spawn_background(
    name: String,
    body: impl FnOnce() + Send + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            mark_background_thread();
            body()
        })
        .expect("spawn background thread")
}

/// A source of monotonic microsecond time plus the ability to wait.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Monotonic time in microseconds since an arbitrary epoch.
    fn now_us(&self) -> u64;

    /// Block the calling thread for `us` microseconds of this clock's time.
    /// On a [`ManualClock`] this advances virtual time instead of blocking.
    fn sleep_us(&self, us: u64);

    /// Block until this clock reads at least `deadline_us`; returns at once
    /// if that time has already passed. This is how a thread waits out an
    /// *absolute* point in model time (a message's arrival) rather than a
    /// duration: however long the thread was busy beforehand, the wait ends
    /// at the same instant.
    fn sleep_until(&self, deadline_us: u64) {
        let now = self.now_us();
        if deadline_us > now {
            self.sleep_us(deadline_us - now);
        }
    }
}

/// Shared handle to a clock.
pub type ClockRef = Arc<dyn Clock>;

/// Real wall-clock time.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    pub fn new() -> Self {
        SystemClock {
            // The one legitimate wall-clock read: the origin the pluggable
            // clock abstraction is built on.
            // taurus-lint: allow(direct-clock) -- SystemClock origin
            origin: Instant::now(),
        }
    }

    /// Convenience constructor returning a shared handle.
    pub fn shared() -> ClockRef {
        Arc::new(SystemClock::new())
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn sleep_us(&self, us: u64) {
        if us == 0 {
            return;
        }
        // Short waits spin: on coarse-timer kernels thread::sleep costs
        // ~1ms regardless of the requested duration, which would flatten
        // every simulated latency ratio (e.g. the 20µs-append vs
        // 70µs-random-write asymmetry the benchmarks rely on). A spin
        // holds its core, so a latency must be waited out by a thread
        // that is blocked on it anyway: the caller of an RPC waits its
        // hops and its handler's device time as one deadline (a fan-out's
        // submitting thread waits them for every leg at once). A thread no
        // client is blocked on (`mark_background_thread`) must not hold a
        // core a client could use — on a host with fewer cores than
        // threads that turns parallel waits into serial ones — so it
        // yields at every turn. It keeps spinning rather than sleeping:
        // the timer's slack on every drainer and consolidation wait
        // measured slower than the yield (EXPERIMENTS.md, "Background work
        // stops taxing commits").
        if us < 200 {
            let background = BACKGROUND.with(Cell::get);
            let deadline = self.origin.elapsed() + Duration::from_micros(us);
            while self.origin.elapsed() < deadline {
                if background {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        } else {
            std::thread::sleep(Duration::from_micros(us));
        }
    }
}

/// Virtual time under test control. `sleep_us` advances the clock itself, so
/// single-threaded deterministic tests can express timeouts without waiting;
/// multi-threaded tests advance time from the driver thread via `advance`.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn shared() -> Arc<ManualClock> {
        Arc::new(ManualClock::new())
    }

    /// Advance virtual time by `us` microseconds.
    pub fn advance(&self, us: u64) {
        self.now.fetch_add(us, Ordering::SeqCst);
    }

    /// Set virtual time to an absolute value (must not move backwards).
    pub fn set(&self, us: u64) {
        let prev = self.now.swap(us, Ordering::SeqCst);
        debug_assert!(prev <= us, "ManualClock moved backwards");
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }

    fn sleep_us(&self, us: u64) {
        self.advance(us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotone() {
        let c = SystemClock::new();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }

    #[test]
    fn system_clock_sleep_waits_at_least_requested() {
        let c = SystemClock::new();
        let start = c.now_us();
        c.sleep_us(200);
        assert!(c.now_us() - start >= 200);
    }

    #[test]
    fn system_clock_short_sleep_spins_accurately() {
        let c = SystemClock::new();
        let start = c.now_us();
        c.sleep_us(50);
        let elapsed = c.now_us() - start;
        assert!(elapsed >= 50);
    }

    /// Nanoseconds the calling thread has spent on a core, from the
    /// scheduler's own accounting (not sampled at the tick like `utime`).
    fn thread_cpu_ns() -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
            .expect("per-thread scheduler accounting");
        let ns = stat.split_whitespace().next().expect("schedstat run time");
        ns.parse().expect("schedstat run time is a number")
    }

    /// Runs 200 waits of 50 µs on a fresh thread while two busy threads per
    /// core contend for every core (so no core is ever the waiter's alone),
    /// and returns the waiter's share of the CPU time they all used
    /// meanwhile, with the fair share (one over the number of threads).
    fn waiter_share_of_contended_cpu(marked: bool) -> (f64, f64) {
        use std::sync::atomic::AtomicBool;
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let busy: Vec<_> = (0..2 * cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let before = thread_cpu_ns();
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                    thread_cpu_ns() - before
                })
            })
            .collect();
        let waits = std::thread::spawn(move || {
            if marked {
                mark_background_thread();
            }
            let c = SystemClock::new();
            let before = thread_cpu_ns();
            for _ in 0..200 {
                c.sleep_us(50);
            }
            thread_cpu_ns() - before
        });
        let waiter = waits.join().expect("waiting thread") as f64;
        stop.store(true, Ordering::Relaxed);
        let others: u64 = busy
            .into_iter()
            .map(|b| b.join().expect("busy thread"))
            .sum();
        (
            waiter / (waiter + others as f64),
            1.0 / (2 * cores + 1) as f64,
        )
    }

    #[test]
    fn a_marked_thread_gives_its_core_away_on_short_waits() {
        // A client-blocked wait spins: with every core contended it holds
        // on to about its fair share of the CPU. A background one yields at
        // every turn of its spin, so the busy threads get its core instead.
        let (unmarked, fair) = waiter_share_of_contended_cpu(false);
        let (marked, _) = waiter_share_of_contended_cpu(true);
        let bar = fair / 4.0;
        assert!(
            marked < bar,
            "a background waiter kept {marked:.3} of the CPU"
        );
        assert!(unmarked > bar, "a spinning waiter got only {unmarked:.3}");
    }

    #[test]
    fn sleep_until_waits_for_a_deadline_and_ignores_a_past_one() {
        let c = ManualClock::new();
        c.sleep_until(300);
        assert_eq!(c.now_us(), 300);
        c.sleep_until(100);
        assert_eq!(c.now_us(), 300);
        let s = SystemClock::new();
        let deadline = s.now_us() + 50;
        s.sleep_until(deadline);
        assert!(s.now_us() >= deadline);
    }

    #[test]
    fn manual_clock_is_fully_controlled() {
        let c = ManualClock::new();
        assert_eq!(c.now_us(), 0);
        c.advance(100);
        assert_eq!(c.now_us(), 100);
        c.sleep_us(50);
        assert_eq!(c.now_us(), 150);
        c.set(1000);
        assert_eq!(c.now_us(), 1000);
    }

    #[test]
    fn clock_trait_object_is_usable() {
        let clock: ClockRef = Arc::new(ManualClock::new());
        clock.sleep_us(42);
        assert_eq!(clock.now_us(), 42);
    }
}
