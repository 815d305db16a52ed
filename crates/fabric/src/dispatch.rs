//! Bounded worker pool for the one kind of work that genuinely needs a
//! thread of its own: detached `'static` jobs ([`crate::Fabric::spawn_detached`]
//! — the SAL write pipeline's per-node drainers).
//! Nothing anyone waits on comes here: a fabric leg (`Fabric::call_all` /
//! `call_grouped`) runs its handler on the submitting thread at the leg's
//! arrival, and the read planner finishes every slice in rounds of such
//! envelopes, so a message in flight costs neither a core nor a hand-off.
//!
//! * **Sized by demand, bounded by construction.** A worker is spawned when
//!   a job is queued and no worker is idle, up to [`MAX_DISPATCH_WORKERS`].
//!   What queues here is bounded by its submitters — at most one drainer
//!   per Page Store node per SAL — so the cap is a backstop, not a tuning
//!   knob.
//! * **Detached jobs** have no completion handle and must hold only weak
//!   references to fabric users, or shutdown would wait on them keeping the
//!   fabric alive. A panic is contained to its job.
//!
//! No lock is held while a job body runs, so the dispatcher adds no edges
//! to the canonical lock order beyond its own leaf classes
//! (`dispatch::{queue, spawned}`, never nested).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use taurus_common::clock::ClockRef;
use taurus_common::metrics::{Counter, Gauge};

/// The most OS threads one fabric's pool ever holds.
pub const MAX_DISPATCH_WORKERS: usize = 16;

type Job = Box<dyn FnOnce() + Send + 'static>;

taurus_common::counters! {
    /// Dispatcher gauges and counters, exported up through `Sal::dispatch_stats`
    /// and the bench stat dumps.
    pub struct DispatchStats => DispatchSnapshot {
        /// Worker threads spawned so far (they live as long as the fabric).
        pub workers: Gauge,
        /// Jobs currently sitting in the submission queue.
        pub queue_depth: Gauge,
        /// High-water mark of the submission queue.
        pub max_queue_depth: Gauge,
        /// Workers currently executing a job.
        pub busy_workers: Gauge,
        /// Jobs pool workers ran: every detached job, and nothing else.
        pub pool_jobs: Counter,
        /// Fabric-leg handlers (`Fabric::call_all` / `call_grouped`) run by
        /// the thread that submitted them. A single `Fabric::call` is not
        /// counted.
        pub inline_jobs: Counter,
        /// Microseconds workers spent executing jobs (fabric clock), summed
        /// over workers. `busy_workers` is a point sample that reads 0
        /// whenever the pool has drained, which is when benches look; this
        /// integrates.
        pub busy_us: Counter,
    }
}

impl DispatchSnapshot {
    /// Time-integrated busy fraction of the pool over the `wall_us` that
    /// passed since `earlier` was taken: worker-microseconds spent executing
    /// jobs over worker-microseconds available, in [0, 1].
    pub fn utilization_since(&self, earlier: &DispatchSnapshot, wall_us: u64) -> f64 {
        let capacity = self.workers * wall_us;
        if capacity == 0 {
            return 0.0;
        }
        let busy = self.busy_us.saturating_sub(earlier.busy_us);
        (busy as f64 / capacity as f64).min(1.0)
    }
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Workers parked on `queue_cv` (one that was notified and has not run
    /// yet still counts: the job it was woken for is still in `jobs`).
    idle: usize,
}

struct Shared {
    queue: Mutex<Queue>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    stats: DispatchStats,
    clock: ClockRef,
}

fn worker_loop(shared: Arc<Shared>) {
    // Nobody is blocked on a detached job: its waits must not spin.
    taurus_common::clock::mark_background_thread();
    loop {
        let job = {
            let mut q = shared.queue.lock();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(job) = q.jobs.pop_front() {
                    shared.stats.queue_depth.set(q.jobs.len() as u64);
                    break job;
                }
                q.idle += 1;
                shared.queue_cv.wait(&mut q);
                q.idle -= 1;
            }
        };
        shared.stats.busy_workers.add(1);
        shared.stats.pool_jobs.inc();
        let started = shared.clock.now_us();
        // A detached job has no completion handle to re-raise on; swallowing
        // the panic (like a detached thread) keeps one poisoned drainer from
        // taking the whole pool down.
        let _ = catch_unwind(AssertUnwindSafe(job));
        let spent = shared.clock.now_us().saturating_sub(started);
        shared.stats.busy_us.add(spent);
        shared.stats.busy_workers.sub(1);
    }
}

/// The per-`Fabric` worker pool. Owned by the fabric's shared inner state;
/// dropping it (last fabric handle gone) shuts the workers down.
pub(crate) struct Dispatch {
    shared: Arc<Shared>,
    spawned: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Dispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatch").finish_non_exhaustive()
    }
}

impl Dispatch {
    pub(crate) fn new(clock: ClockRef) -> Self {
        Dispatch {
            shared: Arc::new(Shared {
                queue: Mutex::default(),
                queue_cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
                stats: DispatchStats::default(),
                clock,
            }),
            spawned: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn snapshot(&self) -> DispatchSnapshot {
        self.shared.stats.snapshot()
    }

    /// Queues a `'static` closure with no completion handle. The closure
    /// must not own a `Fabric` handle (weak references only), or pool
    /// shutdown would never be reached while it sits queued.
    pub(crate) fn spawn_detached(&self, f: Job) {
        let stats = &self.shared.stats;
        let starved = {
            let mut q = self.shared.queue.lock();
            q.jobs.push_back(f);
            let depth = q.jobs.len() as u64;
            stats.queue_depth.set(depth);
            stats
                .max_queue_depth
                .set(depth.max(stats.max_queue_depth.get()));
            q.jobs.len() > q.idle
        };
        self.shared.queue_cv.notify_one();
        if starved {
            let mut spawned = self.spawned.lock();
            if spawned.len() < MAX_DISPATCH_WORKERS {
                let shared = Arc::clone(&self.shared);
                let handle = std::thread::Builder::new()
                    .name(format!("taurus-fabric-{}", spawned.len()))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn fabric worker");
                spawned.push(handle);
                stats.workers.set(spawned.len() as u64);
            }
        }
    }

    /// Counts `n` fabric-leg handlers run by the thread that submitted them.
    pub(crate) fn note_inline(&self, n: usize) {
        self.shared.stats.inline_jobs.add(n as u64);
    }
}

impl Drop for Dispatch {
    fn drop(&mut self) {
        // Raise the flag under the queue lock: an idle worker checks it and
        // parks under that lock, so an unlocked store + notify can fall
        // between check and wait — a lost wake-up that hangs the join below.
        {
            let _queue = self.shared.queue.lock();
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.queue_cv.notify_all();
        // A detached job can own the last strong handle to the structure
        // that owns this pool (e.g. a SAL drain job whose `Weak` upgrade
        // kept the deployment alive): the drop then runs ON a pool worker.
        // That worker must not join itself — it is detached instead and
        // exits on its own via the shutdown flag.
        let me = std::thread::current().id();
        for h in self.spawned.lock().drain(..) {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};
    use taurus_common::clock::SystemClock;

    fn pool() -> Dispatch {
        Dispatch::new(SystemClock::shared())
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "real worker threads: a wall-clock deadline"
    )]
    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn workers_spawn_on_demand_and_never_past_the_cap() {
        let d = pool();
        assert_eq!(d.snapshot().workers, 0, "an unused pool owns no thread");
        // One job at a time: the worker that ran the last one is parked again
        // by the next submission, so no second thread appears.
        for done in 1..=4u64 {
            d.spawn_detached(Box::new(|| {}));
            wait_for("job never ran", || d.snapshot().pool_jobs == done);
            wait_for("worker never parked", || d.shared.queue.lock().idle == 1);
        }
        assert_eq!(d.snapshot().workers, 1);
        // Far more blocked jobs than the cap: the rest wait in the queue.
        let gate = Arc::new(AtomicBool::new(false));
        for _ in 0..MAX_DISPATCH_WORKERS * 2 {
            let gate = Arc::clone(&gate);
            d.spawn_detached(Box::new(move || {
                while !gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }));
        }
        let snap = d.snapshot();
        assert_eq!(snap.workers, MAX_DISPATCH_WORKERS as u64);
        assert!(snap.max_queue_depth >= MAX_DISPATCH_WORKERS as u64);
        gate.store(true, Ordering::Release);
        let all = 4 + 2 * MAX_DISPATCH_WORKERS as u64;
        wait_for("queued jobs never drained", || {
            d.snapshot().pool_jobs == all
        });
        assert_eq!(d.snapshot().workers, MAX_DISPATCH_WORKERS as u64);
    }

    #[test]
    fn busy_time_is_integrated_not_sampled() {
        // After the pool drains `busy_workers` reads 0; `busy_us` keeps the
        // time the worker actually spent executing.
        let d = pool();
        let before = d.snapshot();
        d.spawn_detached(Box::new(|| {
            #[expect(
                clippy::disallowed_methods,
                reason = "a job that is busy for 20 ms of real time, which the pool must account"
            )]
            std::thread::sleep(Duration::from_millis(20));
        }));
        wait_for("busy time never accounted", || {
            d.snapshot().busy_us >= 20_000
        });
        let after = d.snapshot();
        let u = after.utilization_since(&before, 40_000);
        assert!((0.5..=1.0).contains(&u), "utilization {u}");
        assert_eq!(after.utilization_since(&before, 0), 0.0);
    }

    #[test]
    fn detached_jobs_run_and_panics_are_contained() {
        let d = pool();
        let hit = Arc::new(AtomicU64::new(0));
        d.spawn_detached(Box::new(|| panic!("detached panic must not kill the pool")));
        let h = Arc::clone(&hit);
        d.spawn_detached(Box::new(move || {
            h.fetch_add(1, Ordering::Relaxed);
        }));
        wait_for("detached job never ran", || {
            hit.load(Ordering::Relaxed) == 1
        });
        assert!(d.snapshot().pool_jobs >= 2);
    }
}
