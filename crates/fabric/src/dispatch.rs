//! Bounded worker pool for the work that genuinely needs a thread:
//! [`crate::Fabric::fan_out`] jobs that make their own RPCs and
//! `spawn_detached` drainers. A fabric leg (`Fabric::call_all` /
//! `call_grouped`) never comes here — its handler runs on the submitting
//! thread at the leg's arrival, so a message in flight costs neither a core
//! nor a thread hand-off.
//!
//! * **Scoped batches without scoped threads.** A fan-out borrows caller
//!   state (`'env` closures), but pool workers are `'static`. A batch
//!   lives on the caller's stack; the queue holds type-erased *tickets*
//!   pointing at it. The caller returns only after every job has finished
//!   **and** every ticket has either been removed from the queue by the
//!   caller or consumed by the worker that popped it — so no worker can
//!   hold a dangling batch pointer.
//! * **Caller helps.** The submitting thread runs unclaimed jobs itself
//!   while it waits, so a batch completes even if the pool is saturated or
//!   sized to zero: deadlock- and starvation-free by construction (a worker
//!   whose job fans out again simply helps run the inner batch).
//! * **Order and panics.** Jobs are claimed in submission order, results
//!   return in input order, and a job panic is re-raised on the submitting
//!   thread after the rest of the batch drains.
//! * **Detached jobs** have no completion handle (the SAL write pipeline's
//!   per-node drainers) and must hold only weak references to fabric
//!   users, or shutdown would wait on them keeping the fabric alive.
//!
//! No lock is held while a job body runs, so the dispatcher adds no
//! edges to the canonical lock order beyond its own leaf classes
//! (`dispatch::queue`, `dispatch::{jobs,results,sync}`).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use taurus_common::clock::ClockRef;
use taurus_common::metrics::{Counter, Gauge};

/// Default pool size when the embedder never calls
/// [`crate::Fabric::set_workers`] (`TaurusConfig::fabric_workers` is the
/// config-driven override).
pub const DEFAULT_FABRIC_WORKERS: usize = 16;

// ====================================================================
// Type-erased batch handle
// ====================================================================

/// What a worker can do with a batch without knowing its item type.
trait BatchRun: Sync {
    /// Claims the next unstarted job and runs it to completion (panics
    /// are caught into the batch). Returns `false` once no unstarted
    /// jobs remain.
    fn claim_and_run(&self) -> bool;
    /// Records that one queue ticket referencing this batch is dead: the
    /// popping worker promises to never touch the pointer again. Must be
    /// the worker's final call on the batch.
    fn consume_ticket(&self);
}

/// A queued pointer to a caller-stack batch. The lifetime is erased; the
/// hand-over protocol in [`Dispatch::fan_out`] keeps it from dangling.
struct Ticket {
    batch: *const (dyn BatchRun + 'static),
}

// SAFETY: the pointee is `Sync` (required by `BatchRun`) and outlives the
// ticket per the fan-out hand-over protocol, so sending the pointer to a
// worker thread is sound.
unsafe impl Send for Ticket {}

enum Item {
    Ticket(Ticket),
    Detached(Box<dyn FnOnce() + Send + 'static>),
}

// ====================================================================
// Stats
// ====================================================================

/// Dispatcher gauges and counters, exported up through `SalStats` and the
/// bench stat dumps.
#[derive(Debug, Default)]
pub struct DispatchStats {
    /// Items currently sitting in the submission queue.
    pub queue_depth: Gauge,
    /// High-water mark of the submission queue.
    pub max_queue_depth: Gauge,
    /// Workers currently executing an item.
    pub busy_workers: Gauge,
    /// `fan_out` jobs executed on pool workers.
    pub pool_jobs: Counter,
    /// Work executed by the thread that submitted it: every fabric leg's
    /// handler (`Fabric::call_all` / `call_grouped`), plus the `fan_out`
    /// jobs the caller ran itself (caller-helps, single-job batches).
    pub inline_jobs: Counter,
    /// Detached jobs executed.
    pub detached_jobs: Counter,
    /// Tickets popped after their batch had no work left.
    pub stale_tickets: Counter,
    /// Microseconds workers spent executing items (fabric clock), summed
    /// over workers. `busy_workers` is a point sample that reads 0 whenever
    /// the pool has drained, which is when benches look; this integrates.
    /// `fan_out` and detached jobs only: no fabric leg — neither its hops
    /// nor its handler — ever runs on a worker.
    pub busy_us: Counter,
}

/// Point-in-time copy of [`DispatchStats`] plus the spawned-worker count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchSnapshot {
    pub workers: usize,
    pub queue_depth: u64,
    pub max_queue_depth: u64,
    pub busy_workers: u64,
    pub pool_jobs: u64,
    pub inline_jobs: u64,
    pub detached_jobs: u64,
    pub stale_tickets: u64,
    pub busy_us: u64,
}

impl DispatchSnapshot {
    /// Time-integrated busy fraction of the pool over the `wall_us` that
    /// passed since `earlier` was taken: worker-microseconds spent executing
    /// items over worker-microseconds available, in [0, 1].
    pub fn utilization_since(&self, earlier: &DispatchSnapshot, wall_us: u64) -> f64 {
        let capacity = self.workers as u64 * wall_us;
        if capacity == 0 {
            return 0.0;
        }
        let busy = self.busy_us.saturating_sub(earlier.busy_us);
        (busy as f64 / capacity as f64).min(1.0)
    }
}

impl std::fmt::Display for DispatchSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workers={} queue_depth={} max_queue_depth={} busy_workers={} pool_jobs={} \
             inline_jobs={} detached_jobs={} stale_tickets={} busy_us={}",
            self.workers,
            self.queue_depth,
            self.max_queue_depth,
            self.busy_workers,
            self.pool_jobs,
            self.inline_jobs,
            self.detached_jobs,
            self.stale_tickets,
            self.busy_us,
        )
    }
}

// ====================================================================
// Shared pool state and workers
// ====================================================================

struct Shared {
    queue: Mutex<VecDeque<Item>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    stats: DispatchStats,
    clock: ClockRef,
}

impl Shared {
    fn push(&self, items: impl IntoIterator<Item = Item>) {
        let mut q = self.queue.lock();
        let mut added = 0u64;
        for it in items {
            q.push_back(it);
            added += 1;
        }
        let depth = q.len() as u64;
        self.stats.queue_depth.set(depth);
        if depth > self.stats.max_queue_depth.get() {
            self.stats.max_queue_depth.set(depth);
        }
        // One worker per queued item: waking the whole pool for a batch of
        // two sends the rest straight back to sleep through the queue lock.
        for _ in 0..added {
            self.queue_cv.notify_one();
        }
    }

    /// Closes a worker's busy interval that began at `started`.
    fn account_busy(&self, started: u64) {
        self.stats
            .busy_us
            .add(self.clock.now_us().saturating_sub(started));
        self.stats.busy_workers.sub(1);
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let item = {
            let mut q = shared.queue.lock();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(it) = q.pop_front() {
                    shared.stats.queue_depth.set(q.len() as u64);
                    break it;
                }
                shared.queue_cv.wait(&mut q);
            }
        };
        shared.stats.busy_workers.add(1);
        let started = shared.clock.now_us();
        match item {
            Item::Ticket(t) => {
                // SAFETY: the batch outlives the ticket (fan-out hand-over
                // protocol); `consume_ticket` is our last touch.
                let batch = unsafe { &*t.batch };
                let mut ran = false;
                while batch.claim_and_run() {
                    ran = true;
                    shared.stats.pool_jobs.inc();
                }
                if !ran {
                    shared.stats.stale_tickets.inc();
                }
                // Account before the hand-back: once the ticket is consumed
                // the submitter may move on (and, on a manual clock, move
                // time), and that must not count as this worker's.
                shared.account_busy(started);
                batch.consume_ticket();
            }
            Item::Detached(f) => {
                shared.stats.detached_jobs.inc();
                // A detached job has no completion handle to re-raise on;
                // swallowing the panic (like a detached thread) keeps one
                // poisoned drainer from taking the whole pool down.
                let _ = catch_unwind(AssertUnwindSafe(f));
                shared.account_busy(started);
            }
        }
    }
}

// ====================================================================
// Dispatch: per-fabric pool handle
// ====================================================================

/// The per-`Fabric` worker pool. Owned by the fabric's shared inner state;
/// dropping it (last fabric handle gone) shuts the workers down.
pub(crate) struct Dispatch {
    shared: Arc<Shared>,
    target_workers: AtomicUsize,
    spawned: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Dispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatch")
            .field(
                "target_workers",
                &self.target_workers.load(Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

impl Dispatch {
    pub(crate) fn new(workers: usize, clock: ClockRef) -> Self {
        Dispatch {
            shared: Arc::new(Shared {
                queue: Mutex::new(VecDeque::new()),
                queue_cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
                stats: DispatchStats::default(),
                clock,
            }),
            target_workers: AtomicUsize::new(workers),
            spawned: Mutex::new(Vec::new()),
        }
    }

    /// Sets the pool size target. Workers spawn lazily up to the target;
    /// shrinking only applies to workers not yet spawned.
    pub(crate) fn set_workers(&self, n: usize) {
        self.target_workers.store(n, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> DispatchSnapshot {
        let s = &self.shared.stats;
        DispatchSnapshot {
            workers: self.spawned.lock().len(),
            queue_depth: s.queue_depth.get(),
            max_queue_depth: s.max_queue_depth.get(),
            busy_workers: s.busy_workers.get(),
            pool_jobs: s.pool_jobs.get(),
            inline_jobs: s.inline_jobs.get(),
            detached_jobs: s.detached_jobs.get(),
            stale_tickets: s.stale_tickets.get(),
            busy_us: s.busy_us.get(),
        }
    }

    fn ensure_workers(&self) {
        let target = self.target_workers.load(Ordering::Relaxed);
        let mut spawned = self.spawned.lock();
        while spawned.len() < target {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("taurus-fabric-{}", spawned.len()))
                .spawn(move || worker_loop(shared))
                .expect("spawn fabric worker");
            spawned.push(handle);
        }
    }

    /// Queues a `'static` closure with no completion handle. The closure
    /// must not own a `Fabric` handle (weak references only), or pool
    /// shutdown would never be reached while it sits queued.
    pub(crate) fn spawn_detached(&self, f: Box<dyn FnOnce() + Send + 'static>) {
        self.ensure_workers();
        self.shared.push([Item::Detached(f)]);
    }

    /// Counts `n` jobs or fabric-leg handlers run by the thread that
    /// submitted them.
    pub(crate) fn note_inline(&self, n: usize) {
        self.shared.stats.inline_jobs.add(n as u64);
    }

    /// Runs `jobs` to completion — on pool workers where available, on the
    /// calling thread otherwise — and returns their results in input
    /// order. A job panic is re-raised here after the batch drains.
    pub(crate) fn fan_out<'env, T: Send + 'env>(
        &self,
        mut jobs: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Vec<T> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            // Single job: run inline, skip the queue entirely so pool
            // sizing never affects a one-job batch.
            self.note_inline(1);
            return vec![jobs.remove(0)()];
        }
        self.ensure_workers();
        let batch = FanBatch::new(jobs);
        // Erase the batch lifetime for the queue. Soundness rests on the
        // wait below: we do not return (and thus drop `batch`) until every
        // job is done and every ticket is accounted for.
        let ptr: *const (dyn BatchRun + 'static) = {
            let p: *const dyn BatchRun = &batch;
            // SAFETY: fat-pointer lifetime erasure only; layout unchanged.
            unsafe { std::mem::transmute(p) }
        };
        // One ticket per job the pool could take; the caller runs at least
        // one job itself, so `n - 1` tickets suffice.
        let posted = n - 1;
        self.shared
            .push((0..posted).map(|_| Item::Ticket(Ticket { batch: ptr })));
        // Help: drain unclaimed jobs on this thread.
        let mut helped = 0;
        while batch.claim_and_run() {
            helped += 1;
        }
        self.note_inline(helped);
        // All jobs are claimed now; any ticket still queued is stale and
        // can be unhooked directly instead of waiting for a worker.
        let removed = {
            let mut q = self.shared.queue.lock();
            let before = q.len();
            q.retain(|it| match it {
                Item::Ticket(t) => !std::ptr::addr_eq(t.batch, ptr),
                Item::Detached(_) => true,
            });
            self.shared.stats.queue_depth.set(q.len() as u64);
            before - q.len()
        };
        batch.wait(posted - removed);
        if let Some(p) = batch.take_panic() {
            resume_unwind(p);
        }
        batch.into_results()
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

// ====================================================================
// FanBatch: one in-flight fan-out
// ====================================================================

struct Progress {
    done: usize,
    consumed: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// A not-yet-claimed fan-out job: its result slot index plus the closure.
type PendingJob<'env, T> = (usize, Box<dyn FnOnce() -> T + Send + 'env>);

/// The caller-stack state of one fan-out: unclaimed jobs, result slots,
/// and completion/consumption progress.
struct FanBatch<'env, T: Send> {
    total: usize,
    jobs: Mutex<VecDeque<PendingJob<'env, T>>>,
    results: Mutex<Vec<Option<T>>>,
    sync: Mutex<Progress>,
    cv: Condvar,
}

impl<'env, T: Send> FanBatch<'env, T> {
    /// A batch of `jobs`, claimable in input order.
    fn new(jobs: Vec<Box<dyn FnOnce() -> T + Send + 'env>>) -> Self {
        let total = jobs.len();
        FanBatch {
            total,
            jobs: Mutex::new(jobs.into_iter().enumerate().collect()),
            results: Mutex::new((0..total).map(|_| None).collect()),
            sync: Mutex::new(Progress {
                done: 0,
                consumed: 0,
                panic: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until all jobs are done and `expected_consumed` tickets have
    /// been consumed by workers.
    fn wait(&self, expected_consumed: usize) {
        let mut p = self.sync.lock();
        while p.done < self.total || p.consumed < expected_consumed {
            self.cv.wait(&mut p);
        }
    }

    /// First panic wins; it is re-raised on the caller.
    fn record_panic(&self, p: Box<dyn std::any::Any + Send>) {
        self.sync.lock().panic.get_or_insert(p);
    }

    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.sync.lock().panic.take()
    }

    fn into_results(self) -> Vec<T> {
        self.results
            .into_inner()
            .into_iter()
            .map(|r| r.expect("fan-out job completed without a result or a panic"))
            .collect()
    }
}

impl<'env, T: Send> BatchRun for FanBatch<'env, T> {
    fn claim_and_run(&self) -> bool {
        let Some((idx, job)) = self.jobs.lock().pop_front() else {
            return false;
        };
        let out = catch_unwind(AssertUnwindSafe(job));
        match out {
            Ok(v) => self.results.lock()[idx] = Some(v),
            Err(p) => self.record_panic(p),
        }
        let mut p = self.sync.lock();
        p.done += 1;
        self.cv.notify_all();
        true
    }

    fn consume_ticket(&self) {
        let mut p = self.sync.lock();
        p.consumed += 1;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use taurus_common::clock::SystemClock;

    fn pool(workers: usize) -> Dispatch {
        Dispatch::new(workers, SystemClock::shared())
    }

    fn boxed<T: Send>(f: impl FnOnce() -> T + Send + 'static) -> Box<dyn FnOnce() -> T + Send> {
        Box::new(f)
    }

    #[test]
    fn fan_out_returns_results_in_input_order() {
        let d = pool(4);
        let jobs: Vec<_> = (0..32u64).map(|i| boxed(move || i * 3)).collect();
        let out = d.fan_out(jobs);
        assert_eq!(out, (0..32u64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn fan_out_completes_with_zero_workers() {
        // Caller-helps makes the pool optional: everything runs inline.
        let d = pool(0);
        let out = d.fan_out((0..8u64).map(|i| boxed(move || i)).collect());
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        let snap = d.snapshot();
        assert_eq!(snap.inline_jobs, 8);
        assert_eq!(snap.pool_jobs, 0);
    }

    #[test]
    fn fan_out_borrows_caller_state() {
        let d = pool(2);
        let acc = AtomicU64::new(0);
        let acc_ref = &acc;
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16u64)
            .map(|i| {
                Box::new(move || {
                    acc_ref.fetch_add(i + 1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        d.fan_out(jobs);
        assert_eq!(acc.load(Ordering::Relaxed), (1..=16).sum::<u64>());
    }

    #[test]
    fn fan_out_propagates_the_first_panic_after_draining() {
        let d = pool(2);
        let done = Arc::new(AtomicU64::new(0));
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..6)
            .map(|i| {
                let done = Arc::clone(&done);
                Box::new(move || {
                    if i == 3 {
                        panic!("job 3 exploded");
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| d.fan_out(jobs)))
            .expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str panic");
        assert!(msg.contains("exploded"), "unexpected panic payload: {msg}");
        // Every non-panicking job still ran before the re-raise.
        assert_eq!(done.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn nested_fan_out_does_not_deadlock_a_saturated_pool() {
        // One worker, and every outer job fans out again: only the
        // caller-helps discipline keeps this from deadlocking.
        let d = Arc::new(pool(1));
        let outer: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = (0..4u64)
            .map(|i| {
                let d = Arc::clone(&d);
                Box::new(move || {
                    d.fan_out((0..4u64).map(|j| boxed(move || i * 10 + j)).collect())
                        .into_iter()
                        .sum::<u64>()
                }) as Box<dyn FnOnce() -> u64 + Send + '_>
            })
            .collect();
        let sums = d.fan_out(outer);
        assert_eq!(sums, vec![6, 46, 86, 126]);
    }

    #[test]
    fn concurrent_batches_from_many_threads_all_complete() {
        let d = Arc::new(pool(2));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let d = Arc::clone(&d);
                s.spawn(move || {
                    for round in 0..10u64 {
                        let base = t * 1000 + round;
                        let out = d.fan_out((0..5u64).map(|i| boxed(move || base + i)).collect());
                        assert_eq!(out, (0..5u64).map(|i| base + i).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn slow_job_does_not_head_of_line_block_its_batch() {
        // One slow node in a grouped fan-out must not serialize the rest
        // of the batch behind it: with 2 workers + the helping caller,
        // every fast job finishes while the slow job is still sleeping.
        let d = pool(2);
        let t0 = std::time::Instant::now();
        let mut jobs: Vec<Box<dyn FnOnce() -> (usize, std::time::Duration) + Send>> =
            vec![Box::new(move || {
                std::thread::sleep(std::time::Duration::from_millis(250));
                (0, t0.elapsed())
            })];
        for i in 1..8usize {
            jobs.push(boxed(move || (i, t0.elapsed())));
        }
        let done = d.fan_out(jobs);
        let slow_at = done[0].1;
        for (i, at) in &done[1..] {
            assert!(
                *at < slow_at,
                "fast job {i} ({at:?}) waited behind the slow job ({slow_at:?})"
            );
        }
        // The batch cost one slow-job latency, not eight.
        assert!(slow_at < std::time::Duration::from_millis(2000));
    }

    #[test]
    fn small_batch_is_not_starved_by_a_saturating_batch() {
        // Thread A saturates the pool with long jobs; thread B's small
        // batch must still complete promptly because B's own thread
        // helps drain B's batch — saturation degrades to inline
        // execution, never to starvation.
        let d = Arc::new(pool(2));
        let hold = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            {
                let d = Arc::clone(&d);
                let hold = Arc::clone(&hold);
                s.spawn(move || {
                    let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..2)
                        .map(|_| {
                            let hold = Arc::clone(&hold);
                            Box::new(move || {
                                hold.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(std::time::Duration::from_millis(400));
                            }) as Box<dyn FnOnce() + Send>
                        })
                        .collect();
                    d.fan_out(jobs);
                });
            }
            // Wait until both workers are pinned by the long batch.
            while hold.load(Ordering::Relaxed) < 2 {
                std::thread::yield_now();
            }
            let t0 = std::time::Instant::now();
            let out = d.fan_out((0..16u64).map(|i| boxed(move || i)).collect());
            assert_eq!(out, (0..16).collect::<Vec<_>>());
            assert!(
                t0.elapsed() < std::time::Duration::from_millis(300),
                "small batch starved behind the saturating batch: {:?}",
                t0.elapsed()
            );
        });
    }

    #[test]
    fn busy_time_is_integrated_not_sampled() {
        // After the pool drains `busy_workers` reads 0; `busy_us` keeps the
        // time the worker actually spent executing.
        let d = pool(1);
        let before = d.snapshot();
        d.spawn_detached(Box::new(|| {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while d.snapshot().busy_us < 20_000 {
            assert!(
                std::time::Instant::now() < deadline,
                "busy time never accounted"
            );
            std::thread::yield_now();
        }
        let after = d.snapshot();
        let u = after.utilization_since(&before, 40_000);
        assert!((0.5..=1.0).contains(&u), "utilization {u}");
        assert_eq!(after.utilization_since(&before, 0), 0.0);
    }

    #[test]
    fn detached_jobs_run_and_panics_are_contained() {
        let d = pool(1);
        let hit = Arc::new(AtomicU64::new(0));
        d.spawn_detached(Box::new(|| panic!("detached panic must not kill the pool")));
        let h = Arc::clone(&hit);
        d.spawn_detached(Box::new(move || {
            h.fetch_add(1, Ordering::Relaxed);
        }));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while hit.load(Ordering::Relaxed) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "detached job never ran"
            );
            std::thread::yield_now();
        }
        assert!(d.snapshot().detached_jobs >= 2);
    }
}
