//! Multi-connection benchmark driver.
//!
//! Plays a [`Workload`] against any [`Executor`] (Taurus, a baseline, …)
//! from `connections` *logical* client connections for a fixed number of
//! transactions per connection, reporting throughput and latency.
//!
//! Connections are state machines, not threads: a bounded pool of
//! [`DriverOptions::workers`] OS threads multiplexes all of them through a
//! ready queue ordered by each connection's next fire time. 1024
//! connections therefore cost 1024 small structs plus a fixed thread pool
//! — not 1024 stacks — which is what lets the `conn_scale` bench sweep
//! four-digit connection counts inside a bounded thread budget.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::SeedableRng;

use taurus_common::clock::{ClockRef, SystemClock};
use taurus_common::metrics::LatencyRecorder;
use taurus_common::Result;

use crate::{TxnSpec, Workload};

/// Anything that can execute transactions: the Taurus master, a baseline
/// engine, or a read replica (read-only transactions).
pub trait Executor: Send + Sync {
    /// Executes one transaction atomically. Implementations retry internal
    /// write-write conflicts a bounded number of times before surfacing the
    /// error.
    fn execute(&self, txn: &TxnSpec) -> Result<()>;

    /// Loads the initial dataset (bulk path; need not be transactional).
    fn load(&self, data: &[(Vec<u8>, Vec<u8>)]) -> Result<()>;
}

/// Knobs for how logical connections are scheduled onto OS threads.
#[derive(Clone, Copy, Debug)]
pub struct DriverOptions {
    /// OS threads the logical connections are multiplexed onto;
    /// connections beyond this count share threads instead of spawning
    /// their own.
    pub workers: usize,
    /// Closed-loop think time between one connection's transactions (µs).
    /// Non-zero think time needs a real-time clock: the scheduler sleeps
    /// until the next connection's fire time.
    pub think_us: u64,
    /// Spread the connections' first transactions evenly across one think
    /// interval so a large sweep does not fire as a single thundering herd.
    /// No effect when `think_us` is zero.
    pub stagger_start: bool,
}

impl Default for DriverOptions {
    fn default() -> Self {
        DriverOptions {
            workers: 48,
            think_us: 0,
            stagger_start: false,
        }
    }
}

/// Outcome of one driver run.
#[derive(Clone, Debug)]
pub struct DriverReport {
    pub workload: String,
    pub connections: usize,
    /// OS threads the connections were multiplexed onto.
    pub workers: usize,
    pub transactions: u64,
    pub aborts: u64,
    pub wall_secs: f64,
    /// Committed transactions per second.
    pub tps: f64,
    /// Individual operations (reads+writes) per second.
    pub ops_per_sec: f64,
    pub mean_latency_us: f64,
    pub p50_latency_us: u64,
    pub p95_latency_us: u64,
    pub p99_latency_us: u64,
}

impl DriverReport {
    /// One aligned text row for harness output.
    pub fn row(&self) -> String {
        format!(
            "{:<24} conns={:<4} txns={:<8} tps={:<10.0} ops/s={:<10.0} lat(mean/p50/p95/p99 µs)={:.0}/{}/{}/{} aborts={}",
            self.workload,
            self.connections,
            self.transactions,
            self.tps,
            self.ops_per_sec,
            self.mean_latency_us,
            self.p50_latency_us,
            self.p95_latency_us,
            self.p99_latency_us,
            self.aborts
        )
    }
}

/// One logical connection between transactions: everything a worker needs
/// to run its next transaction lives in the heap entry — connections move
/// *through* the ready queue, there is no separate per-connection storage.
struct ConnState {
    /// When this connection's next transaction is due. Latency is measured
    /// from here, so time spent waiting for a free worker counts.
    ready_at_us: u64,
    /// FIFO tiebreaker among equally-ready connections.
    seq: u64,
    /// Per-connection op stream (seeded exactly as the thread-per-conn
    /// driver seeded it, so workloads replay identically).
    rng: StdRng,
    remaining: u64,
}

impl PartialEq for ConnState {
    fn eq(&self, other: &Self) -> bool {
        self.ready_at_us == other.ready_at_us && self.seq == other.seq
    }
}
impl Eq for ConnState {}
impl PartialOrd for ConnState {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for ConnState {
    /// Reversed: `BinaryHeap` is a max-heap, the scheduler wants the
    /// earliest-ready connection on top.
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other
            .ready_at_us
            .cmp(&self.ready_at_us)
            .then(other.seq.cmp(&self.seq))
    }
}

/// The ready queue plus the count of connections still alive (idle in the
/// heap *or* currently running on a worker).
struct Sched {
    heap: BinaryHeap<ConnState>,
    active: usize,
}

/// Runs `txns_per_conn` transactions on each of `connections` logical
/// connections, multiplexed onto the default bounded worker pool, timing
/// against the real clock.
pub fn run_workload(
    executor: &dyn Executor,
    workload: &dyn Workload,
    connections: usize,
    txns_per_conn: u64,
    seed: u64,
) -> DriverReport {
    run_workload_with_clock(
        executor,
        workload,
        connections,
        txns_per_conn,
        seed,
        SystemClock::shared(),
    )
}

/// Same as [`run_workload`] but timing against a caller-supplied [`ClockRef`],
/// so deterministic harnesses can drive the benchmark machinery on virtual
/// time. All timestamps in the report come from this clock.
pub fn run_workload_with_clock(
    executor: &dyn Executor,
    workload: &dyn Workload,
    connections: usize,
    txns_per_conn: u64,
    seed: u64,
    clock: ClockRef,
) -> DriverReport {
    run_workload_opts(
        executor,
        workload,
        connections,
        txns_per_conn,
        seed,
        clock,
        DriverOptions::default(),
    )
}

/// The full-control entry point: logical connections, worker pool size,
/// think time, and staggered start (the `conn_scale` bench rides this).
pub fn run_workload_opts(
    executor: &dyn Executor,
    workload: &dyn Workload,
    connections: usize,
    txns_per_conn: u64,
    seed: u64,
    clock: ClockRef,
    opts: DriverOptions,
) -> DriverReport {
    let latency = LatencyRecorder::bounded(65_536);
    let committed = AtomicU64::new(0);
    let ops = AtomicU64::new(0);
    let aborts = AtomicU64::new(0);
    let next_seq = AtomicU64::new(connections as u64);
    let start_us = clock.now_us();
    let workers = opts.workers.max(1).min(connections.max(1));
    let sched = Mutex::new(Sched {
        heap: (0..connections)
            .filter(|_| txns_per_conn > 0)
            .map(|conn| ConnState {
                // Stagger: spread first fire times across one think
                // interval so conns=1024 does not open with a herd.
                ready_at_us: if opts.stagger_start && opts.think_us > 0 && connections > 0 {
                    start_us + (conn as u64 * opts.think_us) / connections as u64
                } else {
                    start_us
                },
                seq: conn as u64,
                rng: StdRng::seed_from_u64(seed ^ (conn as u64).wrapping_mul(0x9e37_79b9)),
                remaining: txns_per_conn,
            })
            .collect(),
        active: if txns_per_conn > 0 { connections } else { 0 },
    });
    let ready_cv = Condvar::new();
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let latency = &latency;
            let committed = &committed;
            let ops = &ops;
            let aborts = &aborts;
            let next_seq = &next_seq;
            let clock = &clock;
            let sched = &sched;
            let ready_cv = &ready_cv;
            let spawned = std::thread::Builder::new()
                .name(format!("taurus-client-{worker}"))
                .spawn_scoped(scope, move || loop {
                    // Claim the earliest-ready connection, sleeping until its
                    // fire time; exit once every connection has finished.
                    let mut conn = {
                        let mut s = sched.lock();
                        loop {
                            if s.active == 0 {
                                return;
                            }
                            match s.heap.peek() {
                                None => ready_cv.wait(&mut s),
                                Some(top) => {
                                    let now = clock.now_us();
                                    if top.ready_at_us <= now {
                                        break;
                                    }
                                    let wait = top.ready_at_us - now;
                                    ready_cv.wait_for(&mut s, Duration::from_micros(wait));
                                }
                            }
                        }
                        match s.heap.pop() {
                            Some(c) => c,
                            None => continue,
                        }
                    };
                    let txn = workload.next_txn(&mut conn.rng);
                    match executor.execute(&txn) {
                        Ok(()) => {
                            // From fire time, not dispatch time: waiting for a
                            // free worker is part of what the client sees.
                            latency.record(clock.now_us().saturating_sub(conn.ready_at_us));
                            committed.fetch_add(1, Ordering::Relaxed);
                            ops.fetch_add(txn.ops.len() as u64, Ordering::Relaxed);
                        }
                        Err(_) => {
                            aborts.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    conn.remaining -= 1;
                    let mut s = sched.lock();
                    if conn.remaining == 0 {
                        s.active -= 1;
                        if s.active == 0 {
                            ready_cv.notify_all();
                        }
                    } else {
                        conn.ready_at_us = clock.now_us() + opts.think_us;
                        conn.seq = next_seq.fetch_add(1, Ordering::Relaxed);
                        s.heap.push(conn);
                        ready_cv.notify_one();
                    }
                });
            spawned.expect("spawn workload worker");
        }
    });
    let wall = (clock.now_us().saturating_sub(start_us) as f64 / 1e6).max(1e-9);
    let committed = committed.load(Ordering::Relaxed);
    let summary = latency.summary();
    DriverReport {
        workload: workload.name().to_string(),
        connections,
        workers,
        transactions: committed,
        aborts: aborts.load(Ordering::Relaxed),
        wall_secs: wall,
        tps: committed as f64 / wall,
        ops_per_sec: ops.load(Ordering::Relaxed) as f64 / wall,
        mean_latency_us: summary.map(|s| s.mean_us).unwrap_or(0.0),
        p50_latency_us: summary.map(|s| s.p50_us).unwrap_or(0),
        p95_latency_us: summary.map(|s| s.p95_us).unwrap_or(0),
        p99_latency_us: summary.map(|s| s.p99_us).unwrap_or(0),
    }
}

/// Loads a workload's initial dataset in chunks.
pub fn load_initial(executor: &dyn Executor, workload: &dyn Workload) -> Result<()> {
    let data = workload.initial_data();
    for chunk in data.chunks(256) {
        executor.load(chunk)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sysbench::{SysbenchMode, SysbenchWorkload};
    use crate::Op;
    use parking_lot::Mutex;
    use std::collections::BTreeMap;

    /// Trivial in-memory executor for driver-machinery tests.
    #[derive(Default)]
    struct MemExec {
        map: Mutex<BTreeMap<Vec<u8>, Vec<u8>>>,
        fail_every: Option<u64>,
        calls: AtomicU64,
    }

    impl Executor for MemExec {
        fn execute(&self, txn: &TxnSpec) -> Result<()> {
            let n = self.calls.fetch_add(1, Ordering::Relaxed);
            if let Some(k) = self.fail_every {
                if n % k == k - 1 {
                    return Err(taurus_common::TaurusError::KeyNotFound);
                }
            }
            let mut map = self.map.lock();
            for op in &txn.ops {
                match op {
                    Op::Get(k) => {
                        let _ = map.get(k);
                    }
                    Op::Put(k, v) => {
                        map.insert(k.clone(), v.clone());
                    }
                    Op::Delete(k) => {
                        map.remove(k);
                    }
                    Op::Scan(k, n) => {
                        let _ = map.range(k.clone()..).take(*n).count();
                    }
                }
            }
            Ok(())
        }

        fn load(&self, data: &[(Vec<u8>, Vec<u8>)]) -> Result<()> {
            let mut map = self.map.lock();
            for (k, v) in data {
                map.insert(k.clone(), v.clone());
            }
            Ok(())
        }
    }

    #[test]
    fn driver_counts_transactions_and_ops() {
        let exec = MemExec::default();
        let w = SysbenchWorkload::new(SysbenchMode::WriteOnly, 100, 16);
        load_initial(&exec, &w).unwrap();
        let report = run_workload(&exec, &w, 4, 25, 1);
        assert_eq!(report.transactions, 100);
        assert_eq!(report.aborts, 0);
        assert!(report.tps > 0.0);
        assert!(report.ops_per_sec >= report.tps);
        assert_eq!(exec.map.lock().len(), 100);
    }

    #[test]
    fn driver_reports_aborts_separately() {
        let exec = MemExec {
            fail_every: Some(5),
            ..MemExec::default()
        };
        let w = SysbenchWorkload::new(SysbenchMode::ReadOnly, 100, 16);
        let report = run_workload(&exec, &w, 2, 50, 2);
        assert_eq!(report.transactions + report.aborts, 100);
        assert_eq!(report.aborts, 20);
    }

    #[test]
    fn per_connection_seeds_differ() {
        // Two connections must not replay the same op stream: check by
        // counting distinct keys written.
        let exec = MemExec::default();
        let w = SysbenchWorkload::new(SysbenchMode::WriteOnly, 10_000, 8);
        run_workload(&exec, &w, 2, 20, 3);
        // 2 conns * 20 txns * up to 3 distinct rows; identical streams
        // would produce at most ~60 but identical sets. Just require > 40
        // distinct keys (collisions allowed).
        assert!(exec.map.lock().len() > 40);
    }

    #[test]
    fn report_row_is_renderable() {
        let exec = MemExec::default();
        let w = SysbenchWorkload::new(SysbenchMode::ReadOnly, 10, 8);
        let report = run_workload(&exec, &w, 1, 5, 4);
        let row = report.row();
        assert!(row.contains("sysbench-read-only"));
        assert!(row.contains("conns=1"));
    }

    #[test]
    fn many_connections_multiplex_onto_few_workers() {
        // 64 logical connections on 4 OS threads: every connection still
        // runs its exact transaction count, and the worker cap holds.
        let exec = MemExec::default();
        let w = SysbenchWorkload::new(SysbenchMode::WriteOnly, 10_000, 4);
        let report = run_workload_opts(
            &exec,
            &w,
            64,
            5,
            7,
            SystemClock::shared(),
            DriverOptions {
                workers: 4,
                think_us: 0,
                stagger_start: false,
            },
        );
        assert_eq!(report.transactions, 64 * 5);
        assert_eq!(report.workers, 4);
        assert_eq!(report.connections, 64);
    }

    #[test]
    fn think_time_paces_a_closed_loop() {
        // One connection, 5 txns, 2ms think: the run cannot finish faster
        // than the think time between fires (first fire is immediate).
        let exec = MemExec::default();
        let w = SysbenchWorkload::new(SysbenchMode::ReadOnly, 100, 2);
        let report = run_workload_opts(
            &exec,
            &w,
            1,
            5,
            8,
            SystemClock::shared(),
            DriverOptions {
                workers: 2,
                think_us: 2_000,
                stagger_start: true,
            },
        );
        assert_eq!(report.transactions, 5);
        assert!(
            report.wall_secs >= 0.008,
            "5 txns with 2ms think finished in {}s",
            report.wall_secs
        );
    }
}
