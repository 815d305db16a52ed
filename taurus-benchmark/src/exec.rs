//! The benchmark's own executor: closed-loop connections that run generated
//! transactions against the master, time them, check their outputs, keep a
//! model of acknowledged writes, and (in a traced window) record a span
//! around every call into the engine.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use taurus_common::{Lsn, Result, TaurusError};
use taurus_engine::MasterEngine;

use crate::gen::{next_txn, Dataset, Rng, TxnInput, FIRST_CONN_STREAM};
use crate::hist::Histogram;
use crate::spec::{Mix, Workload, CONFLICT_BACKOFF_US, CONFLICT_RETRIES, RANGE_LEN, ROW_BYTES};

/// Span names; `Txn` is the root, the rest are its children.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanName {
    Txn,
    Begin,
    Get,
    Scan,
    Put,
    Delete,
    Commit,
}

const SPAN_KINDS: usize = 7;

impl SpanName {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Txn => "txn",
            SpanName::Begin => "engine.begin",
            SpanName::Get => "engine.get",
            SpanName::Scan => "engine.scan",
            SpanName::Put => "engine.put",
            SpanName::Delete => "engine.delete",
            SpanName::Commit => "engine.commit",
        }
    }
}

/// One recorded span. `parent` is the index of the parent span in the same
/// connection's buffer (`u32::MAX` for a root); spans of one transaction
/// share `txn`. Times are nanoseconds since the run's trace epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub txn: u64,
}

/// Spans kept per connection; later ones are counted in `dropped` (their
/// durations still reach the histograms).
const SPAN_CAPACITY: usize = 1 << 18;

/// Exact duration histograms of every span, kept or dropped.
pub struct SpanStats {
    durations: Vec<Histogram>,
    /// Root duration minus the interval its children cover: what the
    /// harness itself adds to a transaction.
    pub self_time: Histogram,
}

impl Default for SpanStats {
    fn default() -> Self {
        SpanStats {
            durations: vec![Histogram::new(); SPAN_KINDS],
            self_time: Histogram::new(),
        }
    }
}

impl SpanStats {
    pub fn durations(&self, name: SpanName) -> &Histogram {
        &self.durations[name as usize]
    }

    pub fn merge(&mut self, other: &SpanStats) {
        for (a, b) in self.durations.iter_mut().zip(&other.durations) {
            a.merge(b);
        }
        self.self_time.merge(&other.self_time);
    }
}

/// Per-connection span recorder: a preallocated buffer written without
/// locks or allocation, plus [`SpanStats`].
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub dropped: u64,
    pub stats: SpanStats,
    root: u32,
    root_start: u64,
    txn: u64,
    children_ns: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(SPAN_CAPACITY),
            dropped: 0,
            stats: SpanStats::default(),
            root: u32::MAX,
            root_start: 0,
            txn: 0,
            children_ns: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() < SPAN_CAPACITY {
            self.spans.push(span);
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            u32::MAX
        }
    }

    /// Opens the root span at `at`, a clock reading the caller already has.
    fn begin_txn(&mut self, txn: u64, at: Instant) {
        self.txn = txn;
        self.children_ns = 0;
        self.root_start = at.duration_since(self.epoch).as_nanos() as u64;
        self.root = self.push(Span {
            name: SpanName::Txn,
            start_ns: self.root_start,
            end_ns: self.root_start,
            parent: u32::MAX,
            txn,
        });
    }

    fn end_txn(&mut self, at: Instant) {
        let end = at.duration_since(self.epoch).as_nanos() as u64;
        if let Some(root) = self.spans.get_mut(self.root as usize) {
            root.end_ns = end;
        }
        let dur = end - self.root_start;
        self.stats.durations[SpanName::Txn as usize].record(dur);
        self.stats
            .self_time
            .record(dur.saturating_sub(self.children_ns));
    }

    fn child(&mut self, name: SpanName, start_ns: u64) {
        let end_ns = self.now();
        self.children_ns += end_ns - start_ns;
        self.stats.durations[name as usize].record(end_ns - start_ns);
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.root,
            txn: self.txn,
        });
    }
}

/// Runs `f`, recording it as a child span when tracing.
#[inline]
fn op<T>(tracer: &mut Option<Tracer>, name: SpanName, f: impl FnOnce() -> T) -> T {
    match tracer {
        None => f(),
        Some(t) => {
            let start = t.now();
            let out = f();
            t.child(name, start);
            out
        }
    }
}

/// What one window measured on one connection.
#[derive(Default)]
pub struct WindowStats {
    /// Latency of committed read-only / write transactions, ns.
    pub read: Histogram,
    pub write: Histogram,
    /// Committed transactions per slice of the window.
    pub per_slice: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed transactions by `TaurusError` variant.
    pub errors: BTreeMap<String, u64>,
    pub conflict_retries: u64,
    /// When this connection's first and last transaction finished.
    pub elapsed: Duration,
}

impl WindowStats {
    pub fn merge(&mut self, other: &WindowStats) {
        self.read.merge(&other.read);
        self.write.merge(&other.write);
        if self.per_slice.len() < other.per_slice.len() {
            self.per_slice.resize(other.per_slice.len(), 0);
        }
        for (a, b) in self.per_slice.iter_mut().zip(&other.per_slice) {
            *a += b;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in &other.errors {
            *self.errors.entry(k.clone()).or_default() += v;
        }
        self.conflict_retries += other.conflict_retries;
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    pub fn committed(&self) -> u64 {
        self.read.count() + self.write.count()
    }

    /// Read and write latencies in one histogram.
    pub fn all(&self) -> Histogram {
        let mut h = self.read.clone();
        h.merge(&self.write);
        h
    }
}

/// Committed transactions of a timed window are also counted per slice of
/// this length.
const SLICE: Duration = Duration::from_secs(1);

/// When a window ends.
#[derive(Clone, Copy)]
pub enum Stop {
    /// Fixed duration.
    After(Duration),
    /// Fixed number of transactions per connection (warm-up).
    Txns(u64),
}

/// One closed-loop database connection. Its input stream, write model and
/// output-check verdicts persist across windows; statistics are per window.
pub struct Conn {
    id: usize,
    rng: Rng,
    seq: u64,
    gets: Vec<Option<Vec<u8>>>,
    scan: Vec<(Vec<u8>, Vec<u8>)>,
    /// Last acknowledged write per row by this connection: commit LSN and
    /// value. A key lock orders writers of one row, so across connections
    /// the higher LSN is the later writer.
    pub model: HashMap<u32, (Lsn, Vec<u8>)>,
    /// Output-check failures (first few kept verbatim).
    pub mismatches: u64,
    pub mismatch_samples: Vec<String>,
    pub tracer: Option<Tracer>,
}

fn error_kind(e: &TaurusError) -> String {
    let dbg = format!("{e:?}");
    dbg.split(|c: char| !c.is_ascii_alphanumeric())
        .next()
        .unwrap_or("Unknown")
        .to_string()
}

impl Conn {
    pub fn new(seed: u64, id: usize) -> Self {
        Conn {
            id,
            rng: Rng::new(seed, FIRST_CONN_STREAM + id as u64),
            seq: 0,
            gets: Vec::new(),
            scan: Vec::new(),
            model: HashMap::new(),
            mismatches: 0,
            mismatch_samples: Vec::new(),
            tracer: None,
        }
    }

    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        if self.mismatch_samples.len() < 4 {
            self.mismatch_samples.push(what);
        }
    }

    /// One attempt at a transaction; a write returns its commit LSN.
    fn attempt(
        &mut self,
        master: &Arc<MasterEngine>,
        data: &Dataset,
        input: &TxnInput,
    ) -> Result<Option<Lsn>> {
        let tr = &mut self.tracer;
        let mut txn = op(tr, SpanName::Begin, || master.begin());
        match input {
            TxnInput::Read { gets, scan_start } => {
                self.gets.clear();
                for &row in gets {
                    let v = op(tr, SpanName::Get, || txn.get(&data.keys[row as usize]))?;
                    self.gets.push(v);
                }
                self.scan = op(tr, SpanName::Scan, || {
                    txn.scan(&data.keys[*scan_start as usize], RANGE_LEN)
                })?;
                Ok(None)
            }
            TxnInput::Write { updates, reinsert } => {
                for (row, val) in updates {
                    op(tr, SpanName::Put, || {
                        txn.put(&data.keys[*row as usize], val)
                    })?;
                }
                let (row, val) = reinsert;
                let key = &data.keys[*row as usize];
                op(tr, SpanName::Delete, || txn.delete(key))?;
                op(tr, SpanName::Put, || txn.put(key, val))?;
                op(tr, SpanName::Commit, || txn.commit()).map(Some)
            }
        }
    }

    /// Checks a read-only transaction's outputs: on a read-only workload
    /// every row must equal the seeded initial row; under concurrent
    /// writers it must at least exist with a full-width payload (delete and
    /// insert of a row commit atomically, so a row never disappears).
    fn check_reads(&mut self, data: &Dataset, mix: Mix, input: &TxnInput) {
        let TxnInput::Read { gets, scan_start } = input else {
            return;
        };
        let value_ok = |row: usize, got: &[u8]| {
            if mix == Mix::ReadOnly {
                got == data.values[row]
            } else {
                got.len() == ROW_BYTES
            }
        };
        let mut bad = Vec::new();
        for (&row, got) in gets.iter().zip(&self.gets) {
            if !got.as_ref().is_some_and(|v| value_ok(row as usize, v)) {
                bad.push(format!("get row {row}: unexpected {got:?}"));
            }
        }
        let first = *scan_start as usize;
        let want = RANGE_LEN.min(data.keys.len() - first);
        let in_order = self.scan.len() == want
            && self
                .scan
                .iter()
                .enumerate()
                .all(|(i, (k, v))| *k == data.keys[first + i] && value_ok(first + i, v));
        if !in_order {
            bad.push(format!(
                "scan from row {first}: {} rows, expected {want} in key order",
                self.scan.len()
            ));
        }
        for what in bad {
            self.mismatch(what);
        }
    }

    /// Runs transactions until `stop`, starting together with the other
    /// connections at `barrier`.
    pub fn run(
        &mut self,
        master: &Arc<MasterEngine>,
        data: &Dataset,
        wl: &Workload,
        stop: Stop,
        barrier: &Barrier,
    ) -> WindowStats {
        let mut stats = WindowStats::default();
        let (window, max_txns) = match stop {
            Stop::After(window) => (window, u64::MAX),
            Stop::Txns(n) => (Duration::MAX, n),
        };
        barrier.wait();
        let start = Instant::now();
        while stats.attempted < max_txns {
            let input = next_txn(&mut self.rng, wl.mix, data.rows());
            self.seq += 1;
            let txn_id = ((self.id as u64) << 48) | self.seq;
            let t0 = Instant::now();
            if t0.duration_since(start) >= window {
                break;
            }
            if let Some(t) = &mut self.tracer {
                t.begin_txn(txn_id, t0);
            }
            let mut retries = 0;
            let result = loop {
                match self.attempt(master, data, &input) {
                    Err(TaurusError::WriteConflict { .. }) if retries < CONFLICT_RETRIES => {
                        retries += 1;
                        std::thread::sleep(Duration::from_micros(CONFLICT_BACKOFF_US));
                    }
                    other => break other,
                }
            };
            let done = Instant::now();
            if let Some(t) = &mut self.tracer {
                t.end_txn(done);
            }
            stats.attempted += 1;
            stats.conflict_retries += retries as u64;
            match result {
                Ok(lsn) => {
                    let latency = done.duration_since(t0).as_nanos() as u64;
                    if matches!(stop, Stop::After(_)) {
                        let idx =
                            (done.duration_since(start).as_nanos() / SLICE.as_nanos()) as usize;
                        if stats.per_slice.len() <= idx {
                            stats.per_slice.resize(idx + 1, 0);
                        }
                        stats.per_slice[idx] += 1;
                    }
                    match (lsn, input) {
                        (Some(lsn), TxnInput::Write { updates, reinsert }) => {
                            stats.write.record(latency);
                            let [a, b] = updates;
                            for (row, val) in [a, b, reinsert] {
                                self.model.insert(row, (lsn, val));
                            }
                        }
                        (_, input) => {
                            stats.read.record(latency);
                            self.check_reads(data, wl.mix, &input);
                        }
                    }
                }
                Err(e) => {
                    stats.failed += 1;
                    *stats.errors.entry(error_kind(&e)).or_default() += 1;
                }
            }
            stats.elapsed = done.duration_since(start);
        }
        stats
    }
}

/// Runs one window on every connection (one OS thread each) and returns
/// the merged statistics.
pub fn run_window(
    master: &Arc<MasterEngine>,
    data: &Dataset,
    wl: &Workload,
    conns: &mut [Conn],
    stop: Stop,
) -> WindowStats {
    let barrier = Barrier::new(conns.len());
    let per_conn: Vec<WindowStats> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || c.run(master, data, wl, stop, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let mut all = WindowStats::default();
    for s in &per_conn {
        all.merge(s);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_kind_is_the_variant_name() {
        let e = TaurusError::WriteConflict {
            page: taurus_common::PageId::CONTROL,
        };
        assert_eq!(error_kind(&e), "WriteConflict");
        assert_eq!(error_kind(&TaurusError::TxnFinished), "TxnFinished");
    }

    #[test]
    fn tracer_self_time_is_root_minus_children() {
        let mut tr = Some(Tracer::new(Instant::now()));
        tr.as_mut().unwrap().begin_txn(9, Instant::now());
        op(&mut tr, SpanName::Get, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        op(&mut tr, SpanName::Scan, || {
            std::thread::sleep(Duration::from_millis(1))
        });
        let t = tr.as_mut().unwrap();
        t.end_txn(Instant::now());
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].name, SpanName::Txn);
        assert!(t.spans[1..].iter().all(|s| s.parent == 0 && s.txn == 9));
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[0].end_ns >= t.spans[2].end_ns);
        let root = t.stats.durations(SpanName::Txn).quantile(1.0).unwrap();
        let children = t.stats.durations(SpanName::Get).quantile(1.0).unwrap()
            + t.stats.durations(SpanName::Scan).quantile(1.0).unwrap();
        let self_ns = t.stats.self_time.quantile(1.0).unwrap();
        assert!(children >= 3e6 && root >= children);
        assert!((root - children - self_ns).abs() <= 0.02 * root);
    }
}
