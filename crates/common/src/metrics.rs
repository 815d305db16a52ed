//! Small measurement helpers used by the benchmark harness: latency
//! recording with percentile extraction and a monotonic throughput counter.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Records individual latency samples (microseconds) and reports summary
/// statistics. Thread-safe; intended for bench harness use, not hot paths.
///
/// Two modes:
///
/// * [`LatencyRecorder::new`] keeps every sample (grows without bound) —
///   fine for unit tests and short runs.
/// * [`LatencyRecorder::bounded`] preallocates a fixed reservoir and, once
///   full, replaces random slots (seeded reservoir sampling, Vitter's
///   algorithm R with a deterministic splitmix64 stream). Recording never
///   allocates after construction, so a 1024-connection sweep does not pay
///   a heap allocation per op; `count`, `mean` and `max` stay exact while
///   percentiles come from the reservoir (unbiased, and stable to within
///   sampling error — see the large-N unit test).
#[derive(Debug, Default)]
pub struct LatencyRecorder {
    samples: Mutex<Samples>,
}

#[derive(Debug, Default)]
struct Samples {
    buf: Vec<u64>,
    /// Reservoir capacity; 0 = unbounded (keep everything).
    cap: usize,
    /// Total samples ever recorded (≥ `buf.len()` when bounded).
    seen: u64,
    /// Exact running sum and max over *all* recorded samples.
    sum: u64,
    max: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl LatencyRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder whose sample buffer is preallocated to `cap` slots and
    /// never grows: recording past `cap` reservoir-samples into it.
    pub fn bounded(cap: usize) -> Self {
        LatencyRecorder {
            samples: Mutex::new(Samples {
                buf: Vec::with_capacity(cap.max(1)),
                cap: cap.max(1),
                ..Samples::default()
            }),
        }
    }

    pub fn record(&self, us: u64) {
        let mut s = self.samples.lock();
        s.seen += 1;
        s.sum = s.sum.wrapping_add(us);
        s.max = s.max.max(us);
        if s.cap == 0 || s.buf.len() < s.cap {
            s.buf.push(us);
        } else {
            // Reservoir replacement: keep each of the `seen` samples with
            // probability cap/seen. The slot draw is seeded from the sample
            // index so runs replay deterministically.
            let j = splitmix64(s.seen) % s.seen;
            if (j as usize) < s.cap {
                s.buf[j as usize] = us;
            }
        }
    }

    /// Total samples recorded (not the reservoir occupancy).
    pub fn len(&self) -> usize {
        self.samples.lock().seen as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of summary statistics; `None` if no samples were recorded.
    ///
    /// Sorts the sample vector **in place under the lock** instead of
    /// cloning it: benches call this per-iteration in ablation sweeps, and a
    /// clone per call made `summary` O(n) allocations per report. Sorting is
    /// idempotent, so repeated calls are stable and cheap (re-sorting an
    /// already-sorted vector is a linear scan); samples recorded between
    /// calls are merged by the next sort. `count`/`mean`/`max` are exact
    /// even for a bounded recorder; percentiles then read the reservoir.
    pub fn summary(&self) -> Option<LatencySummary> {
        let mut guard = self.samples.lock();
        if guard.buf.is_empty() {
            return None;
        }
        let (seen, sum, max) = (guard.seen, guard.sum, guard.max);
        guard.buf.sort_unstable();
        let s = &guard.buf;
        // Nearest-rank percentile: the smallest sample with at least p·n
        // samples at or below it. The previous `round((n-1)·p)` interpolation
        // overshot at low sample counts — with 2 samples it reported the MAX
        // as p50, which made small bench runs look slower than they were.
        let pct = |p: f64| -> u64 {
            let rank = (p * s.len() as f64).ceil() as usize;
            s[rank.clamp(1, s.len()) - 1]
        };
        Some(LatencySummary {
            count: seen as usize,
            mean_us: sum as f64 / seen as f64,
            p50_us: pct(0.50),
            p95_us: pct(0.95),
            p99_us: pct(0.99),
            max_us: max,
        })
    }

    /// Drains the recorder, returning the retained samples (the full set
    /// for an unbounded recorder, the reservoir for a bounded one; order
    /// unspecified). Resets all exact aggregates.
    pub fn drain(&self) -> Vec<u64> {
        let mut s = self.samples.lock();
        let cap = s.cap;
        let out = std::mem::take(&mut s.buf);
        *s = Samples {
            buf: Vec::with_capacity(cap.max(usize::from(cap > 0))),
            cap,
            ..Samples::default()
        };
        out
    }

    pub fn clear(&self) {
        self.drain();
    }
}

/// Summary statistics of a latency distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    pub count: usize,
    pub mean_us: f64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

/// A set of named monotonic counters (operations completed, bytes written,
/// cache hits/misses...). Cheap enough for hot paths.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub fn reset(&self) -> u64 {
        self.value.swap(0, Ordering::Relaxed)
    }
}

/// A field of a [`counters!`] family: a [`Counter`], a [`Gauge`] or a
/// fixed-size histogram `[Counter; N]`, together with how its plain-value copy
/// is summed. The copy prints through `Debug` (`7`, `[0, 2, 5]`).
pub trait CounterField {
    /// The field's type in the family's `Snapshot` twin.
    type Value: Copy + Default + Eq + std::fmt::Debug;
    fn value(&self) -> Self::Value;
    fn absorb(into: &mut Self::Value, other: Self::Value);
}

impl CounterField for Counter {
    type Value = u64;
    fn value(&self) -> u64 {
        self.get()
    }
    fn absorb(into: &mut u64, other: u64) {
        *into += other;
    }
}

/// A level sampled at snapshot time; families summed across nodes add it up.
impl CounterField for Gauge {
    type Value = u64;
    fn value(&self) -> u64 {
        self.get()
    }
    fn absorb(into: &mut u64, other: u64) {
        *into += other;
    }
}

impl<const N: usize> CounterField for [Counter; N]
where
    [u64; N]: Default,
{
    type Value = [u64; N];
    fn value(&self) -> [u64; N] {
        std::array::from_fn(|i| self[i].get())
    }
    fn absorb(into: &mut [u64; N], other: [u64; N]) {
        for (a, b) in into.iter_mut().zip(other) {
            *a += b;
        }
    }
}

/// Declares a counter family **once**: from one field list it emits the live
/// struct (fields are [`Counter`] or `[Counter; N]`), its plain-value
/// `Snapshot` twin, `snapshot()`, a summing `absorb`, and a `Display` that
/// prints `name=value` pairs in declaration order. A field may override its
/// printed label with `as "label"` (histograms name their buckets there);
/// `derived { method, .. }` appends `method=self.method()` pairs computed from
/// the snapshot.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $live:ident => $snap:ident {
            $( $(#[$fmeta:meta])* pub $name:ident : $ty:ty $(as $label:literal)? ),* $(,)?
        }
        $(derived { $($derived:ident),* $(,)? })?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct $live {
            $( $(#[$fmeta])* pub $name: $ty, )*
        }

        impl $live {
            /// Point-in-time copy of every counter.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $name: $crate::metrics::CounterField::value(&self.$name), )*
                }
            }
        }

        #[doc = concat!("Plain-value snapshot of [`", stringify!($live), "`]; summable with `absorb`.")]
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $snap {
            $( $(#[$fmeta])* pub $name: <$ty as $crate::metrics::CounterField>::Value, )*
        }

        impl $snap {
            /// Adds `other` field by field.
            pub fn absorb(&mut self, other: $snap) {
                $( <$ty as $crate::metrics::CounterField>::absorb(&mut self.$name, other.$name); )*
            }
        }

        impl std::fmt::Display for $snap {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let mut sep = "";
                $(
                    let label = $crate::counters!(@label $name $(, $label)?);
                    write!(f, "{sep}{label}={:?}", self.$name)?;
                    sep = " ";
                )*
                $($( write!(f, "{sep}{}={}", stringify!($derived), self.$derived())?; )*)?
                let _ = sep;
                Ok(())
            }
        }
    };
    (@label $name:ident) => { stringify!($name) };
    (@label $name:ident, $label:literal) => { $label };
}
pub use crate::counters;

/// An instantaneous level (queue depth, in-flight requests). Unlike
/// [`Counter`] it moves both ways; `sub` saturates at zero rather than
/// wrapping so a racy decrement cannot report 2^64 items queued.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: u64) {
        let mut cur = self.value.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .value
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(v) => cur = v,
            }
        }
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Observability for the Log Store append hot path (paper §3.2–§3.3): one
/// instance per log, shared by its streams, printed by the fig7/fig9
/// harnesses. The append latency histogram times the replicated 3/3 write
/// alone (first request to last replica ack), so with per-hop latency L a
/// parallel fan-out reports ~max-of-3 (~one round trip) rather than ~3
/// round trips.
#[derive(Debug, Default)]
pub struct LogStoreStats {
    /// Latency of each replicated group append, microseconds.
    pub append_latency: LatencyRecorder,
    /// Appends inside their stream's turn: at most one per stream.
    pub appends_in_flight: Gauge,
    /// Completed group appends.
    pub appends: Counter,
    /// Seal-and-switch events: an append failed on its PLog and moved to
    /// a fresh one.
    pub seal_switches: Counter,
}

impl LogStoreStats {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn snapshot(&self) -> LogStoreStatsSnapshot {
        LogStoreStatsSnapshot {
            appends: self.appends.get(),
            appends_in_flight: self.appends_in_flight.get(),
            seal_switches: self.seal_switches.get(),
            append_latency: self.append_latency.summary(),
        }
    }
}

/// Point-in-time copy of [`LogStoreStats`] for reporting.
#[derive(Clone, Copy, Debug)]
pub struct LogStoreStatsSnapshot {
    pub appends: u64,
    pub appends_in_flight: u64,
    pub seal_switches: u64,
    pub append_latency: Option<LatencySummary>,
}

impl std::fmt::Display for LogStoreStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "log appends={} in_flight={} seal_switches={}",
            self.appends, self.appends_in_flight, self.seal_switches
        )?;
        if let Some(l) = self.append_latency {
            write!(
                f,
                " append_us mean={:.1} p50={} p95={} p99={} max={}",
                l.mean_us, l.p50_us, l.p95_us, l.p99_us, l.max_us
            )?;
        }
        Ok(())
    }
}

/// Hit-rate tracker for caches (buffer pools, log caches).
#[derive(Debug, Default)]
pub struct HitRate {
    pub hits: Counter,
    pub misses: Counter,
}

impl HitRate {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn ratio(&self) -> f64 {
        let h = self.hits.get() as f64;
        let m = self.misses.get() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles() {
        let r = LatencyRecorder::new();
        for v in 1..=100u64 {
            r.record(v);
        }
        let s = r.summary().unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_us, 50); // nearest-rank: smallest v with ≥50% ≤ v
        assert_eq!(s.p95_us, 95);
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.max_us, 100);
        assert!((s.mean_us - 50.5).abs() < 1e-9);
    }

    #[test]
    fn latency_percentiles_at_low_sample_counts() {
        // One sample: every percentile is that sample.
        let r = LatencyRecorder::new();
        r.record(42);
        let s = r.summary().unwrap();
        assert_eq!((s.p50_us, s.p95_us, s.p99_us, s.max_us), (42, 42, 42, 42));

        // Two samples: p50 must be the lower one, not the max (the old
        // round-based formula returned 900 here).
        let r = LatencyRecorder::new();
        r.record(100);
        r.record(900);
        let s = r.summary().unwrap();
        assert_eq!(s.p50_us, 100);
        assert_eq!(s.p99_us, 900);

        // Three samples: p50 is the median.
        let r = LatencyRecorder::new();
        for v in [30, 10, 20] {
            r.record(v);
        }
        assert_eq!(r.summary().unwrap().p50_us, 20);
    }

    #[test]
    fn bounded_recorder_never_reallocates_and_percentiles_stay_stable_at_large_n() {
        const CAP: usize = 4096;
        const N: u64 = 1_000_000;
        let r = LatencyRecorder::bounded(CAP);
        let initial_cap = r.samples.lock().buf.capacity();
        // Deterministic pseudo-uniform stream over 1..=100_000.
        for i in 0..N {
            r.record(splitmix64(i) % 100_000 + 1);
        }
        {
            let s = r.samples.lock();
            assert_eq!(
                s.buf.capacity(),
                initial_cap,
                "bounded recorder must not grow its sample buffer"
            );
            assert_eq!(s.buf.len(), CAP);
        }
        let s = r.summary().unwrap();
        // Exact aggregates survive the bounding.
        assert_eq!(s.count, N as usize);
        assert!((s.mean_us - 50_000.0).abs() < 1_000.0, "mean {}", s.mean_us);
        // Percentiles from a 4096-slot reservoir of a uniform distribution:
        // sampling error at p50 is ~1/sqrt(4096) ≈ 1.6%, so a 5% band is
        // far beyond noise while still catching a broken reservoir.
        assert!(
            (47_500..=52_500).contains(&s.p50_us),
            "p50 {} drifted",
            s.p50_us
        );
        assert!(s.p99_us >= 96_000, "p99 {} drifted", s.p99_us);
        // Repeated summaries are identical (reservoir unchanged between).
        assert_eq!(r.summary().unwrap(), s);
    }

    #[test]
    fn bounded_recorder_below_capacity_matches_unbounded_exactly() {
        let bounded = LatencyRecorder::bounded(1000);
        let unbounded = LatencyRecorder::new();
        for v in (1..=100u64).rev() {
            bounded.record(v);
            unbounded.record(v);
        }
        assert_eq!(bounded.summary().unwrap(), unbounded.summary().unwrap());
        // Drain resets the exact aggregates too.
        assert_eq!(bounded.drain().len(), 100);
        assert!(bounded.summary().is_none());
        assert!(bounded.is_empty());
    }

    #[test]
    fn empty_recorder_has_no_summary() {
        let r = LatencyRecorder::new();
        assert!(r.summary().is_none());
        assert!(r.is_empty());
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.reset(), 10);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn summary_is_stable_across_repeated_calls() {
        let r = LatencyRecorder::new();
        // Reverse order on purpose: the in-place sort must not disturb the
        // result of later calls, and recording between calls must merge.
        for v in (1..=50u64).rev() {
            r.record(v);
        }
        let a = r.summary().unwrap();
        let b = r.summary().unwrap();
        assert_eq!(a, b);
        r.record(1000);
        let c = r.summary().unwrap();
        assert_eq!(c.count, 51);
        assert_eq!(c.max_us, 1000);
        assert_eq!(r.summary().unwrap(), c);
    }

    #[test]
    fn gauge_moves_both_ways_and_saturates() {
        let g = Gauge::new();
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.sub(100); // saturates, no wrap
        assert_eq!(g.get(), 0);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn log_store_stats_snapshot_and_display() {
        let s = LogStoreStats::new();
        assert!(s.snapshot().append_latency.is_none());
        s.appends_in_flight.add(2);
        s.append_latency.record(100);
        s.append_latency.record(300);
        s.appends.add(2);
        s.seal_switches.inc();
        let snap = s.snapshot();
        assert_eq!(snap.appends, 2);
        assert_eq!(snap.appends_in_flight, 2);
        assert_eq!(snap.seal_switches, 1);
        let lat = snap.append_latency.unwrap();
        assert!((lat.mean_us - 200.0).abs() < 1e-9);
        let text = snap.to_string();
        assert!(text.contains("seal_switches=1"));
        assert!(text.contains("mean=200.0"));
    }

    counters! {
        /// Test family.
        pub struct FamilyStats => FamilyStatsSnapshot {
            /// A scalar.
            pub ops: Counter,
            pub bytes: Counter,
            /// A histogram with a bucket label.
            pub sizes: [Counter; 3] as "sizes[1|2|3+]",
        }
        derived { bytes_per_op }
    }

    impl FamilyStatsSnapshot {
        fn bytes_per_op(&self) -> u64 {
            self.bytes / self.ops.max(1)
        }
    }

    #[test]
    fn counters_macro_emits_snapshot_absorb_and_display_from_one_list() {
        let s = FamilyStats::default();
        s.ops.add(2);
        s.bytes.add(10);
        s.sizes[2].inc();
        let snap = s.snapshot();
        assert_eq!((snap.ops, snap.bytes, snap.sizes), (2, 10, [0, 0, 1]));
        assert_eq!(
            snap.to_string(),
            "ops=2 bytes=10 sizes[1|2|3+]=[0, 0, 1] bytes_per_op=5"
        );
        let mut sum = FamilyStatsSnapshot::default();
        sum.absorb(snap);
        sum.absorb(snap);
        assert_eq!((sum.ops, sum.bytes, sum.sizes), (4, 20, [0, 0, 2]));
    }

    #[test]
    fn hit_rate_ratio() {
        let h = HitRate::new();
        assert_eq!(h.ratio(), 0.0);
        h.hits.add(3);
        h.misses.add(1);
        assert!((h.ratio() - 0.75).abs() < 1e-9);
    }
}
