//! Exact-count, log-bucketed latency histogram.
//!
//! `taurus_common::metrics::LatencyRecorder::bounded` is a 65 536-slot
//! reservoir behind a mutex; `point-read-cached` produces millions of
//! samples per run from several threads. This histogram keeps every sample
//! (exact count, sum, min, max), costs one array increment per record, and
//! merges across connection threads by adding bucket arrays.
//!
//! Bucketing is HDR-style: values below `SUB` land in their own bucket; a
//! value with top bit `e >= SUB_BITS` lands in one of `SUB` equal-width
//! buckets spanning `[2^e, 2^(e+1))`, so a bucket is never wider than
//! `1/SUB` = 0.78 % of its lower bound. Quantiles interpolate linearly
//! inside the bucket that holds the rank.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Percentiles a report may quote, in parts per 10 000, lowest first (see
/// [`Histogram::top`]).
const LADDER: [u64; 6] = [5_000, 9_000, 9_500, 9_900, 9_990, 9_999];

#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn index_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    (((shift + 1) as u64 * SUB) + ((v >> shift) - SUB)) as usize
}

/// Inclusive lower and exclusive upper bound of bucket `idx`.
fn bounds_of(idx: usize) -> (u64, u128) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx, idx as u128 + 1);
    }
    let shift = (idx / SUB - 1) as u32;
    let lo = (SUB + idx % SUB) << shift;
    (lo, lo as u128 + (1u128 << shift))
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    #[cfg(test)]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Nearest-rank quantile (`q` in (0, 1]) with linear interpolation
    /// inside the bucket holding the rank, clamped to the exact min/max.
    /// `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && before + c >= rank {
                let (lo, hi) = bounds_of(idx);
                let frac = (rank - before) as f64 / c as f64;
                // The bucket holds the integers lo..=hi-1.
                let v = lo as f64 + (hi - 1 - lo as u128) as f64 * frac;
                return Some(v.clamp(self.min as f64, self.max as f64));
            }
            before += c;
        }
        Some(self.max as f64)
    }

    /// [`Histogram::quantile`] of nanosecond samples, in microseconds.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        self.quantile(q).map(|ns| ns / 1e3)
    }

    /// The highest percentile of [`LADDER`] that still has at least ten
    /// samples beyond it, with its value: a tail percentile backed by fewer
    /// samples swings run to run and is not worth quoting.
    pub fn top(&self) -> Option<(f64, f64)> {
        LADDER
            .iter()
            .rev()
            .find(|&&p| self.count - (self.count * p).div_ceil(10_000) >= 10)
            .map(|&p| p as f64 / 10_000.0)
            .and_then(|p| self.quantile(p).map(|v| (p, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_u64_range_within_one_percent() {
        let mut prev_hi = 0u128;
        for idx in 0..BUCKETS {
            let (lo, hi) = bounds_of(idx);
            assert_eq!(lo as u128, prev_hi, "bucket {idx} leaves a gap");
            assert_eq!(index_of(lo), idx);
            assert_eq!(index_of((hi - 1) as u64), idx);
            if lo >= SUB {
                assert!((hi - lo as u128) as f64 / lo as f64 <= 0.01);
            }
            prev_hi = hi;
        }
        assert_eq!(prev_hi, 1u128 << 64);
    }

    #[test]
    fn uniform_distribution_quantiles_are_within_one_percent() {
        let mut h = Histogram::new();
        for v in 1..=1_000_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1_000_000);
        assert!((h.mean().unwrap() - 500_000.5).abs() < 1e-6);
        for q in [0.01, 0.5, 0.95, 0.99, 0.999] {
            let exact = q * 1_000_000.0;
            let got = h.quantile(q).unwrap();
            assert!(
                (got - exact).abs() / exact <= 0.01,
                "q={q}: {got} vs {exact}"
            );
        }
        assert_eq!(h.quantile(1.0), Some(1_000_000.0));
    }

    #[test]
    fn two_point_distribution_puts_the_median_on_the_right_side() {
        let mut h = Histogram::new();
        for _ in 0..700 {
            h.record(1_000);
        }
        for _ in 0..300 {
            h.record(90_000);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        assert!((p50 - 1_000.0).abs() / 1_000.0 <= 0.01, "{p50}");
        assert!((p95 - 90_000.0).abs() / 90_000.0 <= 0.01, "{p95}");
    }

    #[test]
    fn small_values_are_exact_and_empty_is_none() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.top(), None);
        for v in [3u64, 3, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(3.0));
        assert_eq!(h.quantile(1.0), Some(7.0));
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in 0..10_000u64 {
            let x = v * v % 7_919 + 1;
            if v % 2 == 0 { &mut a } else { &mut b }.record(x);
            all.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.mean(), all.mean());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn top_percentile_needs_ten_samples_beyond_it() {
        let mut h = Histogram::new();
        for v in 1..=19u64 {
            h.record(v);
        }
        assert_eq!(h.top(), None, "19 samples: even p50 has only 9.5 beyond");
        h.record(20);
        assert_eq!(h.top().map(|t| t.0), Some(0.50));
        for v in 21..=1_000u64 {
            h.record(v);
        }
        assert_eq!(h.top().map(|t| t.0), Some(0.99));
        for v in 1_001..=100_000u64 {
            h.record(v);
        }
        assert_eq!(h.top().map(|t| t.0), Some(0.9999));
    }
}
