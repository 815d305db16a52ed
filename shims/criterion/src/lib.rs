//! Offline shim for `criterion`.
//!
//! Implements the harness subset the workspace's benches use:
//! `Criterion::benchmark_group`, `BenchmarkGroup::{bench_function,
//! sample_size, finish}`, `Bencher::{iter, iter_batched}`, `BatchSize`,
//! `black_box`, and the `criterion_group!`/`criterion_main!` macros.
//! Reports median/mean per iteration from a fixed-budget timing loop —
//! no statistics engine, plots, or baseline comparison.

#![expect(
    clippy::disallowed_methods,
    reason = "a bench harness measures wall-clock time"
)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Batch sizing hint; the shim runs one setup per measured routine call
/// regardless of the variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Top-level harness handle.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        eprintln!("\n== group: {name} ==");
        BenchmarkGroup {
            group: name.to_string(),
            samples: 50,
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one("bench", name, 50, &mut f);
        self
    }
}

pub struct BenchmarkGroup {
    group: String,
    samples: usize,
}

impl BenchmarkGroup {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(5);
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let group = self.group.clone();
        run_one(&group, name, self.samples, &mut f);
        self
    }

    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(group: &str, name: &str, samples: usize, f: &mut F) {
    let mut bencher = Bencher {
        samples: samples.max(5),
        per_iter_ns: Vec::new(),
    };
    f(&mut bencher);
    let mut ns = bencher.per_iter_ns;
    if ns.is_empty() {
        eprintln!("{group}/{name}: no samples");
        return;
    }
    ns.sort_unstable();
    let median = ns[ns.len() / 2];
    let mean = ns.iter().sum::<u128>() / ns.len() as u128;
    eprintln!(
        "{group}/{name}: median {} mean {} ({} samples)",
        fmt_ns(median),
        fmt_ns(mean),
        ns.len()
    );
}

fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Timing driver passed to each benchmark closure.
pub struct Bencher {
    samples: usize,
    per_iter_ns: Vec<u128>,
}

impl Bencher {
    /// Measures `routine` over batches, recording per-iteration time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up + batch size calibration: aim for ~1ms batches.
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(10));
        let batch = (Duration::from_millis(1).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            self.per_iter_ns
                .push(start.elapsed().as_nanos() / batch as u128);
        }
    }

    /// Measures `routine` on fresh inputs produced by `setup` (setup time
    /// excluded from measurement).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.per_iter_ns.push(start.elapsed().as_nanos());
        }
    }
}

/// Mirrors criterion's macro: defines a function that runs each bench fn.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Mirrors criterion's macro: `main` invoking each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_records_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(5);
        group.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        group.finish();
    }

    #[test]
    fn iter_batched_runs_setup_per_sample() {
        let mut b = Bencher {
            samples: 5,
            per_iter_ns: Vec::new(),
        };
        let mut setups = 0;
        b.iter_batched(
            || {
                setups += 1;
                vec![1u8; 16]
            },
            |v| v.len(),
            BatchSize::SmallInput,
        );
        assert_eq!(setups, 5);
        assert_eq!(b.per_iter_ns.len(), 5);
    }
}
