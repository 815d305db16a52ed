//! Offline shim for `rand` 0.9.
//!
//! Provides the subset the workspace uses: the [`Rng`]/[`RngCore`] traits
//! with `random`, `random_range`, `random_bool`, and `fill`; [`SeedableRng`]
//! with `seed_from_u64`; and [`rngs::StdRng`] backed by xoshiro256++ seeded
//! via SplitMix64. Deterministic across platforms for a given seed (the
//! stream differs from real `rand`, which is fine — the workspace only
//! relies on same-seed reproducibility, not on matching upstream streams).

#![expect(
    clippy::disallowed_methods,
    reason = "`from_os_rng` seeds from the wall clock: there is no OS entropy source here"
)]

use std::ops::{Range, RangeInclusive};

/// Low-level uniform bit source.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let last = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&last[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Values producible uniformly from raw bits (the `StandardUniform`
/// distribution in real rand).
pub trait Standard: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges samplable by `Rng::random_range`.
pub trait SampleRange {
    type Output;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "random_range: empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128) as u64;
                self.start.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "random_range: empty range");
                let span = (hi as u128).wrapping_sub(lo as u128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_u64(rng, span + 1) as $t)
            }
        }
    )*};
}
impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "random_range: empty range");
        self.start + f64::sample_standard(rng) * (self.end - self.start)
    }
}

/// Unbiased uniform draw from `[0, span)` (`span == 0` means the full u64
/// domain) via Lemire-style rejection.
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % span;
        }
    }
}

/// High-level convenience methods, blanket-implemented for every `RngCore`.
pub trait Rng: RngCore {
    fn random<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    fn random_range<S: SampleRange>(&mut self, range: S) -> S::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "random_bool: p out of range");
        f64::sample_standard(self) < p
    }

    fn fill(&mut self, dest: &mut [u8])
    where
        Self: Sized,
    {
        self.fill_bytes(dest);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction from seed material.
pub trait SeedableRng: Sized {
    type Seed: Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64(state);
        for chunk in seed.as_mut().chunks_mut(8) {
            let v = sm.next().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&v[..n]);
        }
        Self::from_seed(seed)
    }

    fn from_os_rng() -> Self {
        // No OS entropy in the sim container: derive from the monotonic
        // clock, which is good enough for the non-deterministic paths that
        // opt into it.
        let nanos = std::time::UNIX_EPOCH
            .elapsed()
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e3779b97f4a7c15);
        Self::seed_from_u64(nanos)
    }
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — fast, full 64-bit output, passes BigCrush.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            if s == [0; 4] {
                // xoshiro must not start from the all-zero state.
                s = [
                    0x9e3779b97f4a7c15,
                    0xbf58476d1ce4e5b9,
                    0x94d049bb133111eb,
                    1,
                ];
            }
            StdRng { s }
        }
    }

    /// Alias — the workspace does not rely on SmallRng being different.
    pub type SmallRng = StdRng;
}

/// Process-global convenience RNG (`rand::rng()` in rand 0.9). Clock-seeded,
/// NOT reproducible — simulation code must use a seeded `StdRng` instead
/// (the workspace's `clippy.toml` disallows calls to this function).
pub fn rng() -> rngs::StdRng {
    SeedableRng::from_os_rng()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn random_range_stays_in_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.random_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = r.random_range(5..=15u64);
            assert!((5..=15).contains(&w));
            let u: usize = r.random_range(0..3usize);
            assert!(u < 3);
        }
    }

    #[test]
    fn random_f64_is_unit_interval() {
        let mut r = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn fill_covers_slice() {
        let mut r = StdRng::seed_from_u64(3);
        let mut buf = [0u8; 13];
        r.fill(&mut buf[..]);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn range_distribution_is_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(11);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[r.random_range(0..10usize)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "bucket count {c} out of range");
        }
    }
}
