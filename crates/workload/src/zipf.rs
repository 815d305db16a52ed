//! Zipfian key-distribution sampler (Gray et al. / YCSB formulation).
//!
//! Used to skew page/key traffic, e.g. for the Page Store buffer pool
//! ablation (hot pages vs cold pages, paper §7).

use rand::rngs::StdRng;
use rand::Rng;

/// A Zipf(θ) sampler over `0..n`.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// `theta` in `(0, 1)`; typical YCSB skew is 0.99.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipf over an empty domain");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for modest n; benches use n up to a few million, where
        // this one-time cost is acceptable.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draws a rank in `0..n` (0 is the hottest item).
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.random();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let raw = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        raw.min(self.n - 1)
    }

    pub fn domain(&self) -> u64 {
        self.n
    }

    /// Uniform special case helper (theta == 0 gives an almost-uniform
    /// distribution; this is exact).
    pub fn uniform(n: u64) -> Self {
        Self::new(n, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_domain() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn skew_concentrates_mass_on_low_ranks() {
        let z = Zipf::new(10_000, 0.99);
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<u64> = (0..50_000).map(|_| z.sample(&mut rng)).collect();
        let head = samples.iter().filter(|&&s| s < 100).count() as f64 / samples.len() as f64;
        assert!(
            head > 0.3,
            "1% of keys should draw >30% of traffic, got {head}"
        );
    }

    #[test]
    fn uniform_is_roughly_flat() {
        let z = Zipf::uniform(100);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 2.5, "uniform spread too skewed: {min}..{max}");
    }

    #[test]
    #[should_panic]
    fn empty_domain_panics() {
        Zipf::new(0, 0.5);
    }
}
