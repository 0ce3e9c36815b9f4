//! Seeded sampling distributions for the synthetic cluster models.
//!
//! The synthetic thread-timing generators (in `ebird-cluster`) must be
//! bit-reproducible across machines and across `rand`-crate versions, because
//! the experiment regenerators assert exact paper-band numbers in CI. We
//! therefore ship a tiny self-contained RNG ([`Rng64`], xoshiro256++ seeded
//! via SplitMix64) and the handful of distributions the models need:
//! [`Normal`], [`LogNormal`], [`Exponential`] and [`Uniform`]. All
//! implement [`Sample`].

/// A sampling distribution over `f64`.
pub trait Sample {
    /// Draws one value using `rng`.
    fn sample(&self, rng: &mut Rng64) -> f64;
}

/// xoshiro256++ PRNG with SplitMix64 seeding — small, fast, and stable.
///
/// Not cryptographic; statistical quality is more than sufficient for
/// timing-model synthesis. The implementation follows the public-domain
/// reference by Blackman & Vigna.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the xoshiro state.
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        Rng64 { s }
    }

    /// Next raw 64-bit output.
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

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in the open interval `(0, 1)` — safe for `ln`/quantile calls.
    fn next_open_f64(&mut self) -> f64 {
        loop {
            let u = self.next_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform integer in `[0, bound)`. `bound` must be nonzero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Lemire's multiply-shift rejection method.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let l = m as u64;
            if l >= bound || l >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli draw with probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Normal distribution `N(mean, sd²)` sampled via the Marsaglia polar method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Mean.
    pub mean: f64,
    /// Standard deviation (must be ≥ 0).
    pub sd: f64,
}

impl Normal {
    /// Creates the distribution; `sd` must be non-negative and finite.
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(sd >= 0.0 && sd.is_finite(), "sd must be ≥ 0, got {sd}");
        Normal { mean, sd }
    }

    /// One standard-normal draw (mean 0, sd 1).
    pub fn standard_draw(rng: &mut Rng64) -> f64 {
        // Marsaglia polar method; discards the spare for statelessness.
        loop {
            let u = 2.0 * rng.next_f64() - 1.0;
            let v = 2.0 * rng.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

impl Sample for Normal {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        self.mean + self.sd * Self::standard_draw(rng)
    }
}

/// Log-normal distribution: `exp(N(mu, sigma²))`, optionally shifted.
///
/// Used for laggard magnitudes — OS-noise delays are multiplicative and
/// heavy-tailed, which the paper's "high magnitude compared to median run
/// time" laggards reflect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of the underlying normal (log scale).
    pub mu: f64,
    /// Standard deviation of the underlying normal (log scale).
    pub sigma: f64,
    /// Additive shift applied after exponentiation.
    pub shift: f64,
}

impl LogNormal {
    /// Creates the distribution; `sigma ≥ 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite());
        LogNormal {
            mu,
            sigma,
            shift: 0.0,
        }
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        self.shift + (self.mu + self.sigma * Normal::standard_draw(rng)).exp()
    }
}

/// Exponential distribution with the given rate `λ` (mean `1/λ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Rate parameter λ > 0.
    pub rate: f64,
}

impl Exponential {
    /// Creates the distribution; `rate > 0`.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite());
        Exponential { rate }
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        -rng.next_open_f64().ln() / self.rate
    }
}

/// Uniform distribution over `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound.
    pub hi: f64,
}

impl Uniform {
    /// Creates the distribution; requires `lo < hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "need lo < hi, got [{lo}, {hi})");
        Uniform { lo, hi }
    }
}

impl Sample for Uniform {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        self.lo + (self.hi - self.lo) * rng.next_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::Moments;

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng64::new(43);
        assert_ne!(Rng64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Rng64::new(7);
        for _ in 0..10_000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut rng = Rng64::new(11);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn normal_moments_converge() {
        let mut rng = Rng64::new(1234);
        let d = Normal::new(5.0, 2.0);
        let mut m = Moments::new();
        for _ in 0..200_000 {
            m.push(d.sample(&mut rng));
        }
        assert!((m.mean() - 5.0).abs() < 0.02, "mean {}", m.mean());
        let sd = m.variance().sqrt();
        assert!((sd - 2.0).abs() < 0.02, "sd {sd}");
        assert!(m.skewness().abs() < 0.03, "skew {}", m.skewness());
        assert!((m.kurtosis() - 3.0).abs() < 0.1, "kurt {}", m.kurtosis());
    }

    #[test]
    fn lognormal_is_positive_and_right_skewed() {
        let mut rng = Rng64::new(99);
        let d = LogNormal::new(0.0, 1.0);
        let mut m = Moments::new();
        for _ in 0..50_000 {
            let x = d.sample(&mut rng);
            assert!(x > 0.0);
            m.push(x);
        }
        assert!(m.skewness() > 2.0, "lognormal skew {}", m.skewness());
        // E[X] = exp(sigma²/2) ≈ 1.6487
        assert!((m.mean() - 1.6487).abs() < 0.1, "mean {}", m.mean());
        let shifted = LogNormal {
            shift: 10.0,
            ..LogNormal::new(0.0, 0.5)
        };
        assert!(shifted.sample(&mut rng) > 10.0);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = Rng64::new(5);
        let d = Exponential::new(4.0);
        let mut m = Moments::new();
        for _ in 0..100_000 {
            let x = d.sample(&mut rng);
            assert!(x >= 0.0);
            m.push(x);
        }
        assert!((m.mean() - 0.25).abs() < 0.01, "mean {}", m.mean());
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let mut rng = Rng64::new(17);
        let d = Uniform::new(-2.0, 6.0);
        let mut m = Moments::new();
        for _ in 0..50_000 {
            let x = d.sample(&mut rng);
            assert!((-2.0..6.0).contains(&x));
            m.push(x);
        }
        assert!((m.mean() - 2.0).abs() < 0.05);
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = Rng64::new(3);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.224)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.224).abs() < 0.01, "rate {rate}");
    }

    #[test]
    #[should_panic]
    fn uniform_rejects_bad_bounds() {
        Uniform::new(1.0, 1.0);
    }
}
