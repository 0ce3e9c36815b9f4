//! Descriptive statistics: streaming moments.
//!
//! [`Moments`] is a numerically stable single-pass accumulator (Welford /
//! Pébay update rules) for mean, variance, skewness and kurtosis — the raw
//! ingredients of D'Agostino's K² test.

use serde::{Deserialize, Serialize};

/// Single-pass accumulator for the first four central moments.
///
/// Uses the Pébay (2008) incremental update formulas, which are numerically
/// stable and allow O(1) merging of partial results (used when aggregating
/// per-rank statistics into application-level ones).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Moments {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            m3: 0.0,
            m4: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Accumulates one observation.
    pub fn push(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Accumulates every observation in `sample`.
    pub fn extend(&mut self, sample: &[f64]) {
        for &x in sample {
            self.push(x);
        }
    }

    /// Builds an accumulator directly from a slice.
    pub fn from_slice(sample: &[f64]) -> Self {
        let mut m = Moments::new();
        m.extend(sample);
        m
    }

    /// Merges another accumulator into this one (exact, order-independent up
    /// to floating-point rounding).
    pub fn merge(&mut self, other: &Moments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let na = self.n as f64;
        let nb = other.n as f64;
        let n = na + nb;
        let delta = other.mean - self.mean;
        let delta2 = delta * delta;
        let delta3 = delta2 * delta;
        let delta4 = delta2 * delta2;

        let m2 = self.m2 + other.m2 + delta2 * na * nb / n;
        let m3 = self.m3
            + other.m3
            + delta3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;
        let m4 = self.m4
            + other.m4
            + delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n)
            + 6.0 * delta2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n;

        self.mean += delta * nb / n;
        self.m2 = m2;
        self.m3 = m3;
        self.m4 = m4;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of accumulated observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population (biased, `1/n`) variance; `NaN` when empty.
    pub fn variance_population(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample (unbiased, `1/(n−1)`) variance; `NaN` for n < 2.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n as f64 - 1.0)
        }
    }

    /// Biased skewness `g₁ = m₃ / m₂^{3/2}` (moment definition, as consumed by
    /// D'Agostino's test); `NaN` for n < 3 or zero variance.
    pub fn skewness(&self) -> f64 {
        if self.n < 3 || self.m2 == 0.0 {
            return f64::NAN;
        }
        let n = self.n as f64;
        let m2 = self.m2 / n;
        let m3 = self.m3 / n;
        m3 / m2.powf(1.5)
    }

    /// Biased kurtosis `b₂ = m₄ / m₂²` (NOT excess; normal ⇒ 3.0);
    /// `NaN` for n < 4 or zero variance.
    pub fn kurtosis(&self) -> f64 {
        if self.n < 4 || self.m2 == 0.0 {
            return f64::NAN;
        }
        let n = self.n as f64;
        let m2 = self.m2 / n;
        let m4 = self.m4 / n;
        m4 / (m2 * m2)
    }

    /// Minimum accumulated value; `+∞` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum accumulated value; `−∞` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// `max − min`; `NaN` when empty.
    pub fn range(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max - self.min
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-10;

    #[test]
    fn moments_of_known_sample() {
        // x = [2, 4, 4, 4, 5, 5, 7, 9]: mean 5, pop-var 4.
        let m = Moments::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < TOL);
        assert!((m.variance_population() - 4.0).abs() < TOL);
        assert!((m.variance() - 32.0 / 7.0).abs() < TOL);
        assert!((m.min() - 2.0).abs() < TOL);
        assert!((m.max() - 9.0).abs() < TOL);
        assert!((m.range() - 7.0).abs() < TOL);
    }

    #[test]
    fn skewness_and_kurtosis_match_hand_computation() {
        // Symmetric sample: skewness 0. Uniform-ish flat sample has b2 < 3.
        let sym = Moments::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(sym.skewness().abs() < TOL);
        // m2 = 2, m4 = (16+1+0+1+16)/5 = 6.8 -> b2 = 1.7
        assert!((sym.kurtosis() - 1.7).abs() < TOL);

        // Right-skewed sample must have positive g1.
        let skewed = Moments::from_slice(&[1.0, 1.0, 1.0, 1.0, 10.0]);
        assert!(skewed.skewness() > 1.0);
    }

    #[test]
    fn merge_equals_single_pass() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| ((i * 2654435761_u64 as usize) % 997) as f64)
            .collect();
        let whole = Moments::from_slice(&xs);
        let mut a = Moments::from_slice(&xs[..137]);
        let b = Moments::from_slice(&xs[137..]);
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-6 * whole.variance());
        assert!((a.skewness() - whole.skewness()).abs() < 1e-8);
        assert!((a.kurtosis() - whole.kurtosis()).abs() < 1e-8);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut m = Moments::from_slice(&[1.0, 2.0, 3.0]);
        let before = m;
        m.merge(&Moments::new());
        assert_eq!(m, before);
        let mut e = Moments::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn empty_moments_yield_nan() {
        let m = Moments::new();
        assert!(m.mean().is_nan());
        assert!(m.variance().is_nan());
        assert!(m.skewness().is_nan());
        assert!(m.kurtosis().is_nan());
        assert!(m.range().is_nan());
    }

    #[test]
    fn kurtosis_of_normal_like_sample_near_three() {
        // Deterministic pseudo-normal sample via the quantile function.
        let xs: Vec<f64> = (1..2000)
            .map(|i| crate::special::norm_quantile(i as f64 / 2000.0))
            .collect();
        let m = Moments::from_slice(&xs);
        assert!(m.skewness().abs() < 0.01, "skew {}", m.skewness());
        assert!((m.kurtosis() - 3.0).abs() < 0.1, "kurt {}", m.kurtosis());
    }
}
