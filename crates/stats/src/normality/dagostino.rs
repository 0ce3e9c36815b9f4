//! D'Agostino's K² omnibus normality test.
//!
//! Combines the D'Agostino (1970) skewness z-test with the Anscombe–Glynn
//! (1983) kurtosis z-test into the omnibus statistic `K² = Z₁(g₁)² + Z₂(b₂)²`,
//! which is χ²-distributed with 2 degrees of freedom under normality. This is
//! the same construction as `scipy.stats.normaltest`, the tool chain the paper
//! used.
//!
//! Validity: the kurtosis transform needs `n ≥ 8` (scipy raises below that; we
//! return [`StatsError::SampleTooSmall`]). The paper's smallest aggregation is
//! 48 samples, comfortably inside range.

use crate::descriptive::Moments;
use crate::special::{chi2_sf, norm_sf};
use crate::{ensure_finite, ensure_len, StatsError};

use super::{NormalityOutcome, NormalityTest, TestStatistic};

/// The K² omnibus test. Stateless; construct freely.
#[derive(Debug, Clone, Copy, Default)]
pub struct DagostinoK2;

impl DagostinoK2 {
    /// Z-transform of the sample skewness `g₁` (D'Agostino 1970).
    ///
    /// Exposed for the analysis layer's diagnostic reports (sign tells the
    /// skew direction: MiniFE's early-arrival tail gives negative skew of the
    /// arrival distribution's mirror — see `analysis::classify`).
    pub fn skewness_z(g1: f64, n: usize) -> f64 {
        let n = n as f64;
        let y = g1 * ((n + 1.0) * (n + 3.0) / (6.0 * (n - 2.0))).sqrt();
        let beta2 = 3.0 * (n * n + 27.0 * n - 70.0) * (n + 1.0) * (n + 3.0)
            / ((n - 2.0) * (n + 5.0) * (n + 7.0) * (n + 9.0));
        let w2 = -1.0 + (2.0 * (beta2 - 1.0)).sqrt();
        let delta = 1.0 / (0.5 * w2.ln()).sqrt();
        let alpha = (2.0 / (w2 - 1.0)).sqrt();
        let t = y / alpha;
        delta * (t + (t * t + 1.0).sqrt()).ln()
    }

    /// Z-transform of the sample kurtosis `b₂` (Anscombe–Glynn 1983).
    pub fn kurtosis_z(b2: f64, n: usize) -> f64 {
        let n = n as f64;
        let e = 3.0 * (n - 1.0) / (n + 1.0);
        let var =
            24.0 * n * (n - 2.0) * (n - 3.0) / ((n + 1.0) * (n + 1.0) * (n + 3.0) * (n + 5.0));
        let x = (b2 - e) / var.sqrt();
        let sqrt_beta1 = 6.0 * (n * n - 5.0 * n + 2.0) / ((n + 7.0) * (n + 9.0))
            * (6.0 * (n + 3.0) * (n + 5.0) / (n * (n - 2.0) * (n - 3.0))).sqrt();
        let a = 6.0
            + 8.0 / sqrt_beta1
                * (2.0 / sqrt_beta1 + (1.0 + 4.0 / (sqrt_beta1 * sqrt_beta1)).sqrt());
        let term = (1.0 - 2.0 / a) / (1.0 + x * (2.0 / (a - 4.0)).sqrt());
        // `term` can go non-positive for extreme kurtosis; cbrt handles the
        // sign continuously, matching scipy's behaviour.
        ((1.0 - 2.0 / (9.0 * a)) - term.cbrt()) / (2.0 / (9.0 * a)).sqrt()
    }

    /// Runs the test and also returns the component z-scores `(z_skew, z_kurt)`.
    pub fn test_with_components(
        &self,
        sample: &[f64],
    ) -> Result<(NormalityOutcome, f64, f64), StatsError> {
        ensure_len(sample, self.min_sample_size())?;
        ensure_finite(sample)?;
        self.test_moments(&Moments::from_slice(sample))
    }

    /// [`test_with_components`](Self::test_with_components) for a caller that
    /// already streamed the sample into `m` — bit-identical to it when the
    /// pushes happened in the sample's order (the accumulator's rounding is
    /// order-sensitive). The observations must have been finite.
    ///
    /// # Errors
    /// [`StatsError::SampleTooSmall`] and [`StatsError::ZeroVariance`], as
    /// [`NormalityTest::test`].
    pub fn test_moments(&self, m: &Moments) -> Result<(NormalityOutcome, f64, f64), StatsError> {
        let n = m.count() as usize;
        if n < self.min_sample_size() {
            return Err(StatsError::SampleTooSmall {
                needed: self.min_sample_size(),
                got: n,
            });
        }
        if m.variance_population() <= 0.0 {
            return Err(StatsError::ZeroVariance);
        }
        let z1 = Self::skewness_z(m.skewness(), n);
        let z2 = Self::kurtosis_z(m.kurtosis(), n);
        let k2 = z1 * z1 + z2 * z2;
        Ok((
            NormalityOutcome {
                statistic_kind: TestStatistic::DagostinoK2,
                statistic: k2,
                p_value: chi2_sf(k2, 2.0),
                n,
                // The transforms are asymptotic; below n = 20 scipy warns.
                extrapolated: n < 20,
            },
            z1,
            z2,
        ))
    }

    /// Two-sided p-value of the skewness z-test alone (diagnostic helper).
    pub fn skewtest_p(sample: &[f64]) -> Result<f64, StatsError> {
        ensure_len(sample, 8)?;
        ensure_finite(sample)?;
        let m = Moments::from_slice(sample);
        if m.variance_population() <= 0.0 {
            return Err(StatsError::ZeroVariance);
        }
        let z = Self::skewness_z(m.skewness(), sample.len());
        Ok(2.0 * norm_sf(z.abs()))
    }
}

impl NormalityTest for DagostinoK2 {
    fn kind(&self) -> TestStatistic {
        TestStatistic::DagostinoK2
    }

    fn min_sample_size(&self) -> usize {
        8
    }

    fn test(&self, sample: &[f64]) -> Result<NormalityOutcome, StatsError> {
        self.test_with_components(sample).map(|(o, _, _)| o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::norm_quantile;

    /// Deterministic "perfect" normal sample: quantiles at plotting positions.
    fn normal_scores(n: usize) -> Vec<f64> {
        (1..=n)
            .map(|i| norm_quantile((i as f64 - 0.5) / n as f64))
            .collect()
    }

    #[test]
    fn perfect_normal_scores_pass() {
        for n in [48, 200, 1000] {
            let xs = normal_scores(n);
            let o = DagostinoK2.test(&xs).unwrap();
            assert!(
                o.p_value > 0.5,
                "normal scores n={n} should be very normal, p={}",
                o.p_value
            );
            assert!(o.passes(0.05));
        }
    }

    #[test]
    fn uniform_sample_rejects_at_scale() {
        // Uniform has kurtosis 1.8, detectable at n = 1000.
        let xs: Vec<f64> = (0..1000).map(|i| i as f64 / 999.0).collect();
        let o = DagostinoK2.test(&xs).unwrap();
        assert!(o.rejects_normality(0.05), "uniform p={}", o.p_value);
    }

    #[test]
    fn exponential_sample_rejects() {
        // Deterministic exponential scores via -ln(1-u).
        let xs: Vec<f64> = (1..=200)
            .map(|i| -(1.0 - (i as f64 - 0.5) / 200.0).ln())
            .collect();
        let o = DagostinoK2.test(&xs).unwrap();
        assert!(o.rejects_normality(0.05), "exponential p={}", o.p_value);
    }

    #[test]
    fn bimodal_sample_rejects() {
        let mut xs = normal_scores(100);
        for x in xs.iter_mut() {
            *x = if *x < 0.0 { *x - 4.0 } else { *x + 4.0 };
        }
        let o = DagostinoK2.test(&xs).unwrap();
        assert!(o.rejects_normality(0.05), "bimodal p={}", o.p_value);
    }

    #[test]
    fn k2_is_sum_of_squared_components() {
        let xs = normal_scores(64);
        let (o, z1, z2) = DagostinoK2.test_with_components(&xs).unwrap();
        assert!((o.statistic - (z1 * z1 + z2 * z2)).abs() < 1e-12);
        assert_eq!(o.n, 64);
        assert_eq!(o.statistic_kind, TestStatistic::DagostinoK2);
    }

    #[test]
    fn p_value_is_exp_of_minus_half_k2() {
        // χ²(2) survival is exactly exp(-x/2); sanity-check the wiring.
        let xs = normal_scores(100);
        let o = DagostinoK2.test(&xs).unwrap();
        assert!((o.p_value - (-o.statistic / 2.0).exp()).abs() < 1e-10);
    }

    #[test]
    fn input_validation() {
        assert!(matches!(
            DagostinoK2.test(&[1.0; 7]),
            Err(StatsError::SampleTooSmall { needed: 8, got: 7 })
        ));
        assert!(matches!(
            DagostinoK2.test(&[5.0; 20]),
            Err(StatsError::ZeroVariance)
        ));
        let mut xs = vec![1.0; 20];
        xs[3] = f64::NAN;
        assert!(matches!(DagostinoK2.test(&xs), Err(StatsError::NonFinite)));
    }

    #[test]
    fn small_samples_are_flagged_extrapolated() {
        let xs = normal_scores(10);
        let o = DagostinoK2.test(&xs).unwrap();
        assert!(o.extrapolated);
        let o48 = DagostinoK2.test(&normal_scores(48)).unwrap();
        assert!(!o48.extrapolated);
    }

    #[test]
    fn skewtest_symmetry() {
        // Mirroring a sample flips the z sign but keeps the two-sided p.
        let xs: Vec<f64> = (1..=50).map(|i| (i as f64).powf(1.5)).collect();
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        let p1 = DagostinoK2::skewtest_p(&xs).unwrap();
        let p2 = DagostinoK2::skewtest_p(&neg).unwrap();
        assert!((p1 - p2).abs() < 1e-10);
    }

    #[test]
    fn skewness_z_sign_tracks_skew_direction() {
        assert!(DagostinoK2::skewness_z(0.8, 48) > 0.0);
        assert!(DagostinoK2::skewness_z(-0.8, 48) < 0.0);
        assert_eq!(DagostinoK2::skewness_z(0.0, 48), 0.0);
    }

    #[test]
    fn kurtosis_z_sign_tracks_tailedness() {
        // b2 > E[b2] (heavier tails than normal) -> positive z.
        assert!(DagostinoK2::kurtosis_z(4.5, 100) > 0.0);
        assert!(DagostinoK2::kurtosis_z(1.8, 100) < 0.0);
    }
}
