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
//!
//! `g₁` and `b₂` come from [`accumulate::central_sums`] **of the sorted
//! sample** ([`shape_from_sums`], the one definition of sample skewness and
//! kurtosis in this module tree): lane sums are order-sensitive in their
//! last bits, so both routes — [`NormalityTest::test_sorted`] and the fused
//! battery kernel, which shares the sums with W's denominator — see the
//! same order and agree bit for bit.

use crate::special::chi2_sf;
use crate::{accumulate, ensure_finite, ensure_len, sorted_copy, StatsError};

use super::{check_sorted, NormalityOutcome, NormalityTest, TestStatistic};

/// Biased sample skewness `g₁ = m₃ / m₂^{3/2}` and kurtosis `b₂ = m₄ / m₂²`
/// (not excess; normal ⇒ 3) from the central power sums of `n` observations,
/// `mₖ = Σdᵏ / n`.
///
/// # Errors
/// [`StatsError::ZeroVariance`] unless `Σd² > 0`.
pub(crate) fn shape_from_sums(
    n: usize,
    s2: f64,
    s3: f64,
    s4: f64,
) -> Result<(f64, f64), StatsError> {
    let nf = n as f64;
    let m2 = s2 / nf;
    if m2.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(StatsError::ZeroVariance);
    }
    Ok(((s3 / nf) / m2.powf(1.5), (s4 / nf) / (m2 * m2)))
}

/// [`shape_from_sums`] of a sorted, finite sample of at least `needed` values
/// that are not all equal (the checks every `test_sorted` starts with).
pub(crate) fn shape_of_sorted(sorted: &[f64], needed: usize) -> Result<(f64, f64), StatsError> {
    check_sorted(sorted, needed)?;
    let (_, s2, s3, s4) = accumulate::central_sums(sorted);
    shape_from_sums(sorted.len(), s2, s3, s4)
}

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

    /// Runs the test on a sample in any order and also returns the
    /// component z-scores `(z_skew, z_kurt)`.
    ///
    /// # Errors
    /// Same contract as [`NormalityTest::test`].
    pub fn test_with_components(
        &self,
        sample: &[f64],
    ) -> Result<(NormalityOutcome, f64, f64), StatsError> {
        ensure_len(sample, self.min_sample_size())?;
        ensure_finite(sample)?;
        let (g1, b2) = shape_of_sorted(&sorted_copy(sample), self.min_sample_size())?;
        Ok(Self::from_shape(g1, b2, sample.len()))
    }

    /// K², its χ²(2) p-value and the component z-scores from the sample's
    /// `g₁`, `b₂` and size (`n ≥ 8`) — the one body every route ends in.
    pub(crate) fn from_shape(g1: f64, b2: f64, n: usize) -> (NormalityOutcome, f64, f64) {
        let z1 = Self::skewness_z(g1, n);
        let z2 = Self::kurtosis_z(b2, n);
        let k2 = z1 * z1 + z2 * z2;
        (
            NormalityOutcome {
                statistic_kind: TestStatistic::DagostinoK2,
                statistic: k2,
                p_value: chi2_sf(k2, 2.0),
                // The transforms are asymptotic; below n = 20 scipy warns.
                extrapolated: n < 20,
            },
            z1,
            z2,
        )
    }
}

impl NormalityTest for DagostinoK2 {
    fn kind(&self) -> TestStatistic {
        TestStatistic::DagostinoK2
    }

    fn min_sample_size(&self) -> usize {
        8
    }

    fn test_sorted(&self, sorted: &[f64]) -> Result<NormalityOutcome, StatsError> {
        let (g1, b2) = shape_of_sorted(sorted, self.min_sample_size())?;
        Ok(Self::from_shape(g1, b2, sorted.len()).0)
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
        assert_eq!(o.statistic_kind, TestStatistic::DagostinoK2);
    }

    #[test]
    fn p_value_is_exp_of_minus_half_k2() {
        // χ²(2) survival is exactly exp(-x/2): the closed form, to the ulp
        // (`-x / 2` and `-0.5 * x` are the same double).
        for xs in [
            normal_scores(100),
            normal_scores(48),
            vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
        ] {
            let o = DagostinoK2.test(&xs).unwrap();
            let want = (-o.statistic / 2.0).exp();
            assert!(
                (o.p_value - want).abs() <= 2.0 * f64::EPSILON * want,
                "p = {}, exp(-K²/2) = {want}",
                o.p_value
            );
        }
    }

    #[test]
    fn symmetric_samples_have_zero_skew_component_exactly() {
        // ±k/4 and 1..=8: every deviation, power and partial sum is a dyadic
        // rational well inside 53 bits, so g₁ is exactly 0, hence Z₁ = 0 and
        // K² = Z₂² with no rounding between them.
        let quarters: Vec<f64> = (1..=24)
            .flat_map(|k| [k as f64 / 4.0, -(k as f64) / 4.0])
            .collect();
        let ramp: Vec<f64> = (1..=8).map(f64::from).collect();
        for xs in [quarters, ramp.clone()] {
            let (o, z1, z2) = DagostinoK2.test_with_components(&xs).unwrap();
            assert_eq!(z1, 0.0);
            assert_eq!(o.statistic.to_bits(), (z2 * z2).to_bits());
        }
        // 1..=8 by hand: Σd² = 42, Σd⁴ = 388.5, so b₂ = (388.5/8)/(42/8)² =
        // 48.5625/27.5625 = 37/21.
        let (_, _, z2) = DagostinoK2.test_with_components(&ramp).unwrap();
        assert_eq!(
            z2.to_bits(),
            DagostinoK2::kurtosis_z(37.0 / 21.0, 8).to_bits()
        );
    }

    #[test]
    fn presorted_route_and_any_permutation_agree_bit_for_bit() {
        // The statistic is a function of the sorted sample: the order the
        // caller holds the values in cannot reach it.
        let xs: Vec<f64> = (0..97)
            .map(|i| (((i * 37) % 101) as f64).sin() * 2.5 + 10.0)
            .collect();
        let mut reversed = xs.clone();
        reversed.reverse();
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let direct = DagostinoK2.test(&xs).unwrap();
        assert_eq!(direct, DagostinoK2.test(&reversed).unwrap());
        assert_eq!(direct, DagostinoK2.test_sorted(&sorted).unwrap());
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
    fn mirroring_flips_only_the_skewness_z() {
        let xs: Vec<f64> = (1..=50).map(|i| (i as f64).powf(1.5)).collect();
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        let (o1, z1, k1) = DagostinoK2.test_with_components(&xs).unwrap();
        let (o2, z2, k2) = DagostinoK2.test_with_components(&neg).unwrap();
        assert!(z1 > 0.0 && (z1 + z2).abs() < 1e-10, "{z1} vs {z2}");
        assert!((k1 - k2).abs() < 1e-10);
        assert!((o1.p_value - o2.p_value).abs() < 1e-10);
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
