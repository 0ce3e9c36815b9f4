//! Jarque–Bera test for normality.
//!
//! A second *extension* test: like D'Agostino's K² it combines skewness and
//! kurtosis, but without the small-sample normalizing transforms —
//! `JB = n/6 · (g₁² + (b₂ − 3)²/4)`, asymptotically χ²(2). Comparing JB with
//! K² across the Table 1 sweep quantifies how much the paper's D'Agostino
//! column depends on those finite-sample corrections (JB is anti-conservative
//! at n = 48, which the extended-battery test below demonstrates).

use crate::special::chi2_sf;
use crate::StatsError;

use super::dagostino::shape_of_sorted;
use super::{NormalityOutcome, NormalityTest, TestStatistic};

/// The Jarque–Bera test. Stateless; construct freely.
#[derive(Debug, Clone, Copy, Default)]
pub struct JarqueBera;

impl NormalityTest for JarqueBera {
    fn kind(&self) -> TestStatistic {
        TestStatistic::JarqueBera
    }

    fn min_sample_size(&self) -> usize {
        8
    }

    /// `g₁` and `b₂` are the battery's one definition ([`shape_of_sorted`],
    /// lane sums of the sorted values).
    fn test_sorted(&self, sorted: &[f64]) -> Result<NormalityOutcome, StatsError> {
        let (g1, b2) = shape_of_sorted(sorted, self.min_sample_size())?;
        let n = sorted.len();
        let jb = n as f64 / 6.0 * (g1 * g1 + (b2 - 3.0) * (b2 - 3.0) / 4.0);
        Ok(NormalityOutcome {
            statistic_kind: TestStatistic::JarqueBera,
            statistic: jb,
            p_value: chi2_sf(jb, 2.0),
            // The χ²(2) limit is notoriously slow to kick in.
            extrapolated: n < 2000,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::Moments;
    use crate::special::norm_quantile;

    fn normal_scores(n: usize) -> Vec<f64> {
        (1..=n)
            .map(|i| norm_quantile((i as f64 - 0.5) / n as f64))
            .collect()
    }

    #[test]
    fn normal_scores_pass() {
        for n in [48, 500, 5000] {
            let o = JarqueBera.test(&normal_scores(n)).unwrap();
            assert!(o.passes(0.05), "n={n}: JB={}, p={}", o.statistic, o.p_value);
        }
    }

    #[test]
    fn exponential_rejected() {
        let xs: Vec<f64> = (1..=200)
            .map(|i| -(1.0 - (i as f64 - 0.5) / 200.0).ln())
            .collect();
        let o = JarqueBera.test(&xs).unwrap();
        assert!(o.rejects_normality(0.05), "p={}", o.p_value);
    }

    #[test]
    fn statistic_matches_hand_computation() {
        // Sample with known moments: [1,2,3,4,5] has g1 = 0, b2 = 1.7.
        let jb = JarqueBera
            .test(&[1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0])
            .unwrap()
            .statistic;
        // Recompute from the module's own moment definitions to pin wiring.
        let m = Moments::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0]);
        let expect = 8.0 / 6.0 * (m.skewness().powi(2) + (m.kurtosis() - 3.0).powi(2) / 4.0);
        assert!((jb - expect).abs() < 1e-12);
    }

    #[test]
    fn small_samples_flagged_extrapolated() {
        let o = JarqueBera.test(&normal_scores(48)).unwrap();
        assert!(o.extrapolated, "JB's asymptotics are unreliable at n=48");
        let o2 = JarqueBera.test(&normal_scores(2500)).unwrap();
        assert!(!o2.extrapolated);
    }

    #[test]
    fn input_validation() {
        assert!(matches!(
            JarqueBera.test(&[1.0; 7]),
            Err(StatsError::SampleTooSmall { .. })
        ));
        assert!(matches!(
            JarqueBera.test(&[3.0; 10]),
            Err(StatsError::ZeroVariance)
        ));
    }
}
