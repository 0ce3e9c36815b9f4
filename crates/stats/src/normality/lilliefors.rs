//! Lilliefors test for normality (Kolmogorov–Smirnov with estimated
//! parameters).
//!
//! An *extension* beyond the paper's battery: the paper runs D'Agostino,
//! Shapiro–Wilk and Anderson–Darling; Lilliefors is the fourth classic
//! normality test and exercises a different discrepancy notion (sup-norm of
//! the CDF difference, rather than moments or order-statistic correlation).
//! The extended battery lets `repro battery` ask whether the paper's
//! conclusions are test-battery-sensitive.
//!
//! The statistic is `D = sup |F̂(x) − Φ((x − x̄)/s)|`; because the parameters
//! are estimated, the classic KS critical values are wrong — we use the
//! Dallal–Wilkinson (1986) analytic p-value approximation, the same one R's
//! `nortest::lillie.test` uses, including its rescaling for p > 0.1.

use crate::special::norm_cdf;
use crate::{accumulate, StatsError};

use super::{check_sorted, NormalityOutcome, NormalityTest, TestStatistic};

/// The Lilliefors (KS-type) normality test. Stateless; construct freely.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lilliefors;

impl Lilliefors {
    /// Dallal–Wilkinson p-value for `(d, n)`.
    fn p_value_for(d: f64, n: usize) -> f64 {
        let n = n as f64;
        // The DW formula is calibrated for p ≤ 0.1 at the *observed* D; for
        // smaller D, R evaluates it at the D that would give p = 0.1 for
        // n = 100 and rescales through an empirical transform.
        let kd = d * (n / 100.0).powf(0.49);
        let dw = |d: f64, n: f64| -> f64 {
            (-7.01256 * d * d * (n + 2.78019) + 2.99587 * d * (n + 2.78019).sqrt() - 0.122119
                + 0.974598 / n.sqrt()
                + 1.67997 / n)
                .exp()
        };
        let p = if n > 100.0 { dw(kd, 100.0) } else { dw(d, n) };
        if p > 0.1 {
            // Empirical large-p correction (Dallal & Wilkinson / nortest).
            let kk = (n.sqrt() - 0.01 + 0.85 / n.sqrt()) * d;
            let p2 = if kk <= 0.302 {
                1.0
            } else if kk <= 0.5 {
                2.76773 - 19.828315 * kk + 80.709644 * kk * kk - 138.55152 * kk.powi(3)
                    + 81.218052 * kk.powi(4)
            } else if kk <= 0.9 {
                -4.901232 + 40.662806 * kk - 97.490286 * kk * kk + 94.029866 * kk.powi(3)
                    - 32.355711 * kk.powi(4)
            } else if kk <= 1.31 {
                6.198765 - 19.558097 * kk + 23.186922 * kk * kk - 12.234627 * kk.powi(3)
                    + 2.423045 * kk.powi(4)
            } else {
                0.0
            };
            p2.clamp(0.0, 1.0)
        } else {
            p.clamp(0.0, 1.0)
        }
    }
}

impl NormalityTest for Lilliefors {
    fn kind(&self) -> TestStatistic {
        TestStatistic::LillieforsD
    }

    fn min_sample_size(&self) -> usize {
        5
    }

    /// Standardization is monotone, so the sorted raw values give the
    /// sorted z-scores directly.
    fn test_sorted(&self, sorted: &[f64]) -> Result<NormalityOutcome, StatsError> {
        check_sorted(sorted, self.min_sample_size())?;
        let n = sorted.len();
        let nf = n as f64;
        let (mean, ssq) = accumulate::mean_ssq(sorted);
        let sd = (ssq / (nf - 1.0)).sqrt();
        if sd.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(StatsError::ZeroVariance);
        }
        let mut d: f64 = 0.0;
        for (i, &x) in sorted.iter().enumerate() {
            let f = norm_cdf((x - mean) / sd);
            let upper = (i as f64 + 1.0) / nf - f;
            let lower = f - i as f64 / nf;
            d = d.max(upper.max(lower));
        }
        Ok(NormalityOutcome {
            statistic_kind: TestStatistic::LillieforsD,
            statistic: d,
            p_value: Self::p_value_for(d, n),
            extrapolated: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::norm_quantile;

    fn normal_scores(n: usize) -> Vec<f64> {
        (1..=n)
            .map(|i| norm_quantile((i as f64 - 0.5) / n as f64))
            .collect()
    }

    #[test]
    fn normal_scores_pass() {
        for n in [20, 48, 500] {
            let o = Lilliefors.test(&normal_scores(n)).unwrap();
            assert!(o.passes(0.05), "n={n}: D={}, p={}", o.statistic, o.p_value);
        }
    }

    #[test]
    fn exponential_rejected_at_n48() {
        let xs: Vec<f64> = (1..=48)
            .map(|i| -(1.0 - (i as f64 - 0.5) / 48.0).ln())
            .collect();
        let o = Lilliefors.test(&xs).unwrap();
        assert!(o.rejects_normality(0.05), "p={}", o.p_value);
    }

    #[test]
    fn uniform_rejected_at_scale() {
        let xs: Vec<f64> = (0..1000).map(|i| i as f64 / 999.0).collect();
        let o = Lilliefors.test(&xs).unwrap();
        assert!(o.rejects_normality(0.05), "p={}", o.p_value);
    }

    #[test]
    fn d_statistic_in_unit_interval_and_location_scale_invariant() {
        let xs = normal_scores(48);
        let shifted: Vec<f64> = xs.iter().map(|v| 42.0 + 7.0 * v).collect();
        let d1 = Lilliefors.test(&xs).unwrap().statistic;
        let d2 = Lilliefors.test(&shifted).unwrap().statistic;
        assert!((d1 - d2).abs() < 1e-12);
        assert!((0.0..1.0).contains(&d1));
    }

    #[test]
    fn known_critical_region_behaviour() {
        // At n = 50 the 5% critical value is ≈ 0.1246 (Lilliefors' table);
        // the DW p-value must cross 0.05 near there.
        let p_below = Lilliefors::p_value_for(0.11, 50);
        let p_above = Lilliefors::p_value_for(0.14, 50);
        assert!(p_below > 0.05, "D=0.11 ⇒ p={p_below}");
        assert!(p_above < 0.05, "D=0.14 ⇒ p={p_above}");
    }

    #[test]
    fn p_value_monotone_in_d() {
        let mut prev = 1.0;
        for i in 1..60 {
            let d = i as f64 * 0.005;
            let p = Lilliefors::p_value_for(d, 48);
            assert!((0.0..=1.0).contains(&p));
            assert!(p <= prev + 0.05, "D={d}: p={p} prev={prev}");
            prev = p;
        }
    }

    #[test]
    fn input_validation() {
        assert!(matches!(
            Lilliefors.test(&[1.0; 4]),
            Err(StatsError::SampleTooSmall { .. })
        ));
        assert!(matches!(
            Lilliefors.test(&[2.0; 10]),
            Err(StatsError::ZeroVariance)
        ));
    }
}
