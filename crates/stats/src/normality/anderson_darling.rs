//! Anderson–Darling test for normality with estimated parameters.
//!
//! Implements Stephens' "case 3" (both mean and variance estimated from the
//! sample), the variant `scipy.stats.anderson(x, 'norm')` computes and the one
//! the paper runs at a 5% significance level.
//!
//! The statistic is
//! `A² = −n − (1/n) Σ (2i−1)[ln Φ(zᵢ) + ln(1 − Φ(z_{n+1−i}))]`
//! over standardized, sorted observations, with the small-sample modification
//! `A*² = A² (1 + 0.75/n + 2.25/n²)` (D'Agostino & Stephens 1986, Table 4.7).
//!
//! Each bracket is evaluated as **one** logarithm, of the product
//! `Φ(zᵢ)·(1 − Φ(z_{n+1−i}))` ([`log_term`]): two `ln` calls were five
//! eighths of a Φ evaluation's cost, and the sum needs the logs only added.
//! Only a term whose product could leave the normal range — an order
//! statistic ten or more standard deviations out — takes the two stable log
//! tails instead.
//!
//! Decisions use the published critical values; p-values use the
//! D'Agostino–Stephens piecewise-exponential approximation (the same one R's
//! `nortest::ad.test` uses), which reproduces p = 0.05 at A*² = 0.752 and
//! p = 0.01 at A*² = 1.035.

use crate::special::{norm_cdf_sf, norm_log_cdf, norm_log_sf};
use crate::{accumulate, StatsError};

use super::{check_sorted, NormalityOutcome, NormalityTest, TestStatistic};

/// Smallest product [`log_term`] takes the logarithm of directly. With both
/// operands inside `(−10, 10)` each factor is at least Φ(−10) ≈ 7.6e-24, so
/// the bound does not bind; it makes "no term evaluates `ln(0)`" a property
/// of the predicate itself instead of an argument about Φ.
const MIN_DIRECT_PRODUCT: f64 = 1e-290;

/// One bracket of the A² sum: `ln Φ(z_cdf) + ln(1 − Φ(z_sf))`, given
/// `cdf = Φ(z_cdf)` and `sf = 1 − Φ(z_sf)`.
///
/// With both standardized values strictly inside `(−10, 10)` — the range
/// where [`crate::special::norm_log_cdf`] itself takes the log of the direct
/// CDF — the sum of the logs is the log of the product: one `ln`. Outside
/// it (or for a product that is not safely normal) the term is today's
/// `norm_log_cdf(z_cdf) + norm_log_sf(z_sf)`, whose Mills-ratio branch stays
/// finite however far out a laggard sits. The rule reads only the term's own
/// operands, and both the stand-alone sum ([`ad_pair_sum`]) and the fused
/// battery kernel call this one function, so the two routes take the same
/// branch for the same term by construction.
#[inline]
pub(crate) fn log_term(z_cdf: f64, cdf: f64, z_sf: f64, sf: f64) -> f64 {
    let product = cdf * sf;
    let direct = |z: f64| z > -10.0 && z < 10.0;
    if direct(z_cdf) && direct(z_sf) && product >= MIN_DIRECT_PRODUCT {
        product.ln()
    } else {
        norm_log_cdf(z_cdf) + norm_log_sf(z_sf)
    }
}

/// The Σ (2i+1)·ln(Φ(zᵢ)·(1 − Φ(z₍ₙ₋₁₋ᵢ₎))) sum over a sorted sample,
/// standardized on the fly, in **paired traversal order**: indices `i` and
/// `n−1−i` are visited together so each element needs exactly one
/// [`norm_cdf_sf`] evaluation (the sum uses both its CDF and its mirror
/// partner's survival value). The fused battery kernel replays this exact
/// accumulation sequence over [`crate::special::norm_cdf_sf_slice`]'s
/// bit-identical batch values, so both paths agree bit-for-bit.
pub(crate) fn ad_pair_sum(sorted: &[f64], mean: f64, sd: f64) -> f64 {
    let n = sorted.len();
    let z = |x: f64| (x - mean) / sd;
    let mut s = 0.0;
    for i in 0..n / 2 {
        let r = n - 1 - i;
        let (z_i, z_r) = (z(sorted[i]), z(sorted[r]));
        let (c_i, s_i) = norm_cdf_sf(z_i);
        let (c_r, s_r) = norm_cdf_sf(z_r);
        s += (2 * i + 1) as f64 * log_term(z_i, c_i, z_r, s_r);
        s += (2 * r + 1) as f64 * log_term(z_r, c_r, z_i, s_i);
    }
    if n % 2 == 1 {
        let mid = n / 2;
        let z_m = z(sorted[mid]);
        let (c, s_m) = norm_cdf_sf(z_m);
        s += (2 * mid + 1) as f64 * log_term(z_m, c, z_m, s_m);
    }
    s
}

/// Stephens' small-sample modification factor `1 + 0.75/n + 2.25/n²` —
/// a pure function of `n`, cached per sample size by the sweep engine.
pub(crate) fn modification_factor(n: usize) -> f64 {
    let nf = n as f64;
    1.0 + 0.75 / nf + 2.25 / (nf * nf)
}

/// Published case-3 significance levels (percent) and A*² critical values
/// (D'Agostino & Stephens 1986, Table 4.7).
pub const CRITICAL_TABLE: [(f64, f64); 4] =
    [(10.0, 0.631), (5.0, 0.752), (2.5, 0.873), (1.0, 1.035)];

/// The Anderson–Darling normality test (case 3). Stateless; construct freely.
#[derive(Debug, Clone, Copy, Default)]
pub struct AndersonDarling;

impl AndersonDarling {
    /// D'Agostino–Stephens p-value approximation for a modified statistic.
    ///
    /// The published fit covers moderate statistics; its quadratic term turns
    /// around far outside that range (vertex at A*² ≈ 153), so statistics
    /// beyond 13 — where the fitted p is already < 5e-31 — saturate to the
    /// smallest positive double instead of exploding.
    pub fn p_value_for(a2_star: f64) -> f64 {
        if a2_star > 13.0 {
            return f64::MIN_POSITIVE;
        }
        let p = if a2_star >= 0.6 {
            (1.2937 - 5.709 * a2_star + 0.0186 * a2_star * a2_star).exp()
        } else if a2_star > 0.34 {
            (0.9177 - 4.279 * a2_star - 1.38 * a2_star * a2_star).exp()
        } else if a2_star > 0.2 {
            1.0 - (-8.318 + 42.796 * a2_star - 59.938 * a2_star * a2_star).exp()
        } else {
            1.0 - (-13.436 + 101.14 * a2_star - 223.73 * a2_star * a2_star).exp()
        };
        p.clamp(0.0, 1.0)
    }
}

impl NormalityTest for AndersonDarling {
    fn kind(&self) -> TestStatistic {
        TestStatistic::AndersonDarlingA2
    }

    fn min_sample_size(&self) -> usize {
        8
    }

    /// The moments come from the lane accumulators over the sorted values
    /// (summing a permutation would give different bits), and `(x − x̄)/s`
    /// is strictly increasing, so the sorted raw values standardize on the
    /// fly into the sorted z-scores: no `z` buffer.
    fn test_sorted(&self, sorted: &[f64]) -> Result<NormalityOutcome, StatsError> {
        check_sorted(sorted, self.min_sample_size())?;
        let n = sorted.len();
        let nf = n as f64;
        let (mean, ssq) = accumulate::mean_ssq(sorted);
        let sd = (ssq / (nf - 1.0)).sqrt(); // unbiased (n-1) denominator, as in scipy
        if sd.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(StatsError::ZeroVariance);
        }
        let a2 = (-nf - ad_pair_sum(sorted, mean, sd) / nf) * modification_factor(n);
        Ok(NormalityOutcome {
            statistic_kind: TestStatistic::AndersonDarlingA2,
            statistic: a2,
            p_value: Self::p_value_for(a2),
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
    fn p_value_pins_published_critical_values() {
        // The approximation must reproduce the published table within ~3%.
        for (sig, crit) in CRITICAL_TABLE {
            let p = AndersonDarling::p_value_for(crit);
            let want = sig / 100.0;
            assert!(
                (p - want).abs() < 0.03 * want.max(0.05),
                "A*²={crit}: p={p}, want≈{want}"
            );
        }
    }

    #[test]
    fn log_term_takes_one_log_inside_the_direct_range_and_two_tails_outside() {
        let term = |z_cdf: f64, z_sf: f64| {
            log_term(z_cdf, norm_cdf_sf(z_cdf).0, z_sf, norm_cdf_sf(z_sf).1)
        };
        let two_logs = |z_cdf: f64, z_sf: f64| norm_log_cdf(z_cdf) + norm_log_sf(z_sf);
        // Strictly inside (−10, 10) on both sides: the log of the product,
        // within rounding of the sum of the two logs.
        for (a, b) in [
            (-9.99, 9.99),
            (-3.0, 2.0),
            (0.0, 0.0),
            (9.99, -9.99),
            (1.5, -9.5),
        ] {
            let product = norm_cdf_sf(a).0 * norm_cdf_sf(b).1;
            assert_eq!(term(a, b).to_bits(), product.ln().to_bits(), "({a}, {b})");
            let want = two_logs(a, b);
            assert!(
                (term(a, b) - want).abs() <= 1e-13 * want.abs().max(1.0),
                "({a}, {b})"
            );
        }
        // On or beyond ±10 on either side: exactly the two stable log tails,
        // finite however far out.
        for (a, b) in [
            (-10.0, 0.0),
            (0.0, 10.0),
            (10.0, -10.0),
            (-62.0, 1.0),
            (-1.0, 62.0),
            (-40.0, 40.0),
            (-1e6, 1e6),
        ] {
            assert_eq!(term(a, b).to_bits(), two_logs(a, b).to_bits(), "({a}, {b})");
            assert!(term(a, b).is_finite(), "({a}, {b})");
        }
        // A product that is not safely normal never reaches `ln`, whatever
        // the z's say.
        assert_eq!(
            log_term(-1.0, 1e-200, 1.0, 1e-200).to_bits(),
            two_logs(-1.0, 1.0).to_bits()
        );
        assert_eq!(
            log_term(-1.0, 0.0, 1.0, 0.5).to_bits(),
            two_logs(-1.0, 1.0).to_bits()
        );
    }

    #[test]
    fn normal_scores_pass() {
        for n in [20, 48, 500] {
            let o = AndersonDarling.test(&normal_scores(n)).unwrap();
            assert!(o.statistic < 0.3, "n={n}: A*²={}", o.statistic);
            assert!(o.passes(0.05), "n={n}: p={}", o.p_value);
        }
    }

    #[test]
    fn uniform_rejected_at_scale() {
        let xs: Vec<f64> = (0..1000).map(|i| i as f64 / 999.0).collect();
        let o = AndersonDarling.test(&xs).unwrap();
        assert!(o.rejects_normality(0.05), "uniform p={}", o.p_value);
        assert!(o.statistic > 1.0, "A*² = {}", o.statistic);
    }

    #[test]
    fn exponential_rejected_at_n48() {
        let xs: Vec<f64> = (1..=48)
            .map(|i| -(1.0 - (i as f64 - 0.5) / 48.0).ln())
            .collect();
        let o = AndersonDarling.test(&xs).unwrap();
        assert!(o.rejects_normality(0.05), "exp p={}", o.p_value);
    }

    #[test]
    fn statistic_is_location_scale_invariant() {
        let xs = normal_scores(48);
        let shifted: Vec<f64> = xs.iter().map(|v| 1e6 + 250.0 * v).collect();
        let a = AndersonDarling.test(&xs).unwrap().statistic;
        let b = AndersonDarling.test(&shifted).unwrap().statistic;
        assert!((a - b).abs() < 1e-8, "{a} vs {b}");
    }

    #[test]
    fn outlier_inflates_statistic() {
        let mut xs = normal_scores(48);
        let base = AndersonDarling.test(&xs).unwrap().statistic;
        xs[47] = 15.0; // a laggard-like extreme value
        let with_outlier = AndersonDarling.test(&xs).unwrap().statistic;
        assert!(
            with_outlier > base * 2.0,
            "outlier should inflate A*²: {base} -> {with_outlier}"
        );
    }

    #[test]
    fn input_validation() {
        assert!(matches!(
            AndersonDarling.test(&[1.0; 7]),
            Err(StatsError::SampleTooSmall { .. })
        ));
        assert!(matches!(
            AndersonDarling.test(&[3.0; 12]),
            Err(StatsError::ZeroVariance)
        ));
        let mut xs = normal_scores(12);
        xs[0] = f64::INFINITY;
        assert!(matches!(
            AndersonDarling.test(&xs),
            Err(StatsError::NonFinite)
        ));
    }

    #[test]
    fn huge_statistics_yield_vanishing_p() {
        // Regression: the quadratic fit must not blow up outside its domain
        // (application-level sweeps produce A*² in the hundreds).
        for a in [13.1, 50.0, 761.0, 1.0e6] {
            let p = AndersonDarling::p_value_for(a);
            assert!(p > 0.0 && p < 1e-30, "A*²={a}: p={p}");
        }
        // Continuity at the cap: just below 13 the fit is already tiny.
        assert!(AndersonDarling::p_value_for(12.9) < 1e-29);
    }

    #[test]
    fn p_value_monotone_decreasing_in_statistic() {
        let mut prev = 1.0;
        for i in 0..200 {
            let a = i as f64 * 0.02;
            let p = AndersonDarling::p_value_for(a);
            assert!((0.0..=1.0).contains(&p));
            // Allow tiny non-monotonicity at the piecewise boundaries.
            assert!(
                p <= prev + 0.02,
                "p should decrease: A*²={a}, p={p}, prev={prev}"
            );
            prev = p;
        }
    }
}
