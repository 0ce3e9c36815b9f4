//! Shapiro–Wilk W test for normality — Royston's AS R94 algorithm.
//!
//! This follows P. Royston, *"Remark AS R94: A remark on Algorithm AS 181: The
//! W-test for normality"*, Applied Statistics 44(4), 1995 — the algorithm
//! behind R's `shapiro.test` and `scipy.stats.shapiro`.
//!
//! Outline:
//!
//! 1. Expected normal order statistics are approximated by
//!    `mᵢ = Φ⁻¹((i − 0.375)/(n + 0.25))` (Blom scores), each one closed-form
//!    AS241 quantile ([`norm_quantile`], the quantile R's `swilk` uses).
//! 2. The weight vector `a` is `m/‖m‖` with polynomial corrections to the one
//!    or two extreme weights (five-term polynomials in `1/√n`).
//! 3. `W = (Σ aᵢ x₍ᵢ₎)² / Σ(xᵢ − x̄)²`, computed via the symmetric-difference
//!    form `Σ_{i≤n/2} aᵢ (x₍ₙ₊₁₋ᵢ₎ − x₍ᵢ₎)`.
//! 4. `1 − W` is mapped to a normal deviate via Royston's log-normal
//!    transformations (separate parameter fits for `4 ≤ n ≤ 11` and `n ≥ 12`)
//!    whose upper tail gives the p-value.
//!
//! The published fit is validated for `3 ≤ n ≤ 5000`. The paper nevertheless
//! applies SW to samples of 3,840 and 768,000 observations; we do the same but
//! set [`NormalityOutcome::extrapolated`] for `n > 5000` so reports can flag it.
//!
//! Steps 1–2 depend only on `n`: [`NormalityTest::test_sorted`] solves the
//! weights afresh on every call, while the fused battery kernel caches them
//! per `n` ([`super::WeightCache`]) and shares them across every group of an
//! aggregation level that its scratch tests. The sweep's scratch belongs to
//! one call, so the sweep solves each vector once per call — at the paper's
//! n = 768 000, 384 000 closed-form scores in about 5 ms.

use crate::special::{norm_quantile, norm_sf};
use crate::{accumulate, StatsError};

use super::{check_sorted, NormalityOutcome, NormalityTest, TestStatistic};

/// The Shapiro–Wilk test. Stateless; construct freely.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShapiroWilk;

/// Royston's polynomial coefficient sets (constants from AS R94 / R's swilk.c),
/// evaluated lowest-order-first by [`poly`].
const C1: [f64; 6] = [0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056];
const C2: [f64; 6] = [0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633];
const C3: [f64; 4] = [0.5440, -0.39978, 0.025054, -6.714e-4];
const C4: [f64; 4] = [1.3822, -0.77857, 0.062767, -0.0020322];
const C5: [f64; 4] = [-1.5861, -0.31082, -0.083751, 0.0038915];
const C6: [f64; 3] = [-0.4803, -0.082676, 0.0030302];
const G: [f64; 2] = [-2.273, 0.459];

/// Horner evaluation, coefficients in ascending order.
fn poly(coeffs: &[f64], x: f64) -> f64 {
    coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
}

/// The Blom score `mᵢ = Φ⁻¹((i + 1 − 0.375)/(n + 0.25))` of the `i`-th
/// order statistic (from 0), with `an25 = n + 0.25`: one closed-form
/// [`norm_quantile`] each.
fn blom_score(i: usize, an25: f64) -> f64 {
    norm_quantile((i as f64 + 1.0 - 0.375) / an25)
}

/// Fills `a` with the corrected half-length Shapiro–Wilk weight vector for
/// sample size `n` (AS R94 steps 1–2). Depends **only** on `n` — the fused
/// battery caches the result per `n` ([`super::WeightCache`]) and shares it
/// across every group of that size it tests.
///
/// # Panics
/// Debug builds panic if `n < 3`.
pub fn blom_weights(n: usize, a: &mut Vec<f64>) {
    debug_assert!(n >= 3, "Blom weights need n >= 3");
    let nn2 = n / 2;
    a.clear();
    a.resize(nn2, 0.0);
    if n == 3 {
        a[0] = std::f64::consts::FRAC_1_SQRT_2;
        return;
    }
    // Blom scores for the lower half (negative values), computed in place in
    // `a` and corrected afterwards.
    let an25 = n as f64 + 0.25;
    let mut summ2 = 0.0;
    for (i, mi) in a.iter_mut().enumerate() {
        *mi = blom_score(i, an25);
        summ2 += 2.0 * *mi * *mi;
    }
    let ssumm2 = summ2.sqrt();
    let rsn = 1.0 / (n as f64).sqrt();
    let m0 = a[0];
    // Corrected extreme weights (positive by construction).
    let a1 = poly(&C1, rsn) - m0 / ssumm2;
    let (i1, fac) = if n > 5 {
        let m1 = a[1];
        let a2 = poly(&C2, rsn) - m1 / ssumm2;
        let fac = ((summ2 - 2.0 * m0 * m0 - 2.0 * m1 * m1) / (1.0 - 2.0 * a1 * a1 - 2.0 * a2 * a2))
            .sqrt();
        a[1] = a2;
        (2, fac)
    } else {
        let fac = ((summ2 - 2.0 * m0 * m0) / (1.0 - 2.0 * a1 * a1)).sqrt();
        (1, fac)
    };
    a[0] = a1;
    for ai in a.iter_mut().skip(i1) {
        *ai = -*ai / fac;
    }
}

/// Precomputed Royston p-value transform parameters for one sample size —
/// the polynomial fits depend only on `n`, so the sweep's weight cache stores
/// them next to the weight vector.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SwPValueParams {
    n: usize,
    /// `gamma` threshold of the `4 ≤ n ≤ 11` branch (unused otherwise).
    gamma: f64,
    m: f64,
    s: f64,
}

impl SwPValueParams {
    /// Evaluates the polynomial fits for sample size `n`.
    pub(crate) fn for_n(n: usize) -> Self {
        let nf = n as f64;
        if n == 3 {
            // The exact arcsine branch needs no fitted parameters.
            Self {
                n,
                gamma: 0.0,
                m: 0.0,
                s: 1.0,
            }
        } else if n <= 11 {
            Self {
                n,
                gamma: poly(&G, nf),
                m: poly(&C3, nf),
                s: poly(&C4, nf).exp(),
            }
        } else {
            let ln_n = nf.ln();
            Self {
                n,
                gamma: 0.0,
                m: poly(&C5, ln_n),
                s: poly(&C6, ln_n).exp(),
            }
        }
    }

    /// Royston's p-value for a W statistic at this `n` (bit-identical to
    /// re-deriving the parameters fresh).
    pub(crate) fn p_value(&self, w: f64) -> f64 {
        if self.n == 3 {
            // Exact small-sample distribution.
            const PI6: f64 = 6.0 / std::f64::consts::PI;
            const STQR: f64 = 1.047_197_551_196_597_6; // asin(sqrt(3/4))
            let p = PI6 * ((w.sqrt()).asin() - STQR);
            return p.clamp(0.0, 1.0);
        }
        let y = (1.0 - w).ln();
        let z = if self.n <= 11 {
            if y >= self.gamma {
                // W so small that the transform degenerates: p ≈ 0.
                return f64::MIN_POSITIVE;
            }
            -(self.gamma - y).ln()
        } else {
            y
        };
        norm_sf((z - self.m) / self.s)
    }
}

impl NormalityTest for ShapiroWilk {
    fn kind(&self) -> TestStatistic {
        TestStatistic::ShapiroWilkW
    }

    fn min_sample_size(&self) -> usize {
        3
    }

    /// W in the symmetric-difference form `(Σ aᵢ (x₍ₙ₋ᵢ₎ − x₍ᵢ₎))² / Σ(x − x̄)²`:
    /// `Σ(x − x̄)²` from the lane accumulators and the `sax` sum with `i`
    /// ascending — the sequence the fused kernel replays, so both routes
    /// agree bit for bit.
    fn test_sorted(&self, sorted: &[f64]) -> Result<NormalityOutcome, StatsError> {
        check_sorted(sorted, self.min_sample_size())?;
        let n = sorted.len();
        let mut a = Vec::new();
        blom_weights(n, &mut a);
        let (_, ssq) = accumulate::mean_ssq(sorted);
        let mut sax = 0.0;
        for (i, &ai) in a.iter().enumerate() {
            sax += ai * (sorted[n - 1 - i] - sorted[i]);
        }
        let w = ((sax * sax) / ssq).min(1.0);
        Ok(NormalityOutcome {
            statistic_kind: TestStatistic::ShapiroWilkW,
            statistic: w,
            p_value: SwPValueParams::for_n(n).p_value(w),
            extrapolated: n > 5000,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normal_scores(n: usize) -> Vec<f64> {
        (1..=n)
            .map(|i| norm_quantile((i as f64 - 0.5) / n as f64))
            .collect()
    }

    #[test]
    fn w_close_to_one_for_normal_scores() {
        for n in [10, 48, 500, 4999] {
            let o = ShapiroWilk.test(&normal_scores(n)).unwrap();
            assert!(o.statistic > 0.98, "n={n}: W={}", o.statistic);
            assert!(o.passes(0.05), "n={n}: p={}", o.p_value);
        }
    }

    #[test]
    fn shapiro_1965_weights_example() {
        // The classic 11-men weight data from Shapiro & Wilk (1965), W ≈ 0.79.
        let xs = [
            148.0, 154.0, 158.0, 160.0, 161.0, 162.0, 166.0, 170.0, 182.0, 195.0, 236.0,
        ];
        let o = ShapiroWilk.test(&xs).unwrap();
        assert!(
            (o.statistic - 0.79).abs() < 0.01,
            "W = {} (expected ≈ 0.79)",
            o.statistic
        );
        assert!(o.rejects_normality(0.05), "p = {}", o.p_value);
    }

    #[test]
    fn weights_are_normalized_and_decreasing() {
        let mut a = Vec::new();
        blom_weights(48, &mut a);
        // Full vector is antisymmetric: Σ over all n of aᵢ² = 2 Σ half ≈ 1.
        let norm: f64 = 2.0 * a.iter().map(|v| v * v).sum::<f64>();
        assert!((norm - 1.0).abs() < 1e-3, "‖a‖² = {norm}");
        // The extreme order statistic carries the largest weight.
        for w in a.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "weights should decrease: {w:?}");
        }
        assert!(a[0] > 0.0);
    }

    #[test]
    fn uniform_data_rejected_at_moderate_n() {
        let xs: Vec<f64> = (0..500).map(|i| i as f64 / 499.0).collect();
        let o = ShapiroWilk.test(&xs).unwrap();
        assert!(o.rejects_normality(0.05), "uniform p={}", o.p_value);
    }

    #[test]
    fn exponential_data_rejected_at_small_n() {
        let xs: Vec<f64> = (1..=48)
            .map(|i| -(1.0 - (i as f64 - 0.5) / 48.0).ln())
            .collect();
        let o = ShapiroWilk.test(&xs).unwrap();
        assert!(o.rejects_normality(0.05), "exp p={}", o.p_value);
    }

    #[test]
    fn n3_exact_branch() {
        let o = ShapiroWilk.test(&[1.0, 2.0, 3.0]).unwrap();
        // Perfectly linear spacing is as normal as n=3 gets: W = 1 exactly
        // (clamped), p must be 1 within the arcsine formula's clamp.
        assert!(o.statistic > 0.99);
        assert!((0.0..=1.0).contains(&o.p_value));
        // Highly skewed triple should have lower W.
        let o2 = ShapiroWilk.test(&[1.0, 1.01, 100.0]).unwrap();
        assert!(o2.statistic < o.statistic);
    }

    #[test]
    fn small_n_branch_4_to_11() {
        for n in [4, 5, 6, 7, 11] {
            let o = ShapiroWilk.test(&normal_scores(n)).unwrap();
            assert!((0.0..=1.0).contains(&o.p_value), "n={n} p={}", o.p_value);
            assert!(o.statistic > 0.9, "n={n} W={}", o.statistic);
        }
    }

    #[test]
    fn large_n_is_flagged_extrapolated() {
        let o = ShapiroWilk.test(&normal_scores(6000)).unwrap();
        assert!(o.extrapolated);
        assert!(o.statistic > 0.999);
        let o2 = ShapiroWilk.test(&normal_scores(5000)).unwrap();
        assert!(!o2.extrapolated);
    }

    #[test]
    fn input_validation() {
        assert!(matches!(
            ShapiroWilk.test(&[1.0, 2.0]),
            Err(StatsError::SampleTooSmall { needed: 3, got: 2 })
        ));
        assert!(matches!(
            ShapiroWilk.test(&[7.0; 10]),
            Err(StatsError::ZeroVariance)
        ));
        assert!(matches!(
            ShapiroWilk.test(&[1.0, f64::NAN, 2.0]),
            Err(StatsError::NonFinite)
        ));
    }

    #[test]
    fn w_is_scale_and_shift_invariant() {
        let xs = [
            148.0, 154.0, 158.0, 160.0, 161.0, 162.0, 166.0, 170.0, 182.0, 195.0, 236.0,
        ];
        let scaled: Vec<f64> = xs.iter().map(|v| 3.0 * v - 100.0).collect();
        let w1 = ShapiroWilk.test(&xs).unwrap().statistic;
        let w2 = ShapiroWilk.test(&scaled).unwrap().statistic;
        assert!((w1 - w2).abs() < 1e-12);
    }

    #[test]
    fn blom_scores_are_within_two_ulps_of_external_reference_values() {
        // mᵢ at n = 768 000 — the paper's application-level group — for the
        // `f64` q = (i + 0.625)/768000.25, to 50 digits (mpmath), rounded to
        // 20 and parsed to the nearest `f64`. m₀ and m₁ feed Royston's
        // corrected extreme weights.
        let an25 = 768_000.25;
        for (i, want) in [
            (0, "-4.7948946249271217221"),
            (1, "-4.5996620244704703149"),
            (57_000, "-1.4450669567561190627"),
            (383_999, "-1.6319189184257105987e-6"),
        ] {
            let want: f64 = want.parse().unwrap();
            let got = blom_score(i, an25);
            let ulps = got.to_bits().abs_diff(want.to_bits());
            assert!(ulps <= 2, "m{i} = {got}, want {want} ({ulps} ulps)");
        }
    }

    #[test]
    fn w_in_unit_interval() {
        for n in [3, 5, 13, 48] {
            let xs: Vec<f64> = (0..n).map(|i| ((i * i) % 17) as f64 + 0.1).collect();
            if let Ok(w) = ShapiroWilk.test(&xs).map(|o| o.statistic) {
                assert!((0.0..=1.0).contains(&w), "n={n}, W={w}");
            }
        }
    }
}
