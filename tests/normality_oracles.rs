//! Cross-arithmetic oracle for the normality battery: on whole synthetic
//! campaigns, the production battery and a test-local copy of the
//! arithmetic it replaced make the same decision on every group.
//!
//! The copy is deliberately *not* the code under test: K² from the streamed
//! (Pébay) `Moments` of the group in raw order, A*² with two logarithms per
//! term. The two arithmetics differ only by rounding, so every statistic
//! must agree to many digits and no p-value may cross α.

use early_bird::analysis::normality::{sweep, SWEEP_LEVELS};
use early_bird::cluster::calibration::ALPHA;
use early_bird::cluster::{JobConfig, SyntheticApp};
use early_bird::core::view::fill_group_ms;
use early_bird::stats::accumulate::mean_ssq;
use early_bird::stats::normality::anderson_darling::AndersonDarling;
use early_bird::stats::normality::dagostino::DagostinoK2;
use early_bird::stats::special::{norm_log_cdf, norm_log_sf};
use early_bird::stats::Moments;

/// `(K², p)` the way the battery computed it before the lane sums: streamed
/// moments of the raw-order sample, χ²(2) survival as `exp(−K²/2)`.
fn streamed_k2(raw: &[f64]) -> Option<(f64, f64)> {
    let m = Moments::from_slice(raw);
    if raw.len() < 8 || m.variance_population() <= 0.0 {
        return None;
    }
    let z1 = DagostinoK2::skewness_z(m.skewness(), raw.len());
    let z2 = DagostinoK2::kurtosis_z(m.kurtosis(), raw.len());
    let k2 = z1 * z1 + z2 * z2;
    Some((k2, (-0.5 * k2).exp()))
}

/// `(A*², p)` with two logarithms per term, in the kernel's pair order.
fn two_log_a2(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 8 || sorted[n - 1] - sorted[0] <= 0.0 {
        return None;
    }
    let nf = n as f64;
    let (mean, ssq) = mean_ssq(sorted);
    let sd = (ssq / (nf - 1.0)).sqrt();
    let z = |i: usize| (sorted[i] - mean) / sd;
    let mut s = 0.0;
    for i in 0..n / 2 {
        let r = n - 1 - i;
        s += (2 * i + 1) as f64 * (norm_log_cdf(z(i)) + norm_log_sf(z(r)));
        s += (2 * r + 1) as f64 * (norm_log_cdf(z(r)) + norm_log_sf(z(i)));
    }
    if n % 2 == 1 {
        let mid = n / 2;
        s += (2 * mid + 1) as f64 * (norm_log_cdf(z(mid)) + norm_log_sf(z(mid)));
    }
    let a2 = (-nf - s / nf) * (1.0 + 0.75 / nf + 2.25 / (nf * nf));
    Some((a2, AndersonDarling::p_value_for(a2)))
}

#[test]
fn new_and_previous_arithmetic_decide_every_group_alike() {
    // The CI-scale campaign (groups of 8, 32 and 1 600) and a 48-thread one
    // (the paper's process-iteration size; groups of 48, 576 and 28 800).
    let mut groups = 0;
    for cfg in [JobConfig::ci_scale(), JobConfig::new(3, 4, 50, 48)] {
        for app in SyntheticApp::all() {
            let trace = app.generate(&cfg, 20230421);
            let mut values = Vec::new();
            for level in SWEEP_LEVELS {
                let swept = sweep(&trace, level, ALPHA);
                for (g, [k2, _, a2]) in swept.outcomes.iter().enumerate() {
                    fill_group_ms(&trace, level, g, &mut values);
                    let old_k2 = streamed_k2(&values);
                    values.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
                    let old_a2 = two_log_a2(&values);
                    for (name, new, old, tol) in
                        [("K²", k2, old_k2, 1e-9), ("A*²", a2, old_a2, 1e-7)]
                    {
                        let at = format!("{} {} group {g}: {name}", app.name(), level.label());
                        let (Some(new), Some((stat, p))) = (new, old) else {
                            assert_eq!(new.is_none(), old.is_none(), "{at}");
                            continue;
                        };
                        assert!(
                            (new.statistic - stat).abs() <= tol * stat.abs(),
                            "{at} = {} vs {stat}",
                            new.statistic
                        );
                        assert_eq!(
                            new.p_value < ALPHA,
                            p < ALPHA,
                            "{at}: p {} vs {p}",
                            new.p_value
                        );
                    }
                    groups += 1;
                }
            }
        }
    }
    // 3 apps × ((200 + 50 + 1) + (600 + 50 + 1)) groups.
    assert_eq!(groups, 3 * (251 + 651));
}
