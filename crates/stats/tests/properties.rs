//! Property-based tests for the statistical substrate.
//!
//! These complement the unit tests with randomized invariants: whatever the
//! sample, the descriptive statistics must be internally consistent, the
//! order statistics ordered, the special functions within their analytic
//! envelopes, and the normality tests well-behaved (p ∈ [0, 1], scale/shift
//! invariant).

use ebird_stats::descriptive::Moments;
use ebird_stats::normality::{
    anderson_darling::AndersonDarling, battery_presorted, battery_sorted, battery_with_scratch,
    dagostino::DagostinoK2, jarque_bera::JarqueBera, lilliefors::Lilliefors, shapiro_wilk,
    shapiro_wilk::ShapiroWilk, BatteryScratch, NormalityOutcome, NormalityTest, TestStatistic,
    WeightCache,
};
use ebird_stats::percentile::{percentile, PercentileSummary};
use ebird_stats::sort::{merge_sorted_with_tmp, sort_floats, SortScratch};
use ebird_stats::special::{
    chi2_cdf, erf, erfc, norm_cdf, norm_cdf_sf_slice, norm_log_cdf, norm_log_cdf_sf,
    norm_log_cdf_sf_slice, norm_log_sf, norm_quantile, norm_sf,
};
use ebird_stats::Histogram;
use ebird_stats::StatsError;
use proptest::prelude::*;

fn arb_sample() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0e6f64..1.0e6, 8..200)
}

/// Rewrites roughly half of a generated sample with the nasty corners of a
/// float order — both zeros, subnormals, extreme magnitudes, and
/// repeated values — selected by the generated values' own bits so the mix
/// varies per case. Adjacent duplicates are then stamped in explicitly.
fn inject_tricky_floats(mut xs: Vec<f64>) -> Vec<f64> {
    const SPECIALS: [f64; 9] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5.0e-324, // smallest subnormal
        -5.0e-324,
        f64::MAX,
        f64::MIN,
        1.5,
    ];
    for x in xs.iter_mut() {
        let sel = (x.to_bits() >> 3) % 18;
        if let Some(&s) = SPECIALS.get(sel as usize) {
            *x = s;
        }
    }
    for i in (1..xs.len()).step_by(7) {
        xs[i] = xs[i - 1];
    }
    xs
}

/// A sample biased toward float-sort edge cases (see [`inject_tricky_floats`]).
fn arb_tricky_sample(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0e6f64..1.0e6, 0..max_len).prop_map(inject_tricky_floats)
}

/// Inputs for the batch Φ kernels: lengths 0..=17 straddle the block size
/// (8), and roughly one value in five is rewritten (selected by its own
/// bits, as in [`inject_tricky_floats`]) to a non-finite or boundary special
/// so the slice kernels' scalar-fallback path is hit alongside the fast
/// path.
fn arb_kernel_input() -> impl Strategy<Value = Vec<f64>> {
    const SPECIALS: [f64; 7] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MAX,
        f64::MIN,
    ];
    proptest::collection::vec(-40.0f64..40.0, 0..18).prop_map(|mut xs| {
        for x in xs.iter_mut() {
            let sel = (x.to_bits() >> 3) % 35;
            if let Some(&s) = SPECIALS.get(sel as usize) {
                *x = s;
            }
        }
        xs
    })
}

/// Deterministic `u64` stream (xorshift64*) for the generators below, which
/// need more values per case than the strategy combinators conveniently give.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// `n` nanosecond keys as the sweep's integer sort sees them: `flavor` 0 is
/// millisecond-scale timings with heavy duplication, 1 a narrow band (all
/// high bytes constant), 2 the full `u64` range with 0, values above 2⁵³
/// (where `u64 → f64` rounds) and `u64::MAX` stamped in.
fn ns_keys(n: usize, flavor: usize, seed: u64) -> Vec<u64> {
    let mut next = xorshift(seed);
    let mut keys: Vec<u64> = (0..n)
        .map(|_| match flavor {
            0 => 10_000_000 + (next() % 5_000) * 1_000,
            1 => 3_000_000 + next() % 200,
            _ => next(),
        })
        .collect();
    if flavor == 2 {
        let specials = [0, u64::MAX, (1 << 53) + 1, (1 << 53) + 3, u64::MAX - 1, 0];
        for (slot, special) in keys.iter_mut().step_by(5).zip(specials.into_iter().cycle()) {
            *slot = special;
        }
    }
    keys
}

/// The five tests of the extended battery.
const ALL_TESTS: [&dyn NormalityTest; 5] = [
    &DagostinoK2,
    &ShapiroWilk,
    &AndersonDarling,
    &Lilliefors,
    &JarqueBera,
];

/// An outcome with its floats as bits, so a NaN statistic (extreme
/// magnitudes overflow the moments) compares equal to itself.
type OutcomeBits = Result<(TestStatistic, u64, u64, bool), StatsError>;

fn outcome_bits(outcome: Result<NormalityOutcome, StatsError>) -> OutcomeBits {
    outcome.map(|o| {
        let (statistic, p) = (o.statistic.to_bits(), o.p_value.to_bits());
        (o.statistic_kind, statistic, p, o.extrapolated)
    })
}

/// A sample guaranteed to have spread (for scale-dependent tests).
fn arb_spread_sample() -> impl Strategy<Value = Vec<f64>> {
    arb_sample().prop_filter("needs spread", |xs| {
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        max - min > 1e-6
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn moments_bounds_and_consistency(xs in arb_sample()) {
        let m = Moments::from_slice(&xs);
        prop_assert_eq!(m.count(), xs.len() as u64);
        prop_assert!(m.min() <= m.mean() + 1e-9 && m.mean() <= m.max() + 1e-9);
        prop_assert!(m.variance_population() >= -1e-9);
        // Sample variance ≥ population variance (n/(n−1) factor).
        if xs.len() >= 2 {
            prop_assert!(m.variance() + 1e-9 >= m.variance_population());
        }
        // Kurtosis ≥ 1 + skewness² is a universal moment inequality.
        let (g1, b2) = (m.skewness(), m.kurtosis());
        if g1.is_finite() && b2.is_finite() {
            prop_assert!(b2 + 1e-6 >= 1.0 + g1 * g1, "b2={b2}, g1={g1}");
        }
    }

    #[test]
    fn moments_merge_matches_whole(xs in arb_sample(), split in 1usize..7) {
        let k = (xs.len() * split) / 8;
        prop_assume!(k > 0 && k < xs.len());
        let whole = Moments::from_slice(&xs);
        let mut left = Moments::from_slice(&xs[..k]);
        left.merge(&Moments::from_slice(&xs[k..]));
        prop_assert_eq!(left.count(), whole.count());
        let scale = whole.mean().abs().max(1.0);
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-7 * scale);
        let vscale = whole.variance_population().abs().max(1e-12);
        prop_assert!(
            (left.variance_population() - whole.variance_population()).abs() < 1e-5 * vscale
        );
    }

    #[test]
    fn percentiles_are_monotone_in_p(xs in arb_sample(), p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&xs, lo).unwrap();
        let b = percentile(&xs, hi).unwrap();
        prop_assert!(a <= b + 1e-12);
    }

    #[test]
    fn percentile_summary_brackets_sample(xs in arb_sample()) {
        let s = PercentileSummary::from_sample(&xs).unwrap();
        for &x in &xs {
            prop_assert!(x >= s.min && x <= s.max);
        }
        prop_assert!(s.p5 <= s.p25 && s.p25 <= s.p50 && s.p50 <= s.p75 && s.p75 <= s.p95);
    }

    #[test]
    fn histogram_total_counts_every_observation(xs in arb_sample(), width in 0.5f64..1.0e5) {
        let h = Histogram::from_sample(&xs, width).unwrap();
        prop_assert_eq!(h.total(), xs.len() as u64);
    }

    #[test]
    fn special_function_envelopes(x in -6.0f64..6.0) {
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
        prop_assert!((-1.0..=1.0).contains(&erf(x)));
        let p = norm_cdf(x);
        prop_assert!((0.0..=1.0).contains(&p));
        // CDF is nondecreasing.
        prop_assert!(norm_cdf(x + 0.001) >= p - 1e-12);
    }

    #[test]
    fn quantile_inverts_cdf(p in 1e-9f64..1.0) {
        prop_assume!(p < 1.0 - 1e-12);
        let x = norm_quantile(p);
        prop_assert!((norm_cdf(x) - p).abs() < 1e-9 * p.max(1e-3));
    }

    #[test]
    fn chi2_cdf_monotone(x1 in 0.0f64..50.0, x2 in 0.0f64..50.0, k in 1.0f64..30.0) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!(chi2_cdf(lo, k) <= chi2_cdf(hi, k) + 1e-12);
    }

    #[test]
    fn normality_tests_p_in_unit_interval(xs in arb_spread_sample()) {
        for t in ALL_TESTS {
            if let Ok(o) = t.test(&xs) {
                prop_assert!((0.0..=1.0).contains(&o.p_value), "{}: p={}", o.statistic_kind.name(), o.p_value);
                prop_assert!(o.statistic.is_finite());
            }
        }
    }

    #[test]
    fn normality_tests_location_scale_invariant(
        xs in arb_spread_sample(),
        shift in -1.0e3f64..1.0e3,
        scale in 0.01f64..100.0,
    ) {
        let transformed: Vec<f64> = xs.iter().map(|&x| shift + scale * x).collect();
        // Shapiro–Wilk's W and Lilliefors' D are exactly invariant.
        if let (Ok(a), Ok(b)) = (ShapiroWilk.test(&xs), ShapiroWilk.test(&transformed)) {
            let (a, b) = (a.statistic, b.statistic);
            prop_assert!((a - b).abs() < 1e-6, "SW: {a} vs {b}");
        }
        if let (Ok(a), Ok(b)) = (Lilliefors.test(&xs), Lilliefors.test(&transformed)) {
            let (a, b) = (a.statistic, b.statistic);
            prop_assert!((a - b).abs() < 1e-7, "Lilliefors: {a} vs {b}");
        }
    }

    #[test]
    fn shapiro_wilk_w_in_unit_interval(xs in arb_spread_sample()) {
        if let Ok(o) = ShapiroWilk.test(&xs) {
            prop_assert!((0.0..=1.0).contains(&o.statistic), "W={}", o.statistic);
        }
    }

    #[test]
    fn every_test_on_a_shuffled_sample_equals_test_sorted_on_its_sort(
        xs in arb_tricky_sample(300),
        seed in 0u64..u64::MAX,
    ) {
        // All five tests share one sort: `test` sorts its own copy of the
        // shuffled sample, `test_sorted` reads `sort_floats` of it. Both
        // must put duplicates, ±0.0 and subnormals in the same order, and
        // every test must then compute the same bits or the same error.
        let mut shuffled = xs;
        let mut next = xorshift(seed);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let mut sorted = shuffled.clone();
        sort_floats(&mut sorted, &mut SortScratch::new());
        for t in ALL_TESTS {
            prop_assert_eq!(
                outcome_bits(t.test(&shuffled)),
                outcome_bits(t.test_sorted(&sorted)),
                "{}, n = {}",
                t.kind().name(),
                sorted.len()
            );
        }
    }

    #[test]
    fn sort_is_bit_identical_to_stable_partial_cmp_sort(
        xs in arb_tricky_sample(400),
    ) {
        // The pinned contract of crate::sort: for every finite input —
        // duplicates, ±0.0 (stable in input order), subnormals, extremes —
        // `sort_floats` produces the same bits as the stable comparison sort.
        let mut sorted = xs.clone();
        sort_floats(&mut sorted, &mut SortScratch::new());
        let mut reference = xs.clone();
        reference.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let sorted_bits: Vec<u64> = sorted.iter().map(|v| v.to_bits()).collect();
        let ref_bits: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(sorted_bits, ref_bits);
    }

    #[test]
    fn merge_sorted_matches_sort_of_concatenation(
        parts in proptest::collection::vec(
            proptest::collection::vec(-1.0e6f64..1.0e6, 0..60), 1..6),
    ) {
        let sorted_parts: Vec<Vec<f64>> = parts
            .iter()
            .map(|p| {
                let mut s = inject_tricky_floats(p.clone());
                sort_floats(&mut s, &mut SortScratch::new());
                s
            })
            .collect();
        let children: Vec<&[f64]> = sorted_parts.iter().map(|p| p.as_slice()).collect();
        let mut concat: Vec<f64> = sorted_parts.concat();
        let mut merged = vec![0.0; concat.len()];
        merge_sorted_with_tmp(&children, &mut merged, &mut Vec::new());
        concat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let merged_bits: Vec<u64> = merged.iter().map(|v| v.to_bits()).collect();
        let concat_bits: Vec<u64> = concat.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(merged_bits, concat_bits);
    }

    #[test]
    fn weight_cache_is_bit_identical_to_fresh_weights(n in 3usize..5001) {
        let mut cache = WeightCache::new();
        let mut fresh = Vec::new();
        shapiro_wilk::blom_weights(n, &mut fresh);
        let fresh_bits: Vec<u64> = fresh.iter().map(|w| w.to_bits()).collect();
        // Miss then hit must both be bit-for-bit equal to a fresh build.
        for pass in 0..2 {
            let cached_bits: Vec<u64> =
                cache.weights_for(n).iter().map(|w| w.to_bits()).collect();
            prop_assert_eq!(&cached_bits, &fresh_bits, "pass {}", pass);
        }
        let (hits, misses) = cache.stats();
        prop_assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn fused_battery_is_bit_identical_to_individual_tests(
        xs in proptest::collection::vec(-1.0e6f64..1.0e6, 3..300),
        flatten in 0usize..4,
    ) {
        // Randomized shapes, including degenerate flat groups and sizes
        // below every battery member's minimum.
        let xs = if flatten == 0 { vec![xs[0]; xs.len()] } else { xs };
        let mut scratch = BatteryScratch::new();
        let fused = battery_with_scratch(&xs, &mut scratch);
        let direct = [
            DagostinoK2.test(&xs).ok(),
            ShapiroWilk.test(&xs).ok(),
            AndersonDarling.test(&xs).ok(),
        ];
        prop_assert_eq!(fused, direct);
    }

    #[test]
    fn key_sort_then_convert_is_bit_identical_to_convert_then_float_sort(
        seed in 0u64..u64::MAX,
    ) {
        // The sweep's order of operations (sort integer ns with std's
        // unstable sort, convert to ms) against the oracle's (convert, then
        // sort the floats), at lengths from empty to the thousands. The
        // conversion is `ebird_core::sample::ns_to_ms`'s.
        let to_ms = |ns: u64| ns as f64 / 1.0e6;
        for n in [1537usize, 1000, 65, 64, 63, 48, 2, 1, 0] {
            for flavor in 0..3 {
                let keys = ns_keys(n, flavor, seed ^ (n * 3 + flavor) as u64);
                let mut sorted_keys = keys.clone();
                sorted_keys.sort_unstable();
                let via_keys: Vec<u64> =
                    sorted_keys.iter().map(|&k| to_ms(k).to_bits()).collect();
                let mut floats: Vec<f64> = keys.iter().map(|&k| to_ms(k)).collect();
                sort_floats(&mut floats, &mut SortScratch::new());
                let via_floats: Vec<u64> = floats.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(via_keys, via_floats, "n = {}, flavor {}", n, flavor);
            }
        }
    }

    #[test]
    fn norm_log_cdf_sf_is_bitwise_equal_to_separate_evaluations(x in -40.0f64..40.0) {
        let (lc, ls) = norm_log_cdf_sf(x);
        prop_assert_eq!(lc.to_bits(), norm_log_cdf(x).to_bits());
        prop_assert_eq!(ls.to_bits(), norm_log_sf(x).to_bits());
    }

    // Lengths 0..=17 cover empty input, a partial block, exactly one and two
    // full blocks, and a block-plus-remainder tail; the input mix includes
    // NaN/±∞ so the fast path's finiteness gate is exercised both ways.
    #[test]
    fn norm_log_cdf_sf_slice_is_bitwise_equal_to_scalar(xs in arb_kernel_input()) {
        let mut lc = vec![0.0f64; xs.len()];
        let mut ls = vec![0.0f64; xs.len()];
        norm_log_cdf_sf_slice(&xs, &mut lc, &mut ls);
        for (i, &x) in xs.iter().enumerate() {
            let (c, s) = norm_log_cdf_sf(x);
            prop_assert_eq!(lc[i].to_bits(), c.to_bits(), "lc, x = {}", x);
            prop_assert_eq!(ls[i].to_bits(), s.to_bits(), "ls, x = {}", x);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn norm_cdf_sf_slice_is_bitwise_equal_to_scalar(xs in arb_kernel_input()) {
        let mut cdf = vec![0.0f64; xs.len()];
        let mut sf = vec![0.0f64; xs.len()];
        norm_cdf_sf_slice(&xs, &mut cdf, &mut sf);
        // NaN lanes only have to leave their neighbours alone.
        for (i, &x) in xs.iter().enumerate().filter(|(_, x)| !x.is_nan()) {
            prop_assert_eq!(cdf[i].to_bits(), norm_cdf(x).to_bits(), "cdf, x = {}", x);
            prop_assert_eq!(sf[i].to_bits(), norm_sf(x).to_bits(), "sf, x = {}", x);
        }
    }
}

/// A*² of a sorted sample by the textbook two-log formula, term by term in
/// index order — what the one-log kernel must agree with to rounding. The
/// standardization uses the kernel's own lane mean and `Σd²` so the `z`s
/// are the same doubles and only the term arithmetic differs.
fn a2_star_two_logs(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    let nf = n as f64;
    let (mean, ssq) = ebird_stats::accumulate::mean_ssq(sorted);
    let sd = (ssq / (nf - 1.0)).sqrt();
    let z = |i: usize| (sorted[i] - mean) / sd;
    let s: f64 = (0..n)
        .map(|i| (2 * i + 1) as f64 * (norm_log_cdf(z(i)) + norm_log_sf(z(n - 1 - i))))
        .sum();
    (-nf - s / nf) * (1.0 + 0.75 / nf + 2.25 / (nf * nf))
}

/// Asserts the tail-safety contract of the one-log A² term on `sample`:
/// finite, fused ≡ stand-alone bit for bit, and equal to the two-log formula
/// to rounding (so no term took `ln(0)` or left the stable branch).
fn assert_tail_safe(
    sample: &[f64],
    scratch: &mut BatteryScratch,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let alone = AndersonDarling.test(sample).expect("spread, finite, n ≥ 8");
    let fused = battery_with_scratch(sample, scratch)[2].expect("same validation");
    prop_assert!(alone.statistic.is_finite(), "A*² = {}", alone.statistic);
    prop_assert_eq!(fused, alone);
    let mut sorted = sample.to_vec();
    sort_floats(&mut sorted, &mut SortScratch::new());
    let want = a2_star_two_logs(&sorted);
    prop_assert!(
        (alone.statistic - want).abs() <= 1e-12 * want.abs(),
        "n = {}: one-log {} vs two-log {}",
        sample.len(),
        alone.statistic,
        want
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn one_log_ad_term_is_tail_safe(
        seed in 0u64..u64::MAX,
        log10_push in 2.0f64..6.0,
        side in 0usize..2,
    ) {
        // A bell-ish sample (Irwin–Hall of three uniforms around 25 ms) with
        // one value pushed out by 10²–10⁶ σ, then with an outlier on both
        // sides: |z| of the pushed value runs up to ≈ √n, far beyond the
        // ±10 where the term falls back to the two log tails.
        let mut scratch = BatteryScratch::new();
        let mut next = xorshift(seed);
        let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
        let push = [1.0, -1.0][side] * 10f64.powf(log10_push) * 0.5; // σ of the bell is 0.5
        for n in [8usize, 48, 3840] {
            let mut sample: Vec<f64> = (0..n).map(|_| 23.5 + unit() + unit() + unit()).collect();
            sample[n / 3] += push;
            assert_tail_safe(&sample, &mut scratch)?;
            sample[2 * n / 3] -= 0.75 * push;
            assert_tail_safe(&sample, &mut scratch)?;
        }
    }
}

#[test]
fn ad_term_rule_is_the_same_at_exactly_plus_minus_ten_sigma() {
    // 199 zeros and ±10: mean 0, Σd² = 200, sd = 1 — all exact — so the two
    // extreme z are exactly ±10, the first values *outside* the one-log
    // range. Both routes must send the same four terms down the two-tail
    // branch, and the zeros (Φ = ½ exactly) down the product branch.
    let mut sample = vec![0.0; 201];
    (sample[17], sample[101]) = (10.0, -10.0);
    let (mean, ssq) = ebird_stats::accumulate::mean_ssq(&sample);
    assert_eq!((mean, ssq), (0.0, 200.0));
    assert_tail_safe(&sample, &mut BatteryScratch::new()).unwrap();
}

proptest! {
    // Every case runs all 15 × 4 combinations; the standalone Shapiro–Wilk
    // re-solves its weights each time, so a few cases are plenty.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn blocked_fused_battery_is_bit_identical_to_individual_tests(seed in 0u64..u64::MAX) {
        // Sample sizes around the fused kernel's Φ block (512 pairs, so one
        // block holds n = 1024): a partial block, exactly one, one pair
        // more, two blocks plus one — odd and even — and sizes below each
        // test's minimum. Fed through the sorted-sample entry, as the sweep
        // does, on one scratch so the block buffers are reused across sizes.
        let mut scratch = BatteryScratch::new();
        let mut next = xorshift(seed);
        let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
        for n in [3usize, 7, 8, 48, 511, 512, 513, 1023, 1024, 1025, 1026, 1027, 2049, 2050, 2051] {
            for kind in 0..4 {
                let sample: Vec<f64> = match kind {
                    0 => vec![7.25; n],
                    1 => (0..n).map(|_| -(1.0 - unit()).ln()).collect(),
                    // Microsecond-grained timings: many exact duplicates.
                    2 => (0..n).map(|_| (unit() * 4_000.0).floor() / 1.0e3).collect(),
                    _ => (0..n).map(|_| 10.0 + unit() + unit() + unit()).collect(),
                };
                let mut sorted = sample.clone();
                sort_floats(&mut sorted, &mut SortScratch::new());
                let fused = battery_sorted(&sorted, |x| x, &mut scratch);
                let direct = [
                    DagostinoK2.test(&sample).ok(),
                    ShapiroWilk.test(&sample).ok(),
                    AndersonDarling.test(&sample).ok(),
                ];
                prop_assert_eq!(fused, direct, "n = {}, kind = {}", n, kind);
            }
        }
    }
}

/// A battery row with its floats as bits, so two rows compare bit for bit.
type RowBits = [Option<(TestStatistic, u64, u64, bool)>; 3];

fn row_bits(row: [Option<NormalityOutcome>; 3]) -> RowBits {
    row.map(|o| {
        o.map(|o| {
            (
                o.statistic_kind,
                o.statistic.to_bits(),
                o.p_value.to_bits(),
                o.extrapolated,
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn the_u32_key_battery_is_bit_identical_to_battery_presorted_on_the_milliseconds(
        seed in 0u64..u64::MAX,
    ) {
        // The sweep's route — sorted `u32` nanosecond keys, each read as its
        // milliseconds where the kernel reads it — against the benchmark's
        // `&[f64]` entry on the same keys converted up front. The read is
        // `ebird_core::sample::ns_to_ms` on a `u32` (exact `u32 → f64`, then
        // the division). Sizes: below every test's minimum, the smallest
        // testable sample, the smallest with K² and A², a process-iteration,
        // and one past Shapiro–Wilk's validity range (odd: a middle term).
        let to_ms = |k: u32| f64::from(k) / 1.0e6;
        let mut keyed = BatteryScratch::new();
        let mut presorted = BatteryScratch::new();
        let mut next = xorshift(seed);
        for n in [0usize, 1, 2, 3, 8, 48, 5_001] {
            for kind in 0..4 {
                let mut keys: Vec<u32> = (0..n)
                    .map(|_| {
                        let r = next();
                        match kind {
                            // Zero variance: one key repeated.
                            0 => (seed >> 32) as u32,
                            // Ties: microsecond-grained millisecond timings.
                            1 => 10_000_000 + (r % 4_000) as u32 * 1_000,
                            // A narrow band: every key within 200 ns.
                            2 => 3_000_000 + (r % 200) as u32,
                            // The whole `u32` range, up to `u32::MAX`.
                            _ => (r >> 32) as u32,
                        }
                    })
                    .collect();
                if kind == 3 {
                    for (slot, special) in keys.iter_mut().step_by(3).zip([u32::MAX, 0, u32::MAX - 1]) {
                        *slot = special;
                    }
                }
                keys.sort_unstable();
                let ms: Vec<f64> = keys.iter().map(|&k| to_ms(k)).collect();
                let via_keys = battery_sorted(&keys, to_ms, &mut keyed);
                let via_ms = battery_presorted(&ms, &ms, &mut presorted);
                prop_assert_eq!(row_bits(via_keys), row_bits(via_ms), "n = {}, kind = {}", n, kind);
                if kind == 0 || n < 3 {
                    prop_assert_eq!(via_keys, [None; 3], "n = {}, kind = {}", n, kind);
                }
            }
        }
    }
}
