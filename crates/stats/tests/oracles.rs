//! Oracles for the battery's arithmetic that are not the code under test
//! (ROADMAP item 3a): exact integer moments and the statistics' invariance
//! under affine maps for K², Shapiro–Wilk's closed forms — the exact n = 3
//! distribution, `0 < W ≤ 1`, and `W = 1` on the weight vector's own affine
//! images — every test's size under a true normal (item 3b) and its power
//! against seeded alternatives (item 3c), with the fused battery and the
//! stand-alone tests agreeing on both (item 3d). The K² closed forms (symmetric samples,
//! a hand-computed `b₂`) sit with `DagostinoK2`'s unit tests; the comparison
//! against the previous arithmetic on whole campaigns is the workspace's
//! `tests/normality_oracles.rs`.

use std::f64::consts::PI;

use ebird_stats::accumulate::central_sums;
use ebird_stats::descriptive::Moments;
use ebird_stats::dist::{Exponential, LogNormal, Normal, Rng64, Sample, Uniform};
use ebird_stats::normality::shapiro_wilk::{blom_weights, ShapiroWilk};
use ebird_stats::normality::{
    anderson_darling::AndersonDarling, battery_with_scratch, dagostino::DagostinoK2,
    BatteryScratch, NormalityOutcome, NormalityTest,
};

/// The paper's three tests stand-alone, in battery order (K², W, A*²).
const ALONE: [&dyn NormalityTest; 3] = [&DagostinoK2, &ShapiroWilk, &AndersonDarling];

/// Whether the stand-alone tests check sample `rep` at size `n`: every one
/// up to n = 48, every tenth above, where the stand-alone Shapiro–Wilk
/// re-solves its n/2 weights per call (192 at n = 384: ≈ 0.4 ms in a debug
/// build).
fn checks_alone(n: usize, rep: usize) -> bool {
    n <= 48 || rep.is_multiple_of(10)
}

/// `Σ(x − x̄)ᵏ` for `k = 2, 3, 4` of an integer sample, exact up to the two
/// final roundings: `Σ(n·x − Σx)ᵏ` is an integer (`i128`), and `nᵏ` is exact
/// in `f64` for every `n` used here.
fn exact_central_sums(xs: &[i64]) -> [f64; 3] {
    let n = xs.len() as i128;
    let total: i128 = xs.iter().map(|&x| x as i128).sum();
    [2u32, 3, 4].map(|k| {
        let e: i128 = xs.iter().map(|&x| (n * x as i128 - total).pow(k)).sum();
        e as f64 / (n as f64).powi(k as i32)
    })
}

/// `(g₁, b₂)` from central power sums, written out independently of the
/// crate's own definition.
fn shape(n: usize, [s2, s3, s4]: [f64; 3]) -> (f64, f64) {
    let nf = n as f64;
    let m2 = s2 / nf;
    ((s3 / nf) / m2.powf(1.5), (s4 / nf) / (m2 * m2))
}

/// The three integer-valued samples of size `n`: a µs grid around 25 ms, a
/// 10⁹ ns offset with up to 10 µs of noise, and a tight µs grid with one
/// 5 ms laggard.
fn integer_samples(n: usize, seed: u64) -> [(&'static str, Vec<i64>); 3] {
    let mut rng = Rng64::new(seed ^ n as u64);
    let mut below = |bound: u64| rng.next_below(bound) as i64;
    let grid = (0..n).map(|_| 25_000 + below(601) - 300).collect();
    let offset = (0..n).map(|_| 1_000_000_000 + below(10_000)).collect();
    let mut laggard: Vec<i64> = (0..n).map(|_| 25_000 + below(201) - 100).collect();
    laggard[n / 2] += 5_000;
    [
        ("µs grid", grid),
        ("10⁹ offset", offset),
        ("one laggard", laggard),
    ]
}

/// The lane sums of the sorted sample against exact integer arithmetic.
///
/// Error model of a two-pass central sum: the rounded mean is off by a few
/// `ulp(x̄)`, which moves `Σdᵏ` by `k·ulp(x̄)·Σ|d|ᵏ⁻¹` to first order, and the
/// powers and additions add a few `ε·Σ|d|ᵏ`; the assertion allows four of
/// each (measured: at most 0.22 of one).
///
/// For the record, the streamed `Moments` (Pébay updates in raw order), which
/// K² was computed from until this arithmetic replaced it, on the **10⁹
/// offset** sample, relative to the exact value, beside the lane sums:
///
/// | n | `g₁`: lane / streamed | `b₂`: lane / streamed |
/// |---|---|---|
/// | 8 | 0 / 6e-14 | 0 / 3e-12 |
/// | 48 | 0 / 5e-11 | 0 / 2e-11 |
/// | 3840 | 2e-8 / 7e-10 (`g₁` = −0.002: absolute 5e-11 / 2e-12) | 8e-14 / 2e-12 |
///
/// — exact where the data's own deviations are exact, otherwise limited by
/// the one rounding of the mean (the large-n `g₁ ≈ 0` row), where a streamed
/// update happens to do better. On the µs-grid and laggard samples both are
/// within 1e-12 of exact at every n.
#[test]
fn lane_central_sums_match_exact_integer_moments() {
    for n in [8usize, 48, 3840] {
        for (name, mut ints) in integer_samples(n, 0xEB1D) {
            let raw: Vec<f64> = ints.iter().map(|&x| x as f64).collect();
            ints.sort_unstable();
            let sorted: Vec<f64> = ints.iter().map(|&x| x as f64).collect();
            let exact = exact_central_sums(&ints);
            let (mean, s2, s3, s4) = central_sums(&sorted);
            let abs_power_sum =
                |k: i32| sorted.iter().map(|x| (x - mean).abs().powi(k)).sum::<f64>();
            let ulp_mean = mean.abs() * f64::EPSILON;
            for (k, got, want) in [(2, s2, exact[0]), (3, s3, exact[1]), (4, s4, exact[2])] {
                let bound = 4.0
                    * (k as f64 * ulp_mean * abs_power_sum(k - 1)
                        + f64::EPSILON * abs_power_sum(k));
                assert!(
                    (got - want).abs() <= bound,
                    "n = {n}, {name}: Σd^{k} = {got:e}, exact {want:e}, bound {bound:e}"
                );
            }
            // End to end: the test's z-scores are those of the exact shape.
            let (g1, b2) = shape(n, exact);
            let (_, z1, z2) = DagostinoK2.test_with_components(&raw).unwrap();
            let (want_z1, want_z2) = (
                DagostinoK2::skewness_z(g1, n),
                DagostinoK2::kurtosis_z(b2, n),
            );
            assert!(
                (z1 - want_z1).abs() <= 1e-7 * (1.0 + want_z1.abs()),
                "n = {n}, {name}: Z₁"
            );
            assert!(
                (z2 - want_z2).abs() <= 1e-9 * (1.0 + want_z2.abs()),
                "n = {n}, {name}: Z₂"
            );
            // And the streamed accumulator agrees with the exact shape too —
            // two independent routes to the same numbers.
            let m = Moments::from_slice(&raw);
            assert!(
                (m.skewness() - g1).abs() <= 1e-9 * (1.0 + g1.abs()),
                "n = {n}, {name}"
            );
            assert!((m.kurtosis() - b2).abs() <= 1e-9 * b2, "n = {n}, {name}");
        }
    }
}

/// K², W and A*² are functions of the standardized sample, so `x ↦ a·x + b`
/// with `a > 0` cannot move them beyond rounding. The shifts stay within a
/// few orders of the spread: one of 10⁴ spreads rounds the *data* at the
/// 1e-9 level before any statistic sees it.
#[test]
fn battery_statistics_are_affine_invariant() {
    let mut rng = Rng64::new(20230421);
    let mut scratch = BatteryScratch::new();
    let draws: [(&str, &dyn Sample); 3] = [
        ("normal", &Normal::new(25.0, 0.4)),
        ("exponential", &Exponential::new(2.0)),
        ("log-normal", &LogNormal::new(0.0, 0.5)),
    ];
    for (name, dist) in draws {
        for n in [8usize, 48, 384, 3840] {
            let xs: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
            let base = battery_with_scratch(&xs, &mut scratch);
            for (a, b) in [(1.0e-3, 0.0), (1.0e6, 0.0), (3.7, -120.5), (0.25, 100.0)] {
                let mapped: Vec<f64> = xs.iter().map(|x| a * x + b).collect();
                let got = battery_with_scratch(&mapped, &mut scratch);
                for (want, got) in base.iter().zip(&got) {
                    let (want, got) = (want.expect("spread sample"), got.expect("spread sample"));
                    assert!(
                        (got.statistic - want.statistic).abs() <= 1e-9 * want.statistic.abs(),
                        "{name}, n = {n}, x ↦ {a}·x + {b}: {} {} vs {}",
                        want.statistic_kind.name(),
                        got.statistic,
                        want.statistic
                    );
                }
            }
        }
    }
}

/// Shapiro–Wilk through both of its routes — the stand-alone test and the
/// fused battery (its second slot) — which must agree bit for bit.
fn shapiro_wilk(xs: &[f64], scratch: &mut BatteryScratch) -> NormalityOutcome {
    let alone = ShapiroWilk.test(xs).expect("spread sample");
    let fused = battery_with_scratch(xs, scratch)[1].expect("spread sample");
    assert_eq!(alone, fused, "n = {}", xs.len());
    alone
}

/// At n = 3, W has an exact distribution: `p = 6/π · (asin √W − asin √¾)`,
/// and `asin √¾ = π/3`. Royston's fit is not involved, so the p-value is
/// recomputed here from W alone, over seeded triples from W's whole range
/// (¾ for a tie at either end, 1 for equal spacing).
#[test]
fn shapiro_wilk_p_at_n3_is_the_exact_arcsine_law() {
    let mut rng = Rng64::new(0x5A3);
    let mut scratch = BatteryScratch::new();
    let normal = Normal::new(25.0, 0.4);
    let exponential = Exponential::new(2.0);
    let mut lowest_w = 1.0f64;
    for i in 0..3000 {
        let xs: Vec<f64> = match i % 3 {
            0 => (0..3).map(|_| normal.sample(&mut rng)).collect(),
            1 => (0..3).map(|_| exponential.sample(&mut rng)).collect(),
            // Two near-ties and a far third: W close to its ¾ floor.
            _ => {
                let x = normal.sample(&mut rng);
                vec![x, x + 1e-3 * rng.next_f64(), x + 1.0]
            }
        };
        let o = shapiro_wilk(&xs, &mut scratch);
        let w = o.statistic;
        assert!((0.75 - 1e-12..=1.0).contains(&w), "{xs:?}: W = {w}");
        let want = (6.0 / PI * (w.sqrt().asin() - PI / 3.0)).clamp(0.0, 1.0);
        assert!(
            (o.p_value - want).abs() <= 4.0 * f64::EPSILON,
            "{xs:?}: W = {w}, p = {} vs {want}",
            o.p_value
        );
        lowest_w = lowest_w.min(w);
    }
    // The triples reach the bottom of W's range, where p → 0.
    assert!(lowest_w < 0.76, "lowest W {lowest_w}");
}

/// `0 < W ≤ 1` by Cauchy–Schwarz, whatever the sample: seeded draws from
/// the repository's distributions plus one laggard, at a size of each of
/// Royston's branches (n = 3, 4–11, ≥ 12) and at its edges. Both routes clamp
/// W at 1 (`min(1.0)`), so rounding cannot push it past; the p-value stays a
/// probability.
#[test]
fn shapiro_wilk_w_lies_in_the_unit_interval() {
    let mut rng = Rng64::new(20230421);
    let mut scratch = BatteryScratch::new();
    let draws: [(&str, &dyn Sample); 4] = [
        ("normal", &Normal::new(25.0, 0.4)),
        ("uniform", &Uniform::new(0.0, 1.0)),
        ("exponential", &Exponential::new(2.0)),
        ("log-normal", &LogNormal::new(0.0, 0.5)),
    ];
    for n in [3usize, 4, 7, 11, 12, 48, 500] {
        for (name, dist) in draws {
            for laggard in [false, true] {
                for _ in 0..20 {
                    let mut xs: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
                    if laggard {
                        xs[n / 2] += 1e3;
                    }
                    let o = shapiro_wilk(&xs, &mut scratch);
                    assert!(
                        o.statistic > 0.0 && o.statistic <= 1.0,
                        "{name}, n = {n}, laggard {laggard}: W = {}",
                        o.statistic
                    );
                    assert!(
                        (0.0..=1.0).contains(&o.p_value),
                        "{name}, n = {n}: p = {}",
                        o.p_value
                    );
                }
            }
        }
    }
}

/// W is the squared correlation of the sorted sample with the weight vector
/// (unit norm, mean zero), so any affine image `c·a + d` (c > 0) of the full
/// antisymmetric vector — `−aᵢ` at the bottom, `+aᵢ` at the top, 0 in the
/// middle for odd n — has W = 1 up to rounding, and the largest p the test
/// can give. At n = 3 the rounding lands on the clamp and p is exactly 1.
#[test]
fn shapiro_wilk_w_is_one_on_the_weight_vector() {
    let mut scratch = BatteryScratch::new();
    let mut half = Vec::new();
    for n in [3usize, 4, 5, 6, 7, 11, 12, 48, 500, 4999] {
        blom_weights(n, &mut half);
        let mut a: Vec<f64> = half.iter().rev().map(|w| -w).collect();
        if n % 2 == 1 {
            a.push(0.0);
        }
        a.extend(half.iter().copied());
        let norm: f64 = a.iter().map(|w| w * w).sum();
        assert!((norm - 1.0).abs() < 1e-12, "n = {n}: ‖a‖² = {norm}");
        for (c, d) in [
            (1.0, 0.0),
            (1.0e-3, 0.0),
            (1.0e6, 0.0),
            (3.7, -120.5),
            (0.25, 100.0),
        ] {
            let xs: Vec<f64> = a.iter().map(|w| c * w + d).collect();
            let o = shapiro_wilk(&xs, &mut scratch);
            assert!(
                (1.0 - o.statistic).abs() <= 1e-12,
                "n = {n}, x ↦ {c}·a + {d}: W = {}",
                o.statistic
            );
            assert!(
                o.p_value > 0.99,
                "n = {n}, x ↦ {c}·a + {d}: p = {}",
                o.p_value
            );
            if n == 3 {
                assert_eq!((o.statistic, o.p_value), (1.0, 1.0), "x ↦ {c}·a + {d}");
            }
        }
    }
}

/// Rejections at `alpha` by the fused battery (K², W, A*², battery order)
/// over `reps` seeded `Normal` samples of size `n`. Each stand-alone test
/// must return the fused outcome bit for bit on the samples
/// [`checks_alone`] picks.
fn null_rejections(n: usize, reps: usize, alpha: f64) -> [usize; 3] {
    let mut rng = Rng64::new(0x3B ^ n as u64);
    let mut scratch = BatteryScratch::new();
    let normal = Normal::new(25.0, 0.4);
    let mut xs = vec![0.0; n];
    let mut rejected = [0; 3];
    for rep in 0..reps {
        xs.fill_with(|| normal.sample(&mut rng));
        let battery = battery_with_scratch(&xs, &mut scratch);
        for ((count, outcome), test) in rejected.iter_mut().zip(battery).zip(ALONE) {
            let outcome = outcome.expect("a continuous sample is not degenerate");
            if checks_alone(n, rep) {
                assert_eq!(
                    test.test(&xs),
                    Ok(outcome),
                    "n = {n}, sample {rep}: {} alone",
                    test.kind().name()
                );
            }
            *count += usize::from(outcome.rejects_normality(alpha));
        }
    }
    rejected
}

/// Null calibration: under a true normal a test's p-value is uniform, so at
/// α = 0.05 it rejects 5 % of samples up to binomial noise — which a wrong
/// coefficient or a swapped branch fails, where a comparison with the code's
/// own earlier output never can. The draws are seeded, so these are the
/// exact rates the test sees:
///
/// | n | samples | K² | W | A*² |
/// |---|---|---|---|---|
/// | 8 | 20 000 | 0.0625 | 0.0523 | 0.0506 |
/// | 20 | 20 000 | 0.0572 | 0.0519 | 0.0520 |
/// | 48 | 20 000 | 0.0586 | 0.0498 | 0.0495 |
/// | 384 | 10 000 | 0.0542 | 0.0484 | 0.0476 |
/// | 3 840 | 5 000 | 0.0464 | 0.0468 | 0.0498 |
///
/// The last row is release only
/// ([`battery_size_under_the_null_at_the_application_iteration_size`]). The
/// stand-alone tests give the fused outcomes bit for bit on 61 000 of the
/// 70 000 samples of the other rows ([`checks_alone`]).
///
/// W and A*² sit inside the 4σ binomial band at every n, K² at n = 384. K²
/// is liberal below that: its size at n ∈ {20, 48} is asserted as measured,
/// a 4σ band that excludes α, and n = 8 is below the n ≥ 20 its kurtosis
/// test needs, so it is recorded only.
///
/// The p-values' deciles — counts per tenth of [0, 1) on the same draws,
/// 2 000 expected — are recorded, not asserted. At n = 48:
///
/// | test | [0, .1) | … | [.4, .5) | [.5, .6) | [.6, .7) | … | [.9, 1] |
/// |---|---|---|---|---|---|---|---|
/// | K² | 1 956 | 1 711 1 981 2 027 | 2 019 | 2 097 | 2 150 | 2 110 2 008 | 1 941 |
/// | W | 1 989 | 2 070 1 984 2 002 | 1 996 | 2 028 | 1 991 | 1 933 1 988 | 2 019 |
/// | A*² | 1 995 | 2 077 2 038 2 030 | 1 969 | **2 487** | 1 727 | 1 736 2 137 | 1 804 |
///
/// W's are flat at every n. A*²'s [0.5, 0.6) decile holds 25–30 % too much
/// at every n (2 505 at n = 8, 1 300 of 1 000 at n = 384): Stephens'
/// piecewise p(A*²) switches branches there. K²'s are bowed at n = 8
/// (1 287 in [0.1, 0.2), 2 415 in [0.5, 0.6)) and flatten with n.
#[test]
fn battery_size_under_the_null() {
    const ALPHA: f64 = 0.05;
    // K²'s measured size where it is liberal.
    const K2_SIZE: [(usize, f64); 2] = [(20, 0.0572), (48, 0.0586)];
    for (n, reps) in [(8, 20_000), (20, 20_000), (48, 20_000), (384, 10_000)] {
        let rates = null_rejections(n, reps, ALPHA).map(|r| r as f64 / reps as f64);
        let band = 4.0 * (ALPHA * (1.0 - ALPHA) / reps as f64).sqrt();
        let [k2, w, a2] = rates;
        for (name, rate) in [("W", w), ("A*²", a2)] {
            assert!(
                (rate - ALPHA).abs() <= band,
                "n = {n}: {name} rejects {rate}"
            );
        }
        if n >= 384 {
            assert!((k2 - ALPHA).abs() <= band, "n = {n}: K² rejects {k2}");
        }
        if let Some(&(_, size)) = K2_SIZE.iter().find(|(m, _)| *m == n) {
            assert!(
                (k2 - size).abs() <= band,
                "n = {n}: K² rejects {k2}, not {size}"
            );
            assert!(
                size - band > ALPHA,
                "n = {n}: K² size {size} is not liberal"
            );
        }
    }
}

/// The null calibration at n = 3 840, the size of one application-iteration
/// group (10 trials × 8 ranks × 48 threads): too slow for a debug build, so
/// release only (`cargo test --release -p ebird-stats --test oracles`).
/// Same seeded draws and decision as [`battery_size_under_the_null`], whose
/// table has the rates; the stand-alone tests check every tenth sample.
///
/// W and A*² are asserted inside the 4σ binomial band (±0.0123). K²'s size
/// (0.0464) is recorded only: inside the band too, no longer liberal.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn battery_size_under_the_null_at_the_application_iteration_size() {
    const ALPHA: f64 = 0.05;
    let (n, reps) = (3_840, 5_000);
    let [_, w, a2] = null_rejections(n, reps, ALPHA).map(|r| r as f64 / reps as f64);
    let band = 4.0 * (ALPHA * (1.0 - ALPHA) / reps as f64).sqrt();
    for (name, rate) in [("W", w), ("A*²", a2)] {
        assert!(
            (rate - ALPHA).abs() <= band,
            "n = {n}: {name} rejects {rate}"
        );
    }
}

/// [`power`]'s rows, and the two groups of them the power test compares.
const POWER_ROWS: [&str; 5] = [
    "clean",
    "one laggard",
    "uniform",
    "exponential",
    "log-normal",
];
const DISTRIBUTIONAL: [usize; 3] = [2, 3, 4];
const SKEWED: [usize; 2] = [3, 4];
const BATTERY: [&str; 3] = ["K²", "W", "A*²"];

/// Rejection rates at `alpha` (K², W, A*², battery order) over `reps` seeded
/// samples of size `n`, one row per [`POWER_ROWS`] entry: a clean
/// `Normal(25, 0.4)` draw, the same draw with one value moved to its maximum
/// + 1.5 ms, `Uniform(0, 1)`, `Exponential(1)` and `LogNormal(0, 0.5)`.
///
/// The fused battery decides, and each stand-alone test must decide alike
/// on the samples [`checks_alone`] picks (checking every sample at n = 384
/// would triple the test's time).
fn power(n: usize, reps: usize, alpha: f64) -> [[f64; 3]; 5] {
    let mut rng = Rng64::new(0x9B ^ n as u64);
    let mut scratch = BatteryScratch::new();
    let normal = Normal::new(25.0, 0.4);
    let alternatives: [&dyn Sample; 3] = [
        &Uniform::new(0.0, 1.0),
        &Exponential::new(1.0),
        &LogNormal::new(0.0, 0.5),
    ];
    let mut tally = |xs: &[f64], check_alone: bool, counts: &mut [usize; 3]| {
        let fused = battery_with_scratch(xs, &mut scratch);
        for ((count, outcome), test) in counts.iter_mut().zip(fused).zip(ALONE) {
            let rejects = outcome
                .expect("a continuous sample is not degenerate")
                .rejects_normality(alpha);
            if check_alone {
                let alone = test
                    .test(xs)
                    .expect("a continuous sample is not degenerate");
                assert_eq!(
                    alone.rejects_normality(alpha),
                    rejects,
                    "n = {n}: {} decides differently alone",
                    test.kind().name()
                );
            }
            *count += usize::from(rejects);
        }
    };
    let mut rejected = [[0usize; 3]; 5];
    let mut xs = vec![0.0; n];
    for rep in 0..reps {
        let check_alone = checks_alone(n, rep);
        xs.fill_with(|| normal.sample(&mut rng));
        tally(&xs, check_alone, &mut rejected[0]);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        xs[n / 2] = max + 1.5;
        tally(&xs, check_alone, &mut rejected[1]);
        for (dist, counts) in alternatives.iter().zip(&mut rejected[2..]) {
            xs.fill_with(|| dist.sample(&mut rng));
            tally(&xs, check_alone, counts);
        }
    }
    rejected.map(|row| row.map(|r| r as f64 / reps as f64))
}

/// Power against the repository's seeded alternatives: the rejection rate
/// of each test at α = 0.05, 2 000 samples per cell (K² / W / A*²):
///
/// | sample | n = 8 | n = 20 | n = 48 | n = 384 |
/// |---|---|---|---|---|
/// | clean | .071 / .056 / .055 | .067 / .055 / .054 | .060 / .059 / .048 | .059 / .059 / .046 |
/// | one laggard | .884 / .619 / .593 | 1 / .990 / .887 | 1 / 1 / .889 | 1 / 1 / .321 |
/// | uniform | .036 / .079 / .073 | .154 / .196 / .174 | .774 / .719 / .537 | 1 / 1 / 1 |
/// | exponential | .274 / .344 / .324 | .590 / .833 / .773 | .953 / .999 / .995 | 1 / 1 / 1 |
/// | log-normal | .186 / .190 / .176 | .443 / .517 / .464 | .811 / .913 / .868 | 1 / 1 / 1 |
///
/// Asserted: at the paper's n = 48 every test catches the one-laggard sample
/// at least 80 % of the time and rejects the clean one at most 7 %; power
/// rises with n over {20, 48, 384} against the three distributional
/// alternatives; and W is at least as powerful as A*² against the two skewed
/// ones at every n, by at least 0.03 at n = 20.
///
/// Recorded, not asserted: "power rises with n" holds only for
/// distributional alternatives — A*²'s power against a *single* laggard falls
/// from .889 at n = 48 to .321 at n = 384, since the laggard enters A² through
/// one tail term `−ln(1 − Φ(z₍ₙ₎))` weighted `1/n`; and K² is biased
/// against the uniform at n = 8 (.036 < α), below the n ≥ 20 its kurtosis
/// test needs.
#[test]
fn battery_power_against_the_seeded_alternatives() {
    const ALPHA: f64 = 0.05;
    let [p8, p20, p48, p384] = [8, 20, 48, 384].map(|n| power(n, 2_000, ALPHA));
    for (t, test) in BATTERY.iter().enumerate() {
        let (laggard, clean) = (p48[1][t], p48[0][t]);
        assert!(
            laggard >= 0.8,
            "n = 48: {test} rejects one laggard {laggard}"
        );
        assert!(
            clean <= 0.07,
            "n = 48: {test} rejects a clean sample {clean}"
        );
        for row in DISTRIBUTIONAL {
            let rates = [p20[row][t], p48[row][t], p384[row][t]];
            assert!(
                rates[0] < rates[1] && rates[1] <= rates[2],
                "{test} against {}: {rates:?} over n = 20, 48, 384",
                POWER_ROWS[row]
            );
        }
    }
    for row in SKEWED {
        for (n, p) in [(8, &p8), (20, &p20), (48, &p48), (384, &p384)] {
            let (w, a2) = (p[row][1], p[row][2]);
            let margin = if n == 20 { 0.03 } else { 0.0 };
            assert!(
                w - a2 >= margin,
                "n = {n}, {}: W {w} vs A*² {a2}",
                POWER_ROWS[row]
            );
        }
    }
}
