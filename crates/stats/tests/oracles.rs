//! Oracles for the battery's arithmetic that are not the code under test
//! (ROADMAP item 3a, the K² half): exact integer moments and the statistics'
//! invariance under affine maps. The closed forms (symmetric samples, a
//! hand-computed `b₂`) sit with `DagostinoK2`'s unit tests; the comparison
//! against the previous arithmetic on whole campaigns is the workspace's
//! `tests/normality_oracles.rs`.

use ebird_stats::accumulate::central_sums;
use ebird_stats::descriptive::Moments;
use ebird_stats::dist::{Exponential, LogNormal, Normal, Rng64, Sample};
use ebird_stats::normality::{battery_with_scratch, dagostino::DagostinoK2, BatteryScratch};

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
