//! Special functions used by the normality tests and distribution models.
//!
//! Everything is implemented from scratch:
//!
//! * `ln_gamma` — Lanczos approximation (g = 5, 6 terms), |ε| < 2e-10.
//! * `gammp`/`gammq` — regularized incomplete gamma via series /
//!   continued-fraction (modified Lentz), converged to ~1e-15.
//! * [`erf`] — expressed through the incomplete gamma
//!   (erf(x) = P(1/2, x²)), inheriting its precision.
//! * [`erfc`] — fixed-op three-interval Chebyshev fit (evaluated in monomial
//!   form via Estrin's scheme), ≤ 9e-14 relative error against the
//!   incomplete-gamma formulation it replaced; a unit test cross-checks the
//!   two on a dense grid.
//! * [`norm_cdf`]/[`norm_sf`]/[`norm_pdf`] — standard normal distribution.
//! * [`norm_quantile`] — Abramowitz–Stegun 26.2.23 initial guess refined with
//!   Newton iterations against the exact CDF; relative error ≈ 1e-14.
//! * [`norm_cdf_sf_slice`] — `(Φ, 1 − Φ)` over a buffer in 8-lane blocks, the
//!   slice kernel the normality battery runs (one log per Anderson–Darling
//!   term is then taken of a *product* of its outputs);
//!   [`norm_log_cdf_sf_slice`] is its log form — same block body, two logs
//!   per element — which no production path calls and the benchmark times.
//! * [`chi2_sf`]/[`chi2_cdf`] — chi-square distribution through
//!   `gammq`/`gammp`; the closed form `exp(−x/2)` at 2 degrees of freedom.
//!
//! The unit tests pin these against published reference values (Abramowitz &
//! Stegun tables, known quantiles) to at least 1e-10 unless noted.

/// Natural log of the gamma function for `x > 0`.
///
/// Lanczos approximation as popularized by *Numerical Recipes*; accurate to
/// better than `2e-10` over the full positive axis.
///
/// # Panics
/// Panics in debug builds if `x <= 0`.
fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const COF: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_9e-2,
        -0.539_523_938_495_3e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000_000_000_190_015;
    for c in COF {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a,x) / Γ(a)`.
///
/// Uses the series expansion for `x < a + 1` and the continued fraction
/// otherwise, both iterated to a relative tolerance of ~3e-16.
fn gammp(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0 && x >= 0.0, "gammp domain: a > 0, x >= 0");
    if x == 0.0 {
        0.0
    } else if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        1.0 - gamma_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
fn gammq(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0 && x >= 0.0, "gammq domain: a > 0, x >= 0");
    if x == 0.0 {
        1.0
    } else if x < a + 1.0 {
        1.0 - gamma_series(a, x)
    } else {
        gamma_cf(a, x)
    }
}

/// `ln Γ(1/2)` exactly as `ln_gamma(0.5)` computes it (bit-pinned by a
/// unit test). Every normal CDF/SF/quantile evaluation funnels through the
/// incomplete gamma at `a = 1/2`; hoisting the Lanczos evaluation out of that
/// hot path is free precision-wise because the constant carries the *same*
/// rounding as the runtime computation.
const LN_GAMMA_HALF: f64 = 0.572_364_942_924_743;

/// Series representation of `P(a, x)`; converges fastest for `x < a + 1`.
fn gamma_series(a: f64, x: f64) -> f64 {
    gamma_series_with_gln(a, x, ln_gamma(a))
}

/// [`gamma_series`] with the caller supplying `ln Γ(a)` (hot paths with fixed
/// `a` hoist the Lanczos evaluation).
fn gamma_series_with_gln(a: f64, x: f64, gln: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 3.0e-16;
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - gln).exp()
}

/// Continued-fraction representation of `Q(a, x)` (modified Lentz algorithm);
/// converges fastest for `x > a + 1`.
fn gamma_cf(a: f64, x: f64) -> f64 {
    gamma_cf_with_gln(a, x, ln_gamma(a))
}

/// [`gamma_cf`] with the caller supplying `ln Γ(a)`.
fn gamma_cf_with_gln(a: f64, x: f64, gln: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 3.0e-16;
    const FPMIN: f64 = f64::MIN_POSITIVE / EPS;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    (-x + a * x.ln() - gln).exp() * h
}

/// `P(1/2, x)` through the pre-hoisted [`LN_GAMMA_HALF`] — bit-identical to
/// `gammp(0.5, x)` (the constant is pinned to `ln_gamma(0.5)`'s bits).
fn gammp_half(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else if x < 1.5 {
        gamma_series_with_gln(0.5, x, LN_GAMMA_HALF)
    } else {
        1.0 - gamma_cf_with_gln(0.5, x, LN_GAMMA_HALF)
    }
}

/// `Q(1/2, x)` through the pre-hoisted [`LN_GAMMA_HALF`]. No longer on the
/// hot path (the Chebyshev [`erfc`] replaced it) but kept as the reference
/// oracle the fit is cross-checked against.
#[cfg(test)]
fn gammq_half(x: f64) -> f64 {
    if x == 0.0 {
        1.0
    } else if x < 1.5 {
        1.0 - gamma_series_with_gln(0.5, x, LN_GAMMA_HALF)
    } else {
        gamma_cf_with_gln(0.5, x, LN_GAMMA_HALF)
    }
}

/// The error function `erf(x)`.
///
/// Computed as `sign(x) · P(1/2, x²)`, inheriting near-machine precision from
/// the incomplete-gamma core.
pub fn erf(x: f64) -> f64 {
    if x < 0.0 {
        -gammp_half(x * x)
    } else {
        gammp_half(x * x)
    }
}

/// Upper end of the near interval: `sqrt(1.5)`, the exact point where the
/// incomplete-gamma implementation switched from its series to its continued
/// fraction. Bit-pinned to `1.5f64.sqrt()` by a unit test.
const ERFC_NEAR_HI: f64 = 1.224_744_871_391_589;

/// `erfc(u)` on `u ∈ [0, sqrt(1.5)]`, fit directly (no `exp` needed).
/// Monomial coefficients of a degree-16 Chebyshev fit in
/// `y = 2u/sqrt(1.5) − 1`; max relative error 4.6e-14.
const ERFC_NEAR: [f64; 17] = [
    0.386_476_230_771_258_64,
    -0.474_908_849_633_374_76,
    0.178_090_818_612_543_86,
    0.014_840_901_554_988_85,
    -0.025_044_021_368_711_58,
    0.002_087_001_727_570_214_4,
    0.002_243_526_926_468_143,
    -0.000_426_717_005_402_821_3,
    -0.000_140_278_721_875_120_04,
    4.280_364_214_537_258e-5,
    6.141_717_301_488_824e-6,
    -3.043_436_032_612_589_7e-6,
    -1.588_679_538_144_788_3e-7,
    1.681_085_677_773_808_2e-7,
    -1.036_823_960_021_138_2e-9,
    -6.626_669_346_587_733e-9,
    2.995_875_547_640_025_4e-10,
];

/// `erfcx(u) = exp(u²)·erfc(u)` on `u ∈ [sqrt(1.5), 3.5]`; degree-16 fit in
/// `y` affine over the interval; max relative error 8.6e-14.
const ERFCX_MID: [f64; 17] = [
    0.221_532_749_281_299_85,
    -0.092_936_716_087_207_95,
    0.036_939_478_745_962_35,
    -0.014_002_347_500_612_855,
    0.005_087_817_160_993_713,
    -0.001_779_311_906_894_021_3,
    0.000_600_911_204_590_470_7,
    -0.000_196_523_944_155_835_32,
    6.238_586_156_364_079e-5,
    -1.925_858_087_545_861_8e-5,
    5.793_398_784_703_640_6e-6,
    -1.707_174_322_973_515e-6,
    4.898_915_278_772_619e-7,
    -1.305_045_998_378_773_3e-7,
    3.577_038_114_599_418e-8,
    -1.363_587_216_474_115_8e-8,
    3.628_338_163_252_92e-9,
];

/// `erfcx(1/w)` on `w ∈ [1/27.5, 1/3.5]` (i.e. `u ∈ [3.5, 27.5]`); degree-12
/// fit; max relative error 2.4e-14. Beyond `u = 27.5`, `erfc(u) < 1e-329`
/// underflows every `f64` (min subnormal ≈ 4.9e-324), so the tail is 0.
const ERFCX_FAR: [f64; 13] = [
    0.089_721_488_528_955_5,
    0.067_767_200_327_638_87,
    -0.001_876_158_912_360_779_3,
    -0.000_373_705_201_347_026_45,
    5.431_218_374_004_898e-5,
    1.953_672_381_629_912e-6,
    -1.623_384_601_051_602_9e-6,
    1.674_999_418_721_512_2e-7,
    3.228_040_312_830_416e-8,
    -1.264_189_641_858_593e-8,
    9.265_020_750_603_98e-10,
    4.554_175_703_219_698e-10,
    -1.258_889_881_228_242_3e-10,
];

// Affine maps from the argument to the fit variable `y ∈ [−1, 1]`.
const NEAR_SCALE: f64 = 2.0 / ERFC_NEAR_HI;
const MID_SCALE: f64 = 2.0 / (3.5 - ERFC_NEAR_HI);
const MID_SHIFT: f64 = (3.5 + ERFC_NEAR_HI) / (3.5 - ERFC_NEAR_HI);
const FAR_LO: f64 = 1.0 / 27.5;
const FAR_HI: f64 = 1.0 / 3.5;
const FAR_SCALE: f64 = 2.0 / (FAR_HI - FAR_LO);
const FAR_SHIFT: f64 = (FAR_HI + FAR_LO) / (FAR_HI - FAR_LO);

/// Degree-16 polynomial by Estrin's scheme: pair/quad/oct partial products
/// are independent, so the multiply-add chains overlap instead of forming
/// Horner's serial recurrence (~3x shorter critical path at this degree).
#[inline]
fn estrin16(a: &[f64; 17], y: f64) -> f64 {
    let y2 = y * y;
    let y4 = y2 * y2;
    let y8 = y4 * y4;
    let b0 = a[0] + a[1] * y;
    let b1 = a[2] + a[3] * y;
    let b2 = a[4] + a[5] * y;
    let b3 = a[6] + a[7] * y;
    let b4 = a[8] + a[9] * y;
    let b5 = a[10] + a[11] * y;
    let b6 = a[12] + a[13] * y;
    let b7 = a[14] + a[15] * y;
    let c0 = b0 + b1 * y2;
    let c1 = b2 + b3 * y2;
    let c2 = b4 + b5 * y2;
    let c3 = b6 + b7 * y2;
    let d0 = c0 + c1 * y4;
    let d1 = c2 + c3 * y4;
    (d0 + d1 * y8) + a[16] * (y8 * y8)
}

/// Degree-12 variant of [`estrin16`].
#[inline]
fn estrin12(a: &[f64; 13], y: f64) -> f64 {
    let y2 = y * y;
    let y4 = y2 * y2;
    let y8 = y4 * y4;
    let b0 = a[0] + a[1] * y;
    let b1 = a[2] + a[3] * y;
    let b2 = a[4] + a[5] * y;
    let b3 = a[6] + a[7] * y;
    let b4 = a[8] + a[9] * y;
    let b5 = a[10] + a[11] * y;
    let c0 = b0 + b1 * y2;
    let c1 = b2 + b3 * y2;
    let c2 = b4 + b5 * y2;
    let d0 = c0 + c1 * y4;
    d0 + (c2 + a[12] * y4) * y8
}

/// `erfc(u)` for `u ≥ 0` (`−0.0` included) via the three-interval fit.
#[inline]
fn erfc_mag(u: f64) -> f64 {
    if u == 0.0 {
        1.0
    } else if u <= ERFC_NEAR_HI {
        estrin16(&ERFC_NEAR, u * NEAR_SCALE - 1.0)
    } else if u <= 3.5 {
        (-u * u).exp() * estrin16(&ERFCX_MID, u * MID_SCALE - MID_SHIFT)
    } else if u <= 27.5 {
        let w = 1.0 / u;
        (-u * u).exp() * estrin12(&ERFCX_FAR, w * FAR_SCALE - FAR_SHIFT)
    } else {
        0.0
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`.
///
/// Three-interval Chebyshev fit (direct near zero, `erfcx`-scaled in the
/// tail) generated against the incomplete-gamma formulation this function
/// used to delegate to; ≤ 9e-14 relative error, cross-checked by a unit
/// test. Unlike the series/continued-fraction route, the operation count is
/// fixed — the gamma iteration count (and per-call cost) grew with `x²`,
/// which made the normality sweep's Φ evaluations data-dependent.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        2.0 - erfc_mag(-x)
    } else {
        erfc_mag(x)
    }
}

/// Both tails at once: `(erfc(u), erfc(−u))`, sharing **one** polynomial
/// evaluation — the mirrored tail is `2 − erfc(|u|)`. Bit-identical to two
/// separate [`erfc`] calls because the expressions match exactly.
fn erfc_pair(u: f64) -> (f64, f64) {
    if u == 0.0 {
        // erfc(±0) both take the `erfc_mag(0) = 1` path.
        return (1.0, 1.0);
    }
    let m = erfc_mag(u.abs());
    if u < 0.0 {
        (2.0 - m, m)
    } else {
        (m, 2.0 - m)
    }
}

/// Standard normal probability density function.
pub fn norm_pdf(x: f64) -> f64 {
    const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Standard normal survival function `1 − Φ(x)`, accurate in the upper tail.
pub fn norm_sf(x: f64) -> f64 {
    0.5 * erfc(x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Natural log of the standard normal CDF, stable for very negative `x`.
///
/// For `x < -10` the direct CDF underflows in relative precision, so we use
/// the asymptotic expansion of the Mills ratio:
/// `ln Φ(x) ≈ −x²/2 − ln(−x√2π) + ln(1 − 1/x² + 3/x⁴)`.
pub fn norm_log_cdf(x: f64) -> f64 {
    if x > -10.0 {
        norm_cdf(x).ln()
    } else {
        let x2 = x * x;
        -0.5 * x2 - (-x).ln() - 0.918_938_533_204_672_7 + (-1.0 / x2 + 3.0 / (x2 * x2)).ln_1p()
    }
}

/// Natural log of the standard normal survival function, stable for large `x`.
pub fn norm_log_sf(x: f64) -> f64 {
    norm_log_cdf(-x)
}

/// `(Φ(x), 1 − Φ(x))` from **one** polynomial evaluation: the two tails are
/// `erfc` at mirrored arguments, which [`erfc_pair`] assembles from a single
/// fit. Bit-identical to `(norm_cdf(x), norm_sf(x))` for every non-NaN `x`.
///
/// This is the scalar the Anderson–Darling sum evaluates per order
/// statistic (one `ln` of a *product* of two of these values per term, see
/// `normality::anderson_darling`); [`norm_cdf_sf_slice`] is its batch form.
pub(crate) fn norm_cdf_sf(x: f64) -> (f64, f64) {
    // norm_cdf(x) = 0.5·erfc(u), norm_sf(x) = 0.5·erfc(−u), u = −x/√2.
    let (cdf2, sf2) = erfc_pair(-x * std::f64::consts::FRAC_1_SQRT_2);
    (0.5 * cdf2, 0.5 * sf2)
}

/// `(ln Φ(x), ln(1 − Φ(x)))` with **one** polynomial evaluation instead of
/// two — the logs of [`norm_cdf_sf`]'s pair.
///
/// Bit-identical to `(norm_log_cdf(x), norm_log_sf(x))` for every `x`
/// (pinned by a unit test): inside `(−10, 10)` both components take the
/// direct-CDF path and share the erfc core; outside, the near-0 side uses
/// the Mills-ratio expansion (no erfc evaluation at all) and the near-1 side
/// is the lone full evaluation.
pub fn norm_log_cdf_sf(x: f64) -> (f64, f64) {
    if x > -10.0 && x < 10.0 {
        let (cdf, sf) = norm_cdf_sf(x);
        (cdf.ln(), sf.ln())
    } else {
        (norm_log_cdf(x), norm_log_sf(x))
    }
}

/// Lane count for the slice kernels. Eight doubles fill an AVX-512 register
/// exactly and two AVX2 registers; the per-lane loops below carry no
/// cross-lane dependencies, so the autovectorizer can widen them at whatever
/// width the target offers.
const BLOCK: usize = 8;

/// One block of [`erfc_slice`]. Classifies the whole block into a single fit
/// interval; when the lanes are uniform the branch-free per-lane loops below
/// evaluate exactly the expression sequence [`erfc_mag`] uses for that
/// interval (so the results are bit-identical), otherwise every lane falls
/// back to the scalar [`erfc`]. Zeros and non-finite lanes (NaN compares
/// false everywhere; `u > 0.0` excludes ±0) always take the scalar path,
/// which keeps the edge semantics — `erfc(NaN) = 0`, `erfc(±0) = 1`,
/// `erfc(−∞) = 2` — without any per-lane special-casing here.
fn erfc_block(x: &[f64; BLOCK], out: &mut [f64; BLOCK]) {
    let mut u = [0.0f64; BLOCK];
    for l in 0..BLOCK {
        u[l] = x[l].abs();
    }
    let mut m = [0.0f64; BLOCK];
    if u.iter().all(|&v| v > 0.0 && v <= ERFC_NEAR_HI) {
        for l in 0..BLOCK {
            m[l] = estrin16(&ERFC_NEAR, u[l] * NEAR_SCALE - 1.0);
        }
    } else if u.iter().all(|&v| v > ERFC_NEAR_HI && v <= 3.5) {
        for l in 0..BLOCK {
            m[l] = (-u[l] * u[l]).exp() * estrin16(&ERFCX_MID, u[l] * MID_SCALE - MID_SHIFT);
        }
    } else if u.iter().all(|&v| v > 3.5 && v <= 27.5) {
        for l in 0..BLOCK {
            let w = 1.0 / u[l];
            m[l] = (-u[l] * u[l]).exp() * estrin12(&ERFCX_FAR, w * FAR_SCALE - FAR_SHIFT);
        }
    } else {
        for l in 0..BLOCK {
            out[l] = erfc(x[l]);
        }
        return;
    }
    // Sign select, exactly as `erfc`: for x < 0 (zero lanes never get here),
    // `−x` and `|x|` are the same bits, so `2 − erfc_mag(−x)` ≡ `2 − m`.
    for l in 0..BLOCK {
        out[l] = if x[l] < 0.0 { 2.0 - m[l] } else { m[l] };
    }
}

/// [`erfc`] over a whole buffer, bit-identical to the scalar loop
/// `for i { out[i] = erfc(xs[i]) }` (pinned by unit tests and proptests).
///
/// Works in blocks of [`BLOCK`] lanes: a block whose magnitudes all fall in
/// one of the three Chebyshev intervals is evaluated by straight-line
/// per-lane loops the compiler can autovectorize (the normality sweep's `z`
/// scores are sorted, so interval-uniform blocks are the common case); mixed
/// or edge-case blocks and the tail fall back to the scalar function.
///
/// # Panics
/// Panics if `xs` and `out` have different lengths.
pub fn erfc_slice(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "erfc_slice: length mismatch");
    let mut xb = xs.chunks_exact(BLOCK);
    let mut ob = out.chunks_exact_mut(BLOCK);
    for (x, o) in (&mut xb).zip(&mut ob) {
        let x: &[f64; BLOCK] = x.try_into().expect("exact chunk");
        let o: &mut [f64; BLOCK] = o.try_into().expect("exact chunk");
        erfc_block(x, o);
    }
    for (x, o) in xb.remainder().iter().zip(ob.into_remainder()) {
        *o = erfc(*x);
    }
}

/// One block of the two Φ slice kernels: the polynomial core both share.
/// The fast path requires every lane strictly inside `(−10, 10)` (where
/// [`norm_log_cdf_sf`] takes the logs of [`norm_cdf_sf`]) with the erfc
/// arguments `u = −x/√2` nonzero and interval-uniform; it then replays
/// [`erfc_pair`]'s assembly per lane, leaves `cdf[l] = Φ(x[l])`,
/// `sf[l] = 1 − Φ(x[l])` with [`norm_cdf_sf`]'s bits and returns `true`.
/// Anything else — Mills-ratio tails, zeros, non-finite lanes — returns
/// `false` with the outputs untouched, and the caller evaluates its own
/// scalar function lane by lane.
fn norm_cdf_sf_block(x: &[f64; BLOCK], cdf: &mut [f64; BLOCK], sf: &mut [f64; BLOCK]) -> bool {
    let mut u = [0.0f64; BLOCK];
    let mut a = [0.0f64; BLOCK];
    for l in 0..BLOCK {
        u[l] = -x[l] * std::f64::consts::FRAC_1_SQRT_2;
        a[l] = u[l].abs();
    }
    let mut m = [0.0f64; BLOCK];
    if x.iter().all(|&v| v > -10.0 && v < 10.0) && a.iter().all(|&v| v > 0.0 && v <= ERFC_NEAR_HI) {
        for l in 0..BLOCK {
            m[l] = estrin16(&ERFC_NEAR, a[l] * NEAR_SCALE - 1.0);
        }
    } else if x.iter().all(|&v| v > -10.0 && v < 10.0)
        && a.iter().all(|&v| v > ERFC_NEAR_HI && v <= 3.5)
    {
        for l in 0..BLOCK {
            m[l] = (-a[l] * a[l]).exp() * estrin16(&ERFCX_MID, a[l] * MID_SCALE - MID_SHIFT);
        }
    } else if x.iter().all(|&v| v > -10.0 && v < 10.0) && a.iter().all(|&v| v > 3.5 && v <= 27.5) {
        for l in 0..BLOCK {
            let w = 1.0 / a[l];
            m[l] = (-a[l] * a[l]).exp() * estrin12(&ERFCX_FAR, w * FAR_SCALE - FAR_SHIFT);
        }
    } else {
        return false;
    }
    for l in 0..BLOCK {
        // erfc_pair(u): m = erfc_mag(|u|), mirrored tail 2 − m.
        let (cdf2, sf2) = if u[l] < 0.0 {
            (2.0 - m[l], m[l])
        } else {
            (m[l], 2.0 - m[l])
        };
        cdf[l] = 0.5 * cdf2;
        sf[l] = 0.5 * sf2;
    }
    true
}

/// The driver of both Φ slice kernels: [`norm_cdf_sf_block`] over whole
/// blocks, then — `LOG` — the two logs per lane, exactly
/// [`norm_log_cdf_sf`]'s in-range expression; blocks the core declines and
/// the tail go through the kernel's scalar function.
fn norm_tails_slice<const LOG: bool>(xs: &[f64], out_cdf: &mut [f64], out_sf: &mut [f64]) {
    let scalar: fn(f64) -> (f64, f64) = if LOG { norm_log_cdf_sf } else { norm_cdf_sf };
    let mut xb = xs.chunks_exact(BLOCK);
    let mut cb = out_cdf.chunks_exact_mut(BLOCK);
    let mut sb = out_sf.chunks_exact_mut(BLOCK);
    for ((x, c), s) in (&mut xb).zip(&mut cb).zip(&mut sb) {
        let x: &[f64; BLOCK] = x.try_into().expect("exact chunk");
        let c: &mut [f64; BLOCK] = c.try_into().expect("exact chunk");
        let s: &mut [f64; BLOCK] = s.try_into().expect("exact chunk");
        if !norm_cdf_sf_block(x, c, s) {
            for l in 0..BLOCK {
                (c[l], s[l]) = scalar(x[l]);
            }
        } else if LOG {
            for l in 0..BLOCK {
                c[l] = c[l].ln();
                s[l] = s[l].ln();
            }
        }
    }
    for ((x, c), s) in xb
        .remainder()
        .iter()
        .zip(cb.into_remainder())
        .zip(sb.into_remainder())
    {
        (*c, *s) = scalar(*x);
    }
}

/// `out_cdf[i] = Φ(xs[i])`, `out_sf[i] = 1 − Φ(xs[i])` over a whole buffer —
/// no logarithm taken — bit-identical to `(norm_cdf(x), norm_sf(x))` per
/// element wherever it sits in the buffer (pinned by unit tests and
/// proptests).
///
/// This is the slice kernel the normality battery runs: every
/// Anderson–Darling term is `(2i+1)·ln(Φ(zᵢ)·(1 − Φ(z₍ₙ₋₁₋ᵢ₎)))`, so the
/// fused pass batch-evaluates both tails of every standardized order
/// statistic here and takes **one** log per term of their product, where
/// [`norm_log_cdf_sf_slice`] would take two per element. The polynomial
/// core runs over contiguous memory in autovectorization-friendly
/// [`BLOCK`]-wide blocks (the same block body as the log form).
///
/// # Panics
/// Panics if the three slices have different lengths.
pub fn norm_cdf_sf_slice(xs: &[f64], out_cdf: &mut [f64], out_sf: &mut [f64]) {
    assert_eq!(xs.len(), out_cdf.len(), "norm_cdf_sf_slice: cdf mismatch");
    assert_eq!(xs.len(), out_sf.len(), "norm_cdf_sf_slice: sf mismatch");
    norm_tails_slice::<false>(xs, out_cdf, out_sf);
}

/// [`norm_log_cdf_sf`] over a whole buffer, bit-identical to the scalar loop
/// (pinned by unit tests and proptests): `out_lc[i] = ln Φ(xs[i])`,
/// `out_ls[i] = ln(1 − Φ(xs[i]))`.
///
/// The log form of [`norm_cdf_sf_slice`] — one block body, two assemblies.
/// No production path calls it any more (the battery takes one log per
/// Anderson–Darling term, of a product); it stays for callers that want the
/// two log tails themselves, and the benchmark times it.
///
/// # Panics
/// Panics if the three slices have different lengths.
pub fn norm_log_cdf_sf_slice(xs: &[f64], out_lc: &mut [f64], out_ls: &mut [f64]) {
    assert_eq!(xs.len(), out_lc.len(), "norm_log_cdf_sf_slice: lc mismatch");
    assert_eq!(xs.len(), out_ls.len(), "norm_log_cdf_sf_slice: ls mismatch");
    norm_tails_slice::<true>(xs, out_lc, out_ls);
}

/// Inverse of the standard normal CDF (the quantile/probit function).
///
/// Strategy: Abramowitz–Stegun 26.2.23 rational approximation (|ε| < 4.5e-4)
/// as the initial guess, then up to four Newton steps against the exact
/// [`norm_cdf`]/[`norm_pdf`] pair; the result is accurate to ~1e-14 for
/// `p ∈ (1e-300, 1 − 1e-16)`.
///
/// # Panics
/// Panics if `p` is outside `(0, 1)`.
pub fn norm_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "norm_quantile requires p in (0,1), got {p}"
    );
    if p == 0.5 {
        return 0.0;
    }
    // Work in the lower tail for symmetry; q <= 0.5.
    let (q, sign) = if p < 0.5 { (p, -1.0) } else { (1.0 - p, 1.0) };
    // A&S 26.2.23 initial guess for the upper-tail quantile of q.
    let t = (-2.0 * q.ln()).sqrt();
    let num = 2.515_517 + t * (0.802_853 + t * 0.010_328);
    let den = 1.0 + t * (1.432_788 + t * (0.189_269 + t * 0.001_308));
    let mut x = t - num / den;
    // Newton refinement on F(x) = norm_sf(x) - q = 0 (upper tail, x > 0).
    for _ in 0..4 {
        let err = norm_sf(x) - q;
        let pdf = norm_pdf(x);
        if pdf <= f64::MIN_POSITIVE {
            break;
        }
        let dx = err / pdf;
        x += dx;
        if dx.abs() < 1e-15 * (1.0 + x.abs()) {
            break;
        }
    }
    sign * x
}

/// Chi-square cumulative distribution function with `k` degrees of freedom.
///
/// At `k = 2` — the null distribution of K² and Jarque–Bera — this is the
/// closed form `1 − exp(−x/2)`; other `k` go through `gammp`.
pub fn chi2_cdf(x: f64, k: f64) -> f64 {
    debug_assert!(k > 0.0, "chi2_cdf requires k > 0");
    if x <= 0.0 {
        0.0
    } else if k == 2.0 {
        -(-0.5 * x).exp_m1()
    } else {
        gammp(0.5 * k, 0.5 * x)
    }
}

/// Chi-square survival function (upper tail) with `k` degrees of freedom.
///
/// At `k = 2` this is exactly `exp(−x/2)`: one `exp`, where the general
/// route through `gammq` iterates a series or continued fraction and
/// inherits `ln_gamma`'s approximation error (a unit test holds the two
/// within 1e-14 over `x ∈ [1e-3, 700]`, so the general route stays checked).
pub fn chi2_sf(x: f64, k: f64) -> f64 {
    debug_assert!(k > 0.0, "chi2_sf requires k > 0");
    if x <= 0.0 {
        1.0
    } else if k == 2.0 {
        (-0.5 * x).exp()
    } else {
        gammq(0.5 * k, 0.5 * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(got: f64, want: f64, tol: f64, what: &str) {
        assert!(
            (got - want).abs() <= tol * (1.0 + want.abs()),
            "{what}: got {got}, want {want} (tol {tol})"
        );
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = Γ(2) = 1, Γ(0.5) = √π, Γ(5) = 24, Γ(10) = 362880.
        assert_close(ln_gamma(1.0), 0.0, 1e-10, "lnΓ(1)");
        assert_close(ln_gamma(2.0), 0.0, 1e-10, "lnΓ(2)");
        assert_close(
            ln_gamma(0.5),
            std::f64::consts::PI.sqrt().ln(),
            1e-10,
            "lnΓ(1/2)",
        );
        assert_close(ln_gamma(5.0), 24.0_f64.ln(), 1e-10, "lnΓ(5)");
        assert_close(ln_gamma(10.0), 362_880.0_f64.ln(), 1e-10, "lnΓ(10)");
    }

    #[test]
    fn erf_matches_abramowitz_stegun_table() {
        // A&S table 7.1 values.
        assert_close(erf(0.0), 0.0, 1e-15, "erf(0)");
        assert_close(erf(0.5), 0.520_499_877_813_046_5, 1e-12, "erf(0.5)");
        assert_close(erf(1.0), 0.842_700_792_949_714_9, 1e-12, "erf(1)");
        assert_close(erf(2.0), 0.995_322_265_018_952_7, 1e-12, "erf(2)");
        assert_close(erf(-1.0), -0.842_700_792_949_714_9, 1e-12, "erf(-1)");
    }

    #[test]
    fn erfc_is_accurate_in_the_tail() {
        // erfc(3) = 2.209049699858544e-5, erfc(5) = 1.5374597944280347e-12.
        assert_close(erfc(3.0), 2.209_049_699_858_544e-5, 1e-10, "erfc(3)");
        assert_close(erfc(5.0), 1.537_459_794_428_034_7e-12, 1e-9, "erfc(5)");
        // Complementarity.
        for &x in &[-2.5, -1.0, 0.0, 0.3, 1.7, 4.0] {
            assert_close(erf(x) + erfc(x), 1.0, 1e-13, "erf+erfc");
        }
    }

    #[test]
    fn norm_cdf_matches_known_quantiles() {
        assert_close(norm_cdf(0.0), 0.5, 1e-15, "Φ(0)");
        assert_close(norm_cdf(1.959_963_984_540_054), 0.975, 1e-12, "Φ(1.96)");
        assert_close(norm_cdf(-1.644_853_626_951_472_7), 0.05, 1e-12, "Φ(-1.645)");
        assert_close(norm_cdf(2.575_829_303_548_901), 0.995, 1e-12, "Φ(2.576)");
        assert_close(norm_sf(1.281_551_565_544_8), 0.1, 1e-10, "SF(1.2816)");
    }

    #[test]
    fn norm_quantile_inverts_cdf() {
        for &p in &[
            1e-10,
            1e-6,
            0.001,
            0.025,
            0.05,
            0.1,
            0.5,
            0.9,
            0.975,
            0.999,
            1.0 - 1e-9,
        ] {
            let x = norm_quantile(p);
            assert_close(norm_cdf(x), p, 1e-11, "Φ(Φ⁻¹(p))");
        }
        // Published quantiles.
        assert_close(
            norm_quantile(0.975),
            1.959_963_984_540_054,
            1e-12,
            "z(0.975)",
        );
        assert_close(norm_quantile(0.5), 0.0, 1e-15, "z(0.5)");
        assert_close(
            norm_quantile(0.05),
            -1.644_853_626_951_472_7,
            1e-12,
            "z(0.05)",
        );
    }

    #[test]
    #[should_panic(expected = "requires p in (0,1)")]
    fn norm_quantile_rejects_out_of_range() {
        norm_quantile(0.0);
    }

    #[test]
    fn norm_log_cdf_is_stable_in_the_deep_tail() {
        // For moderate x it must agree with ln(Φ(x)).
        for &x in &[-8.0, -5.0, -1.0, 0.0, 2.0] {
            assert_close(norm_log_cdf(x), norm_cdf(x).ln(), 1e-9, "lnΦ moderate");
        }
        // Deep tail: lnΦ(-20) ≈ -203.917155. (Mills-ratio expansion reference.)
        let v = norm_log_cdf(-20.0);
        assert!((-204.0..=-203.8).contains(&v), "lnΦ(-20) = {v}");
        // Must be finite far beyond f64 CDF underflow.
        assert!(norm_log_cdf(-300.0).is_finite());
    }

    #[test]
    fn chi2_matches_known_critical_values() {
        // χ²(2): SF(x) = exp(-x/2) exactly.
        for &x in &[0.5, 1.0, 5.991_464_547_107_979, 10.0] {
            assert_close(chi2_sf(x, 2.0), (-x / 2.0).exp(), 1e-12, "χ²₂ SF");
        }
        // χ²(1) 95th percentile = 3.841458820694124.
        assert_close(chi2_cdf(3.841_458_820_694_124, 1.0), 0.95, 1e-10, "χ²₁ 95%");
        // χ²(10) median ≈ 9.341818.
        assert_close(chi2_cdf(9.341_818_446_2, 10.0), 0.5, 1e-6, "χ²₁₀ median");
    }

    #[test]
    fn gammp_gammq_are_complementary() {
        for &a in &[0.5, 1.0, 2.5, 10.0, 100.0] {
            for &x in &[0.0, 0.1, 1.0, 5.0, 50.0, 200.0] {
                let sum = gammp(a, x) + gammq(a, x);
                assert_close(sum, 1.0, 1e-12, "P+Q");
            }
        }
    }

    #[test]
    fn ln_gamma_half_constant_is_bit_exact() {
        // The hoisted constant must carry the *same* rounding as the Lanczos
        // evaluation it replaces, or every erfc/CDF call would drift.
        assert_eq!(LN_GAMMA_HALF.to_bits(), ln_gamma(0.5).to_bits());
    }

    #[test]
    fn specialized_half_gamma_matches_generic() {
        for i in 0..2000 {
            let x = i as f64 * 0.013;
            assert_eq!(gammp_half(x).to_bits(), gammp(0.5, x).to_bits(), "P at {x}");
            assert_eq!(gammq_half(x).to_bits(), gammq(0.5, x).to_bits(), "Q at {x}");
        }
    }

    #[test]
    fn erfc_near_boundary_constant_is_bit_exact() {
        // The near/mid interval split sits exactly where the incomplete-gamma
        // oracle switched series ↔ continued fraction (t = u² = 1.5), so the
        // fit never straddled the oracle's own branch point.
        assert_eq!(ERFC_NEAR_HI.to_bits(), 1.5f64.sqrt().to_bits());
    }

    #[test]
    fn chebyshev_erfc_matches_incomplete_gamma_formulation() {
        // The fit was generated against the gamma-based erfc this function
        // used to delegate to; hold the two within 5e-13 relative over a
        // dense grid spanning all three intervals plus the underflow tail.
        let mut max_rel = 0.0f64;
        for i in 0..=27_500 {
            let u = i as f64 * 1e-3;
            let want = gammq_half(u * u);
            let got = erfc(u);
            if want > 1e-290 {
                max_rel = max_rel.max(((got - want) / want).abs());
            } else {
                // Both formulations lose relative precision once exp(−u²)
                // leaves the normal range (u ≳ 27.2); just require agreement
                // at subnormal scale.
                assert!((got - want).abs() < 1e-300, "far tail at u={u}");
            }
            // Negative side: 2 − erfc_mag(u) vs 1 + P(1/2, u²).
            let want_neg = 1.0 + gammp_half(u * u);
            let got_neg = erfc(-u);
            assert_close(got_neg, want_neg, 1e-13, "erfc(-u)");
        }
        assert!(
            max_rel < 5e-13,
            "erfc drifted from the gamma oracle: {max_rel:.2e}"
        );
        assert_eq!(erfc(0.0), 1.0);
        assert_eq!(erfc(-0.0), 1.0);
        assert_eq!(erfc(28.0), 0.0);
        assert!(erfc(26.5) > 0.0);
    }

    #[test]
    fn erfc_pair_is_bit_identical_to_two_calls() {
        let mut us: Vec<f64> = (-400..=400).map(|i| i as f64 * 0.05).collect();
        us.extend([0.0, -0.0, 1e-200, -1e-200, f64::MIN_POSITIVE, 1.5f64.sqrt()]);
        for u in us {
            let (a, b) = erfc_pair(u);
            assert_eq!(a.to_bits(), erfc(u).to_bits(), "erfc({u})");
            assert_eq!(b.to_bits(), erfc(-u).to_bits(), "erfc({})", -u);
        }
    }

    #[test]
    fn norm_log_cdf_sf_is_bit_identical_to_separate_calls() {
        // Cover both branch boundaries (±10), the shared-pair interior, the
        // Mills-ratio tails, and signed zero.
        let mut xs: Vec<f64> = (-300..=300).map(|i| i as f64 * 0.1).collect();
        xs.extend([
            -10.0,
            10.0,
            -9.999_999_999,
            9.999_999_999,
            0.0,
            -0.0,
            -35.0,
            35.0,
        ]);
        for x in xs {
            let (lc, ls) = norm_log_cdf_sf(x);
            assert_eq!(lc.to_bits(), norm_log_cdf(x).to_bits(), "lnΦ({x})");
            assert_eq!(ls.to_bits(), norm_log_sf(x).to_bits(), "lnSF({x})");
        }
    }

    /// Inputs that exercise every interval, every mixed-block shape, the
    /// edge semantics, and the sorted-uniform common case.
    fn slice_kernel_inputs() -> Vec<Vec<f64>> {
        let mut cases: Vec<Vec<f64>> = Vec::new();
        // Block-boundary lengths around BLOCK = 8, all-near values.
        for len in 0..=17 {
            cases.push((0..len).map(|i| -0.8 + 0.1 * i as f64).collect());
        }
        // Interval-uniform blocks: near, mid, far, underflow tail.
        cases.push((0..24).map(|i| 0.05 + 0.04 * i as f64).collect());
        cases.push((0..24).map(|i| 1.3 + 0.08 * i as f64).collect());
        cases.push((0..24).map(|i| 3.6 + 0.9 * i as f64).collect());
        cases.push((0..16).map(|i| 27.6 + i as f64).collect());
        // Mixed blocks straddling every interval boundary and sign.
        cases.push((-60..60).map(|i| i as f64 * 0.33).collect::<Vec<_>>());
        // Edge values sprinkled through otherwise-uniform blocks.
        cases.push(vec![
            0.4,
            0.5,
            f64::NAN,
            0.6,
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.7,
            1.224_744_871_391_589,
            -1.224_744_871_391_589,
            3.5,
            -3.5,
            27.5,
            -27.5,
            1e-300,
            -1e-300,
        ]);
        // Sorted z-scores as the sweep produces them (the intended use).
        cases.push((0..100).map(|i| -3.0 + 0.06 * i as f64).collect());
        cases
    }

    #[test]
    fn erfc_slice_is_bit_identical_to_scalar_loop() {
        for xs in slice_kernel_inputs() {
            let mut out = vec![0.0; xs.len()];
            erfc_slice(&xs, &mut out);
            for (i, &x) in xs.iter().enumerate() {
                assert_eq!(
                    out[i].to_bits(),
                    erfc(x).to_bits(),
                    "erfc_slice[{i}] at x={x}"
                );
            }
        }
    }

    #[test]
    fn norm_log_cdf_sf_slice_is_bit_identical_to_scalar_loop() {
        for xs in slice_kernel_inputs() {
            let mut lc = vec![0.0; xs.len()];
            let mut ls = vec![0.0; xs.len()];
            norm_log_cdf_sf_slice(&xs, &mut lc, &mut ls);
            for (i, &x) in xs.iter().enumerate() {
                let (wc, ws) = norm_log_cdf_sf(x);
                assert_eq!(lc[i].to_bits(), wc.to_bits(), "lnΦ slice[{i}] at x={x}");
                assert_eq!(ls[i].to_bits(), ws.to_bits(), "lnSF slice[{i}] at x={x}");
            }
        }
    }

    #[test]
    fn norm_cdf_sf_is_bit_identical_to_separate_calls() {
        let mut xs: Vec<f64> = (-400..=400).map(|i| i as f64 * 0.1).collect();
        xs.extend([0.0, -0.0, 1e-300, -1e-300, f64::INFINITY, f64::NEG_INFINITY]);
        for x in xs {
            let (c, s) = norm_cdf_sf(x);
            assert_eq!(c.to_bits(), norm_cdf(x).to_bits(), "Φ({x})");
            assert_eq!(s.to_bits(), norm_sf(x).to_bits(), "SF({x})");
        }
    }

    #[test]
    fn norm_cdf_sf_slice_is_bit_identical_to_scalar_loop() {
        for xs in slice_kernel_inputs() {
            let mut cdf = vec![0.0; xs.len()];
            let mut sf = vec![0.0; xs.len()];
            norm_cdf_sf_slice(&xs, &mut cdf, &mut sf);
            for (i, &x) in xs.iter().enumerate() {
                let (wc, ws) = norm_cdf_sf(x);
                assert_eq!(cdf[i].to_bits(), wc.to_bits(), "Φ slice[{i}] at x={x}");
                assert_eq!(sf[i].to_bits(), ws.to_bits(), "SF slice[{i}] at x={x}");
            }
        }
    }

    #[test]
    fn chi2_two_dof_closed_form_agrees_with_the_general_route() {
        // 1e-3 … 700 on a geometric grid: the closed form against the
        // series (x/2 < 2) and the continued fraction (beyond).
        let mut x = 1e-3;
        while x <= 700.0 {
            let (sf, cdf) = (chi2_sf(x, 2.0), chi2_cdf(x, 2.0));
            assert_eq!(sf.to_bits(), (-0.5 * x).exp().to_bits());
            assert_close(sf, gammq(1.0, 0.5 * x), 1e-14, "χ²₂ SF vs gammq");
            assert_close(cdf, gammp(1.0, 0.5 * x), 1e-14, "χ²₂ CDF vs gammp");
            assert_close(sf + cdf, 1.0, 1e-15, "χ²₂ SF + CDF");
            x *= 1.07;
        }
        assert_eq!(chi2_sf(0.0, 2.0), 1.0);
        assert_eq!(chi2_cdf(0.0, 2.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn erfc_slice_rejects_length_mismatch() {
        let mut out = vec![0.0; 3];
        erfc_slice(&[1.0, 2.0], &mut out);
    }

    #[test]
    fn gammp_monotone_in_x() {
        let a = 3.0;
        let mut prev = -1.0;
        for i in 0..200 {
            let x = i as f64 * 0.1;
            let v = gammp(a, x);
            assert!(v >= prev - 1e-15, "gammp must be nondecreasing");
            assert!((0.0..=1.0).contains(&v));
            prev = v;
        }
    }
}
