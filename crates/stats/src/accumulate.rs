//! Deterministic chunked-lane accumulation.
//!
//! The sweep kernels sum hundreds of thousands of `f64`s per group. A plain
//! sequential fold chains every addition through one register — the compiler
//! cannot reassociate float adds, so the loop runs at the latency of a
//! dependent `addsd` chain. Splitting the stream into [`LANES`] independent
//! accumulators breaks the dependency chain (the adds pipeline and
//! auto-vectorize) while keeping the result **deterministic**: the lane
//! assignment, the reduction tree and the remainder handling are fixed, so
//! the same input always produces the same bits on every host and thread.
//!
//! Note the lane sum is *not* bit-identical to a sequential fold — it is a
//! different (equally valid) association of the same additions. Every caller
//! in this workspace therefore routes **all** of its paths (per-test,
//! battery, serial sweep, parallel sweep) through these helpers, so
//! cross-path bit-identity holds by construction. Lane sums are also
//! order-sensitive in their last bits, so the normality battery takes all of
//! them over the **sorted** sample — the one order every route shares.

/// Number of independent accumulator lanes (a power of two; eight f64 lanes
/// span two AVX2 registers).
const LANES: usize = 8;

/// Deterministic lane sum of `xs`.
pub fn sum(xs: &[f64]) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let chunks = xs.chunks_exact(LANES);
    let rem = chunks.remainder();
    for c in chunks {
        for (lane, &v) in lanes.iter_mut().zip(c) {
            *lane += v;
        }
    }
    // Fixed pairwise reduction tree, then the remainder in order.
    let mut acc = reduce(lanes);
    for &v in rem {
        acc += v;
    }
    acc
}

/// Fixed pairwise reduction tree over the lanes — the one order every lane
/// accumulator in this module is folded in.
#[inline]
fn reduce(lanes: [f64; LANES]) -> f64 {
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
}

/// Deterministic `(mean, Σ(x − mean)²)` of `xs` via two lane passes.
///
/// The corrected sum of squares uses the already-rounded mean (exactly like
/// the textbook two-pass algorithm the sweep kernels previously inlined),
/// just with lane-parallel accumulation. These are [`central_sums`]' first
/// two fields, bit for bit — the same body, compiled without the cubes and
/// fourth powers.
///
/// # Panics
/// Panics in debug builds if `xs` is empty.
pub fn mean_ssq(xs: &[f64]) -> (f64, f64) {
    let (mean, ssq, _, _) = central_lane_sums::<false>(xs);
    (mean, ssq)
}

/// Deterministic `(mean, Σd², Σd³, Σd⁴)` with `d = x − mean`: the lane mean,
/// then one pass that accumulates the three central power sums in eight
/// lanes each, reduced by the same fixed tree.
///
/// This is the one arithmetic behind every moment-based statistic of the
/// normality battery: Shapiro–Wilk's and Anderson–Darling's `Σd²`, and the
/// `g₁`/`b₂` of D'Agostino's K² and Jarque–Bera. Per element it is a
/// subtraction, three multiplications and three independent adds, where a
/// streamed (Pébay) update carries a division through its `mean → delta →
/// mean` chain. Against exact integer moments (`tests/oracles.rs`) the sums
/// are exact wherever the deviations are, and otherwise off by the one
/// rounding of the mean: `k·ulp(x̄)·Σ|d|ᵏ⁻¹` on `Σdᵏ`.
///
/// # Panics
/// Panics in debug builds if `xs` is empty.
pub fn central_sums(xs: &[f64]) -> (f64, f64, f64, f64) {
    central_lane_sums::<true>(xs)
}

/// The one body of [`mean_ssq`] (`HIGHER = false`: the third and fourth
/// sums stay 0 and cost nothing) and [`central_sums`].
#[inline(always)]
fn central_lane_sums<const HIGHER: bool>(xs: &[f64]) -> (f64, f64, f64, f64) {
    debug_assert!(!xs.is_empty(), "mean of an empty slice");
    let mean = sum(xs) / xs.len() as f64;
    let (mut l2, mut l3, mut l4) = ([0.0f64; LANES], [0.0f64; LANES], [0.0f64; LANES]);
    let chunks = xs.chunks_exact(LANES);
    let rem = chunks.remainder();
    for c in chunks {
        for (l, &v) in c.iter().enumerate() {
            let d = v - mean;
            let d2 = d * d;
            l2[l] += d2;
            if HIGHER {
                l3[l] += d2 * d;
                l4[l] += d2 * d2;
            }
        }
    }
    let (mut s2, mut s3, mut s4) = (reduce(l2), reduce(l3), reduce(l4));
    for &v in rem {
        let d = v - mean;
        let d2 = d * d;
        s2 += d2;
        if HIGHER {
            s3 += d2 * d;
            s4 += d2 * d2;
        }
    }
    (mean, s2, s3, s4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_sum_within_tolerance() {
        let xs: Vec<f64> = (0..1003).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let seq: f64 = xs.iter().sum();
        assert!((sum(&xs) - seq).abs() < 1e-9 * (1.0 + seq.abs()));
    }

    #[test]
    fn deterministic_across_calls_and_exact_on_integers() {
        let xs: Vec<f64> = (0..97).map(|i| i as f64).collect();
        assert_eq!(sum(&xs), 96.0 * 97.0 / 2.0);
        assert_eq!(sum(&xs).to_bits(), sum(&xs).to_bits());
    }

    #[test]
    fn mean_ssq_matches_two_pass() {
        let xs: Vec<f64> = (0..250).map(|i| 5.0 + ((i * 7) % 13) as f64).collect();
        let (mean, ssq) = mean_ssq(&xs);
        let m: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let s: f64 = xs.iter().map(|v| (v - m) * (v - m)).sum();
        assert!((mean - m).abs() < 1e-12);
        assert!((ssq - s).abs() < 1e-9 * (1.0 + s));
    }

    #[test]
    fn central_sums_match_plain_two_pass_and_carry_mean_ssq_bits() {
        // Lengths around the lane width: empty lane part, remainder only,
        // whole chunks plus a remainder.
        for n in [1usize, 7, 8, 9, 250, 1003] {
            let xs: Vec<f64> = (0..n).map(|i| 5.0 + ((i * 7) % 13) as f64 * 0.37).collect();
            let (mean, s2, s3, s4) = central_sums(&xs);
            let (m, ssq) = mean_ssq(&xs);
            assert_eq!((mean.to_bits(), s2.to_bits()), (m.to_bits(), ssq.to_bits()));
            let plain = |k: i32| xs.iter().map(|v| (v - mean).powi(k)).sum::<f64>();
            let scale = xs.iter().map(|v| (v - mean).abs().powi(4)).sum::<f64>();
            assert!((s2 - plain(2)).abs() <= 1e-12 * (1.0 + plain(2)), "n={n}");
            assert!((s3 - plain(3)).abs() <= 1e-12 * (1.0 + scale), "n={n}");
            assert!((s4 - plain(4)).abs() <= 1e-12 * (1.0 + plain(4)), "n={n}");
        }
    }

    #[test]
    fn handles_short_and_empty_slices() {
        assert_eq!(sum(&[]), 0.0);
        assert_eq!(sum(&[2.5]), 2.5);
        let (mean, ssq) = mean_ssq(&[3.0, 5.0]);
        assert_eq!(mean, 4.0);
        assert_eq!(ssq, 2.0);
    }
}
