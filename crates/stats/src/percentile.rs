//! Order statistics: percentiles, medians and inter-quartile ranges.
//!
//! The paper's percentile plots (Figures 4, 6, 8) display the 5th, 25th, 50th,
//! 75th and 95th percentiles of 3,840 samples per application iteration; its
//! laggard criterion compares the maximum against the median. Everything here
//! uses linear interpolation between closest ranks (NumPy's default, R type 7)
//! so values line up with the paper's NumPy-based post-processing.

use serde::{Deserialize, Serialize};

use crate::{ensure_finite, ensure_len, sorted_copy, StatsError};

/// Computes the `p`-th percentile (`0 ≤ p ≤ 100`) of an *unsorted* sample
/// using type-7 linear interpolation. Allocates a sorted copy; use
/// [`percentile_of_sorted`] when the data is already ordered.
///
/// # Errors
/// [`StatsError::SampleTooSmall`] on an empty sample, [`StatsError::NonFinite`]
/// on NaN/∞, [`StatsError::InvalidParameter`] when `p` is outside [0, 100].
pub fn percentile(sample: &[f64], p: f64) -> Result<f64, StatsError> {
    ensure_len(sample, 1)?;
    ensure_finite(sample)?;
    if !(0.0..=100.0).contains(&p) {
        return Err(StatsError::InvalidParameter(
            "percentile must be in [0, 100]",
        ));
    }
    Ok(percentile_of_sorted(&sorted_copy(sample), p))
}

/// Type-7 percentile of an already **ascending-sorted** slice.
///
/// `h = (n−1)·p/100`; the result interpolates linearly between the floor and
/// ceil order statistics. The caller must guarantee ordering; debug builds
/// assert it.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty(), "percentile of empty slice");
    debug_assert!((0.0..=100.0).contains(&p), "p out of range: {p}");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "slice must be sorted ascending"
    );
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = (n - 1) as f64 * p / 100.0;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = h - lo as f64;
        sorted[lo] + frac * (sorted[hi] - sorted[lo])
    }
}

/// Convenience: the median (50th percentile) of an unsorted sample.
pub fn median(sample: &[f64]) -> Result<f64, StatsError> {
    percentile(sample, 50.0)
}

/// The five-number-plus summary used by the paper's percentile plots
/// (Figures 4, 6, 8): p5 / p25 / p50 / p75 / p95, plus min/max for context.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PercentileSummary {
    /// Sample size the summary was computed from.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// 5th percentile.
    pub p5: f64,
    /// 25th percentile (first quartile).
    pub p25: f64,
    /// 50th percentile (median).
    pub p50: f64,
    /// 75th percentile (third quartile).
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl PercentileSummary {
    /// Computes the summary from an unsorted sample.
    ///
    /// # Errors
    /// Same contract as [`percentile`].
    pub fn from_sample(sample: &[f64]) -> Result<Self, StatsError> {
        ensure_len(sample, 1)?;
        ensure_finite(sample)?;
        Ok(Self::from_sorted(&sorted_copy(sample)))
    }

    /// Computes the summary from an **ascending-sorted** slice without
    /// re-sorting. Debug builds assert ordering.
    pub fn from_sorted(sorted: &[f64]) -> Self {
        PercentileSummary {
            n: sorted.len(),
            min: sorted[0],
            p5: percentile_of_sorted(sorted, 5.0),
            p25: percentile_of_sorted(sorted, 25.0),
            p50: percentile_of_sorted(sorted, 50.0),
            p75: percentile_of_sorted(sorted, 75.0),
            p95: percentile_of_sorted(sorted, 95.0),
            max: sorted[sorted.len() - 1],
        }
    }

    /// Inter-quartile range `p75 − p25`.
    pub fn iqr(&self) -> f64 {
        self.p75 - self.p25
    }

    /// `max − p50`: the paper's laggard magnitude for one aggregation unit.
    pub fn laggard_magnitude(&self) -> f64 {
        self.max - self.p50
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn percentile_of_singleton_is_the_value() {
        assert_eq!(percentile(&[42.0], 0.0).unwrap(), 42.0);
        assert_eq!(percentile(&[42.0], 50.0).unwrap(), 42.0);
        assert_eq!(percentile(&[42.0], 100.0).unwrap(), 42.0);
    }

    #[test]
    fn type7_interpolation_matches_numpy() {
        // numpy.percentile([1,2,3,4], 25) == 1.75; 50 -> 2.5; 75 -> 3.25.
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&xs, 25.0).unwrap() - 1.75).abs() < TOL);
        assert!((percentile(&xs, 50.0).unwrap() - 2.5).abs() < TOL);
        assert!((percentile(&xs, 75.0).unwrap() - 3.25).abs() < TOL);
        // numpy.percentile([15, 20, 35, 40, 50], 40) == 29.0
        let ys = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert!((percentile(&ys, 40.0).unwrap() - 29.0).abs() < TOL);
    }

    #[test]
    fn percentile_handles_unsorted_input() {
        let xs = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert!((median(&xs).unwrap() - 5.0).abs() < TOL);
        assert!((percentile(&xs, 0.0).unwrap() - 1.0).abs() < TOL);
        assert!((percentile(&xs, 100.0).unwrap() - 9.0).abs() < TOL);
    }

    #[test]
    fn median_of_even_sample_interpolates() {
        assert!((median(&[1.0, 2.0, 3.0, 4.0]).unwrap() - 2.5).abs() < TOL);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(matches!(
            percentile(&[], 50.0),
            Err(StatsError::SampleTooSmall { .. })
        ));
        assert!(matches!(
            percentile(&[1.0, f64::NAN], 50.0),
            Err(StatsError::NonFinite)
        ));
        assert!(matches!(
            percentile(&[1.0], 101.0),
            Err(StatsError::InvalidParameter(_))
        ));
        assert!(matches!(
            percentile(&[1.0], -0.5),
            Err(StatsError::InvalidParameter(_))
        ));
    }

    #[test]
    fn summary_is_internally_ordered() {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 7919) % 499) as f64).collect();
        let s = PercentileSummary::from_sample(&xs).unwrap();
        assert!(s.min <= s.p5);
        assert!(s.p5 <= s.p25);
        assert!(s.p25 <= s.p50);
        assert!(s.p50 <= s.p75);
        assert!(s.p75 <= s.p95);
        assert!(s.p95 <= s.max);
        assert!(s.iqr() >= 0.0);
        assert!(s.laggard_magnitude() >= 0.0);
        assert_eq!(s.n, 500);
    }

    #[test]
    fn from_sorted_equals_from_sample() {
        let xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3];
        let a = PercentileSummary::from_sample(&xs).unwrap();
        let mut sorted = xs.to_vec();
        sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let b = PercentileSummary::from_sorted(&sorted);
        assert_eq!(a, b);
    }
}
