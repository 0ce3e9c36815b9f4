//! # ebird-stats
//!
//! Statistical substrate for the `early-bird` workspace: everything the paper's
//! analysis pipeline needs, implemented from scratch with no numerical
//! dependencies.
//!
//! The crate provides:
//!
//! * [`special`] — special functions (`ln_gamma`, regularized incomplete gamma,
//!   `erf`/`erfc`, normal CDF/quantile, chi-square CDF) accurate to near machine
//!   precision, validated against published values.
//! * [`descriptive`] — streaming and batch descriptive statistics (mean,
//!   variance, skewness, kurtosis, extrema) using numerically stable updates.
//! * [`percentile`] — order statistics: linear-interpolation percentiles
//!   (NumPy/R type-7), medians, inter-quartile ranges, percentile summaries.
//! * [`histogram`] — fixed-bin-width histograms matching the paper's figure
//!   conventions (10 µs / 50 µs / 1 ms bins), with merge and rendering support.
//! * [`normality`] — the paper's three normality tests: D'Agostino's K²
//!   omnibus test, Shapiro–Wilk (Royston's AS R94), and Anderson–Darling
//!   (case 3, Stephens' correction), plus Lilliefors and Jarque–Bera.
//! * [`dist`] — seeded sampling distributions (normal, log-normal, exponential,
//!   mixtures) used by the synthetic cluster models; independent of `rand` so
//!   the crate stays dependency-free.
//! * [`sort`] — LSD radix sort of finite `f64` samples over a monotone `u64`
//!   key mapping, plus k-way merge of sorted sub-groups; bit-identical to a
//!   stable `partial_cmp` sort and allocation-free with a reused scratch.
//! * [`accumulate`] — deterministic chunked-lane summation used by every
//!   sweep kernel so serial, parallel, and fused paths agree bit-for-bit.
//! * [`timeseries`] — change-point detection for iteration-indexed series
//!   (the "how do arrivals change over a run" question).
//!
//! All tests in the paper are two-sided at a 5% significance level; every test
//! here reports both the raw statistic and a p-value so callers can pick their
//! own α.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod accumulate;
pub mod descriptive;
pub mod dist;
pub mod histogram;
pub mod normality;
pub mod percentile;
pub mod sort;
pub mod special;
pub mod timeseries;

pub use descriptive::Moments;
pub use histogram::{Histogram, HistogramSpec};
pub use normality::{
    anderson_darling::AndersonDarling, dagostino::DagostinoK2, shapiro_wilk::ShapiroWilk,
    NormalityOutcome, NormalityTest, TestStatistic,
};
pub use percentile::{iqr, median, percentile, PercentileSummary};

/// Crate-wide error type for statistical routines.
///
/// All fallible entry points return `Result<_, StatsError>`; the variants are
/// deliberately coarse because callers (the analysis layer) either propagate
/// them into reports or treat them as "sample unusable".
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// The sample was too small for the requested statistic
    /// (`needed` is the minimum sample size, `got` the actual one).
    SampleTooSmall {
        /// Minimum number of observations the routine requires.
        needed: usize,
        /// Number of observations actually supplied.
        got: usize,
    },
    /// The sample contained a NaN or infinite value.
    NonFinite,
    /// The sample had zero variance, so scale-dependent statistics are undefined.
    ZeroVariance,
    /// A parameter was outside its valid domain (message explains which).
    InvalidParameter(&'static str),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::SampleTooSmall { needed, got } => {
                write!(f, "sample too small: need at least {needed}, got {got}")
            }
            StatsError::NonFinite => write!(f, "sample contains non-finite values"),
            StatsError::ZeroVariance => write!(f, "sample has zero variance"),
            StatsError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Validates that every observation is finite, returning [`StatsError::NonFinite`]
/// otherwise. Used by the public entry points of the test modules.
pub(crate) fn ensure_finite(sample: &[f64]) -> Result<(), StatsError> {
    if sample.iter().all(|x| x.is_finite()) {
        Ok(())
    } else {
        Err(StatsError::NonFinite)
    }
}

/// Validates a minimum sample size.
pub(crate) fn ensure_len(sample: &[f64], needed: usize) -> Result<(), StatsError> {
    if sample.len() < needed {
        Err(StatsError::SampleTooSmall {
            needed,
            got: sample.len(),
        })
    } else {
        Ok(())
    }
}

/// An ascending copy of a sample already checked finite — the stable
/// `partial_cmp` order every order statistic of an unsorted sample is
/// defined on.
pub(crate) fn sorted_copy(sample: &[f64]) -> Vec<f64> {
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = StatsError::SampleTooSmall { needed: 8, got: 3 };
        assert!(e.to_string().contains("need at least 8"));
        assert!(StatsError::NonFinite.to_string().contains("non-finite"));
        assert!(StatsError::ZeroVariance.to_string().contains("variance"));
        assert!(StatsError::InvalidParameter("alpha")
            .to_string()
            .contains("alpha"));
    }

    #[test]
    fn ensure_finite_rejects_nan_and_inf() {
        assert!(ensure_finite(&[1.0, 2.0, 3.0]).is_ok());
        assert_eq!(ensure_finite(&[1.0, f64::NAN]), Err(StatsError::NonFinite));
        assert_eq!(
            ensure_finite(&[f64::INFINITY, 0.0]),
            Err(StatsError::NonFinite)
        );
    }

    #[test]
    fn ensure_len_checks_minimum() {
        assert!(ensure_len(&[0.0; 8], 8).is_ok());
        assert_eq!(
            ensure_len(&[0.0; 7], 8),
            Err(StatsError::SampleTooSmall { needed: 8, got: 7 })
        );
    }
}
