//! Fixed-bin-width histograms matching the paper's figure conventions.
//!
//! The paper plots arrival-time histograms with bin widths of 10 µs (Figure 3,
//! Figure 7 b/c), 50 µs (Figures 5, 7a) and 1 ms (Figure 9). [`HistogramSpec`]
//! captures the `(origin, width)` pair; [`Histogram`] counts observations and
//! can render itself as rows (`bin_center, count`) or a quick ASCII sketch
//! for terminal reports.

use serde::{Deserialize, Serialize};

use crate::StatsError;

/// Immutable description of a fixed-width binning scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistogramSpec {
    /// Left edge of bin 0. Observations below it land in the underflow count.
    pub origin: f64,
    /// Bin width (strictly positive).
    pub width: f64,
    /// Number of regular bins. Observations at or beyond
    /// `origin + bins × width` land in the overflow count.
    pub bins: usize,
}

impl HistogramSpec {
    /// Creates a spec, validating `width > 0` and `bins > 0`.
    fn new(origin: f64, width: f64, bins: usize) -> Result<Self, StatsError> {
        if !(width > 0.0 && width.is_finite()) {
            return Err(StatsError::InvalidParameter(
                "bin width must be positive and finite",
            ));
        }
        if bins == 0 {
            return Err(StatsError::InvalidParameter("bin count must be nonzero"));
        }
        if !origin.is_finite() {
            return Err(StatsError::InvalidParameter("origin must be finite"));
        }
        Ok(HistogramSpec {
            origin,
            width,
            bins,
        })
    }

    /// Builds a spec that covers `[min, max]` of a sample with the given
    /// `width`, snapping the origin down to a multiple of `width` so bins of
    /// independently-built histograms line up.
    fn covering(min: f64, max: f64, width: f64) -> Result<Self, StatsError> {
        if !(width > 0.0 && width.is_finite()) {
            return Err(StatsError::InvalidParameter(
                "bin width must be positive and finite",
            ));
        }
        if !(min.is_finite() && max.is_finite() && min <= max) {
            return Err(StatsError::InvalidParameter("need finite min <= max"));
        }
        let origin = (min / width).floor() * width;
        let span = max - origin;
        let bins = ((span / width).floor() as usize + 1).max(1);
        HistogramSpec::new(origin, width, bins)
    }

    /// Index of the bin containing `x`, or `None` for under/overflow.
    fn bin_index(&self, x: f64) -> Option<usize> {
        if x < self.origin {
            return None;
        }
        let idx = ((x - self.origin) / self.width) as usize;
        (idx < self.bins).then_some(idx)
    }

    /// `[left, right)` edges of bin `i`.
    fn bin_edges(&self, i: usize) -> (f64, f64) {
        let left = self.origin + i as f64 * self.width;
        (left, left + self.width)
    }

    /// Midpoint of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.origin + (i as f64 + 0.5) * self.width
    }
}

/// A counting histogram over a [`HistogramSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    spec: HistogramSpec,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates an empty histogram for `spec`.
    fn new(spec: HistogramSpec) -> Self {
        Histogram {
            counts: vec![0; spec.bins],
            spec,
            underflow: 0,
            overflow: 0,
        }
    }

    /// Builds a histogram over `sample` with the given bin `width`, choosing a
    /// snapped origin that covers the data (see `HistogramSpec::covering`).
    ///
    /// # Errors
    /// Propagates spec validation errors; empty samples are invalid.
    pub fn from_sample(sample: &[f64], width: f64) -> Result<Self, StatsError> {
        crate::ensure_len(sample, 1)?;
        crate::ensure_finite(sample)?;
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in sample {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        let mut h = Histogram::new(HistogramSpec::covering(lo, hi, width)?);
        h.extend(sample.iter().copied());
        Ok(h)
    }

    /// Records one observation.
    fn push(&mut self, x: f64) {
        match self.spec.bin_index(x) {
            Some(i) => self.counts[i] += 1,
            None if x < self.spec.origin => self.underflow += 1,
            None => self.overflow += 1,
        }
    }

    /// Records every observation in the iterator.
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }

    /// The binning scheme.
    pub fn spec(&self) -> &HistogramSpec {
        &self.spec
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total recorded observations (bins + underflow + overflow).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Index and count of the fullest bin, or `None` if all bins are empty.
    pub fn mode_bin(&self) -> Option<(usize, u64)> {
        self.counts
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    /// Number of non-empty bins — a crude spread measure used to contrast the
    /// "very tight" MiniMD steady state with MiniQMC's 40 ms-wide spread.
    pub fn occupied_bins(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Iterator of `(bin_center, count)` rows for plotting/CSV export.
    pub fn rows(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.spec.bin_center(i), c))
    }

    /// Renders an ASCII bar sketch (`max_rows` tallest region around the data,
    /// `bar_width` characters for the largest count). Intended for terminal
    /// reports, not publication plots.
    pub fn render_ascii(&self, bar_width: usize) -> String {
        use std::fmt::Write as _;
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        // Trim leading/trailing empty bins for readability.
        let first = self.counts.iter().position(|&c| c > 0).unwrap_or(0);
        let last = self
            .counts
            .iter()
            .rposition(|&c| c > 0)
            .unwrap_or(self.counts.len().saturating_sub(1));
        for i in first..=last {
            let c = self.counts[i];
            let bar = "#".repeat(((c as f64 / max as f64) * bar_width as f64).round() as usize);
            let (lo, hi) = self.spec.bin_edges(i);
            let _ = writeln!(out, "[{lo:>12.6}, {hi:>12.6}) {c:>8} {bar}");
        }
        if self.underflow > 0 {
            let _ = writeln!(out, "underflow: {}", self.underflow);
        }
        if self.overflow > 0 {
            let _ = writeln!(out, "overflow:  {}", self.overflow);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation() {
        assert!(HistogramSpec::new(0.0, 1.0, 10).is_ok());
        assert!(HistogramSpec::new(0.0, 0.0, 10).is_err());
        assert!(HistogramSpec::new(0.0, -1.0, 10).is_err());
        assert!(HistogramSpec::new(0.0, 1.0, 0).is_err());
        assert!(HistogramSpec::new(f64::NAN, 1.0, 4).is_err());
    }

    #[test]
    fn bin_index_and_edges() {
        let s = HistogramSpec::new(10.0, 2.0, 5).unwrap();
        assert_eq!(s.bin_index(9.99), None);
        assert_eq!(s.bin_index(10.0), Some(0));
        assert_eq!(s.bin_index(11.99), Some(0));
        assert_eq!(s.bin_index(12.0), Some(1));
        assert_eq!(s.bin_index(19.99), Some(4));
        assert_eq!(s.bin_index(20.0), None);
        assert_eq!(s.bin_edges(2), (14.0, 16.0));
        assert_eq!(s.bin_center(0), 11.0);
    }

    #[test]
    fn covering_snaps_origin_to_width_multiple() {
        let s = HistogramSpec::covering(10.3, 19.7, 2.0).unwrap();
        assert_eq!(s.origin, 10.0);
        assert!(s.bin_index(10.3).is_some());
        assert!(s.bin_index(19.7).is_some());
        // Aligned origins line up histograms over different samples.
        let s2 = HistogramSpec::covering(12.1, 19.7, 2.0).unwrap();
        assert_eq!((s2.origin / 2.0).fract(), 0.0);
    }

    #[test]
    fn mass_conservation() {
        let xs: Vec<f64> = (0..1000).map(|i| (i % 97) as f64 * 0.37).collect();
        let h = Histogram::from_sample(&xs, 1.0).unwrap();
        assert_eq!(h.total(), 1000);
        assert_eq!(h.underflow, 0);
        assert_eq!(h.overflow, 0);
        let sum: u64 = h.counts().iter().sum();
        assert_eq!(sum, 1000);
    }

    #[test]
    fn under_and_overflow_are_counted() {
        let mut h = Histogram::new(HistogramSpec::new(0.0, 1.0, 2).unwrap());
        h.extend([-1.0, 0.5, 1.5, 2.0, 99.0]);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.counts(), &[1, 1]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn mode_and_occupancy() {
        let mut h = Histogram::new(HistogramSpec::new(0.0, 1.0, 5).unwrap());
        h.extend([0.5, 1.5, 1.6, 1.7, 4.2]);
        assert_eq!(h.mode_bin(), Some((1, 3)));
        assert_eq!(h.occupied_bins(), 3);
        let empty = Histogram::new(HistogramSpec::new(0.0, 1.0, 5).unwrap());
        assert_eq!(empty.mode_bin(), None);
        assert_eq!(empty.occupied_bins(), 0);
    }

    #[test]
    fn rows_and_ascii_render() {
        let mut h = Histogram::new(HistogramSpec::new(0.0, 0.5, 3).unwrap());
        h.extend([0.1, 0.6, 0.7, 1.3]);
        let rows: Vec<_> = h.rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], (0.25, 1));
        assert_eq!(rows[1], (0.75, 2));
        let art = h.render_ascii(10);
        assert!(art.contains('#'));
        assert!(art.lines().count() >= 3);
    }

    #[test]
    fn from_sample_rejects_empty_and_nonfinite() {
        assert!(Histogram::from_sample(&[], 1.0).is_err());
        assert!(Histogram::from_sample(&[1.0, f64::NAN], 1.0).is_err());
        assert!(Histogram::from_sample(&[1.0], 0.0).is_err());
    }
}
