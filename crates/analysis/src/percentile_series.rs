//! Per-application-iteration percentile series (Figures 4, 6, 8).
//!
//! The paper's percentile plots show, for each of the 200 application
//! iterations, the 5th/25th/50th/75th/95th percentiles of the 3,840 thread
//! compute times pooled across trials and ranks. The companion IQR statistics
//! (average and maximum across iterations) quantify each series.

use ebird_core::view::fill_group_ms;
use ebird_core::{AggregationLevel, TimingTrace};
use ebird_stats::percentile::PercentileSummary;
use serde::{Deserialize, Serialize};

/// IQR statistics over a span of a percentile series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IqrStats {
    /// Mean per-iteration IQR (ms).
    pub avg_ms: f64,
    /// Maximum per-iteration IQR (ms).
    pub max_ms: f64,
    /// Iterations covered.
    pub iterations: usize,
}

/// Computes the per-iteration percentile summaries, in iteration order.
pub fn percentile_series(trace: &TimingTrace) -> Vec<PercentileSummary> {
    let level = AggregationLevel::ApplicationIteration;
    let mut ms = Vec::new();
    (0..level.group_count(trace))
        .map(|i| {
            fill_group_ms(trace, level, i, &mut ms);
            PercentileSummary::from_sample(&ms).expect("threads ≥ 1, finite")
        })
        .collect()
}

/// IQR statistics of `series[from..to]` (half-open; clamped to the series).
pub fn iqr_stats(series: &[PercentileSummary], from: usize, to: usize) -> IqrStats {
    let to = to.min(series.len());
    let from = from.min(to);
    let span = &series[from..to];
    if span.is_empty() {
        return IqrStats {
            avg_ms: f64::NAN,
            max_ms: f64::NAN,
            iterations: 0,
        };
    }
    let iqrs: Vec<f64> = span.iter().map(|s| s.iqr()).collect();
    IqrStats {
        avg_ms: iqrs.iter().sum::<f64>() / iqrs.len() as f64,
        max_ms: iqrs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        iterations: span.len(),
    }
}

/// Detects the strongest IQR regime change in a series: returns the split
/// index `k` maximizing the contrast between mean IQR before and after, or
/// `None` if the series is too short. Used to verify MiniMD's iteration-19
/// phase boundary without hard-coding it.
pub fn detect_phase_boundary(series: &[PercentileSummary]) -> Option<usize> {
    if series.len() < 8 {
        return None;
    }
    let iqrs: Vec<f64> = series.iter().map(|s| s.iqr()).collect();
    // Maximize the mean-IQR difference across the split. Prefix sums make the
    // scan O(n); the acceptance bar below keeps spike noise from creating
    // phantom boundaries.
    let prefix: Vec<f64> = std::iter::once(0.0)
        .chain(iqrs.iter().scan(0.0, |acc, &x| {
            *acc += x;
            Some(*acc)
        }))
        .collect();
    let total = prefix[iqrs.len()];
    let mut best = (0usize, 0.0f64);
    for (k, &pk) in prefix.iter().enumerate().take(series.len() - 4).skip(4) {
        let before = pk / k as f64;
        let after = (total - pk) / (iqrs.len() - k) as f64;
        let diff = (before - after).abs();
        if diff > best.1 {
            best = (k, diff);
        }
    }
    // Accept only a change larger than the typical (median) IQR level —
    // stationary series with spiky noise stay boundary-free.
    let mut sorted = iqrs.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let typical = sorted[sorted.len() / 2];
    (best.1 > typical.max(1e-12)).then_some(best.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebird_core::{SampleIndex, ThreadSample, TraceShape};

    /// Series with wide spread for iterations < 10, tight after.
    fn two_phase_trace() -> TimingTrace {
        TimingTrace::from_fn(
            "t",
            TraceShape::new(2, 2, 30, 16).unwrap(),
            |SampleIndex {
                 iteration, thread, ..
             }| {
                let spread = if iteration < 10 { 2.0 } else { 0.1 };
                let ms = 20.0 + spread * (thread as f64 / 15.0 - 0.5);
                ThreadSample::new(0, (ms * 1e6) as u64)
            },
        )
    }

    #[test]
    fn series_has_one_entry_per_iteration() {
        let tr = two_phase_trace();
        let series = percentile_series(&tr);
        assert_eq!(series.len(), 30);
        for s in &series {
            assert_eq!(s.n, 64, "3,840-analogue: trials × ranks × threads");
            assert!(s.p5 <= s.p25 && s.p25 <= s.p50);
            assert!(s.p50 <= s.p75 && s.p75 <= s.p95);
        }
    }

    #[test]
    fn iqr_stats_split_phases() {
        let tr = two_phase_trace();
        let series = percentile_series(&tr);
        let early = iqr_stats(&series, 0, 10);
        let late = iqr_stats(&series, 10, 30);
        assert_eq!(early.iterations, 10);
        assert_eq!(late.iterations, 20);
        assert!(early.avg_ms > 0.5, "early IQR {}", early.avg_ms);
        assert!(late.avg_ms < 0.1, "late IQR {}", late.avg_ms);
        assert!(early.max_ms >= early.avg_ms);
    }

    #[test]
    fn iqr_stats_clamps_ranges() {
        let tr = two_phase_trace();
        let series = percentile_series(&tr);
        let whole = iqr_stats(&series, 0, usize::MAX);
        assert_eq!(whole.iterations, 30);
        let empty = iqr_stats(&series, 20, 10);
        assert_eq!(empty.iterations, 0);
        assert!(empty.avg_ms.is_nan());
    }

    #[test]
    fn phase_boundary_is_detected() {
        let tr = two_phase_trace();
        let series = percentile_series(&tr);
        let k = detect_phase_boundary(&series).expect("clear regime change");
        assert!((9..=11).contains(&k), "detected boundary {k}");
    }

    #[test]
    fn no_boundary_in_stationary_series() {
        let tr = TimingTrace::from_fn(
            "flat",
            TraceShape::new(1, 1, 30, 16).unwrap(),
            |SampleIndex { thread, .. }| {
                ThreadSample::new(0, ((20.0 + thread as f64 * 0.01) * 1e6) as u64)
            },
        );
        let series = percentile_series(&tr);
        assert_eq!(detect_phase_boundary(&series), None);
    }

    #[test]
    fn short_series_has_no_boundary() {
        let tr = two_phase_trace();
        let series = percentile_series(&tr);
        assert_eq!(detect_phase_boundary(&series[..6]), None);
    }
}
