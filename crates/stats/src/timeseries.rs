//! Time-series helpers for iteration-indexed statistics.
//!
//! The paper asks "how thread arrival times may change over the course of an
//! application run" (§1) but only eyeballs the percentile plots.
//! Multi-change-point detection by binary segmentation makes that question
//! quantitative (generalizing the single-boundary detector in
//! `ebird-analysis`).

use crate::{ensure_finite, ensure_len, StatsError};

/// Multi-change-point detection by binary segmentation on segment means.
///
/// Splits recursively wherever the best split reduces the within-segment sum
/// of squared deviations by more than `penalty` (relative to segment SSE).
/// Returns sorted split indices (a split at `k` separates `..k` from `k..`).
/// `min_segment` guards against spurious tiny segments.
pub fn change_points(
    series: &[f64],
    penalty: f64,
    min_segment: usize,
) -> Result<Vec<usize>, StatsError> {
    ensure_len(series, 2 * min_segment.max(1))?;
    ensure_finite(series)?;
    if penalty.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(StatsError::InvalidParameter("penalty must be positive"));
    }
    let mut splits = Vec::new();
    segment(series, 0, penalty, min_segment.max(1), &mut splits);
    splits.sort_unstable();
    Ok(splits)
}

fn sse(xs: &[f64]) -> f64 {
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    xs.iter().map(|&x| (x - mean) * (x - mean)).sum()
}

fn segment(xs: &[f64], offset: usize, penalty: f64, min_seg: usize, out: &mut Vec<usize>) {
    if xs.len() < 2 * min_seg {
        return;
    }
    let total = sse(xs);
    let mut best: Option<(usize, f64)> = None;
    for k in min_seg..=xs.len() - min_seg {
        let reduced = sse(&xs[..k]) + sse(&xs[k..]);
        let gain = total - reduced;
        if best.map(|(_, g)| gain > g).unwrap_or(true) {
            best = Some((k, gain));
        }
    }
    if let Some((k, gain)) = best {
        // Accept the split only when it explains a `penalty` fraction of the
        // segment's variability (guards stationary noise).
        if gain > penalty * total.max(1e-12) {
            out.push(offset + k);
            segment(&xs[..k], offset, penalty, min_seg, out);
            segment(&xs[k..], offset + k, penalty, min_seg, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn change_points_find_a_minimd_style_boundary() {
        // 19 iterations at level 25.5, then 81 at 24.74 (tiny noise).
        let xs: Vec<f64> = (0..100)
            .map(|i| {
                let level = if i < 19 { 25.5 } else { 24.74 };
                level + ((i * 37) % 7) as f64 * 1e-3
            })
            .collect();
        let cps = change_points(&xs, 0.3, 4).unwrap();
        assert_eq!(cps, vec![19]);
    }

    #[test]
    fn change_points_find_multiple_levels() {
        let mut xs = vec![1.0; 30];
        xs.extend(vec![5.0; 30]);
        xs.extend(vec![2.0; 30]);
        let cps = change_points(&xs, 0.2, 5).unwrap();
        assert_eq!(cps, vec![30, 60]);
    }

    #[test]
    fn stationary_series_has_no_change_points() {
        let xs: Vec<f64> = (0..80)
            .map(|i| 10.0 + ((i * 2654435761usize) % 100) as f64 * 1e-3)
            .collect();
        let cps = change_points(&xs, 0.3, 5).unwrap();
        assert!(cps.is_empty(), "spurious change points {cps:?}");
    }

    #[test]
    fn input_validation() {
        assert!(change_points(&[1.0, 2.0], 0.5, 5).is_err());
        assert!(change_points(&[1.0; 20], 0.0, 2).is_err());
    }
}
