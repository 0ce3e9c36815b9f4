//! Histogram builders for the paper's figures, with its exact bin widths.
//!
//! | Figure | Content | Bin width |
//! |---|---|---|
//! | 3a–c | application-level arrival histograms | 10 µs |
//! | 5a/5b | MiniFE process-iteration exemplars (no-laggard / laggard) | 50 µs |
//! | 7a | MiniMD initial-phase exemplar | 50 µs |
//! | 7b/7c | MiniMD steady exemplars (no-laggard / laggard) | 10 µs |
//! | 9 | MiniQMC process-iteration exemplar | 1 ms |

use ebird_core::view::fill_group_ms;
use ebird_core::{AggregationLevel, TimingTrace};
use ebird_stats::histogram::Histogram;
use serde::{Deserialize, Serialize};

use crate::laggard::{ArrivalClass, LaggardCensus};

/// Paper bin widths, in milliseconds.
pub mod bins {
    /// Figure 3: 10 µs.
    pub(super) const FIG3_MS: f64 = 0.010;
    /// Figures 5a/5b and 7a: 50 µs.
    pub const FIG5_MS: f64 = 0.050;
    /// Figures 7b/7c: 10 µs.
    pub const FIG7_STEADY_MS: f64 = 0.010;
    /// Figure 9: 1 ms.
    pub const FIG9_MS: f64 = 1.0;
}

/// A labelled histogram ready for rendering/CSV export.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureHistogram {
    /// Figure label (e.g. `"fig3a"`, `"fig5b"`).
    pub label: String,
    /// Application name.
    pub app: String,
    /// Provenance: `(trial, rank, iteration)` for exemplars, `None` for
    /// application-level figures.
    pub provenance: Option<(usize, usize, usize)>,
    /// The histogram.
    pub histogram: Histogram,
}

/// Figure 3 for one application: the application-level histogram (10 µs bins).
pub fn fig3(trace: &TimingTrace, label: &str) -> FigureHistogram {
    let mut all = Vec::new();
    fill_group_ms(trace, AggregationLevel::Application, 0, &mut all);
    FigureHistogram {
        label: label.to_string(),
        app: trace.app().to_string(),
        provenance: None,
        histogram: Histogram::from_sample(&all, bins::FIG3_MS).expect("nonempty finite sample"),
    }
}

/// Histogram of process-iteration `unit` (a census unit index) with an
/// explicit bin width (ms).
///
/// # Panics
/// If `unit` is out of range for the trace.
pub fn process_iteration_histogram(
    trace: &TimingTrace,
    unit: usize,
    bin_ms: f64,
    label: &str,
) -> FigureHistogram {
    let mut ms = Vec::new();
    fill_group_ms(trace, AggregationLevel::ProcessIteration, unit, &mut ms);
    FigureHistogram {
        label: label.to_string(),
        app: trace.app().to_string(),
        provenance: Some(trace.shape().unit_coords(unit)),
        histogram: Histogram::from_sample(&ms, bin_ms).expect("threads ≥ 1"),
    }
}

/// The laggard/no-laggard exemplar pair (Figures 5a/5b, 7b/7c): picks class
/// exemplars from the census (restricted to iterations ≥ `from_iteration`)
/// and bins them at `bin_ms`. Either side may be `None` when the class never
/// occurs (e.g. a trace with no laggards).
pub fn class_exemplar_pair(
    trace: &TimingTrace,
    census: &LaggardCensus,
    from_iteration: usize,
    bin_ms: f64,
    label_prefix: &str,
) -> (Option<FigureHistogram>, Option<FigureHistogram>) {
    let make = |class: ArrivalClass, suffix: &str| {
        census.exemplar(class, from_iteration).map(|(unit, _)| {
            process_iteration_histogram(trace, unit, bin_ms, &format!("{label_prefix}{suffix}"))
        })
    };
    (
        make(ArrivalClass::NoLaggard, "a"),
        make(ArrivalClass::Laggard, "b"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laggard::laggard_census;
    use ebird_core::{SampleIndex, ThreadSample, TraceShape};

    fn trace() -> TimingTrace {
        TimingTrace::from_fn(
            "App",
            TraceShape::new(1, 2, 6, 8).unwrap(),
            |SampleIndex {
                 rank,
                 iteration,
                 thread,
                 ..
             }| {
                let mut ms = 5.0 + thread as f64 * 0.02 + rank as f64 * 0.001;
                if iteration >= 3 && thread == 7 {
                    ms += 2.0; // laggard in later iterations
                }
                ThreadSample::new(0, (ms * 1e6) as u64)
            },
        )
    }

    #[test]
    fn fig3_covers_all_samples() {
        let tr = trace();
        let f = fig3(&tr, "fig3a");
        assert_eq!(f.histogram.total(), 96);
        assert_eq!(f.app, "App");
        assert_eq!(f.provenance, None);
        assert!((f.histogram.spec().width - 0.010).abs() < 1e-12);
    }

    #[test]
    fn process_iteration_histogram_has_thread_count_mass() {
        let tr = trace();
        // Unit 8 of a 1 × 2 × 6 trace is (trial 0, rank 1, iteration 2).
        let f = process_iteration_histogram(&tr, 8, bins::FIG5_MS, "fig5a");
        assert_eq!(f.histogram.total(), 8);
        assert_eq!(f.provenance, Some((0, 1, 2)));
    }

    #[test]
    fn exemplar_pair_finds_both_classes() {
        let tr = trace();
        let census = laggard_census(&tr, 1.0);
        let (calm, laggard) = class_exemplar_pair(&tr, &census, 0, bins::FIG5_MS, "fig5");
        let calm = calm.expect("iterations 0..3 are calm");
        let laggard = laggard.expect("iterations 3.. have laggards");
        assert_eq!(calm.label, "fig5a");
        assert_eq!(laggard.label, "fig5b");
        let (_, _, calm_iter) = calm.provenance.unwrap();
        assert!(calm_iter < 3);
        let (_, _, lag_iter) = laggard.provenance.unwrap();
        assert!(lag_iter >= 3);
        // Laggard histogram must span > 1 ms; calm must not.
        let lag_span = laggard.histogram.spec().bins as f64 * laggard.histogram.spec().width;
        assert!(lag_span > 1.0, "span {lag_span}");
    }

    #[test]
    fn exemplar_pair_handles_missing_class() {
        let tr = trace();
        let census = laggard_census(&tr, 100.0); // nothing qualifies as laggard
        let (calm, laggard) = class_exemplar_pair(&tr, &census, 0, bins::FIG5_MS, "x");
        assert!(calm.is_some());
        assert!(laggard.is_none());
    }

    #[test]
    fn from_iteration_restricts_exemplars() {
        let tr = trace();
        let census = laggard_census(&tr, 1.0);
        let (calm, _) = class_exemplar_pair(&tr, &census, 3, bins::FIG7_STEADY_MS, "fig7");
        assert!(calm.is_none(), "no calm iterations at ≥ 3 in this trace");
    }
}
