//! Aggregation-level views over a trace.
//!
//! The paper analyses thread compute times at three scales (Section 4.1):
//!
//! 1. **Application level** — every sample of every trial/rank/iteration
//!    pooled into one distribution (768,000 values at paper scale);
//! 2. **Application-iteration level** — one distribution per iteration index,
//!    pooled across trials and ranks (200 × 3,840 values);
//! 3. **Process-iteration level** — one distribution per
//!    `(trial, rank, iteration)` triple (16,000 × 48 values).
//!
//! [`AggregationLevel`] names the scale; [`grouped_ms`] materializes the
//! groups as `f64` milliseconds for the stats layer.

use serde::{Deserialize, Serialize};

use crate::sample::ThreadSample;
use crate::trace::TimingTrace;

/// The paper's three aggregation scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggregationLevel {
    /// All samples pooled (one group).
    Application,
    /// One group per application iteration, pooled across trials and ranks.
    ApplicationIteration,
    /// One group per `(trial, rank, iteration)` (one rank's thread pool).
    ProcessIteration,
}

impl AggregationLevel {
    /// Human-readable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            AggregationLevel::Application => "application",
            AggregationLevel::ApplicationIteration => "application iteration",
            AggregationLevel::ProcessIteration => "process iteration",
        }
    }

    /// How many groups this level yields for a given trace.
    pub fn group_count(&self, trace: &TimingTrace) -> usize {
        let s = trace.shape();
        match self {
            AggregationLevel::Application => 1,
            AggregationLevel::ApplicationIteration => s.iterations,
            AggregationLevel::ProcessIteration => s.process_iterations(),
        }
    }

    /// How many samples each group contains.
    pub fn group_size(&self, trace: &TimingTrace) -> usize {
        let s = trace.shape();
        match self {
            AggregationLevel::Application => s.total_samples(),
            AggregationLevel::ApplicationIteration => s.samples_per_app_iteration(),
            AggregationLevel::ProcessIteration => s.threads,
        }
    }
}

/// A group of compute-time samples with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleGroup {
    /// Which aggregation level produced the group.
    pub level: AggregationLevel,
    /// Trial index, when the level pins one (process-iteration only).
    pub trial: Option<usize>,
    /// Rank index, when pinned (process-iteration only).
    pub rank: Option<usize>,
    /// Iteration index, when pinned (app-iteration and process-iteration).
    pub iteration: Option<usize>,
    /// Compute times in milliseconds.
    pub values_ms: Vec<f64>,
}

/// The `(trial, rank, iteration)` provenance of group `group` at `level`,
/// matching the deterministic group ordering of [`grouped_ms`]: dimensions
/// the level pools over are `None`.
pub fn group_coords(
    shape: crate::trace::TraceShape,
    level: AggregationLevel,
    group: usize,
) -> (Option<usize>, Option<usize>, Option<usize>) {
    match level {
        AggregationLevel::Application => (None, None, None),
        AggregationLevel::ApplicationIteration => (None, None, Some(group)),
        AggregationLevel::ProcessIteration => {
            let (trial, rank, iteration) = shape.unit_coords(group);
            (Some(trial), Some(rank), Some(iteration))
        }
    }
}

/// The samples of group `group` at `level` as contiguous slices of the trace,
/// in [`grouped_ms`] value order: one slice for the application and
/// process-iteration levels, one per `(trial, rank)` pair — trial-major — for
/// an application iteration. The single definition of group membership and
/// order that [`fill_group_ms`] and the normality sweep both iterate.
///
/// # Panics
/// If `group` is out of range for the level.
pub fn group_slices(
    trace: &TimingTrace,
    level: AggregationLevel,
    group: usize,
) -> impl Iterator<Item = &[ThreadSample]> {
    let shape = trace.shape();
    assert!(group < level.group_count(trace), "group out of range");
    // Slice `k` of the group starts at `first + k * stride`.
    let (first, count, len, stride) = match level {
        AggregationLevel::Application => (0, 1, shape.total_samples(), 0),
        AggregationLevel::ApplicationIteration => (
            group * shape.threads,
            shape.trials * shape.ranks,
            shape.threads,
            shape.iterations * shape.threads,
        ),
        AggregationLevel::ProcessIteration => (group * shape.threads, 1, shape.threads, 0),
    };
    let samples = trace.samples();
    (0..count).map(move |k| &samples[first + k * stride..][..len])
}

/// Fills `out` with the compute times (ms) of group `group` at `level`,
/// reusing `out`'s capacity — the allocation-free building block the
/// per-level sweeps iterate with (serially or with one buffer per worker).
///
/// Group indices run `0..level.group_count(trace)` in [`grouped_ms`] order;
/// value order inside a group matches [`grouped_ms`] exactly.
///
/// # Panics
/// If `group` is out of range for the level.
pub fn fill_group_ms(
    trace: &TimingTrace,
    level: AggregationLevel,
    group: usize,
    out: &mut Vec<f64>,
) {
    out.clear();
    for slice in group_slices(trace, level, group) {
        out.extend(slice.iter().map(ThreadSample::compute_time_ms));
    }
}

/// Materializes all groups of `level` as millisecond samples.
///
/// Group ordering is deterministic: application < iteration-major <
/// (trial, rank, iteration) lexicographic — matching
/// [`TimingTrace::iter_process_iterations`].
pub fn grouped_ms(trace: &TimingTrace, level: AggregationLevel) -> Vec<SampleGroup> {
    let shape = trace.shape();
    (0..level.group_count(trace))
        .map(|g| {
            let (trial, rank, iteration) = group_coords(shape, level, g);
            let mut values_ms = Vec::new();
            fill_group_ms(trace, level, g, &mut values_ms);
            SampleGroup {
                level,
                trial,
                rank,
                iteration,
                values_ms,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::SampleIndex;
    use crate::trace::TraceShape;

    fn trace() -> TimingTrace {
        // compute time encodes its own index for provenance checks:
        // ns = trial*1e9 + rank*1e6 + iteration*1e3 + thread.
        TimingTrace::from_fn(
            "t",
            TraceShape::new(2, 2, 3, 4).unwrap(),
            |SampleIndex {
                 trial,
                 rank,
                 iteration,
                 thread,
             }| {
                let ns = trial as u64 * 1_000_000_000
                    + rank as u64 * 1_000_000
                    + iteration as u64 * 1_000
                    + thread as u64;
                ThreadSample::new(0, ns)
            },
        )
    }

    #[test]
    fn group_counts_and_sizes() {
        let tr = trace();
        assert_eq!(AggregationLevel::Application.group_count(&tr), 1);
        assert_eq!(AggregationLevel::Application.group_size(&tr), 48);
        assert_eq!(AggregationLevel::ApplicationIteration.group_count(&tr), 3);
        assert_eq!(AggregationLevel::ApplicationIteration.group_size(&tr), 16);
        assert_eq!(AggregationLevel::ProcessIteration.group_count(&tr), 12);
        assert_eq!(AggregationLevel::ProcessIteration.group_size(&tr), 4);
    }

    #[test]
    fn application_level_pools_everything() {
        let tr = trace();
        let groups = grouped_ms(&tr, AggregationLevel::Application);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].values_ms.len(), 48);
        assert_eq!(groups[0].iteration, None);
    }

    #[test]
    fn app_iteration_groups_pin_iteration_only() {
        let tr = trace();
        let groups = grouped_ms(&tr, AggregationLevel::ApplicationIteration);
        assert_eq!(groups.len(), 3);
        for (i, g) in groups.iter().enumerate() {
            assert_eq!(g.iteration, Some(i));
            assert_eq!(g.trial, None);
            assert_eq!(g.values_ms.len(), 16);
            // Every value in group i encodes iteration i in its µs digit.
            for &v in &g.values_ms {
                let ns = (v * 1e6).round() as u64;
                assert_eq!((ns / 1_000) % 1_000, i as u64);
            }
        }
    }

    #[test]
    fn process_iteration_groups_pin_all_three() {
        let tr = trace();
        let groups = grouped_ms(&tr, AggregationLevel::ProcessIteration);
        assert_eq!(groups.len(), 12);
        for g in &groups {
            let (t, r, i) = (g.trial.unwrap(), g.rank.unwrap(), g.iteration.unwrap());
            assert_eq!(g.values_ms.len(), 4);
            for (th, &v) in g.values_ms.iter().enumerate() {
                let ns = (v * 1e6).round() as u64;
                assert_eq!(ns % 1_000, th as u64);
                assert_eq!((ns / 1_000) % 1_000, i as u64);
                assert_eq!((ns / 1_000_000) % 1_000, r as u64);
                assert_eq!(ns / 1_000_000_000, t as u64);
            }
        }
        let _ = (groups[0].trial, groups[0].rank);
    }

    #[test]
    fn labels() {
        assert_eq!(AggregationLevel::Application.label(), "application");
        assert_eq!(
            AggregationLevel::ApplicationIteration.label(),
            "application iteration"
        );
        assert_eq!(
            AggregationLevel::ProcessIteration.label(),
            "process iteration"
        );
    }

    #[test]
    fn fill_group_ms_matches_grouped_ms_exactly() {
        let tr = trace();
        for level in [
            AggregationLevel::Application,
            AggregationLevel::ApplicationIteration,
            AggregationLevel::ProcessIteration,
        ] {
            let groups = grouped_ms(&tr, level);
            let mut buf = Vec::new();
            for (g, group) in groups.iter().enumerate() {
                fill_group_ms(&tr, level, g, &mut buf);
                assert_eq!(buf, group.values_ms, "{level:?} group {g}");
                let (t, r, i) = group_coords(tr.shape(), level, g);
                assert_eq!((t, r, i), (group.trial, group.rank, group.iteration));
            }
        }
    }

    #[test]
    fn group_slices_follow_the_trace_accessors_order() {
        // Independent oracle: the trace's own per-level accessors.
        let tr = trace();
        let ms = |level, g| {
            let mut buf = Vec::new();
            fill_group_ms(&tr, level, g, &mut buf);
            buf
        };
        assert_eq!(ms(AggregationLevel::Application, 0), tr.all_ms());
        for i in 0..3 {
            assert_eq!(
                ms(AggregationLevel::ApplicationIteration, i),
                tr.app_iteration_ms(i).unwrap()
            );
        }
        for (g, (t, r, i, _)) in tr.iter_process_iterations().enumerate() {
            assert_eq!(
                ms(AggregationLevel::ProcessIteration, g),
                tr.process_iteration_ms(t, r, i).unwrap()
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fill_group_ms_rejects_out_of_range_group() {
        let tr = trace();
        let mut buf = Vec::new();
        fill_group_ms(
            &tr,
            AggregationLevel::ProcessIteration,
            AggregationLevel::ProcessIteration.group_count(&tr),
            &mut buf,
        );
    }

    #[test]
    fn total_mass_is_conserved_across_levels() {
        let tr = trace();
        for level in [
            AggregationLevel::Application,
            AggregationLevel::ApplicationIteration,
            AggregationLevel::ProcessIteration,
        ] {
            let total: usize = grouped_ms(&tr, level)
                .iter()
                .map(|g| g.values_ms.len())
                .sum();
            assert_eq!(total, tr.shape().total_samples());
        }
    }
}
