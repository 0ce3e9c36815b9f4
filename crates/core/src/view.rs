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
//! [`AggregationLevel`] names the scale; [`fill_group_ms`] materializes one
//! group as `f64` milliseconds for the stats layer.

use crate::sample::ThreadSample;
use crate::trace::TimingTrace;

/// The paper's three aggregation scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
}

/// The samples of group `group` at `level` as contiguous slices of the trace:
/// one slice for the application and process-iteration levels, one per
/// `(trial, rank)` pair — trial-major — for an application iteration. The
/// single definition of group membership and order that [`fill_group_ms`]
/// and the normality sweep both iterate.
///
/// Group ordering is deterministic: application < iteration-major <
/// (trial, rank, iteration) lexicographic — process-iteration group `g` is
/// [`TraceShape::unit_coords`](crate::sample::TraceShape::unit_coords)`(g)`,
/// the `g`-th `threads`-long run of the sample column.
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
/// Group indices run `0..level.group_count(trace)`; groups and the values
/// inside each follow [`group_slices`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{ns_to_ms, TraceShape};

    const LEVELS: [AggregationLevel; 3] = [
        AggregationLevel::Application,
        AggregationLevel::ApplicationIteration,
        AggregationLevel::ProcessIteration,
    ];

    /// The compute time (ns) `trace()` stores at a coordinate: the sample
    /// encodes its own index, for provenance checks.
    fn encoded(trial: usize, rank: usize, iteration: usize, thread: usize) -> u64 {
        trial as u64 * 1_000_000_000
            + rank as u64 * 1_000_000
            + iteration as u64 * 1_000
            + thread as u64
    }

    fn trace() -> TimingTrace {
        TimingTrace::from_fn("t", TraceShape::new(2, 2, 3, 4).unwrap(), |idx| {
            ThreadSample::new(0, encoded(idx.trial, idx.rank, idx.iteration, idx.thread))
        })
    }

    /// Every group of `level`, materialized.
    fn groups(tr: &TimingTrace, level: AggregationLevel) -> Vec<Vec<f64>> {
        (0..level.group_count(tr))
            .map(|g| {
                let mut buf = Vec::new();
                fill_group_ms(tr, level, g, &mut buf);
                buf
            })
            .collect()
    }

    #[test]
    fn group_counts_and_sizes() {
        let tr = trace();
        for (level, (count, size)) in LEVELS.into_iter().zip([(1, 48), (3, 16), (12, 4)]) {
            let all = groups(&tr, level);
            assert_eq!(all.len(), count, "{level:?}");
            assert!(all.iter().all(|g| g.len() == size), "{level:?}");
        }
    }

    #[test]
    fn app_iteration_groups_pin_iteration_only() {
        for (i, g) in groups(&trace(), AggregationLevel::ApplicationIteration)
            .iter()
            .enumerate()
        {
            // Every value in group i encodes iteration i in its µs digit.
            for &v in g {
                let ns = (v * 1e6).round() as u64;
                assert_eq!((ns / 1_000) % 1_000, i as u64);
            }
        }
    }

    #[test]
    fn process_iteration_groups_pin_all_three() {
        let tr = trace();
        for (g, values) in groups(&tr, AggregationLevel::ProcessIteration)
            .iter()
            .enumerate()
        {
            let (t, r, i) = tr.shape().unit_coords(g);
            for (th, &v) in values.iter().enumerate() {
                let ns = (v * 1e6).round() as u64;
                assert_eq!(ns % 1_000, th as u64);
                assert_eq!((ns / 1_000) % 1_000, i as u64);
                assert_eq!((ns / 1_000_000) % 1_000, r as u64);
                assert_eq!(ns / 1_000_000_000, t as u64);
            }
        }
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
    fn group_slices_follow_the_encoded_coordinates() {
        // Oracle: the coordinates each sample of `trace()` encodes. Units in
        // trace order are (trial, rank, iteration), trial-major.
        let tr = trace();
        let s = tr.shape();
        let mut units = Vec::new();
        for t in 0..s.trials {
            for r in 0..s.ranks {
                for i in 0..s.iterations {
                    units.push((t, r, i));
                }
            }
        }
        for (g, &coords) in units.iter().enumerate() {
            assert_eq!(s.unit_coords(g), coords, "unit {g}");
        }
        // Application: every unit. Application iteration `group`: that
        // iteration of every (trial, rank). Process iteration `group`: that
        // unit. Threads inner throughout.
        let expected = |level: AggregationLevel, group: usize| -> Vec<u64> {
            units
                .iter()
                .enumerate()
                .filter(|&(u, &(_, _, i))| match level {
                    AggregationLevel::Application => true,
                    AggregationLevel::ApplicationIteration => i == group,
                    AggregationLevel::ProcessIteration => u == group,
                })
                .flat_map(|(_, &(t, r, i))| (0..s.threads).map(move |th| encoded(t, r, i, th)))
                .collect()
        };
        for level in LEVELS {
            for g in 0..level.group_count(&tr) {
                let ns: Vec<u64> = group_slices(&tr, level, g)
                    .flatten()
                    .map(ThreadSample::compute_time_ns)
                    .collect();
                assert_eq!(ns, expected(level, g), "{level:?} group {g}");
                let mut ms = Vec::new();
                fill_group_ms(&tr, level, g, &mut ms);
                assert_eq!(ms, ns.into_iter().map(ns_to_ms).collect::<Vec<_>>());
            }
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
        for level in LEVELS {
            let total: usize = groups(&tr, level).iter().map(Vec::len).sum();
            assert_eq!(total, tr.shape().total_samples());
        }
    }
}
