//! Single-pass trace scan: laggard census + reclaim metrics + campaign
//! moments fused into one traversal.
//!
//! Classifying laggards and the §4.2 reclaim metrics are both functions of a
//! process-iteration's *order statistics*, and ordering the unit is what a
//! unit costs (walking all 768 000 samples of a paper-scale trace takes
//! ≈ 1.5 ms, one integer sort pass over its 16 000 units ≈ 4.4 ms, one float
//! `sort_by` pass ≈ 12.5 ms). So [`trace_scan_parallel_with_arenas`] orders
//! each unit **once** — one integer sort of its nanoseconds
//! (`crate::unit`) — and hands the sorted milliseconds to the *same per-unit
//! kernels* the standalone traversals use
//! ([`classify_unit`](crate::laggard), [`unit_reclaim`](crate::reclaim));
//! the campaign-wide moments stream the unit's samples in trace order
//! ([`Moments::push`]). Every output is bit-identical to its standalone
//! traversal:
//!
//! * `census` ≡ [`laggard_census`](crate::laggard::laggard_census) — same
//!   kernel, same unit order. A record does not carry its coordinates: each
//!   member walks its block as consecutive `threads`-long runs of the
//!   sample column, and the census names unit `i`'s `(trial, rank,
//!   iteration)` from its shape ([`LaggardCensus::coords`]).
//! * `reclaim` ≡ [`reclaim_metrics`](crate::reclaim::reclaim_metrics) — per
//!   unit quantities folded in trace order, the identical float-addition
//!   sequence.
//! * `moments` ≡ `Moments::from_slice` of the application group's
//!   milliseconds ([`fill_group_ms`](ebird_core::view::fill_group_ms)) on a
//!   one-thread pool (samples stream in trace order), and on a pool of any
//!   size ≡ one accumulator per member's [`static_block`] of units, merged
//!   in thread order.

use ebird_core::{ThreadSample, TimingTrace};
use ebird_runtime::{static_block, Pool};
use ebird_stats::Moments;

use crate::engine::{EngineArenas, WORK_UNIT_SORTS};
use crate::laggard::{classify_unit, ClassifiedIteration, LaggardCensus};
use crate::reclaim::{fold_units, unit_reclaim, ReclaimMetrics, UnitReclaim};

/// Everything one traversal of a campaign trace yields: the laggard census,
/// the §4.2 reclaim metrics, and the campaign-wide compute-time moments.
#[derive(Debug, Clone)]
pub struct TraceScan {
    /// Laggard census (≡ `laggard_census` at the same threshold).
    pub census: LaggardCensus,
    /// Reclaim metrics (≡ `reclaim_metrics`).
    pub reclaim: ReclaimMetrics,
    /// Campaign moments over every compute time (one-thread pool:
    /// ≡ `Moments::from_slice` over the whole trace).
    pub moments: Moments,
}

/// What one team member hands back: its block of units, scanned in trace
/// order. Aligned so that no two members' parts share a cache line (every
/// member writes its own once per unit).
#[repr(align(128))]
struct ScanPart {
    iterations: Vec<ClassifiedIteration>,
    per_unit: Vec<UnitReclaim>,
    moments: Moments,
}

/// Scans `trace` once on `pool`, producing census + reclaim + moments, with
/// per-worker scratch from the caller-owned [`EngineArenas`].
///
/// Each member streams its [`static_block`] of units through the per-unit
/// kernels into its own pre-sized part; the parts join in thread order,
/// which is trace order. Census and reclaim outputs are therefore
/// bit-identical for any pool size (aggregates are folded in trace order
/// after the join); moments merge per-member partials in thread order, so
/// they are bit-identical for a fixed pool size.
///
/// # Panics
/// If `threshold_ms` is not positive.
pub fn trace_scan_parallel_with_arenas(
    trace: &TimingTrace,
    threshold_ms: f64,
    pool: &Pool,
    arenas: &mut EngineArenas,
) -> TraceScan {
    assert!(threshold_ms > 0.0, "threshold must be positive");
    let shape = trace.shape();
    let units = shape.process_iterations();
    let team = pool.threads();
    // One part per member, sized and allocated here, so a member only
    // fills its own (measured: parts allocated by the members themselves
    // slow every later stage of a two-thread paper-scale op by ≈ 5 %).
    let mut parts: Vec<ScanPart> = (0..team)
        .map(|t| {
            let share = static_block(units, team, t).len();
            ScanPart {
                iterations: Vec::with_capacity(share),
                per_unit: Vec::with_capacity(share),
                moments: Moments::new(),
            }
        })
        .collect();
    let (unit_order, threads) = (&arenas.unit_order, shape.threads);
    let unit_sorts = pool.observer().map(|o| o.counter(WORK_UNIT_SORTS));
    // A team-long slice chunks into exactly one element per member.
    pool.parallel_chunks_mut(&mut parts, |part, _, ctx| {
        let part = &mut part[0];
        let mut order = unit_order.slot(ctx.thread());
        // Unit `u`'s samples are the `u`-th `threads`-long run of the trace.
        let block = static_block(units, team, ctx.thread());
        let block = &trace.samples()[block.start * threads..block.end * threads];
        for samples in block.chunks(threads) {
            let sorted_ms = order.sorted_ms(samples);
            part.iterations.push(classify_unit(sorted_ms, threshold_ms));
            part.per_unit.push(unit_reclaim(sorted_ms));
            for s in samples {
                part.moments.push(ThreadSample::compute_time_ms(s));
            }
        }
        if let Some(sorts) = &unit_sorts {
            sorts.add(part.iterations.len() as u64);
        }
    });
    let scanned = parts
        .into_iter()
        .reduce(|mut a, b| {
            a.iterations.extend(b.iterations);
            a.per_unit.extend(b.per_unit);
            a.moments.merge(&b.moments);
            a
        })
        .expect("pool has at least one thread");
    TraceScan {
        census: LaggardCensus {
            threshold_ms,
            shape,
            iterations: scanned.iterations,
        },
        reclaim: fold_units(scanned.per_unit),
        moments: scanned.moments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laggard::laggard_census;
    use crate::reclaim::reclaim_metrics;
    use ebird_core::view::fill_group_ms;
    use ebird_core::{AggregationLevel, SampleIndex, TraceShape};

    /// Mixed-shape trace: normal-ish groups, periodic laggards, one flat
    /// process-iteration — same topology the engine tests pin.
    fn mixed_trace() -> TimingTrace {
        TimingTrace::from_fn(
            "mixed",
            TraceShape::new(2, 2, 9, 16).unwrap(),
            |SampleIndex {
                 trial,
                 rank,
                 iteration,
                 thread,
             }| {
                if trial == 1 && rank == 0 && iteration == 4 {
                    return ThreadSample::new(0, 10_000_000);
                }
                let u = (thread as f64 + 0.5) / 16.0;
                let spread = ebird_stats::special::norm_quantile(u) * 0.05;
                let laggard = if iteration % 3 == 0 && thread == 7 {
                    2.5
                } else {
                    0.0
                };
                let ms = 10.0 + (trial + rank) as f64 * 0.25 + spread + laggard;
                ThreadSample::new(0, (ms * 1e6).round() as u64)
            },
        )
    }

    fn scan_on(tr: &TimingTrace, threshold_ms: f64, workers: usize) -> TraceScan {
        let pool = Pool::new(workers);
        trace_scan_parallel_with_arenas(tr, threshold_ms, &pool, &mut EngineArenas::for_pool(&pool))
    }

    #[test]
    fn one_thread_scan_matches_the_three_standalone_traversals() {
        let tr = mixed_trace();
        let scan = scan_on(&tr, 1.0, 1);
        let census = laggard_census(&tr, 1.0);
        assert_eq!(scan.census.threshold_ms, census.threshold_ms);
        assert_eq!(scan.census.iterations, census.iterations);
        assert_eq!(scan.reclaim, reclaim_metrics(&tr));
        let mut all = Vec::new();
        fill_group_ms(&tr, AggregationLevel::Application, 0, &mut all);
        assert_eq!(scan.moments, Moments::from_slice(&all));
    }

    #[test]
    fn scan_is_bit_identical_across_pool_sizes() {
        let tr = mixed_trace();
        let one = scan_on(&tr, 1.0, 1);
        for workers in [1, 2, 5] {
            let par = scan_on(&tr, 1.0, workers);
            assert_eq!(one.census.iterations, par.census.iterations, "{workers}");
            assert_eq!(one.reclaim, par.reclaim, "{workers}");
            // Moments merge in thread order: exact vs each member's block
            // streamed into its own accumulator, the partials merged in
            // order, and exact vs the one-thread scan at one thread.
            let level = AggregationLevel::ProcessIteration;
            let units = level.group_count(&tr);
            let mut ms = Vec::new();
            let blocks = (0..workers).map(|t| {
                let mut m = Moments::new();
                for unit in static_block(units, workers, t) {
                    fill_group_ms(&tr, level, unit, &mut ms);
                    ms.iter().for_each(|&x| m.push(x));
                }
                m
            });
            let merged = blocks.reduce(|mut a, b| {
                a.merge(&b);
                a
            });
            assert_eq!(Some(par.moments), merged, "{workers}");
            if workers == 1 {
                assert_eq!(one.moments, par.moments);
            }
            assert_eq!(par.moments.count(), one.moments.count());
            assert_eq!(par.moments.min(), one.moments.min());
            assert_eq!(par.moments.max(), one.moments.max());
        }
    }

    #[test]
    fn census_coordinates_are_the_trace_order_of_its_units() {
        let tr = mixed_trace();
        let shape = tr.shape();
        for workers in [1, 2, 5] {
            let census = scan_on(&tr, 1.0, workers).census;
            assert_eq!(census.shape, shape);
            assert_eq!(census.iterations.len(), shape.process_iterations());
            for unit in 0..census.iterations.len() {
                assert_eq!(census.coords(unit), shape.unit_coords(unit), "{workers}");
            }
            // Trial 1, rank 0, iteration 4 is the trace's one flat unit.
            let flat = census
                .iterations
                .iter()
                .position(|c| c.iqr_ms == 0.0)
                .expect("one flat unit");
            assert_eq!(census.coords(flat), (1, 0, 4), "{workers}");
        }
    }

    #[test]
    fn arena_reuse_is_bit_identical_across_calls() {
        let tr = mixed_trace();
        let pool = Pool::new(3);
        let mut arenas = EngineArenas::for_pool(&pool);
        let first = trace_scan_parallel_with_arenas(&tr, 1.0, &pool, &mut arenas);
        let again = trace_scan_parallel_with_arenas(&tr, 1.0, &pool, &mut arenas);
        assert_eq!(first.census.iterations, again.census.iterations);
        assert_eq!(first.reclaim, again.reclaim);
        assert_eq!(first.moments, again.moments);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn one_thread_scan_rejects_nonpositive_threshold() {
        scan_on(&mixed_trace(), 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn parallel_scan_rejects_nonpositive_threshold() {
        scan_on(&mixed_trace(), -1.0, 2);
    }
}
