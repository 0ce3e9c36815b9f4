//! Single-pass trace scan: laggard census + reclaim metrics + campaign
//! moments fused into one traversal.
//!
//! Classifying laggards, the §4.2 reclaim metrics and the campaign-wide
//! moments each need one look at the same samples, so
//! [`trace_scan_parallel_with_arenas`] makes one pass over the ~25 MB trace
//! instead of three, running the *same per-unit kernels* the standalone
//! traversals use ([`classify_unit`](crate::laggard),
//! [`unit_reclaim`](crate::reclaim), [`Moments::push`]), so every output is
//! bit-identical to its standalone traversal:
//!
//! * `census` ≡ [`laggard_census`](crate::laggard::laggard_census) — same
//!   kernel, same unit order.
//! * `reclaim` ≡ [`reclaim_metrics`](crate::reclaim::reclaim_metrics) — per
//!   unit quantities folded in trace order, the identical float-addition
//!   sequence.
//! * `moments` ≡ `Moments::from_slice(&trace.all_ms())` on a one-thread pool
//!   (samples stream in trace order), and ≡
//!   [`campaign_moments`](crate::engine::campaign_moments) on the same pool
//!   for any size (same [`static_block`](ebird_runtime::static_block)
//!   decomposition, partials merged in thread order).

use ebird_core::{ThreadSample, TimingTrace};
use ebird_runtime::Pool;
use ebird_stats::reduce::Mergeable;
use ebird_stats::Moments;
use std::sync::Mutex;

use crate::engine::{unit_coords, EngineArenas};
use crate::laggard::{classify_unit, ArrivalClass, ClassifiedIteration, LaggardCensus};
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

/// The scan as one loop in trace order: what a one-thread pool runs.
fn trace_scan(trace: &TimingTrace, threshold_ms: f64) -> TraceScan {
    let shape = trace.shape();
    let mut scratch: Vec<f64> = Vec::with_capacity(shape.threads);
    let mut iterations = Vec::with_capacity(shape.process_iterations());
    let mut per_unit: Vec<UnitReclaim> = Vec::with_capacity(shape.process_iterations());
    let mut moments = Moments::new();
    for (trial, rank, iteration, samples) in trace.iter_process_iterations() {
        iterations.push(classify_unit(
            trial,
            rank,
            iteration,
            samples,
            threshold_ms,
            &mut scratch,
        ));
        per_unit.push(unit_reclaim(samples, &mut scratch));
        for s in samples {
            moments.push(ThreadSample::compute_time_ms(s));
        }
    }
    TraceScan {
        census: LaggardCensus {
            threshold_ms,
            iterations,
        },
        reclaim: fold_units(per_unit),
        moments,
    }
}

/// Scans `trace` once on `pool`, producing census + reclaim + moments, with
/// per-worker scratch from the caller-owned [`EngineArenas`].
///
/// Census and reclaim outputs are bit-identical for any pool size (per-unit
/// kernels into trace-ordered slots, aggregates folded in trace order).
/// Moments are bit-identical to
/// [`campaign_moments`](crate::engine::campaign_moments) on the same pool:
/// each member streams its `static_block` of units into a local accumulator
/// and partials merge in thread order. A one-thread pool runs the whole
/// scan as one inline loop ([`Pool::run_serial`]).
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
    if pool.threads() == 1 {
        return pool.run_serial(|| trace_scan(trace, threshold_ms));
    }
    let shape = trace.shape();
    let units = shape.process_iterations();
    let filler = (
        ClassifiedIteration {
            trial: 0,
            rank: 0,
            iteration: 0,
            class: ArrivalClass::NoLaggard,
            magnitude_ms: 0.0,
            median_ms: 0.0,
            iqr_ms: 0.0,
        },
        UnitReclaim::default(),
    );
    let mut slots: Vec<(ClassifiedIteration, UnitReclaim)> = vec![filler; units];
    let partials: Vec<Mutex<Option<Moments>>> =
        (0..pool.threads()).map(|_| Mutex::new(None)).collect();
    let unit_ms = &arenas.unit_ms;
    pool.parallel_chunks_mut(&mut slots, |block, range, ctx| {
        let mut scratch = unit_ms.slot(ctx.thread());
        let mut local = Moments::new();
        for (offset, slot) in block.iter_mut().enumerate() {
            let unit = range.start + offset;
            let (trial, rank, iteration) = unit_coords(shape, unit);
            let samples = trace
                .process_iteration(trial, rank, iteration)
                .expect("unit in range by construction");
            slot.0 = classify_unit(trial, rank, iteration, samples, threshold_ms, &mut scratch);
            slot.1 = unit_reclaim(samples, &mut scratch);
            for s in samples {
                local.push(ThreadSample::compute_time_ms(s));
            }
        }
        *partials[ctx.thread()].lock().expect("scan partial lock") = Some(local);
    });
    let moments = partials
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("scan partial lock")
                .expect("every member stores its partial")
        })
        .reduce(|mut a, b| {
            a.merge_with(&b);
            a
        })
        .expect("pool has at least one thread");
    let (iterations, per_unit): (Vec<ClassifiedIteration>, Vec<UnitReclaim>) =
        slots.into_iter().unzip();
    TraceScan {
        census: LaggardCensus {
            threshold_ms,
            iterations,
        },
        reclaim: fold_units(per_unit),
        moments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::campaign_moments;
    use crate::laggard::laggard_census;
    use crate::reclaim::reclaim_metrics;
    use ebird_core::{SampleIndex, TraceShape};

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
        assert_eq!(scan.moments, Moments::from_slice(&tr.all_ms()));
    }

    #[test]
    fn scan_is_bit_identical_across_pool_sizes() {
        let tr = mixed_trace();
        let one = scan_on(&tr, 1.0, 1);
        for workers in [1, 2, 5] {
            let par = scan_on(&tr, 1.0, workers);
            assert_eq!(one.census.iterations, par.census.iterations, "{workers}");
            assert_eq!(one.reclaim, par.reclaim, "{workers}");
            // Moments merge in thread order: exact vs the campaign reduction
            // on the same pool, exact vs the one-thread scan at one thread.
            assert_eq!(
                par.moments,
                campaign_moments(&tr, &Pool::new(workers)),
                "{workers}"
            );
            if workers == 1 {
                assert_eq!(one.moments, par.moments);
            }
            assert_eq!(par.moments.count(), one.moments.count());
            assert_eq!(par.moments.min(), one.moments.min());
            assert_eq!(par.moments.max(), one.moments.max());
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
