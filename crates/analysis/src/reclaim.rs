//! Reclaimable time and idle-ratio metrics (§4.2).
//!
//! Definitions, from the paper:
//!
//! * **Reclaimable time** of a process-iteration: "the summing of the
//!   difference between the latest thread in that process iteration and each
//!   preceding thread" — `Σᵢ (t_max − tᵢ)`.
//! * **Ratio of time spent idle**: "the ratio between the cumulative time
//!   spent idle by all threads that iteration and the latest arrival time
//!   that iteration multiplied by number of threads" —
//!   `Σᵢ (t_max − tᵢ) / (t_max · n)`.
//! * **Average reclaimable time**: the per-iteration reclaimable time
//!   "averaged over the entire data set".
//!
//! These are computed exactly as defined, and `repro metrics` prints them
//! beside the paper's columns. The paper's printed values cannot be
//! reconciled with its own medians/IQRs under these definitions — a 0.50
//! idle ratio needs the mean arrival to be half the latest one, impossible
//! with a 0.15 ms IQR around a 24.74 ms median — so they are printed for
//! comparison only (`ebird_cluster::synthetic` does not calibrate its models
//! to them).
//!
//! The aggregate's per-unit kernel reads the unit's compute times already in
//! ascending order — built once per unit from the trace's integer
//! nanoseconds (`crate::unit`): the median needs the order, and summing
//! `t_max − tᵢ` in that order is the one addition sequence every route
//! shares.

use ebird_core::TimingTrace;
use serde::{Deserialize, Serialize};

use crate::unit::UnitOrder;

/// §4.2 metrics for one trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReclaimMetrics {
    /// Average reclaimable time per process-iteration (ms).
    pub avg_reclaimable_ms: f64,
    /// Average per-iteration idle ratio (dimensionless, in `[0, 1)`).
    pub idle_ratio: f64,
    /// Mean of per-iteration median arrivals (ms).
    pub mean_median_ms: f64,
    /// Mean of per-iteration maximum arrivals (ms) — the fork/join critical
    /// path length.
    pub mean_max_ms: f64,
    /// Number of process-iterations aggregated.
    pub iterations: usize,
}

/// Per-process-iteration ingredients of [`ReclaimMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct UnitReclaim {
    pub(crate) idle_ms: f64,
    pub(crate) ratio: f64,
    pub(crate) median_ms: f64,
    pub(crate) max_ms: f64,
}

/// Computes one process-iteration's reclaim quantities from its compute
/// times in ascending order ([`UnitOrder::sorted_ms`]) — the per-unit kernel
/// shared by the reference aggregate and the trace scan (values are
/// bit-identical by construction).
pub(crate) fn unit_reclaim(sorted_ms: &[f64]) -> UnitReclaim {
    let max = sorted_ms[sorted_ms.len() - 1];
    let median = ebird_stats::percentile::percentile_of_sorted(sorted_ms, 50.0);
    let idle: f64 = sorted_ms.iter().map(|&t| max - t).sum();
    UnitReclaim {
        idle_ms: idle,
        ratio: if max > 0.0 {
            idle / (max * sorted_ms.len() as f64)
        } else {
            0.0
        },
        median_ms: median,
        max_ms: max,
    }
}

/// Folds per-unit quantities (in trace order) into the aggregate metrics.
pub(crate) fn fold_units(units: impl IntoIterator<Item = UnitReclaim>) -> ReclaimMetrics {
    let mut sum_reclaim = 0.0;
    let mut sum_ratio = 0.0;
    let mut sum_median = 0.0;
    let mut sum_max = 0.0;
    let mut count = 0usize;
    for u in units {
        sum_reclaim += u.idle_ms;
        sum_ratio += u.ratio;
        sum_median += u.median_ms;
        sum_max += u.max_ms;
        count += 1;
    }
    let n = count as f64;
    ReclaimMetrics {
        avg_reclaimable_ms: sum_reclaim / n,
        idle_ratio: sum_ratio / n,
        mean_median_ms: sum_median / n,
        mean_max_ms: sum_max / n,
        iterations: count,
    }
}

/// Computes the §4.2 metrics over every process-iteration of `trace` — the
/// reference implementation; production goes through
/// [`trace_scan_parallel_with_arenas`](crate::scan::trace_scan_parallel_with_arenas),
/// whose `reclaim` the bit-identity tests compare against this.
pub fn reclaim_metrics(trace: &TimingTrace) -> ReclaimMetrics {
    let mut order = UnitOrder::default();
    fold_units(
        trace
            .iter_process_iterations()
            .map(|(_, _, _, samples)| unit_reclaim(order.sorted_ms(samples))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebird_core::{SampleIndex, ThreadSample, TraceShape};

    fn sample_ms(ms: f64) -> ThreadSample {
        ThreadSample::new(0, (ms * 1e6) as u64)
    }

    #[test]
    fn reclaimable_of_hand_sample() {
        // Arrivals 1, 2, 3, 4 ms: Σ(4 − t) = 3 + 2 + 1 + 0 = 6.
        let u = unit_reclaim(&[1.0, 2.0, 3.0, 4.0]);
        assert!((u.idle_ms - 6.0).abs() < 1e-9);
        // Idle ratio = 6 / (4 × 4) = 0.375.
        assert!((u.ratio - 0.375).abs() < 1e-9);
    }

    #[test]
    fn identical_arrivals_have_zero_reclaim() {
        let u = unit_reclaim(&[5.0; 8]);
        assert_eq!((u.idle_ms, u.ratio), (0.0, 0.0));
    }

    #[test]
    fn single_laggard_dominates_reclaim() {
        // 7 threads at 10 ms, one at 20 ms: reclaim = 7 × 10 = 70.
        let mut v = vec![10.0; 7];
        v.push(20.0);
        let u = unit_reclaim(&v);
        assert!((u.idle_ms - 70.0).abs() < 1e-9);
        // ratio = 70 / (20 × 8) = 0.4375.
        assert!((u.ratio - 0.4375).abs() < 1e-9);
    }

    #[test]
    fn uniform_spread_gives_half_ratio_asymptotically() {
        // Arrivals uniform on (0, M]: mean idle → M/2, ratio → 1/2 — the
        // paper's "50% of cores consistently idle" shape.
        let n = 1000;
        let ms: Vec<f64> = (1..=n).map(|i| 10.0 * i as f64 / n as f64).collect();
        let r = unit_reclaim(&ms).ratio;
        assert!((r - 0.5).abs() < 0.01, "ratio {r}");
    }

    #[test]
    fn metrics_aggregate_over_trace() {
        // Two process-iterations: one flat at 10 ms, one uniform 5..=20 ms.
        let tr = ebird_core::TimingTrace::from_fn(
            "t",
            TraceShape::new(1, 1, 2, 4).unwrap(),
            |SampleIndex {
                 iteration, thread, ..
             }| {
                if iteration == 0 {
                    sample_ms(10.0)
                } else {
                    sample_ms(5.0 * (thread + 1) as f64)
                }
            },
        );
        let m = reclaim_metrics(&tr);
        assert_eq!(m.iterations, 2);
        // Iteration 1: arrivals 5,10,15,20 → reclaim 15+10+5+0 = 30,
        // ratio 30/80 = 0.375. Iteration 0: 0, 0.
        assert!((m.avg_reclaimable_ms - 15.0).abs() < 1e-9);
        assert!((m.idle_ratio - 0.1875).abs() < 1e-9);
        // Medians: 10 and 12.5 → mean 11.25. Maxes: 10 and 20 → 15.
        assert!((m.mean_median_ms - 11.25).abs() < 1e-9);
        assert!((m.mean_max_ms - 15.0).abs() < 1e-9);
    }

    #[test]
    fn reclaim_identity_sum_equals_n_max_minus_sum() {
        // Σ(max − tᵢ) = n·max − Σtᵢ — algebraic identity, pinned numerically.
        let vals = [3.2, 1.1, 9.7, 4.4, 2.0];
        let mut sorted = vals;
        sorted.sort_by(f64::total_cmp);
        let max = 9.7;
        let direct = unit_reclaim(&sorted).idle_ms;
        let identity = vals.len() as f64 * max - vals.iter().sum::<f64>();
        assert!((direct - identity).abs() < 1e-6);
    }
}
