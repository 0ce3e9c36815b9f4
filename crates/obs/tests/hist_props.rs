//! Property tests for the histogram: whatever the observations, the wire
//! buckets are exact and quantile estimates stay inside their proven bucket
//! bounds.

use ebird_obs::{Histogram, HistogramSnapshot};
use proptest::prelude::*;

fn arb_values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..(1u64 << 48), 1..300)
}

/// The true q-quantile under the histogram's rank convention:
/// the rank-⌈q·n⌉ order statistic, rank clamped to [1, n].
fn true_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// The snapshot of a histogram that recorded `values`.
fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn quantile_estimates_stay_in_proven_bounds(
        xs in arb_values(),
        qs in proptest::collection::vec(0.0f64..1.0, 1..8),
    ) {
        let snap = snapshot_of(&xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        for q in qs.into_iter().chain([0.5, 0.95, 0.99]) {
            let (lo, hi) = snap.quantile_bounds(q);
            let truth = true_quantile(&sorted, q);
            prop_assert!(
                lo <= truth && truth <= hi,
                "q={q}: true quantile {truth} outside [{lo}, {hi}]"
            );
            let est = snap.quantile_estimate(q);
            prop_assert!(lo <= est && est <= hi);
        }
    }

    #[test]
    fn wire_buckets_are_exact(xs in arb_values()) {
        // Group the observations by bucket upper edge (2^width − 1, and 0
        // for the value 0) without the histogram's own edge table.
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        let mut expected: Vec<(u64, u64)> = Vec::new();
        for v in sorted {
            let le = u64::MAX.checked_shr(v.leading_zeros()).unwrap_or(0);
            match expected.last_mut() {
                Some((last, count)) if *last == le => *count += 1,
                _ => expected.push((le, 1)),
            }
        }
        let snap = snapshot_of(&xs);
        prop_assert_eq!(snap.nonzero_buckets(), expected);
        prop_assert_eq!(snap.total(), xs.iter().sum::<u64>());
    }
}
