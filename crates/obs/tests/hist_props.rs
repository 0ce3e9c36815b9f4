//! Property tests for the histogram algebra, in the style of the
//! `Moments::merge` equivalence tests: whatever the observations and
//! however they are split across shards, merging must behave like one
//! histogram, obey the monoid laws exactly, and quantile estimates must
//! stay inside their proven bucket bounds.

use ebird_obs::HistogramSnapshot;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merge_is_commutative(xs in arb_values(), ys in arb_values()) {
        let (a, b) = (HistogramSnapshot::from_values(&xs), HistogramSnapshot::from_values(&ys));
        let mut ab = a.clone();
        ab.merge_with(&b);
        let mut ba = b.clone();
        ba.merge_with(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(
        xs in arb_values(),
        ys in arb_values(),
        zs in arb_values(),
    ) {
        let a = HistogramSnapshot::from_values(&xs);
        let b = HistogramSnapshot::from_values(&ys);
        let c = HistogramSnapshot::from_values(&zs);
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge_with(&b);
        left.merge_with(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge_with(&c);
        let mut right = a.clone();
        right.merge_with(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn sharded_merge_matches_whole(xs in arb_values(), split in 1usize..7) {
        // Shard the observations as per-thread histograms would, merge, and
        // demand the exact whole-sample histogram — the property that lets
        // worker-local histograms be reduced in any order.
        let k = (xs.len() * split) / 8;
        prop_assume!(k > 0 && k < xs.len());
        let whole = HistogramSnapshot::from_values(&xs);
        let mut merged = HistogramSnapshot::from_values(&xs[..k]);
        merged.merge_with(&HistogramSnapshot::from_values(&xs[k..]));
        prop_assert_eq!(merged, whole);
    }

    #[test]
    fn quantile_estimates_stay_in_proven_bounds(
        xs in arb_values(),
        qs in proptest::collection::vec(0.0f64..1.0, 1..8),
    ) {
        let snap = HistogramSnapshot::from_values(&xs);
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
    fn count_and_total_survive_merge(xs in arb_values(), ys in arb_values()) {
        let mut merged = HistogramSnapshot::from_values(&xs);
        merged.merge_with(&HistogramSnapshot::from_values(&ys));
        prop_assert_eq!(merged.count(), (xs.len() + ys.len()) as u64);
        let sum: u64 = xs.iter().chain(ys.iter()).sum();
        prop_assert_eq!(merged.total(), sum);
    }

    #[test]
    fn wire_buckets_roundtrip(xs in arb_values()) {
        let snap = HistogramSnapshot::from_values(&xs);
        let rebuilt = HistogramSnapshot::from_buckets(&snap.nonzero_buckets(), snap.total());
        prop_assert_eq!(rebuilt, snap);
    }
}
