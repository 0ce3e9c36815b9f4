//! Cross-crate property tests: invariants that must hold for *any* trace,
//! arrival set, or partition layout — not just the calibrated ones.

use early_bird::analysis::engine::EngineArenas;
use early_bird::analysis::laggard::{laggard_census, ArrivalClass};
use early_bird::analysis::reclaim::reclaim_metrics;
use early_bird::analysis::scan::trace_scan_parallel_with_arenas;
use early_bird::core::{ThreadSample, TimingTrace, TraceShape};
use early_bird::partcomm::{
    run_delivery, DeliveryOutcome, LinkModel, SerialLink, SimScratch, Strategy,
};
use early_bird::runtime::Pool;
use early_bird::stats::descriptive::Moments;
use early_bird::stats::percentile::PercentileSummary;
use early_bird::stats::Histogram;
use proptest::prelude::*;

/// One strategy for one sender over a fresh link.
fn simulate(
    arrivals_ms: &[f64],
    bytes_total: usize,
    link: &LinkModel,
    strategy: Strategy,
) -> DeliveryOutcome {
    run_delivery(
        &mut SerialLink::new(*link),
        &[arrivals_ms],
        bytes_total,
        strategy,
        &mut SimScratch::new(),
    )
}

/// Arbitrary positive compute times in milliseconds (0.01 .. 100 ms).
fn arb_arrivals() -> impl proptest::strategy::Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.01f64..100.0, 2..64)
}

fn samples_from_ms(ms: &[f64]) -> Vec<ThreadSample> {
    ms.iter()
        .map(|&v| ThreadSample::new(0, (v * 1e6).round() as u64))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reclaim_is_nonnegative_and_bounded(ms in arb_arrivals()) {
        let s = samples_from_ms(&ms);
        // One process-iteration: the trace's averages are its own values.
        let shape = TraceShape::new(1, 1, 1, s.len()).unwrap();
        let m = reclaim_metrics(&TimingTrace::from_fn("reclaim", shape, |i| s[i.thread]));
        let (r, ratio) = (m.avg_reclaimable_ms, m.idle_ratio);
        prop_assert!(r >= 0.0);
        prop_assert!((0.0..1.0).contains(&ratio));
        // Identity: Σ(max − t) = n·max − Σt (up to ns rounding).
        let ms_r: Vec<f64> = s.iter().map(ThreadSample::compute_time_ms).collect();
        let max = ms_r.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let identity = ms_r.len() as f64 * max - ms_r.iter().sum::<f64>();
        prop_assert!((r - identity).abs() < 1e-6);
    }

    #[test]
    fn percentile_summary_is_ordered(ms in arb_arrivals()) {
        let s = PercentileSummary::from_sample(&ms).unwrap();
        prop_assert!(s.min <= s.p5 && s.p5 <= s.p25 && s.p25 <= s.p50);
        prop_assert!(s.p50 <= s.p75 && s.p75 <= s.p95 && s.p95 <= s.max);
        prop_assert!(s.iqr() >= 0.0);
        prop_assert!(s.laggard_magnitude() >= 0.0);
    }

    #[test]
    fn histogram_conserves_mass(ms in arb_arrivals(), width in 0.01f64..5.0) {
        let h = Histogram::from_sample(&ms, width).unwrap();
        prop_assert_eq!(h.total(), ms.len() as u64);
        prop_assert_eq!(h.counts().iter().sum::<u64>(), h.total());
    }

    #[test]
    fn census_rate_matches_manual_count(ms in arb_arrivals(), threshold in 0.1f64..10.0) {
        // One process-iteration per trace: census of a 1×1×1×n trace.
        let shape = TraceShape::new(1, 1, 1, ms.len()).unwrap();
        let mut trace = TimingTrace::new("t", shape);
        for (t, &v) in ms.iter().enumerate() {
            trace
                .set(
                    early_bird::core::SampleIndex::new(0, 0, 0, t),
                    ThreadSample::new(0, (v * 1e6).round() as u64),
                )
                .unwrap();
        }
        let census = laggard_census(&trace, threshold);
        let s = PercentileSummary::from_sample(&trace.process_iteration_ms(0, 0, 0).unwrap()).unwrap();
        let manual = s.max - s.p50 > threshold;
        let classified = census.iterations[0].class == ArrivalClass::Laggard;
        prop_assert_eq!(manual, classified);
    }

    #[test]
    fn delivery_invariants_hold_for_all_strategies(
        ms in arb_arrivals(),
        bytes in 1_000usize..10_000_000,
        alpha_us in 0.1f64..100.0,
    ) {
        prop_assume!(bytes >= ms.len());
        let link = LinkModel::new(alpha_us * 1e-3, 1e-7);
        let bins = (ms.len() / 2).max(1);
        let strategies = [
            Strategy::Bulk,
            Strategy::EarlyBird,
            Strategy::TimeoutFlush { timeout_ms: 1.0 },
            Strategy::Binned { bins },
        ];
        let bulk = simulate(&ms, bytes, &link, Strategy::Bulk);
        for strat in strategies {
            let o = simulate(&ms, bytes, &link, strat);
            // Completion follows the last arrival.
            prop_assert!(o.completion_ms >= o.last_arrival_ms - 1e-12);
            // All bytes (plus per-message α) hit the wire.
            let expected_wire =
                bytes as f64 * link.beta_ms_per_byte + o.messages as f64 * link.alpha_ms;
            prop_assert!((o.wire_ms - expected_wire).abs() < 1e-6);
            // No strategy beats the physical lower bound:
            // last_arrival + one-partition transfer cannot be undercut.
            let min_part = bytes / ms.len();
            prop_assert!(
                o.completion_ms + 1e-9 >= o.last_arrival_ms + link.transfer_ms(min_part) * 0.0
            );
            // Aggregation can't use fewer than 1 or more than n messages.
            prop_assert!(o.messages >= 1 && o.messages <= ms.len());
            let _ = &bulk;
        }
    }

    #[test]
    fn early_bird_never_loses_when_alpha_is_zero(
        ms in arb_arrivals(),
        bytes in 1_000usize..1_000_000,
    ) {
        prop_assume!(bytes >= ms.len());
        // With no per-message startup cost, splitting is free: early-bird must
        // weakly dominate bulk.
        let link = LinkModel::new(0.0, 1e-7);
        let bulk = simulate(&ms, bytes, &link, Strategy::Bulk);
        let eb = simulate(&ms, bytes, &link, Strategy::EarlyBird);
        prop_assert!(eb.completion_ms <= bulk.completion_ms + 1e-9);
    }

    #[test]
    fn trace_scan_matches_the_three_retired_traversals(
        ms in arb_arrivals(),
        trials in 1usize..3, ranks in 1usize..3, iters in 1usize..4,
        threshold in 0.1f64..10.0,
    ) {
        // Any shape, any sample values: the fused single-pass scan must
        // reproduce the three traversals it replaced, bit for bit.
        let threads = ms.len();
        let shape = TraceShape::new(trials, ranks, iters, threads).unwrap();
        let mut trace = TimingTrace::new("fused", shape);
        for flat in 0..shape.total_samples() {
            let idx = shape.unflat(flat);
            // Rotate the generated arrivals per unit so units differ.
            let v = ms[(flat * 7 + flat / threads) % threads];
            trace
                .set(idx, ThreadSample::new(0, (v * 1e6).round() as u64))
                .unwrap();
        }
        let scan = trace_scan_parallel_with_arenas(
            &trace,
            threshold,
            &Pool::new(1),
            &mut EngineArenas::new(1),
        );
        let census = laggard_census(&trace, threshold);
        prop_assert_eq!(scan.census.threshold_ms.to_bits(), census.threshold_ms.to_bits());
        prop_assert_eq!(scan.census.iterations, census.iterations);
        prop_assert_eq!(scan.reclaim, reclaim_metrics(&trace));
        prop_assert_eq!(scan.moments, Moments::from_slice(&trace.all_ms()));
    }

    #[test]
    fn trace_flat_unflat_is_bijective(
        trials in 1usize..4, ranks in 1usize..4, iters in 1usize..6, threads in 1usize..9,
    ) {
        let shape = TraceShape::new(trials, ranks, iters, threads).unwrap();
        for flat in 0..shape.total_samples() {
            let idx = shape.unflat(flat);
            prop_assert_eq!(shape.flat(idx).unwrap(), flat);
        }
    }
}
