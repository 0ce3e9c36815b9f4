//! Cross-crate property tests: invariants that must hold for *any* trace,
//! arrival set, or partition layout — not just the calibrated ones.

use early_bird::analysis::engine::EngineArenas;
use early_bird::analysis::laggard::{laggard_census, ArrivalClass};
use early_bird::analysis::reclaim::reclaim_metrics;
use early_bird::analysis::scan::trace_scan_parallel_with_arenas;
use early_bird::cluster::{MixtureComponent, RealKernelParams, SyntheticApp, WorkloadSpec};
use early_bird::core::view::fill_group_ms;
use early_bird::core::{AggregationLevel, ThreadSample, TimingTrace, TraceShape};
use early_bird::partcomm::{
    run_delivery, DeliveryOutcome, LinkModel, NetModelSpec, SerialLink, SimScratch, Strategy,
};
use early_bird::runtime::Pool;
use early_bird::serve::scenario::{
    compute_cell, run_matrix, ResolvedCell, ScenarioMatrix, ScenarioRow,
};
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
        let trace = TimingTrace::from_samples("t", shape, samples_from_ms(&ms)).unwrap();
        let census = laggard_census(&trace, threshold);
        let mut unit = Vec::new();
        fill_group_ms(&trace, AggregationLevel::ProcessIteration, 0, &mut unit);
        let s = PercentileSummary::from_sample(&unit).unwrap();
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
        // Rotate the generated arrivals per unit so units differ.
        let column = (0..shape.total_samples())
            .map(|flat| ms[(flat * 7 + flat / threads) % threads])
            .collect::<Vec<_>>();
        let trace = TimingTrace::from_samples("fused", shape, samples_from_ms(&column)).unwrap();
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
        let mut all = Vec::new();
        fill_group_ms(&trace, AggregationLevel::Application, 0, &mut all);
        prop_assert_eq!(scan.moments, Moments::from_slice(&all));
    }
}

/// A splitmix64 stream: the scenario property draws a whole matrix from one
/// seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, values: &[T]) -> T {
        values[self.below(values.len())]
    }

    /// One to `max` values, each drawn by `value`.
    fn some<T>(&mut self, max: usize, mut value: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = 1 + self.below(max);
        (0..n).map(|_| value(self)).collect()
    }
}

/// The most arrival samples `ScenarioMatrix::resolve` admits in one cell.
const CELL_CAP: usize = 1 << 17;

/// A matrix `resolve` accepts, drawn over every workload kind (real kernels
/// at their test-scale sizes, paired with baseline noise only), every
/// strategy (`Binned` up to `threads`, `TimeoutFlush` from the smallest
/// positive float to the largest), every model kind with its parameters at
/// their bounds, and every noise regime. One case in eight is one cell group
/// at the sample cap: as many threads as a rank may run, or one thread on as
/// many ranks as the cap admits.
fn resolvable_matrix(d: &mut Draw) -> ScenarioMatrix {
    const APPS: [&str; 3] = ["MiniFE", "MiniMD", "MiniQMC"];
    let at_cap = d.below(8) == 0;
    let named = |d: &mut Draw| WorkloadSpec::Named {
        name: d.pick(&["MiniFE", "minimd", "MiniQMC"]).into(),
    };
    let workloads = d.some(if at_cap { 1 } else { 3 }, |d| match d.below(4) {
        0 => named(d),
        1 => WorkloadSpec::Synthetic {
            model: SyntheticApp::all()[d.below(3)].model().clone(),
        },
        2 if !at_cap => WorkloadSpec::RealKernel {
            app: d.pick(&APPS).into(),
            params: RealKernelParams::default(),
        },
        _ => WorkloadSpec::Mixture {
            name: "mix".into(),
            components: d.some(3, |d| MixtureComponent {
                weight: d.pick(&[0.25, 1.0, 3.0]),
                spec: named(d),
            }),
        },
    });
    let real = workloads
        .iter()
        .any(|w| matches!(w, WorkloadSpec::RealKernel { .. }));
    let threads = if at_cap {
        d.pick(&[1, 0xFFFF])
    } else {
        d.pick(&[1, 2, 3, 8, 32])
    };
    let iteration = if real {
        d.pick(&[0, 1, 2])
    } else {
        d.pick(&[0, 1, 25, 60])
    };
    let strategies = d.some(if at_cap { 2 } else { 4 }, |d| match d.below(4) {
        0 => Strategy::Bulk,
        1 => Strategy::EarlyBird,
        2 => Strategy::TimeoutFlush {
            timeout_ms: d.pick(&[f64::MIN_POSITIVE, 1e-6, 0.5, 1.0, 1e3, 1e12, f64::MAX]),
        },
        _ => {
            let some = 1 + d.below(threads);
            Strategy::Binned {
                bins: d.pick(&[1, threads, some]),
            }
        }
    });
    let link = |d: &mut Draw| d.pick(&["omni-path", "high-latency", "zero"]).to_string();
    let contention = |d: &mut Draw| d.pick(&[0.0, 0.25, 0.5, 1.0]);
    let models = d.some(if at_cap { 1 } else { 2 }, |d| match d.below(3) {
        0 => NetModelSpec::Fabric {
            link: link(d),
            contention: contention(d),
        },
        1 => NetModelSpec::Hierarchical {
            link: link(d),
            uplink: link(d),
            ranks_per_node: d.pick(&[1, 2, 3, 64]),
            nic_contention: contention(d),
            uplink_contention: contention(d),
        },
        _ => NetModelSpec::LogGP {
            latency_ms: d.pick(&[0.0, 1e-3, 1.0, 1e12]),
            gap_ms: d.pick(&[0.0, 2e-3, 1e12]),
            gap_per_byte_ms: d.pick(&[0.0, 1e-20, 8e-8, 1e12]),
            contention: contention(d),
        },
    });
    let noise = if real {
        vec!["baseline".to_string()]
    } else {
        let regimes = ["baseline", "laggard", "turbulent", "contaminated"];
        d.some(2, |d| d.pick(&regimes).to_string())
    };
    let ranks = if at_cap {
        vec![CELL_CAP / threads]
    } else {
        d.some(2, |d| d.pick(&[1, 2, 3, 5, 8]))
    };
    ScenarioMatrix {
        workloads,
        strategies,
        models,
        noise,
        ranks,
        threads,
        bytes_per_rank: d.pick(&[threads, 1_000_000.max(threads), usize::MAX]),
        contention: contention(d),
        iteration,
        seed: d.next(),
        deadline_ms: d.pick(&[1e-9, 10_000.0, 1e300]),
    }
}

fn row_numbers(row: &ScenarioRow) -> [f64; 7] {
    [
        row.contention,
        row.completion_ms,
        row.last_arrival_ms,
        row.exposed_ms,
        row.wire_ms,
        row.bulk_exposed_ms,
        row.speedup_vs_bulk,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_resolvable_matrix_prices_finite_rows_under_fragment_keys(seed in 0u64..u64::MAX) {
        let m = resolvable_matrix(&mut Draw(seed));
        let resolved = m.resolve();
        prop_assert!(resolved.is_ok(), "{:?}: {:?}", resolved.err(), m);
        let cells = resolved.unwrap().cells();
        prop_assert_eq!(cells.len(), m.len());

        // Pricing is total: every accepted matrix prices, every number finite.
        let rows = run_matrix(&m, &Pool::new(1));
        prop_assert!(rows.is_ok(), "{:?}: {:?}", rows.err(), m);
        let rows = rows.unwrap();
        prop_assert_eq!(rows.len(), cells.len());
        for row in &rows {
            prop_assert!(row_numbers(row).iter().all(|x| x.is_finite()), "{:?}", row);
        }
        let lone = Draw(seed ^ 1).below(cells.len());
        prop_assert_eq!(&compute_cell(&cells[lone], &Pool::new(1)).unwrap(), &rows[lone]);

        // A key laid from per-axis fragments is its spec's JSON.
        for cell in &cells {
            let key = cell.content_key();
            let spec = serde_json::to_string(&cell.spec()).unwrap();
            prop_assert_eq!(key.content(), spec.as_str());
        }

        // The groups are the (workload, noise, ranks) blocks, each once and
        // in order, models × strategies cells each.
        let groups: Vec<&[ResolvedCell]> = cells.chunk_by(ResolvedCell::same_group).collect();
        prop_assert_eq!(groups.len(), m.workloads.len() * m.noise.len() * m.ranks.len());
        let mut at = 0;
        for group in groups {
            prop_assert_eq!(group.len(), m.models.len() * m.strategies.len());
            let first = group[0].spec();
            for (i, cell) in group.iter().enumerate() {
                let spec = cell.spec();
                prop_assert_eq!(
                    (&spec.workload, &spec.noise, spec.ranks),
                    (&first.workload, &first.noise, first.ranks)
                );
                prop_assert_eq!(spec, cells[at + i].spec());
            }
            at += group.len();
        }
        prop_assert_eq!(at, cells.len());
    }
}
