//! Cross-crate properties of the analysis engine: for *any* campaign shape,
//! seed, application, and worker count, every stage's output must be
//! bit-identical to a one-thread pool's and to its independent oracle —
//! generation, the normality sweeps, the fused trace scan (laggard census,
//! reclaim metrics, moments), and the delivery sweep.

use early_bird::analysis::engine::{
    delivery_sweep_parallel_with_arenas, generate_campaign_parallel,
    sweep_levels_parallel_with_arenas, EngineArenas,
};
use early_bird::analysis::laggard::laggard_census;
use early_bird::analysis::normality::{sweep, SWEEP_LEVELS};
use early_bird::analysis::reclaim::reclaim_metrics;
use early_bird::analysis::scan::trace_scan_parallel_with_arenas;
use early_bird::cluster::calibration::{ALPHA, LAGGARD_THRESHOLD_MS};
use early_bird::cluster::{
    JobConfig, MixtureComponent, RealKernelParams, SyntheticApp, Workload, WorkloadSpec,
};
use early_bird::core::view::fill_group_ms;
use early_bird::core::AggregationLevel;
use early_bird::partcomm::{LinkModel, SerialLink};
use early_bird::runtime::Pool;
use early_bird::stats::Moments;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn parallel_engine_is_bit_identical_for_random_shapes_and_seeds(
        trials in 1usize..3,
        ranks in 1usize..4,
        iterations in 1usize..7,
        threads in 8usize..24,
        seed in 0u64..1_000_000_000,
        app_index in 0usize..3,
        workers in 1usize..6,
    ) {
        let app = &SyntheticApp::all()[app_index];
        let cfg = JobConfig::new(trials, ranks, iterations, threads);
        let pool = Pool::new(workers);
        let mut arenas = EngineArenas::new(workers);

        // Generation: same bytes from any pool size.
        let trace = app.generate(&cfg, seed);
        let trace_par = app.generate_parallel(&cfg, seed, &pool);
        prop_assert_eq!(&trace, &trace_par);

        // Normality sweep: the production route yields the per-level
        // reference's outcomes at every aggregation level.
        let sweeps = sweep_levels_parallel_with_arenas(&trace, 0.05, None, &pool, &mut arenas);
        for (got, level) in sweeps.iter().zip(SWEEP_LEVELS) {
            prop_assert_eq!(
                &got.outcomes,
                &sweep(&trace, level, 0.05).outcomes,
                "sweep at {:?}, {} workers",
                level,
                workers
            );
        }

        // Laggard census and reclaim metrics: the fused scan on any pool
        // yields the standalone traversals' structs.
        let scan = trace_scan_parallel_with_arenas(&trace, 1.0, &pool, &mut arenas);
        prop_assert_eq!(laggard_census(&trace, 1.0).iterations, scan.census.iterations);
        prop_assert_eq!(reclaim_metrics(&trace), scan.reclaim);
    }
}

/// The three-level sweep's flat task list against the per-level oracle
/// (`sweep` sorts the millisecond floats; the task kernel sorts integer
/// nanoseconds), for pool sizes on both sides of every partition regime:
/// one thread (the inline serial loop), the application group sharing a
/// part (2, 3), the application group exceeding a fair share and owning a
/// part alone (5, 8), and — on the three-task shape — more workers than
/// tasks, so some parts are empty. Each arena set is used twice, so warm
/// scratch is covered too.
#[test]
fn sweep_levels_matches_per_level_sweeps_for_every_partition_regime() {
    let shapes = [
        JobConfig::new(2, 3, 7, 16), // 1 + 7 + 42 tasks
        JobConfig::new(1, 1, 1, 24), // 3 tasks, one per level
    ];
    for (cfg, app) in shapes.iter().zip(&SyntheticApp::all()) {
        let trace = app.generate(cfg, 20_230_421);
        let oracle = SWEEP_LEVELS.map(|level| sweep(&trace, level, 0.05));
        for workers in [1, 2, 3, 5, 8] {
            let pool = Pool::new(workers);
            let mut arenas = EngineArenas::for_pool(&pool);
            for round in 0..2 {
                let got = sweep_levels_parallel_with_arenas(&trace, 0.05, None, &pool, &mut arenas);
                for (g, o) in got.iter().zip(&oracle) {
                    assert_eq!(g.level_label, o.level_label);
                    assert_eq!(g.groups, o.groups);
                    assert_eq!(
                        g.outcomes, o.outcomes,
                        "{} @ {} workers, round {round}",
                        g.level_label, workers
                    );
                }
            }
        }
    }
}

/// The workload-generic pipeline — a named app, a mixture and a metered
/// real kernel — through all four stage entry points at pools 1, 2 and 3
/// on one reused arena set: pool N ≡ pool 1, and pool 1 ≡ the independent
/// oracles (per-level `sweep`, `laggard_census`, `reclaim_metrics`,
/// `Moments::from_slice`).
#[test]
fn generic_workloads_are_bit_identical_through_every_stage_entry_point() {
    let named = |name: &str| WorkloadSpec::Named { name: name.into() };
    let specs = [
        named("MiniFE"),
        WorkloadSpec::Mixture {
            name: "fe+qmc".into(),
            components: vec![
                MixtureComponent {
                    weight: 1.0,
                    spec: named("MiniFE"),
                },
                MixtureComponent {
                    weight: 1.0,
                    spec: named("MiniQMC"),
                },
            ],
        },
        WorkloadSpec::RealKernel {
            app: "MiniMD".into(),
            params: RealKernelParams::default(),
        },
    ];
    let resolved: Vec<_> = specs.iter().map(|s| s.resolve().unwrap()).collect();
    let workloads: Vec<&dyn Workload> = resolved.iter().map(|w| w as &dyn Workload).collect();
    let cfg = JobConfig::new(1, 2, 8, 4);
    let link = LinkModel::omni_path();
    let mut arenas = EngineArenas::new(3);

    let mut run = |workers: usize| {
        let pool = Pool::new(workers);
        let traces = generate_campaign_parallel(&workloads, &cfg, 5, &pool).unwrap();
        let per_trace: Vec<_> = traces
            .iter()
            .map(|tr| {
                (
                    sweep_levels_parallel_with_arenas(tr, ALPHA, None, &pool, &mut arenas)
                        .map(|sw| sw.outcomes),
                    trace_scan_parallel_with_arenas(tr, LAGGARD_THRESHOLD_MS, &pool, &mut arenas),
                    delivery_sweep_parallel_with_arenas(
                        tr,
                        8_000_000,
                        || SerialLink::new(link),
                        &pool,
                        &mut arenas,
                    ),
                )
            })
            .collect();
        (traces, per_trace)
    };

    let (traces, one) = run(1);
    assert_eq!(
        traces.iter().map(|t| t.app()).collect::<Vec<_>>(),
        ["MiniFE", "mix(fe+qmc)", "real(MiniMD)"],
        "trace labels must be the workloads' canonical labels"
    );
    for (tr, (sweeps, scan, _)) in traces.iter().zip(&one) {
        for (got, level) in sweeps.iter().zip(SWEEP_LEVELS) {
            assert_eq!(got, &sweep(tr, level, ALPHA).outcomes, "{}", tr.app());
        }
        let census = laggard_census(tr, LAGGARD_THRESHOLD_MS);
        assert_eq!(scan.census.iterations, census.iterations, "{}", tr.app());
        assert_eq!(scan.reclaim, reclaim_metrics(tr), "{}", tr.app());
        let mut all = Vec::new();
        fill_group_ms(tr, AggregationLevel::Application, 0, &mut all);
        assert_eq!(scan.moments, Moments::from_slice(&all), "{}", tr.app());
    }
    for workers in [2, 3] {
        let (traces_n, many) = run(workers);
        assert_eq!(traces, traces_n, "generation @ {workers}");
        for ((a, b), tr) in one.iter().zip(&many).zip(&traces) {
            assert_eq!(a.0, b.0, "sweep of {} @ {workers}", tr.app());
            assert_eq!(a.1.census.iterations, b.1.census.iterations);
            assert_eq!(
                a.1.reclaim,
                b.1.reclaim,
                "reclaim of {} @ {workers}",
                tr.app()
            );
            // Moments merge per-thread partials: count and extrema are
            // exact for any pool size.
            assert_eq!(b.1.moments.count(), tr.samples().len() as u64);
            assert_eq!(a.1.moments.min(), b.1.moments.min());
            assert_eq!(a.1.moments.max(), b.1.moments.max());
            assert_eq!(a.2, b.2, "delivery of {} @ {workers}", tr.app());
        }
    }
}
