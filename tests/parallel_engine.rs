//! Cross-crate properties of the parallel analysis engine: for *any* campaign
//! shape, seed, application, and worker count, the parallel paths must be
//! bit-identical to their serial counterparts — generation, the three-level
//! normality sweep, the laggard census, and the reclaim metrics.

use early_bird::analysis::engine::{
    laggard_census_parallel, reclaim_metrics_parallel, sweep_levels_parallel_with_arenas,
    sweep_parallel, EngineArenas,
};
use early_bird::analysis::laggard::laggard_census;
use early_bird::analysis::normality::{sweep, SWEEP_LEVELS};
use early_bird::analysis::reclaim::reclaim_metrics;
use early_bird::cluster::{JobConfig, SyntheticApp};
use early_bird::core::view::AggregationLevel;
use early_bird::runtime::Pool;
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

        // Generation: same bytes from any pool size.
        let trace = app.generate(&cfg, seed);
        let trace_par = app.generate_parallel(&cfg, seed, &pool);
        prop_assert_eq!(&trace, &trace_par);

        // Normality sweeps: identical outcomes at every aggregation level.
        for level in [
            AggregationLevel::Application,
            AggregationLevel::ApplicationIteration,
            AggregationLevel::ProcessIteration,
        ] {
            let serial = sweep(&trace, level, 0.05);
            let parallel = sweep_parallel(&trace, level, 0.05, &pool);
            prop_assert_eq!(
                serial.outcomes,
                parallel.outcomes,
                "sweep at {:?}, {} workers",
                level,
                workers
            );
        }

        // Laggard census and reclaim metrics: identical structs.
        let census = laggard_census(&trace, 1.0);
        let census_par = laggard_census_parallel(&trace, 1.0, &pool);
        prop_assert_eq!(census.iterations, census_par.iterations);
        prop_assert_eq!(reclaim_metrics(&trace), reclaim_metrics_parallel(&trace, &pool));
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
