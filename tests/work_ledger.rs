//! The pipeline's work ledger, as exact counts: what `repro profile`'s
//! `work:` block prints for the ci-scale campaign (`--scale ci`, the
//! default seed) — the sweep's groups and elements gathered per level,
//! Shapiro–Wilk weight solves and Φ evaluations, then the unit sorts of the
//! sweep, the scan and the delivery stage and the delivery stage's message
//! injections. Counts do not move with the host's speed, so a change that
//! adds work to a stage fails here on any host, and its re-pinned count
//! says how much.
//!
//! Every count is the same on 1 and 3 workers except the weight solves:
//! each sweep call solves one weight vector per distinct group size of each
//! worker's part of the task list, and keeps none for the next call.

use std::sync::Arc;

use early_bird::analysis::engine::{
    delivery_sweep_parallel_with_arenas, generate_campaign_parallel,
    sweep_levels_parallel_with_arenas, EngineArenas, WORK_INJECTIONS, WORK_UNIT_SORTS,
};
use early_bird::analysis::normality::SweepObs;
use early_bird::analysis::scan::trace_scan_parallel_with_arenas;
use early_bird::cluster::calibration::{ALPHA, LAGGARD_THRESHOLD_MS};
use early_bird::cluster::{JobConfig, SyntheticApp, Workload};
use early_bird::partcomm::{LinkModel, SerialLink};
use early_bird::runtime::{Pool, PoolObserver};
use ebird_obs::Registry;

/// `repro`'s default seed.
const SEED: u64 = 20230421;

/// The sweep's ledger after `repro profile --scale ci --threads <workers>`'s
/// sweep stage: `(groups per level, elements per level, weight solves, Φ
/// evaluations)`, levels in `SWEEP_LEVELS` order.
fn sweep_ledger(workers: usize) -> ([u64; 3], [u64; 3], u64, u64) {
    let pool = Pool::new(workers);
    let apps = SyntheticApp::all();
    let workloads: Vec<&dyn Workload> = apps.iter().map(|a| a as &dyn Workload).collect();
    let traces = generate_campaign_parallel(&workloads, &JobConfig::ci_scale(), SEED, &pool)
        .expect("synthetic apps always generate");
    let registry = Arc::new(Registry::wall());
    let obs = SweepObs::new(&registry);
    let mut arenas = EngineArenas::new(workers);
    for trace in &traces {
        sweep_levels_parallel_with_arenas(trace, ALPHA, Some(&obs), &pool, &mut arenas);
    }
    let snap = registry.snapshot();
    (
        SweepObs::SORT_LEVEL_NS.map(|name| snap.histogram(name).count()),
        SweepObs::WORK_ELEMENTS.map(|name| snap.counter(name)),
        snap.counter(SweepObs::CACHE_MISS),
        snap.counter(SweepObs::WORK_PHI),
    )
}

#[test]
fn the_sweep_ledger_is_pinned_and_only_weight_solves_move_with_the_pool() {
    // Three apps of 2 trials × 2 ranks × 50 iterations × 8 threads: 200
    // process-iterations, 50 application-iterations and one application
    // per app, and each level covers every one of the 1 600 samples once.
    let elements = 3 * 1_600;
    let (groups, gathered, solves_1, phi) = sweep_ledger(1);
    assert_eq!(groups, [600, 150, 3]);
    assert_eq!(gathered, [elements; 3]);
    // Every ci-scale group has n ≥ 8 and a spread, so A² runs on each and
    // Φ is evaluated once per element of every level.
    assert_eq!(phi, 3 * elements);
    // One worker solves each of the three group sizes (8, 32, 1 600) once
    // per trace: three traces, three sweep calls, nine solves.
    assert_eq!(solves_1, 9);

    let (groups_3, gathered_3, solves_3, phi_3) = sweep_ledger(3);
    assert_eq!((groups_3, gathered_3, phi_3), (groups, gathered, phi));
    // Three workers: the first part holds the application group, every
    // application-iteration and five process-iterations (1 600, 32, 8),
    // the other two process-iterations only (8 each) — five a call, three
    // calls.
    assert_eq!(solves_3, 15);
}

/// `(unit sorts, delivery injections)` after `repro profile --scale ci
/// --threads <workers>`'s sweep, scan and delivery stages on an observed
/// pool (the delivery stage prices `repro profile`'s 8 MB buffer over
/// Omni-Path).
fn pipeline_ledger(workers: usize) -> (u64, u64) {
    let registry = Arc::new(Registry::wall());
    let pool = Pool::new(workers).with_observer(PoolObserver::new(&registry));
    let apps = SyntheticApp::all();
    let workloads: Vec<&dyn Workload> = apps.iter().map(|a| a as &dyn Workload).collect();
    let traces = generate_campaign_parallel(&workloads, &JobConfig::ci_scale(), SEED, &pool)
        .expect("synthetic apps always generate");
    let mut arenas = EngineArenas::new(workers);
    let link = LinkModel::omni_path();
    for trace in &traces {
        sweep_levels_parallel_with_arenas(trace, ALPHA, None, &pool, &mut arenas);
        trace_scan_parallel_with_arenas(trace, LAGGARD_THRESHOLD_MS, &pool, &mut arenas);
        delivery_sweep_parallel_with_arenas(
            trace,
            8_000_000,
            || SerialLink::new(link),
            &pool,
            &mut arenas,
        );
    }
    let snap = registry.snapshot();
    (snap.counter(WORK_UNIT_SORTS), snap.counter(WORK_INJECTIONS))
}

#[test]
fn the_pipeline_ledger_sorts_each_unit_once_a_stage_on_any_pool() {
    // 600 process-iterations (3 apps × 2 trials × 2 ranks × 50
    // iterations), each sorted by the sweep, the scan and the delivery
    // stage. The four canonical strategies inject 9 267 messages over them:
    // 600 bulk, 600 × 8 early-bird, and what the 1 ms flush and the √8
    // bins make of each unit's arrivals.
    assert_eq!(pipeline_ledger(1), (3 * 600, 9_267));
    assert_eq!(pipeline_ledger(3), (3 * 600, 9_267));
}
