//! End-to-end pipeline over the *real* Rust proxy applications: instrument,
//! run, analyze — proving the measurement stack works on live kernels,
//! not only on synthetic traces.

use early_bird::analysis::laggard::laggard_census;
use early_bird::analysis::reclaim::reclaim_metrics;
use early_bird::apps::{MiniFe, MiniFeParams, MiniMd, MiniMdParams, MiniQmc, MiniQmcParams};
use early_bird::cluster::{run_real_campaign, JobConfig, RealTiming};
use early_bird::core::view::{fill_group_ms, AggregationLevel};

fn tiny() -> JobConfig {
    JobConfig::new(1, 2, 5, 2)
}

#[test]
fn minife_live_campaign_analyzes_cleanly() {
    let trace = run_real_campaign(
        &tiny(),
        |_, _| Box::new(MiniFe::new(MiniFeParams::test_scale())),
        RealTiming::Wall,
    )
    .unwrap();
    // Every sample is a genuine measurement.
    assert!(trace.samples().iter().all(|s| s.compute_time_ns() > 0));
    // The analysis layer accepts live traces end to end.
    let metrics = reclaim_metrics(&trace);
    assert!(metrics.mean_median_ms > 0.0);
    assert!(metrics.idle_ratio >= 0.0 && metrics.idle_ratio < 1.0);
    let census = laggard_census(&trace, 1.0);
    assert_eq!(census.iterations.len(), 10);
}

#[test]
fn minimd_live_campaign_preserves_physics() {
    // The instrumented campaign must leave the app in a physically valid
    // state (runner calls verify(), which checks momentum conservation).
    let trace = run_real_campaign(
        &tiny(),
        |_, _| Box::new(MiniMd::new(MiniMdParams::test_scale())),
        RealTiming::Wall,
    )
    .unwrap();
    assert_eq!(trace.app(), "MiniMD");
    assert!(trace.samples().iter().all(|s| s.compute_time_ns() > 0));
}

#[test]
fn miniqmc_live_campaign_runs_movers() {
    let trace = run_real_campaign(
        &tiny(),
        |trial, rank| {
            let mut p = MiniQmcParams::test_scale();
            p.seed = 77 + (trial * 8 + rank) as u64;
            Box::new(MiniQmc::new(p))
        },
        RealTiming::Wall,
    )
    .unwrap();
    assert_eq!(trace.app(), "MiniQMC");
    let level = AggregationLevel::ProcessIteration;
    assert_eq!(level.group_count(&trace), 10);
    let mut values_ms = Vec::new();
    for g in 0..level.group_count(&trace) {
        fill_group_ms(&trace, level, g, &mut values_ms);
        assert_eq!(values_ms.len(), 2);
        assert!(values_ms.iter().all(|&v| v > 0.0));
    }
}

#[test]
fn live_aggregation_levels_conserve_mass() {
    let trace = run_real_campaign(
        &tiny(),
        |_, _| Box::new(MiniFe::new(MiniFeParams::test_scale())),
        RealTiming::Wall,
    )
    .unwrap();
    let total = trace.shape().total_samples();
    for level in [
        AggregationLevel::Application,
        AggregationLevel::ApplicationIteration,
        AggregationLevel::ProcessIteration,
    ] {
        let mut values_ms = Vec::new();
        let sum: usize = (0..level.group_count(&trace))
            .map(|g| {
                fill_group_ms(&trace, level, g, &mut values_ms);
                values_ms.len()
            })
            .sum();
        assert_eq!(sum, total, "{level:?}");
    }
}

#[test]
fn real_compute_times_scale_with_problem_size() {
    // A basic sanity check that the instrument measures *work*: doubling the
    // MiniQMC sweep count should roughly double the measured compute times.
    let cfg = JobConfig::new(1, 1, 4, 2);
    let short = run_real_campaign(
        &cfg,
        |_, _| {
            let mut p = MiniQmcParams::test_scale();
            p.sweeps_per_step = 1;
            Box::new(MiniQmc::new(p))
        },
        RealTiming::Wall,
    )
    .unwrap();
    let long = run_real_campaign(
        &cfg,
        |_, _| {
            let mut p = MiniQmcParams::test_scale();
            p.sweeps_per_step = 4;
            Box::new(MiniQmc::new(p))
        },
        RealTiming::Wall,
    )
    .unwrap();
    // Compare each trace's *fastest* sample, not its mean: on a shared host
    // preemption only ever adds time to a sample, so the minimum of eight is
    // the closest any of them gets to the work itself, while one descheduled
    // 1× sample can drag a mean of eight past half the 4× mean (seen once
    // in a full `cargo test --release` on two cores).
    let fastest = |t: &early_bird::core::TimingTrace| {
        t.samples()
            .iter()
            .map(early_bird::core::ThreadSample::compute_time_ms)
            .fold(f64::INFINITY, f64::min)
    };
    let (m_short, m_long) = (fastest(&short), fastest(&long));
    assert!(
        m_long > 2.0 * m_short,
        "4× sweeps should be ≫ 2× time: {m_short} vs {m_long}"
    );
}
