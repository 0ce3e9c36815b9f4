//! End-to-end synthetic pipeline: generate → analyze → verify paper bands.
//!
//! These tests run the exact pipeline the `repro` binary uses, at a reduced
//! scale that keeps CI fast, and assert the *calibration bands* — wide enough
//! to absorb seed-to-seed variation, tight enough that a regression in any
//! crate (stats, cluster, analysis) trips them.

use early_bird::analysis::engine::{sweep_levels_parallel_with_arenas, EngineArenas};
use early_bird::analysis::laggard::laggard_census;
use early_bird::analysis::normality::{sweep, Table1};
use early_bird::analysis::percentile_series::{
    detect_phase_boundary, iqr_stats, percentile_series,
};
use early_bird::analysis::reclaim::reclaim_metrics;
use early_bird::cluster::calibration::{LAGGARD_THRESHOLD_MS, MINIMD_PHASE_BOUNDARY};
use early_bird::cluster::{JobConfig, SyntheticApp};
use early_bird::core::view::AggregationLevel;
use early_bird::runtime::Pool;

/// A mid-size campaign: big enough for stable statistics, ~100 ms to build.
/// 100 iterations keeps MiniMD's phase-1 fraction (19%) reasonably close to
/// the paper's (9.5%) so pooled pass rates stay comparable.
fn campaign() -> JobConfig {
    JobConfig::new(3, 4, 100, 48)
}

#[test]
fn table1_pass_rates_fall_in_paper_bands() {
    // Built the way `repro table1` builds it: the engine's three-level
    // sweep, whose first level is the process-iteration one.
    let apps = SyntheticApp::all();
    let (pool, mut arenas) = (Pool::new(2), EngineArenas::new(2));
    let sweeps = apps.each_ref().map(|a| {
        let tr = a.generate(&campaign(), 1);
        let [pi, _, _] = sweep_levels_parallel_with_arenas(&tr, 0.05, None, &pool, &mut arenas);
        pi
    });
    let t = Table1::from_sweeps(0.05, apps.iter().map(|a| a.name()).zip(&sweeps));
    let [fe, md, qmc] = [&t.rows[0].1, &t.rows[1].1, &t.rows[2].1];
    // MiniFE: strongly non-normal (paper 3 / <1 / <1 %).
    assert!(fe[0] < 12.0, "MiniFE D'Agostino pass {}", fe[0]);
    assert!(fe[1] < 5.0, "MiniFE Shapiro-Wilk pass {}", fe[1]);
    assert!(fe[2] < 6.0, "MiniFE Anderson-Darling pass {}", fe[2]);
    // MiniMD: mostly normal (paper 74–77 %; the wide uniform phase-1
    // iterations — twice the paper's share at this scale — pull it down).
    for (i, v) in md.iter().enumerate() {
        assert!((55.0..90.0).contains(v), "MiniMD test {i} pass {v}");
    }
    // MiniQMC: nearly all normal (paper 95–96 %).
    for (i, v) in qmc.iter().enumerate() {
        assert!(*v > 88.0, "MiniQMC test {i} pass {v}");
    }
    // Ordering: FE ≪ MD < QMC for every test.
    for i in 0..3 {
        assert!(fe[i] < md[i] && md[i] < qmc[i], "ordering at test {i}");
    }
}

#[test]
fn application_level_rejects_everywhere() {
    for app in SyntheticApp::all() {
        let tr = app.generate(&campaign(), 2);
        let sw = sweep(&tr, AggregationLevel::Application, 0.05);
        for (i, o) in sw.outcomes[0].iter().enumerate() {
            let o = o.as_ref().expect("test ran");
            assert!(
                o.rejects_normality(0.05),
                "{} test {i}: p = {}",
                app.name(),
                o.p_value
            );
        }
    }
}

#[test]
fn app_iteration_level_mostly_rejects_with_qmc_borderline() {
    // The app-iteration verdict depends on the pooling width (80 groups of
    // 48 in the paper), so this test keeps the paper's trials × ranks and
    // shortens only the iteration count.
    let pooling = JobConfig::new(10, 8, 12, 48);
    let fe = SyntheticApp::minife().generate(&pooling, 3);
    let qmc = SyntheticApp::miniqmc().generate(&pooling, 3);
    let fe_sweep = sweep(&fe, AggregationLevel::ApplicationIteration, 0.05);
    let qmc_sweep = sweep(&qmc, AggregationLevel::ApplicationIteration, 0.05);
    // MiniFE rejects every iteration.
    assert!(
        fe_sweep.pass_rates().iter().all(|&r| r < 0.05),
        "MiniFE app-iteration pass rates {:?}",
        fe_sweep.pass_rates()
    );
    // MiniQMC rejects most iterations but is the borderline app (the paper's
    // eight-of-200 observation).
    for r in qmc_sweep.pass_rates() {
        assert!(r < 0.35, "MiniQMC app-iteration pass rate {r}");
    }
}

#[test]
fn medians_and_laggard_rates_match_paper() {
    let cfg = campaign();
    let checks = [
        ("MiniFE", 26.30, Some((0.15, 0.30)), 0usize),
        ("MiniMD", 24.74, Some((0.02, 0.08)), MINIMD_PHASE_BOUNDARY),
        ("MiniQMC", 60.91, None, 0),
    ];
    for (name, median, laggard_band, from) in checks {
        let app = SyntheticApp::by_name(name).unwrap();
        let tr = app.generate(&cfg, 4);
        let census = laggard_census(&tr, LAGGARD_THRESHOLD_MS);
        assert!(
            (census.mean_median_ms() - median).abs() < 0.5,
            "{name} median {} vs {median}",
            census.mean_median_ms()
        );
        if let Some((lo, hi)) = laggard_band {
            let rate = census.laggard_rate_from(from);
            assert!(
                (lo..hi).contains(&rate),
                "{name} laggard rate {rate} outside [{lo}, {hi})"
            );
        }
    }
}

#[test]
fn minimd_phase_boundary_detected_at_19() {
    let tr = SyntheticApp::minimd().generate(&campaign(), 5);
    let series = percentile_series(&tr);
    let k = detect_phase_boundary(&series).expect("two clear phases");
    assert!(
        (17..=21).contains(&k),
        "detected boundary {k}, paper says 19"
    );
    let early = iqr_stats(&series, 0, MINIMD_PHASE_BOUNDARY);
    let late = iqr_stats(&series, MINIMD_PHASE_BOUNDARY, usize::MAX);
    assert!(
        (0.6..1.3).contains(&early.avg_ms),
        "phase-1 IQR {}",
        early.avg_ms
    );
    assert!(late.avg_ms < 0.35, "steady IQR {}", late.avg_ms);
}

#[test]
fn reclaim_metrics_reproduce_paper_ordering() {
    let cfg = campaign();
    let fe = reclaim_metrics(&SyntheticApp::minife().generate(&cfg, 6));
    let md = reclaim_metrics(&SyntheticApp::minimd().generate(&cfg, 6));
    let qmc = reclaim_metrics(&SyntheticApp::miniqmc().generate(&cfg, 6));
    // MiniQMC has by far the largest reclaimable time (paper: 708 ms vs
    // 42.8 / 17.6 ms) and the largest idle ratio under the stated definition.
    assert!(qmc.avg_reclaimable_ms > 10.0 * fe.avg_reclaimable_ms);
    assert!(qmc.avg_reclaimable_ms > 10.0 * md.avg_reclaimable_ms);
    assert!(qmc.idle_ratio > fe.idle_ratio);
    assert!(qmc.idle_ratio > md.idle_ratio);
    // Band check against the paper's QMC reclaim (which is consistent with
    // its median/IQR, unlike the FE/MD idle columns): 708 ± 25%.
    assert!(
        (500.0..950.0).contains(&qmc.avg_reclaimable_ms),
        "QMC reclaim {}",
        qmc.avg_reclaimable_ms
    );
    // All idle ratios are well-defined fractions.
    for m in [&fe, &md, &qmc] {
        assert!(m.idle_ratio > 0.0 && m.idle_ratio < 1.0);
        assert!(m.mean_max_ms >= m.mean_median_ms);
    }
}

#[test]
fn minife_skew_direction_matches_paper() {
    // §4.2.1: "early arrival is significantly more common than late arrival".
    let tr = SyntheticApp::minife().generate(&campaign(), 7);
    let series = percentile_series(&tr);
    let mut early_heavier = 0usize;
    for s in &series {
        if (s.p50 - s.p5) > (s.p95 - s.p50) {
            early_heavier += 1;
        }
    }
    assert!(
        early_heavier as f64 > 0.9 * series.len() as f64,
        "early-heavy iterations: {early_heavier}/{}",
        series.len()
    );
}
