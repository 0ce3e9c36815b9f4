//! Fit a generative timing model from a *live* instrumented run, then replay
//! it at cluster scale — the full methodology loop: measure a real
//! application on this machine, extract its arrival characterization, and
//! synthesize campaigns far larger than the machine could run.
//!
//! ```sh
//! cargo run --example fit_and_replay --release
//! ```

use early_bird::analysis::laggard::laggard_census;
use early_bird::analysis::reclaim::reclaim_metrics;
use early_bird::cluster::synthetic::SyntheticApp;
use early_bird::cluster::{fit, run_real_campaign, JobConfig, RealTiming};

fn main() {
    // 1. Measure: a real MiniQMC run on this host (small: 1 trial, 2 ranks,
    //    25 iterations, 2 threads).
    let measured_cfg = JobConfig::new(1, 2, 25, 2);
    let trace = run_real_campaign(
        &measured_cfg,
        |trial, rank| {
            let mut p = early_bird::apps::MiniQmcParams::ci_scale();
            p.sweeps_per_step = 4;
            p.seed = 42 + (trial * 8 + rank) as u64;
            Box::new(early_bird::apps::MiniQmc::new(p))
        },
        RealTiming::Wall,
    )
    .expect("live campaign");
    let live = reclaim_metrics(&trace);
    println!(
        "measured on this host: median arrival {:.3} ms, reclaimable {:.3} ms/iter",
        live.mean_median_ms, live.avg_reclaimable_ms
    );

    // 2. Fit: extract the arrival characterization.
    let model = fit(&trace);
    println!("fitted {} phase(s):", model.phases.len());
    for p in &model.phases {
        println!(
            "  from iter {}: median {:.3} ms, IQR {:.3} ms, laggards {:.1}%",
            p.from_iteration,
            p.median_ms,
            p.iqr_ms,
            p.laggard_rate * 100.0
        );
    }

    // 3. Replay: synthesize a paper-scale campaign (10 × 8 × 200 × 48 —
    //    768,000 samples) from the fitted model, something this host could
    //    never measure directly, and analyze it with the same pipeline.
    let replay_app = SyntheticApp::from_model(model.to_app_model("Replay"));
    let big = replay_app.generate(&JobConfig::paper_scale(), 7);
    let replay = reclaim_metrics(&big);
    let census = laggard_census(&big, model.threshold_ms);
    println!(
        "replayed at cluster scale ({} samples): median arrival {:.3} ms, \
         reclaimable {:.3} ms/iter, laggards {:.1}%",
        big.shape().total_samples(),
        replay.mean_median_ms,
        replay.avg_reclaimable_ms,
        census.laggard_rate() * 100.0
    );
    let drift = (replay.mean_median_ms - live.mean_median_ms).abs() / live.mean_median_ms;
    println!(
        "median drift measure→replay: {:.1}% {}",
        drift * 100.0,
        if drift < 0.10 {
            "(faithful)"
        } else {
            "(noisy host run; rerun or enlarge the workload)"
        }
    );
}
