//! Quickstart: generate a thread-timing campaign, characterize the arrival
//! distribution, and decide whether early-bird communication would help.
//!
//! ```sh
//! cargo run --example quickstart --release
//! ```

use early_bird::analysis::engine::canonical_strategies;
use early_bird::analysis::laggard::laggard_census;
use early_bird::analysis::normality::{sweep, BATTERY_ORDER};
use early_bird::analysis::reclaim::reclaim_metrics;
use early_bird::cluster::{JobConfig, SyntheticApp};
use early_bird::core::view::{fill_group_ms, AggregationLevel};
use early_bird::partcomm::{run_delivery, LinkModel, SerialLink, SimScratch};

fn main() {
    // A small campaign of the paper's MiniFE model: 2 trials × 2 ranks ×
    // 50 iterations × 16 threads. Swap in SyntheticApp::minimd()/miniqmc()
    // (or a live kernel run via RealKernelParams::run_campaign) freely.
    let cfg = JobConfig::new(2, 2, 50, 16);
    let app = SyntheticApp::minife();
    let trace = app.generate(&cfg, 42);
    println!(
        "campaign: {} samples of {}",
        trace.shape().total_samples(),
        trace.app()
    );

    // 1. How do thread arrivals distribute? (paper §4.1)
    let normality = sweep(&trace, AggregationLevel::ProcessIteration, 0.05);
    for (i, kind) in BATTERY_ORDER.iter().enumerate() {
        println!(
            "  {:<18} {:.0}% of process-iterations look normal",
            kind.name(),
            normality.pass_rate(i) * 100.0
        );
    }

    // 2. How often is there a laggard thread, and how much idle time could
    //    early-bird communication reclaim? (paper §4.2)
    let census = laggard_census(&trace, 1.0);
    let metrics = reclaim_metrics(&trace);
    println!(
        "  laggards in {:.1}% of iterations; median arrival {:.2} ms; \
         reclaimable {:.2} ms/iteration (idle ratio {:.3})",
        census.laggard_rate() * 100.0,
        metrics.mean_median_ms,
        metrics.avg_reclaimable_ms,
        metrics.idle_ratio
    );

    // 3. Would early-bird delivery actually arrive earlier? Simulate a 4 MB
    //    partitioned buffer on an Omni-Path-like link using one iteration's
    //    measured arrivals, under the four strategies the pipeline prices.
    //    (`repro earlybird` does this for every process-iteration.)
    //    Trial 0, rank 0's iteration 25 is process-iteration unit 25.
    let mut arrivals = Vec::new();
    fill_group_ms(
        &trace,
        AggregationLevel::ProcessIteration,
        25,
        &mut arrivals,
    );
    let mut link = SerialLink::new(LinkModel::omni_path());
    let mut scratch = SimScratch::new();
    println!("  delivery of 4 MB over omni-path-like link:");
    for strategy in canonical_strategies(arrivals.len()) {
        let outcome = run_delivery(&mut link, &[&arrivals], 4_000_000, strategy, &mut scratch);
        println!(
            "    {:<16} complete at {:>8.3} ms ({} messages, {:.4} ms exposed)",
            strategy.label(),
            outcome.completion_ms,
            outcome.messages,
            outcome.exposed_ms()
        );
    }
}
