//! The paper's Discussion section as an executable decision procedure: for
//! each application's measured arrival shape, pick the delivery strategy a
//! runtime should use.
//!
//! ```sh
//! cargo run --example early_bird_feasibility --release
//! ```

use early_bird::analysis::laggard::laggard_census;
use early_bird::cluster::calibration::MINIMD_PHASE_BOUNDARY;
use early_bird::cluster::{JobConfig, SyntheticApp};
use early_bird::core::view::{fill_group_ms, AggregationLevel};
use early_bird::partcomm::{run_deliveries, LinkModel, SerialLink, SimScratch, Strategy};

const BUFFER: usize = 8_000_000;

fn main() {
    let cfg = JobConfig::new(2, 4, 100, 48);
    let mut link = SerialLink::new(LinkModel::omni_path());
    let mut scratch = SimScratch::new();
    let mut arrivals = Vec::new();
    println!("strategy recommendation per application (8 MB buffer, omni-path link)\n");
    for app in SyntheticApp::all() {
        let trace = app.generate(&cfg, 2023);
        let census = laggard_census(&trace, 1.0);
        let from = if app.name() == "MiniMD" {
            MINIMD_PHASE_BOUNDARY
        } else {
            0
        };
        let laggard_rate = census.laggard_rate_from(from);

        // Average each strategy's exposed (non-overlapped) communication time
        // over a sample of iterations.
        let strategies = [
            Strategy::Bulk,
            Strategy::EarlyBird,
            Strategy::TimeoutFlush { timeout_ms: 0.5 },
            Strategy::Binned { bins: 8 },
        ];
        let mut exposed = vec![0.0f64; strategies.len()];
        let mut msgs = vec![0.0f64; strategies.len()];
        let sample_iters: Vec<usize> = (from..cfg.iterations).step_by(7).collect();
        for &i in &sample_iters {
            // Trial 0, rank 0's iteration `i` is process-iteration unit `i`.
            fill_group_ms(&trace, AggregationLevel::ProcessIteration, i, &mut arrivals);
            let outcomes =
                run_deliveries(&mut link, &[&arrivals], BUFFER, strategies, &mut scratch);
            for (k, o) in outcomes.iter().enumerate() {
                exposed[k] += o.exposed_ms();
                msgs[k] += o.messages as f64;
            }
        }
        let n = sample_iters.len() as f64;
        println!(
            "{} — laggards in {:.1}% of steady iterations:",
            app.name(),
            laggard_rate * 100.0
        );
        let mut best = (0usize, f64::INFINITY);
        for (k, s) in strategies.iter().enumerate() {
            let avg = exposed[k] / n;
            if avg < best.1 {
                best = (k, avg);
            }
            println!(
                "  {:<16} avg exposed comm {:>8.4} ms  ({:>5.1} msgs/iter)",
                s.label(),
                avg,
                msgs[k] / n
            );
        }
        println!(
            "  -> lowest exposed communication: {}\n",
            strategies[best.0].label()
        );
    }
    println!("paper §5 expectations: MiniFE benefits via its frequent laggards (timeout");
    println!("flush captures them cheaply); MiniQMC's wide arrivals reward fine-grained");
    println!("early-bird; MiniMD's tight steady phase leaves little to reclaim.");
}
