//! Instrumenting a *real* application the way the paper did (Listing 1):
//! runs the live Rust MiniFE solver on the fork/join runtime, timestamps
//! every thread's compute section, and prints the per-iteration percentile
//! series — your own Figure 4 for this machine.
//!
//! ```sh
//! cargo run --example instrument_minife --release
//! ```

use early_bird::analysis::percentile_series::{iqr_stats, percentile_series};
use early_bird::apps::{MiniFe, MiniFeParams, ProxyApp};
use early_bird::cluster::JobConfig;
use early_bird::core::TimingTrace;
use early_bird::runtime::{Pool, WallClock};

fn main() {
    // One rank, one trial, measured live: 30 CG iterations on a 20×20×60
    // mesh (scaled from the paper's 200³ to laptop size), 4 threads.
    let cfg = JobConfig::new(1, 1, 30, 4);
    let mut app = MiniFe::new(MiniFeParams {
        dims: early_bird::apps::minife::mesh::MeshDims::new(20, 20, 60),
    });
    println!(
        "instrumenting MiniFE: {} rows, {} planes over {} threads, {} iterations",
        app.dims().nodes(),
        app.dims().nz,
        cfg.threads,
        cfg.iterations
    );

    // The paper's Listing 1, in library form: given a monotonic clock, each
    // step's timed section runs through `Pool::timed_parts_mut`, which
    // stamps every thread around its loop share and hands back one sample
    // per thread, in thread order.
    let pool = Pool::new(cfg.threads);
    let clock = WallClock::new();
    let mut samples = Vec::with_capacity(cfg.shape().total_samples());
    for _ in 0..cfg.iterations {
        samples.extend(app.step(&pool, Some(&clock)));
    }
    app.verify()
        .expect("CG must remain healthy under instrumentation");
    println!(
        "solver state after 30 instrumented iterations: residual {:.3e}",
        app.residual_norm()
    );

    // One trial, one rank: the iterations' samples, in order, are the trace.
    // Analyze it exactly like the paper.
    let trace = TimingTrace::from_samples("MiniFE", cfg.shape(), samples).unwrap();
    let series = percentile_series(&trace);
    let stats = iqr_stats(&series, 0, usize::MAX);
    println!(
        "per-iteration spread: IQR avg {:.4} ms, max {:.4} ms",
        stats.avg_ms, stats.max_ms
    );
    println!("  iter      p5      p25      p50      p75      p95   (ms)");
    for (i, s) in series.iter().enumerate().step_by(5) {
        println!(
            "  {i:>4} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            s.p5, s.p25, s.p50, s.p75, s.p95
        );
    }
    println!(
        "note: absolute times are host-dependent; the paper's shapes are \
         regenerated by `cargo run -p ebird-bench --bin repro --release -- all`"
    );
}
