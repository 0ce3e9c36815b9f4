//! Calibration harness for the synthetic models: varies the shipped MiniFE,
//! MiniMD and MiniQMC models over small parameter grids and prints, per grid
//! point, the process-iteration normality pass rates and the shape
//! statistics the models are calibrated to. Every point starts from the
//! shipped model and overwrites only the fields it sweeps, so each grid
//! brackets what ships. Use it when recalibrating `cluster::synthetic`.
//!
//! ```sh
//! cargo run --release --example calibrate
//! ```

use early_bird::cluster::noise::Contamination;
use early_bird::cluster::synthetic::{Phase, SyntheticApp};
use early_bird::stats::normality::{battery_with_scratch, BatteryScratch};
use early_bird::stats::PercentileSummary;

/// Process-iterations per grid point.
const N: usize = 3000;
/// Threads per process-iteration, as in the paper.
const THREADS: usize = 48;
const ALPHA: f64 = 0.05;

/// `app` with its steady phase — the last one, which holds every iteration
/// sampled here (19 and later) — rewritten by `tune`.
fn vary(app: SyntheticApp, tune: impl FnOnce(&mut Phase)) -> SyntheticApp {
    let mut model = app.model().clone();
    tune(model.phases.last_mut().expect("a model has a phase"));
    SyntheticApp::from_model(model)
}

/// Adds to `pass` the tests of the paper's battery (D'Agostino K²,
/// Shapiro–Wilk, Anderson–Darling) that `sample` passes.
fn score(pass: &mut [usize; 3], sample: &[f64], scratch: &mut BatteryScratch) {
    for (p, outcome) in pass.iter_mut().zip(battery_with_scratch(sample, scratch)) {
        *p += outcome.is_some_and(|o| o.passes(ALPHA)) as usize;
    }
}

fn percent(count: usize, of: usize) -> f64 {
    count as f64 / of as f64 * 100.0
}

/// Process-iteration pass rates (%), mean IQR (ms) and laggard share (%)
/// over `N` process-iterations.
fn pass_rates(app: &SyntheticApp) -> ([f64; 3], f64, f64) {
    let mut scratch = BatteryScratch::new();
    let mut pass = [0usize; 3];
    let (mut iqr_sum, mut lag) = (0.0, 0usize);
    for i in 0..N {
        let ms = app.process_iteration_ms(99, i / 200, (i / 100) % 2, 19 + i % 180, THREADS);
        score(&mut pass, &ms, &mut scratch);
        let s = PercentileSummary::from_sample(&ms).unwrap();
        iqr_sum += s.iqr();
        lag += (s.max - s.p50 > 1.0) as usize;
    }
    (
        pass.map(|p| percent(p, N)),
        iqr_sum / N as f64,
        percent(lag, N),
    )
}

/// App-iteration-level pass rates (%): each iteration pools 10 trials × 8
/// ranks × 48 threads (the paper's 3 840 samples).
fn app_iter_pass_rates(app: &SyntheticApp, iterations: usize) -> [f64; 3] {
    let mut scratch = BatteryScratch::new();
    let mut pass = [0usize; 3];
    for iter in 0..iterations {
        let mut pooled = Vec::with_capacity(3840);
        for trial in 0..10 {
            for rank in 0..8 {
                pooled.extend(app.process_iteration_ms(99, trial, rank, 19 + iter, THREADS));
            }
        }
        score(&mut pass, &pooled, &mut scratch);
    }
    pass.map(|p| percent(p, iterations))
}

fn main() {
    println!("MiniFE grid (target pass 3/<1/<1, IQR 0.18, laggard 22.4%):");
    for (sigma, expo) in [
        (0.03, 0.14),
        (0.03, 0.16),
        (0.03, 0.17),
        (0.02, 0.17),
        (0.03, 0.18),
        (0.04, 0.18),
    ] {
        let app = vary(SyntheticApp::minife(), |p| {
            p.sigma_ms = sigma;
            p.early_expo_ms = expo;
        });
        let ([d, s, a], iqr, lag) = pass_rates(&app);
        println!(
            "  sigma={sigma:.2} expo={expo:.2}: pass {d:5.1}/{s:5.1}/{a:5.1}%  IQR {iqr:.3}  laggard {lag:4.1}%"
        );
    }
    println!("MiniMD grid (target pass 77/74/76, IQR 0.15, laggard 4.8%):");
    for (rate, scale) in [
        (0.045, 2.3),
        (0.05, 2.2),
        (0.04, 2.4),
        (0.06, 2.2),
        (0.05, 2.3),
        (0.055, 2.25),
    ] {
        let app = vary(SyntheticApp::minimd(), |p| {
            p.contamination = Contamination { rate, scale };
        });
        let ([d, s, a], iqr, lag) = pass_rates(&app);
        println!(
            "  rate={rate:.3} scale={scale:.2}: pass {d:5.1}/{s:5.1}/{a:5.1}%  IQR {iqr:.3}  laggard {lag:4.1}%"
        );
    }
    println!("MiniQMC grid (target process pass 95/96/96, IQR 9.05, app-iter pass ≈ 4/0/0%):");
    for jitter in [0.0, 0.10, 0.15, 0.20, 0.25] {
        let app = vary(SyntheticApp::miniqmc(), |p| p.sigma_jitter_lognorm = jitter);
        let ([d, s, a], iqr, _) = pass_rates(&app);
        let [di, si, ai] = app_iter_pass_rates(&app, 150);
        println!(
            "  jitter={jitter:.2}: process {d:5.1}/{s:5.1}/{a:5.1}%  IQR {iqr:.3}  app-iter {di:5.1}/{si:5.1}/{ai:5.1}%"
        );
    }
}
