//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--scale paper|ci] [--seed N] [--source synthetic|real]
//!       [--threads N] [--csv-dir DIR]
//!       [--smoke] [--preset NAME] [--matrix FILE] [--out FILE]
//!       [--addr HOST:PORT] [--cache-dir DIR] [--hot-bytes N]
//!       [--queue-bound N] [--priority N] <experiment>
//!
//! experiments:
//!   table1          process-iteration normality pass rates (Table 1)
//!   app-normality   application-level normality verdicts (§4.1)
//!   iter-normality  application-iteration-level sweep (§4.1)
//!   fig3            application-level histograms (Figure 3a–c)
//!   fig4|fig6|fig8  percentile series + IQR stats (Figures 4/6/8)
//!   fig5|fig7|fig9  exemplar process-iteration histograms (Figures 5/7/9)
//!   metrics         reclaimable time / idle ratio / medians (§4.2);
//!                   with an explicit --addr it instead scrapes the
//!                   running campaign server's observability snapshot
//!                   (counters, gauges, latency histograms with
//!                   p50/p95/p99 — the `metrics` protocol verb)
//!   profile         run the engine's four stages (generate, normality-sweep,
//!                   trace-scan, earlybird-sim — the pipeline the benchmark
//!                   gates) on an observed pool and print a stage × worker
//!                   busy-time table (which stage dominates, what it costs
//!                   per process-iteration — the µs/unit column — and how
//!                   evenly its work spreads across the team)
//!   earlybird       the feasibility answer: the four canonical delivery
//!                   strategies priced on every process-iteration of each
//!                   app over two links — median exposed cost and how often
//!                   each strategy beats bulk, split by laggard class
//!   battery         extended 5-test normality battery (sensitivity check)
//!   fit             fitted generative models extracted from the traces
//!   scenarios       multi-rank contention campaign (workloads × strategies
//!                   × network models × noise × ranks); one JSON row per
//!                   scenario on stdout. --smoke runs the 48-cell CI matrix,
//!                   --preset picks any built-in matrix (full, smoke,
//!                   topology, topology-smoke, workload, workload-smoke),
//!                   --matrix loads a custom ScenarioMatrix JSON (whose own
//!                   seed governs; --seed applies to the built-in
//!                   matrices), --out also writes the rows to a file
//!   workloads       list the built-in workload names (with calibration
//!                   targets) and example WorkloadSpec JSON for every
//!                   variant of the matrix `workloads` axis
//!   serve           run the campaign service on --addr (default
//!                   127.0.0.1:4750): accepts line-JSON submit/fetch/
//!                   status/shutdown requests, schedules cells on the
//!                   worker pool, memoizes rows in a content-addressed
//!                   cache (--cache-dir persists it, --hot-bytes caps the
//!                   in-memory tier under S3-FIFO eviction, --queue-bound
//!                   caps the job queue — saturated submits get a
//!                   structured overloaded reply; see PROTOCOL.md)
//!   submit          submit a matrix (--smoke / --matrix / full default)
//!                   to a running server; streamed rows go to stdout and
//!                   are byte-identical to the offline `scenarios` table,
//!                   --priority orders the queue, --out also writes a file
//!   fetch           like submit but cache-only: errors unless every cell
//!                   of the matrix is already cached
//!   status          print the server's queue/cache/service counters
//!   shutdown        ask the server on --addr to drain and stop
//!   all             everything above except scenarios and the service verbs
//! ```
//!
//! Defaults: paper scale, synthetic source, seed 20230421, and one worker
//! thread per host core (a one-thread pool is the serial path). Synthetic
//! generation, the normality sweeps, the trace scans and the delivery sweeps
//! go through the analysis engine's stage entries on the workspace's own
//! thread pool — each trace is analysed once and every table and figure
//! renders from that;
//! results are bit-identical for any pool size, so `--threads` only changes
//! wall-clock time. The real source runs the live Rust kernels at
//! reduced problem sizes (wall-clock shapes are host-dependent; the
//! synthetic source is the calibrated one).

use std::io::Write as _;

use ebird_analysis::engine::{
    canonical_strategies, delivery_sweep_parallel_with_arenas, generate_campaign_parallel,
    sweep_levels_parallel_with_arenas, EngineArenas, STAGES,
};
use ebird_analysis::figures::{self, bins};
use ebird_analysis::laggard::{ArrivalClass, LaggardCensus};
use ebird_analysis::normality::{NormalitySweep, SweepObs, Table1};
use ebird_analysis::percentile_series::{detect_phase_boundary, iqr_stats, percentile_series};
use ebird_analysis::report;
use ebird_analysis::scan::{trace_scan_parallel_with_arenas, TraceScan};
use ebird_bench::{all_real_traces, Scale, DEFAULT_SEED};
use ebird_cluster::calibration::{self, LAGGARD_THRESHOLD_MS, MINIMD_PHASE_BOUNDARY};
use ebird_cluster::{SyntheticApp, Workload};
use ebird_core::view::AggregationLevel;
use ebird_core::TimingTrace;
use ebird_partcomm::{link_by_name, DeliveryOutcome, LinkModel, SerialLink};
use ebird_runtime::Pool;
use ebird_serve::scenario::{self, ScenarioMatrix};

/// Default campaign-service address for `serve`/`submit`/`fetch`/`shutdown`.
const DEFAULT_ADDR: &str = "127.0.0.1:4750";

/// Most `--threads` accepted: far above any host's core count, and far below
/// the counts at which spawning the pool aborts the process (at 100 000 a
/// thread cannot allocate its signal stack, and the panic cannot unwind).
const MAX_THREADS: usize = 1024;

/// The paper's 8 MB partitioned buffer, priced by `earlybird` and by
/// `profile`'s delivery stage.
const BUFFER_BYTES: usize = 8_000_000;

/// One trace's delivery sweep over one link: a `canonical_strategies`
/// outcome row per process-iteration, trace order.
type DeliverySweep = Vec<[DeliveryOutcome; 4]>;

/// The links `earlybird` prices every trace over, in print order
/// (`link_by_name` names).
const EARLYBIRD_LINKS: [&str; 2] = ["omni-path", "high-latency"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => {}
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("usage: repro [--scale paper|ci] [--seed N] [--source synthetic|real] [--threads N] [--csv-dir DIR] [--smoke] [--preset NAME] [--matrix FILE] [--out FILE] [--addr HOST:PORT] [--cache-dir DIR] [--hot-bytes N] [--queue-bound N] [--priority N] <experiment>");
            eprintln!("experiments: table1 app-normality iter-normality fig3 fig4 fig5 fig6 fig7 fig8 fig9 metrics profile earlybird battery fit scenarios workloads serve submit fetch status shutdown all");
            std::process::exit(2);
        }
    }
}

struct Options {
    scale: Scale,
    seed: u64,
    real: bool,
    csv_dir: Option<std::path::PathBuf>,
    /// `scenarios`: run the 48-cell CI matrix instead of the full 288.
    smoke: bool,
    /// `scenarios`/service verbs: named built-in matrix preset.
    preset: Option<String>,
    /// `scenarios`: load a custom [`ScenarioMatrix`] JSON.
    matrix: Option<std::path::PathBuf>,
    /// `scenarios`: also write the JSON rows to this file.
    out: Option<std::path::PathBuf>,
    /// Service verbs: the campaign server's address.
    addr: String,
    /// Whether `--addr` was passed explicitly — `metrics` scrapes the
    /// server then, and runs the offline §4.2 experiment otherwise.
    addr_explicit: bool,
    /// `serve`: persist the result cache's cold tier in this directory.
    cache_dir: Option<std::path::PathBuf>,
    /// `serve`: hot-tier byte budget (`None` = unbounded).
    hot_bytes: Option<usize>,
    /// `serve`: job-queue admission bound (`usize::MAX` = unbounded).
    queue_bound: usize,
    /// `submit`: queue priority (higher runs sooner).
    priority: i64,
    /// Worker pool for generation and sweeps; output is bit-identical for
    /// any pool size, so this only affects wall-clock time.
    pool: Pool,
}

fn run(args: &[String]) -> Result<(), String> {
    let mut scale = Scale::Paper;
    let mut seed = DEFAULT_SEED;
    let mut real = false;
    let mut csv_dir = None;
    let mut smoke = false;
    let mut preset = None;
    let mut matrix = None;
    let mut out = None;
    let mut addr = DEFAULT_ADDR.to_string();
    let mut addr_explicit = false;
    let mut cache_dir = None;
    let mut hot_bytes = None;
    let mut queue_bound = ebird_serve::DEFAULT_QUEUE_BOUND;
    let mut priority = 0i64;
    let mut threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut experiment: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                scale = Scale::parse(v).ok_or_else(|| format!("unknown scale `{v}`"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|e| format!("bad seed `{v}`: {e}"))?;
            }
            "--source" => {
                let v = it.next().ok_or("--source needs a value")?;
                real = match v.as_str() {
                    "real" => true,
                    "synthetic" => false,
                    _ => return Err(format!("unknown source `{v}`")),
                };
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                threads = v
                    .parse()
                    .map_err(|e| format!("bad thread count `{v}`: {e}"))?;
                if !(1..=MAX_THREADS).contains(&threads) {
                    return Err(format!(
                        "--threads must be in 1..={MAX_THREADS}, got {threads}"
                    ));
                }
            }
            "--csv-dir" => {
                let v = it.next().ok_or("--csv-dir needs a value")?;
                csv_dir = Some(std::path::PathBuf::from(v));
            }
            "--smoke" => smoke = true,
            "--preset" => {
                let v = it.next().ok_or("--preset needs a value")?;
                preset = Some(v.clone());
            }
            "--matrix" => {
                let v = it.next().ok_or("--matrix needs a value")?;
                matrix = Some(std::path::PathBuf::from(v));
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                out = Some(std::path::PathBuf::from(v));
            }
            "--addr" => {
                addr = it.next().ok_or("--addr needs a value")?.clone();
                addr_explicit = true;
            }
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a value")?;
                cache_dir = Some(std::path::PathBuf::from(v));
            }
            "--hot-bytes" => {
                let v = it.next().ok_or("--hot-bytes needs a value")?;
                let n: usize = v.parse().map_err(|e| format!("bad hot-bytes `{v}`: {e}"))?;
                // 0 = unbounded, mirroring the status wire sentinel.
                hot_bytes = (n > 0).then_some(n);
            }
            "--queue-bound" => {
                let v = it.next().ok_or("--queue-bound needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|e| format!("bad queue-bound `{v}`: {e}"))?;
                queue_bound = if n == 0 { usize::MAX } else { n };
            }
            "--priority" => {
                let v = it.next().ok_or("--priority needs a value")?;
                priority = v.parse().map_err(|e| format!("bad priority `{v}`: {e}"))?;
            }
            other if !other.starts_with('-') && experiment.is_none() => {
                experiment = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let experiment = experiment.ok_or("no experiment given")?;
    let opts = Options {
        scale,
        seed,
        real,
        csv_dir,
        smoke,
        preset,
        matrix,
        out,
        addr,
        addr_explicit,
        cache_dir,
        hot_bytes,
        queue_bound,
        priority,
        pool: Pool::new(threads),
    };

    // The scenario campaign builds its own arrivals per (app, noise, rank);
    // it does not consume the figure/table traces. The service verbs talk
    // to (or run) the campaign server instead.
    match experiment.as_str() {
        "scenarios" => return cmd_scenarios(&opts),
        "workloads" => return cmd_workloads(),
        "serve" => return cmd_serve(&opts),
        "submit" => return cmd_submit(&opts, false),
        "fetch" => return cmd_submit(&opts, true),
        "status" => return cmd_status(&opts),
        "shutdown" => return cmd_shutdown(&opts),
        "profile" => return cmd_profile(&opts),
        // Plain `repro metrics` stays the offline §4.2 experiment (also run
        // by `repro all`); an explicit --addr retargets the verb at a live
        // server's observability snapshot.
        "metrics" if opts.addr_explicit => return cmd_server_metrics(&opts),
        _ => {}
    }

    // Every table and figure below is a view of three engine stages: the
    // three-level normality sweep of each trace (levels in `SWEEP_LEVELS`
    // order: process-iteration, application-iteration, application), the
    // scan of one trace, and the delivery sweep of each trace over each of
    // `EARLYBIRD_LINKS`. An arm runs what it renders, once per trace.
    let traces = load_traces(&opts)?;
    let pool = &opts.pool;
    let mut arenas = EngineArenas::new(pool.threads());
    let sweep_all = |arenas: &mut EngineArenas| -> Vec<[NormalitySweep; 3]> {
        traces
            .iter()
            .map(|tr| sweep_levels_parallel_with_arenas(tr, calibration::ALPHA, None, pool, arenas))
            .collect()
    };
    let scan = |app: usize, arenas: &mut EngineArenas| {
        trace_scan_parallel_with_arenas(&traces[app], LAGGARD_THRESHOLD_MS, pool, arenas)
    };
    let scan_all = |arenas: &mut EngineArenas| -> Vec<TraceScan> {
        (0..traces.len()).map(|app| scan(app, arenas)).collect()
    };
    let deliver_all = |arenas: &mut EngineArenas| -> Vec<Vec<DeliverySweep>> {
        traces
            .iter()
            .map(|tr| {
                EARLYBIRD_LINKS
                    .iter()
                    .map(|name| {
                        let link = link_by_name(name).expect("a built-in link");
                        delivery_sweep_parallel_with_arenas(
                            tr,
                            BUFFER_BYTES,
                            || SerialLink::new(link),
                            pool,
                            arenas,
                        )
                    })
                    .collect()
            })
            .collect()
    };
    let a = &mut arenas;
    match experiment.as_str() {
        "table1" => cmd_table1(&traces, &sweep_all(a)),
        "app-normality" => cmd_app_normality(&traces, &sweep_all(a)),
        "iter-normality" => cmd_iter_normality(&traces, &sweep_all(a)),
        "fig3" => cmd_fig3(&traces, &opts)?,
        "fig4" => cmd_percentiles(&traces[0], &scan(0, a).census, "fig4", &opts)?,
        "fig6" => cmd_percentiles(&traces[1], &scan(1, a).census, "fig6", &opts)?,
        "fig8" => cmd_percentiles(&traces[2], &scan(2, a).census, "fig8", &opts)?,
        "fig5" => cmd_exemplars(
            &traces[0],
            &scan(0, a).census,
            0,
            bins::FIG5_MS,
            "fig5",
            &opts,
        )?,
        "fig7" => cmd_fig7(&traces[1], &scan(1, a).census, &opts)?,
        "fig9" => cmd_fig9(&traces[2], &scan(2, a).census, &opts)?,
        "metrics" => cmd_metrics(&traces, &scan_all(a)),
        "earlybird" => cmd_earlybird(&traces, &scan_all(a), &deliver_all(a)),
        "battery" => cmd_battery(&traces),
        "fit" => cmd_fit(&traces),
        "all" => {
            let sweeps = sweep_all(a);
            let scans = scan_all(a);
            cmd_table1(&traces, &sweeps);
            cmd_app_normality(&traces, &sweeps);
            cmd_iter_normality(&traces, &sweeps);
            cmd_fig3(&traces, &opts)?;
            cmd_percentiles(&traces[0], &scans[0].census, "fig4", &opts)?;
            cmd_exemplars(
                &traces[0],
                &scans[0].census,
                0,
                bins::FIG5_MS,
                "fig5",
                &opts,
            )?;
            cmd_percentiles(&traces[1], &scans[1].census, "fig6", &opts)?;
            cmd_fig7(&traces[1], &scans[1].census, &opts)?;
            cmd_percentiles(&traces[2], &scans[2].census, "fig8", &opts)?;
            cmd_fig9(&traces[2], &scans[2].census, &opts)?;
            cmd_metrics(&traces, &scans);
            cmd_earlybird(&traces, &scans, &deliver_all(a));
            cmd_battery(&traces);
            cmd_fit(&traces);
        }
        other => return Err(format!("unknown experiment `{other}`")),
    }
    Ok(())
}

fn load_traces(opts: &Options) -> Result<Vec<TimingTrace>, String> {
    if opts.real {
        // Real kernels at paper thread counts would oversubscribe this host
        // meaninglessly; real mode always runs the CI shape.
        let cfg = ebird_cluster::JobConfig::ci_scale();
        eprintln!("# source: real kernels at CI scale {cfg:?}");
        Ok(all_real_traces(&cfg, opts.seed))
    } else {
        eprintln!(
            "# source: synthetic, scale {:?}, seed {}, {} worker thread(s)",
            opts.scale,
            opts.seed,
            opts.pool.threads()
        );
        generate_synthetic(opts, &opts.pool)
    }
}

/// The generation stage: the three calibrated apps' campaign traces, in
/// paper order, on `pool`.
fn generate_synthetic(opts: &Options, pool: &Pool) -> Result<Vec<TimingTrace>, String> {
    let apps = SyntheticApp::all();
    let workloads: Vec<&dyn Workload> = apps.iter().map(|a| a as &dyn Workload).collect();
    generate_campaign_parallel(&workloads, &opts.scale.config(), opts.seed, pool)
}

fn write_csv(opts: &Options, name: &str, content: &str) -> Result<(), String> {
    if let Some(dir) = &opts.csv_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        let path = dir.join(name);
        let mut f = std::fs::File::create(&path).map_err(|e| format!("creating {path:?}: {e}"))?;
        f.write_all(content.as_bytes())
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!("# wrote {path:?}");
    }
    Ok(())
}

fn cmd_table1(traces: &[TimingTrace], sweeps: &[[NormalitySweep; 3]]) {
    let rows = traces
        .iter()
        .zip(sweeps)
        .map(|(tr, [pi, _, _])| (tr.app(), pi));
    let t = Table1::from_sweeps(calibration::ALPHA, rows);
    println!("{}", report::render_table1(&t));
    println!("paper Table 1:        MiniFE 3%/<1%/<1%   MiniMD 77%/74%/76%   MiniQMC 95%/96%/96%");
    println!();
}

fn cmd_app_normality(traces: &[TimingTrace], sweeps: &[[NormalitySweep; 3]]) {
    println!("Application-level normality (one test per app over all samples):");
    for (tr, [_, _, sw]) in traces.iter().zip(sweeps) {
        let o = &sw.outcomes[0];
        let verdicts: Vec<String> = o
            .iter()
            .map(|r| match r {
                Some(r) => format!(
                    "{}: {} (p={:.2e}{})",
                    r.statistic_kind.name(),
                    if r.passes(calibration::ALPHA) {
                        "PASS"
                    } else {
                        "reject"
                    },
                    r.p_value,
                    if r.extrapolated { ", extrapolated" } else { "" }
                ),
                None => "degenerate".to_string(),
            })
            .collect();
        println!("  {:<8} {}", tr.app(), verdicts.join(" | "));
    }
    println!("paper: all three tests reject for every application at this level");
    println!();
}

fn cmd_iter_normality(traces: &[TimingTrace], sweeps: &[[NormalitySweep; 3]]) {
    println!("Application-iteration-level normality (pass counts over iterations):");
    for (tr, [_, sw, _]) in traces.iter().zip(sweeps) {
        let rates = sw.pass_rates();
        let dag_only = sw.dagostino_only_passes();
        println!(
            "  {:<8} D'Agostino {:>3}/{}  Shapiro-Wilk {:>3}/{}  Anderson-Darling {:>3}/{}  (D'Ag-only passes: {})",
            tr.app(),
            (rates[0] * sw.groups as f64).round() as usize,
            sw.groups,
            (rates[1] * sw.groups as f64).round() as usize,
            sw.groups,
            (rates[2] * sw.groups as f64).round() as usize,
            sw.groups,
            dag_only.len(),
        );
    }
    println!("paper: all reject, except 8 MiniQMC iterations that pass D'Agostino only");
    println!();
}

fn cmd_fig3(traces: &[TimingTrace], opts: &Options) -> Result<(), String> {
    for (tr, label) in traces.iter().zip(["fig3a", "fig3b", "fig3c"]) {
        let f = figures::fig3(tr, label);
        let h = &f.histogram;
        let (mode_bin, mode_count) = h.mode_bin().expect("nonempty");
        println!(
            "{label} {}: n = {}, bins occupied = {}, mode at {:.3} ms (count {}), bin width 10 µs",
            tr.app(),
            h.total(),
            h.occupied_bins(),
            h.spec().bin_center(mode_bin),
            mode_count
        );
        write_csv(opts, &format!("{label}.csv"), &report::histogram_csv(&f))?;
    }
    println!("paper: unimodal peaks near 26.3 / 24.7 / 60.9 ms; MiniQMC widest");
    println!();
    Ok(())
}

fn cmd_percentiles(
    tr: &TimingTrace,
    census: &LaggardCensus,
    label: &str,
    opts: &Options,
) -> Result<(), String> {
    let series = percentile_series(tr);
    let whole = iqr_stats(&series, 0, usize::MAX);
    println!(
        "{label} {}: {} iterations, pooled IQR avg {:.3} ms / max {:.3} ms",
        tr.app(),
        series.len(),
        whole.avg_ms,
        whole.max_ms
    );
    // The paper's IQR statistics are per process-iteration (its MiniQMC
    // 9.05/15.61 pair matches that level, not the pooled series).
    let iqrs: Vec<f64> = census.iterations.iter().map(|c| c.iqr_ms).collect();
    let avg = iqrs.iter().sum::<f64>() / iqrs.len() as f64;
    let max = iqrs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!("  process-iteration IQR avg {avg:.3} ms / max {max:.3} ms");
    if tr.app() == "MiniMD" {
        let early = iqr_stats(&series, 0, MINIMD_PHASE_BOUNDARY);
        let late = iqr_stats(&series, MINIMD_PHASE_BOUNDARY, usize::MAX);
        println!(
            "  phase 1 (iters 0..{}): IQR avg {:.3} / max {:.3} ms   (paper 0.93 / 1.45)",
            MINIMD_PHASE_BOUNDARY, early.avg_ms, early.max_ms
        );
        println!(
            "  phase 2 (iters {}..): IQR avg {:.3} / max {:.3} ms   (paper 0.15 / 7.43)",
            MINIMD_PHASE_BOUNDARY, late.avg_ms, late.max_ms
        );
        match detect_phase_boundary(&series) {
            Some(k) => println!("  detected phase boundary at iteration {k} (paper: 19)"),
            None => println!("  no phase boundary detected"),
        }
    }
    // Print a compact 10-row summary of the series.
    let step = (series.len() / 10).max(1);
    println!("  iter      p5      p25      p50      p75      p95");
    for (i, s) in series.iter().enumerate().step_by(step) {
        println!(
            "  {i:>4} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            s.p5, s.p25, s.p50, s.p75, s.p95
        );
    }
    write_csv(
        opts,
        &format!("{label}.csv"),
        &report::percentile_series_csv(&series),
    )?;
    println!();
    Ok(())
}

fn cmd_exemplars(
    tr: &TimingTrace,
    census: &LaggardCensus,
    from_iteration: usize,
    bin_ms: f64,
    label: &str,
    opts: &Options,
) -> Result<(), String> {
    let rate = census.laggard_rate_from(from_iteration);
    println!(
        "{label} {}: laggard rate (iters ≥ {from_iteration}) = {:.1}%  (no-laggard {:.1}%)",
        tr.app(),
        rate * 100.0,
        (1.0 - rate) * 100.0
    );
    let (calm, laggard) = figures::class_exemplar_pair(tr, census, from_iteration, bin_ms, label);
    for fig in [calm, laggard].into_iter().flatten() {
        println!("{}", report::render_histogram(&fig, 40));
        write_csv(
            opts,
            &format!("{}.csv", fig.label),
            &report::histogram_csv(&fig),
        )?;
    }
    println!();
    Ok(())
}

fn cmd_fig7(tr: &TimingTrace, census: &LaggardCensus, opts: &Options) -> Result<(), String> {
    // 7a: initial-phase exemplar (median-magnitude iteration < 19, 50 µs bins).
    let early: Vec<_> = (0..census.iterations.len())
        .map(|unit| census.coords(unit))
        .filter(|&(_, _, iteration)| iteration < MINIMD_PHASE_BOUNDARY)
        .collect();
    if let Some(&(trial, rank, iteration)) = early.get(early.len() / 2) {
        let f = figures::process_iteration_histogram(
            tr,
            trial,
            rank,
            iteration,
            bins::FIG5_MS,
            "fig7a",
        );
        println!("{}", report::render_histogram(&f, 40));
        write_csv(opts, "fig7a.csv", &report::histogram_csv(&f))?;
    }
    // 7b/7c: steady-state exemplar pair at 10 µs bins.
    cmd_exemplars(
        tr,
        census,
        MINIMD_PHASE_BOUNDARY,
        bins::FIG7_STEADY_MS,
        "fig7",
        opts,
    )
}

fn cmd_fig9(tr: &TimingTrace, census: &LaggardCensus, opts: &Options) -> Result<(), String> {
    // MiniQMC: any median-magnitude iteration typifies the wide distribution.
    let classes = [ArrivalClass::Laggard, ArrivalClass::NoLaggard];
    let exemplar = classes.iter().find_map(|&c| census.exemplar(c, 0));
    if let Some((unit, _)) = exemplar {
        let (trial, rank, iteration) = census.coords(unit);
        let f =
            figures::process_iteration_histogram(tr, trial, rank, iteration, bins::FIG9_MS, "fig9");
        println!("{}", report::render_histogram(&f, 40));
        write_csv(opts, "fig9.csv", &report::histogram_csv(&f))?;
    }
    println!("paper: breadth of arrivals within one iteration exceeds 40 ms");
    println!();
    Ok(())
}

/// First iteration of an app's steady state: the paper's laggard figures
/// for MiniMD cover the section after its start-up phase.
fn steady_state_from(tr: &TimingTrace) -> usize {
    if tr.app() == "MiniMD" {
        MINIMD_PHASE_BOUNDARY
    } else {
        0
    }
}

fn cmd_metrics(traces: &[TimingTrace], scans: &[TraceScan]) {
    for (tr, scan) in traces.iter().zip(scans) {
        let (m, census) = (&scan.reclaim, &scan.census);
        let t = calibration::targets_for(tr.app()).expect("known app");
        print!(
            "{}",
            report::render_metrics(tr.app(), m, t.reclaim_ms, t.idle_ratio, t.median_ms)
        );
        let from = steady_state_from(tr);
        match t.laggard_rate {
            Some(paper) => println!(
                "  laggard rate          {:>10.1}%     (paper {:.1}%)",
                census.laggard_rate_from(from) * 100.0,
                paper * 100.0
            ),
            None => println!(
                "  laggard rate          {:>10.1}%     (paper: not reported)",
                census.laggard_rate_from(from) * 100.0
            ),
        }
        println!();
    }
    println!("note: the paper's reclaim/idle columns are internally inconsistent with its");
    println!("medians/IQRs under its stated definitions; see the analysis::reclaim module docs.");
    println!();
}

fn cmd_battery(traces: &[TimingTrace]) {
    // Battery-sensitivity extension: does Table 1 change if two more classic
    // normality tests join the battery?
    use ebird_analysis::normality::battery_pass_rates;
    let battery = ebird_stats::normality::extended_battery();
    println!("Extended-battery Table 1 (adds Lilliefors and Jarque-Bera):");
    print!("{:<18}", "Test");
    for tr in traces {
        print!("{:>12}", tr.app());
    }
    println!();
    let per_app: Vec<Vec<(&str, f64)>> = traces
        .iter()
        .map(|tr| {
            battery_pass_rates(
                tr,
                AggregationLevel::ProcessIteration,
                &battery,
                calibration::ALPHA,
            )
        })
        .collect();
    for i in 0..battery.len() {
        print!("{:<18}", per_app[0][i].0);
        for rates in &per_app {
            print!("{:>11.1}%", rates[i].1 * 100.0);
        }
        println!();
    }
    println!("(the three-class FE ≪ MD < QMC structure must survive any battery choice)");
    println!();
}

fn cmd_fit(traces: &[TimingTrace]) {
    println!("Fitted generative models (trace -> model extraction, §1's methodology):");
    for tr in traces {
        let m = ebird_cluster::fit(tr);
        println!("  {} — {} phase(s):", tr.app(), m.phases.len());
        for p in &m.phases {
            println!(
                "    from iter {:>3}: median {:>6.2} ms, IQR {:>6.3} ms, laggards {:>5.1}% \
                 (mean magnitude {:>5.2} ms), tail asymmetry {:>+6.3} ms, turbulence {:>4.1}%",
                p.from_iteration,
                p.median_ms,
                p.iqr_ms,
                p.laggard_rate * 100.0,
                p.laggard_magnitude_ms,
                p.tail_asymmetry_ms,
                p.turbulence_rate * 100.0
            );
        }
    }
    println!();
}

/// Materializes the campaign matrix the scenario/service verbs operate on:
/// `--matrix FILE` is a self-contained config (its own seed governs); the
/// built-in presets (`--preset NAME`, or `--smoke`/full default) take
/// `--seed`. `--matrix` wins over `--preset` wins over `--smoke`.
fn build_matrix(opts: &Options) -> Result<ScenarioMatrix, String> {
    match (&opts.matrix, &opts.preset) {
        (Some(path), _) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
            serde_json::from_str::<ScenarioMatrix>(&text)
                .map_err(|e| format!("parsing {path:?}: {e}"))
        }
        (None, Some(name)) => {
            // Unknown presets flow through the same Result<_, String> path
            // as matrix resolution: `error: unknown preset ...` on stderr.
            let mut m = ScenarioMatrix::preset(name)?;
            m.seed = opts.seed;
            Ok(m)
        }
        (None, None) => {
            let mut m = if opts.smoke {
                ScenarioMatrix::smoke()
            } else {
                ScenarioMatrix::full()
            };
            m.seed = opts.seed;
            Ok(m)
        }
    }
}

fn cmd_scenarios(opts: &Options) -> Result<(), String> {
    let matrix = build_matrix(opts)?;
    eprintln!(
        "# scenario campaign: {} cells ({} workloads × {} strategies × {} network models × {} noise × {} rank counts)",
        matrix.len(),
        matrix.workloads.len(),
        matrix.strategies.len(),
        matrix.models.len(),
        matrix.noise.len(),
        matrix.ranks.len(),
    );
    let rows = scenario::run_matrix(&matrix, &opts.pool)?;
    let json = report::json_lines(&rows).map_err(|e| format!("serializing rows: {e}"))?;
    print!("{json}");
    eprint!("{}", scenario::summarize(&rows));
    if let Some(path) = &opts.out {
        std::fs::write(path, &json).map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!("# wrote {path:?}");
    }
    Ok(())
}

/// `workloads` — the listing verb for the pluggable workload axis: every
/// built-in name (canonical spelling, calibration targets) plus one example
/// `WorkloadSpec` JSON per variant, ready to paste into a matrix's
/// `workloads` array.
fn cmd_workloads() -> Result<(), String> {
    use ebird_cluster::{
        calibration, MixtureComponent, RealKernelParams, SyntheticApp, WorkloadSpec,
        BUILTIN_WORKLOAD_NAMES,
    };
    println!("Built-in calibrated workloads (usable in `apps` or as {{\"Named\":...}}):");
    for name in BUILTIN_WORKLOAD_NAMES {
        let t = calibration::targets_for(name)?;
        println!(
            "  {:<8} median {:>6.2} ms, IQR avg {:>5.2} ms, laggards {}",
            name,
            t.median_ms,
            t.iqr_avg_ms,
            match t.laggard_rate {
                Some(r) => format!("{:.1}%", r * 100.0),
                None => "n/a".to_string(),
            }
        );
    }
    println!();
    println!("Example WorkloadSpec JSON, one per variant of the matrix `workloads` axis:");
    let named = WorkloadSpec::Named {
        name: "MiniFE".into(),
    };
    let synthetic = WorkloadSpec::Synthetic {
        model: SyntheticApp::miniqmc().model().clone(),
    };
    let real = WorkloadSpec::RealKernel {
        app: "MiniMD".into(),
        params: RealKernelParams::default(),
    };
    let mixture = WorkloadSpec::Mixture {
        name: "fe2md1".into(),
        components: vec![
            MixtureComponent {
                weight: 2.0,
                spec: WorkloadSpec::Named {
                    name: "MiniFE".into(),
                },
            },
            MixtureComponent {
                weight: 1.0,
                spec: WorkloadSpec::Named {
                    name: "MiniMD".into(),
                },
            },
        ],
    };
    for (label, spec) in [
        ("Named", &named),
        ("Synthetic (full inline model)", &synthetic),
        ("RealKernel (deterministic metered run)", &real),
        ("Mixture (weighted blend)", &mixture),
    ] {
        let json = serde_json::to_string(spec).map_err(|e| format!("serializing spec: {e}"))?;
        println!("  {label}:");
        println!("    {json}");
    }
    println!();
    println!(
        "Presets sweeping the workload axis: `repro scenarios --preset workload` (96 cells) \
         or `--preset workload-smoke` (12 cells)."
    );
    Ok(())
}

fn cmd_serve(opts: &Options) -> Result<(), String> {
    ebird_serve::serve(
        &opts.addr,
        ebird_serve::ServerConfig {
            threads: opts.pool.threads(),
            cache_dir: opts.cache_dir.clone(),
            hot_bytes: opts.hot_bytes,
            queue_bound: opts.queue_bound,
        },
    )
}

/// `submit` (stream, computing misses) or, with `fetch_only`, `fetch`
/// (cache-only; errors if any cell is missing). Rows go to stdout verbatim —
/// byte-identical to the offline `scenarios` table — and bookkeeping to
/// stderr.
fn cmd_submit(opts: &Options, fetch_only: bool) -> Result<(), String> {
    use ebird_serve::{client, MatrixSource};
    // Always send the matrix inline so `--seed` behaves exactly like the
    // offline `scenarios` verb (a preset name would pin the server's seed).
    let source = MatrixSource::Inline(build_matrix(opts)?);
    // Print each row the moment it streams in, so a slow matrix shows
    // progress (and pipes see data) instead of one burst at the end.
    let stdout = std::io::stdout();
    let print_row = |row: &str| {
        let mut out = stdout.lock();
        let _ = out.write_all(row.as_bytes());
        let _ = out.write_all(b"\n");
        let _ = out.flush();
    };
    let outcome = if fetch_only {
        client::fetch_streaming(&opts.addr, &source, print_row)?
    } else {
        client::submit_streaming(&opts.addr, &source, opts.priority, print_row)?
    };
    eprintln!(
        "# {} {} rows from {}: {} cached, {} computed, {} coalesced",
        if fetch_only { "fetched" } else { "served" },
        outcome.footer.cells,
        opts.addr,
        outcome.footer.cached,
        outcome.footer.computed,
        outcome.footer.coalesced,
    );
    if let Some(path) = &opts.out {
        let mut table = String::with_capacity(outcome.rows.iter().map(|r| r.len() + 1).sum());
        for row in &outcome.rows {
            table.push_str(row);
            table.push('\n');
        }
        std::fs::write(path, &table).map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!("# wrote {path:?}");
    }
    Ok(())
}

fn cmd_status(opts: &Options) -> Result<(), String> {
    let s = ebird_serve::client::status(&opts.addr)?;
    // The rendering lives next to the wire struct (with a field-coverage
    // test), so a counter added to the protocol cannot go missing here.
    print!("{}", ebird_serve::render_status(&opts.addr, &s));
    Ok(())
}

/// Nanoseconds as a human-scaled milliseconds figure.
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn cmd_server_metrics(opts: &Options) -> Result<(), String> {
    let m = ebird_serve::client::metrics(&opts.addr)?;
    println!(
        "server {} metrics (uptime {:.1} s):",
        opts.addr,
        m.uptime_ns as f64 / 1e9
    );
    if !m.counters.is_empty() {
        println!("  counters:");
        for c in &m.counters {
            println!("    {:<40} {}", c.name, c.value);
        }
    }
    if !m.gauges.is_empty() {
        println!("  gauges:");
        for g in &m.gauges {
            println!("    {:<40} {}", g.name, g.value);
        }
    }
    if !m.histograms.is_empty() {
        println!(
            "  histograms:{:>36}{:>12}{:>12}{:>12}{:>12}",
            "count", "total ms", "p50 ms", "p95 ms", "p99 ms"
        );
        for h in &m.histograms {
            println!(
                "    {:<40} {:>6}{:>12.3}{:>12.3}{:>12.3}{:>12.3}",
                h.name,
                h.count,
                ms(h.total_ns),
                ms(h.p50_ns),
                ms(h.p95_ns),
                ms(h.p99_ns)
            );
        }
    }
    Ok(())
}

fn cmd_profile(opts: &Options) -> Result<(), String> {
    use ebird_bench::profile::{render_profile, units_counter, TRACE_SAMPLES};
    use ebird_runtime::PoolObserver;
    let registry = std::sync::Arc::new(ebird_obs::Registry::wall());
    let observer = PoolObserver::new(&registry);
    let pool = Pool::new(opts.pool.threads()).with_observer(observer.clone());
    let threads = pool.threads();
    eprintln!(
        "# profiling the synthetic pipeline: scale {:?}, seed {}, {} worker thread(s)",
        opts.scale, opts.seed, threads
    );

    // Each stage gets a wall-clock span and relabels the pool observer, so
    // `pool.{stage}.w{i}.busy_ns` splits busy time per stage per worker.
    let stage = |i: usize| {
        observer.set_stage(STAGES[i]);
        registry.span(STAGES[i])
    };
    // The sweep's weight-cache counters and per-group sort histogram, which
    // the rendering surfaces below the stage table.
    let sweep_obs = SweepObs::new(&registry);
    let mut arenas = EngineArenas::new(threads);
    let link = LinkModel::omni_path();

    let traces = {
        let _span = stage(0);
        generate_synthetic(opts, &pool)?
    };
    // Every stage handles every process-iteration of the campaign once; the
    // count beside each span turns a stage's busy time into a cost per unit.
    let units: usize = traces.iter().map(|t| t.shape().process_iterations()).sum();
    for st in STAGES {
        registry.counter(&units_counter(st)).add(units as u64);
    }
    let samples: usize = traces.iter().map(|t| t.samples().len()).sum();
    registry.counter(TRACE_SAMPLES).add(samples as u64);
    {
        let _span = stage(1);
        for tr in &traces {
            let _ = sweep_levels_parallel_with_arenas(
                tr,
                calibration::ALPHA,
                Some(&sweep_obs),
                &pool,
                &mut arenas,
            );
        }
    }
    {
        let _span = stage(2);
        for tr in &traces {
            let _ = trace_scan_parallel_with_arenas(tr, LAGGARD_THRESHOLD_MS, &pool, &mut arenas);
        }
    }
    {
        let _span = stage(3);
        for tr in &traces {
            let _ = delivery_sweep_parallel_with_arenas(
                tr,
                BUFFER_BYTES,
                || SerialLink::new(link),
                &pool,
                &mut arenas,
            );
        }
    }

    print!("{}", render_profile(&registry.snapshot(), threads));
    Ok(())
}

fn cmd_shutdown(opts: &Options) -> Result<(), String> {
    ebird_serve::client::shutdown(&opts.addr)?;
    eprintln!("# server at {} acknowledged shutdown", opts.addr);
    Ok(())
}

fn cmd_earlybird(traces: &[TimingTrace], scans: &[TraceScan], deliveries: &[Vec<DeliverySweep>]) {
    println!(
        "Early-bird delivery sweep (8 MB partitioned buffer, every process-iteration priced):"
    );
    for ((tr, scan), per_link) in traces.iter().zip(scans).zip(deliveries) {
        for (link_name, outcomes) in EARLYBIRD_LINKS.iter().zip(per_link) {
            print!(
                "{}",
                report::render_earlybird(
                    tr.app(),
                    link_name,
                    canonical_strategies(tr.shape().threads),
                    outcomes,
                    &scan.census,
                    steady_state_from(tr),
                )
            );
        }
    }
    println!();
}
