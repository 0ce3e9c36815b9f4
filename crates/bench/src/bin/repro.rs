//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--scale paper|ci] [--seed N] [--source synthetic|real]
//!       [--threads N] [--csv-dir DIR]
//!       [--preset NAME] [--matrix FILE] [--out FILE]
//!       [--addr HOST:PORT] [--cache-dir DIR] [--hot-bytes N]
//!       [--queue-bound N] [--priority N] <experiment>
//!
//! experiments (`all` runs them in this order; README's table says more):
//!   table1          process-iteration normality pass rates (Table 1)
//!   app-normality   application-level normality verdicts (§4.1)
//!   iter-normality  application-iteration-level sweep (§4.1)
//!   fig3            application-level histograms (Figure 3a–c)
//!   fig4|fig6|fig8  percentile series + IQR stats (Figures 4/6/8)
//!   fig5|fig7|fig9  exemplar process-iteration histograms (Figures 5/7/9)
//!   metrics         reclaimable time / idle ratio / medians (§4.2); with
//!                   --addr, the running server's metrics snapshot instead
//!   earlybird       the four canonical delivery strategies priced on every
//!                   process-iteration of each app over two links
//!   answer          the best canonical strategy against the oracle bound,
//!                   the best grouping of arrivals into messages
//!   battery         extended 5-test normality battery (sensitivity check)
//!   fit             fitted generative models extracted from the traces
//!
//! verbs:
//!   profile         the engine's four stages on an observed pool: a stage ×
//!                   worker busy-time table with each stage's µs/unit
//!   scenarios       multi-rank contention campaign, one JSON row per cell:
//!                   --preset NAME (default full; smoke, topology,
//!                   topology-smoke, workload, workload-smoke) at --seed, or
//!                   --matrix FILE (its own seed governs); --out also writes
//!                   the rows to a file
//!   workloads       the built-in workload names and the WorkloadSpec JSON
//!                   the `workload` presets sweep
//!   serve           the campaign service on --addr (default 127.0.0.1:4750;
//!                   --cache-dir, --hot-bytes, --queue-bound; PROTOCOL.md)
//!   submit|fetch    a matrix (as `scenarios`) to a running server, rows to
//!                   stdout byte-identical to `scenarios`; fetch never
//!                   computes, submit takes --priority
//!   status|shutdown the server's counters; drain and stop it
//!   trace ID        one recent submit's record (ID is the `request` its
//!                   footer carried, which `submit` prints): its cells'
//!                   provenance and when each of its layers ended
//! ```
//!
//! Defaults: paper scale, synthetic source, seed 20230421, and one worker
//! thread per host core (a one-thread pool is the serial path). Every table
//! and figure renders from the analysis engine's stage entries on the
//! workspace's own thread pool, each stage run at most once per trace;
//! results are bit-identical for any pool size, so `--threads` only changes
//! wall-clock time. The real source runs the live Rust kernels at reduced
//! problem sizes (wall-clock shapes are host-dependent; the synthetic source
//! is the calibrated one).

use std::cell::{OnceCell, RefCell};
use std::io::Write as _;
use std::path::PathBuf;

use ebird_analysis::engine::{
    canonical_strategies, delivery_sweep_parallel_with_arenas, generate_campaign_parallel,
    sweep_levels_parallel_with_arenas, EngineArenas, STAGES,
};
use ebird_analysis::figures::{self, bins};
use ebird_analysis::laggard::ArrivalClass;
use ebird_analysis::normality::{NormalitySweep, SweepObs, Table1};
use ebird_analysis::percentile_series::{detect_phase_boundary, iqr_stats, percentile_series};
use ebird_analysis::report;
use ebird_analysis::scan::{trace_scan_parallel_with_arenas, TraceScan};
use ebird_bench::all_real_traces;
use ebird_cluster::calibration::{self, LAGGARD_THRESHOLD_MS, MINIMD_PHASE_BOUNDARY};
use ebird_cluster::{JobConfig, SyntheticApp, Workload};
use ebird_core::view::AggregationLevel;
use ebird_core::{ThreadSample, TimingTrace, DEFAULT_SEED};
use ebird_partcomm::{
    link_by_name, oracle_exposed_ms, DeliveryOutcome, LinkModel, SerialLink, SimScratch,
};
use ebird_runtime::Pool;
use ebird_serve::scenario::{self, ScenarioMatrix};
use ebird_stats::normality::NormalityOutcome;

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

/// A paper experiment: renders its table or figure from the campaign.
type Runner = fn(&Campaign) -> Result<(), String>;

/// The paper experiments in paper order — what a single name looks up and
/// what `all` walks, so the output of `all` is the output of each entry in
/// turn.
const EXPERIMENTS: [(&str, Runner); 15] = [
    ("table1", cmd_table1),
    ("app-normality", cmd_app_normality),
    ("iter-normality", cmd_iter_normality),
    ("fig3", cmd_fig3),
    ("fig4", |c| cmd_percentiles(c, 0, "fig4")),
    ("fig5", |c| cmd_exemplars(c, 0, 0, bins::FIG5_MS, "fig5")),
    ("fig6", |c| cmd_percentiles(c, 1, "fig6")),
    ("fig7", cmd_fig7),
    ("fig8", |c| cmd_percentiles(c, 2, "fig8")),
    ("fig9", cmd_fig9),
    ("metrics", cmd_metrics),
    ("earlybird", cmd_earlybird),
    ("answer", cmd_answer),
    ("battery", cmd_battery),
    ("fit", cmd_fit),
];

/// A verb that reads only the options.
type Verb = fn(&Options) -> Result<(), String>;

/// The verbs that read no campaign traces: the scenario campaign builds its
/// own arrivals per cell, `profile` times its own run of the stages, and the
/// service verbs talk to (or run) the campaign server.
const VERBS: [(&str, Verb); 9] = [
    ("profile", cmd_profile),
    ("scenarios", cmd_scenarios),
    ("workloads", |_| cmd_workloads()),
    ("serve", cmd_serve),
    ("submit", |o| cmd_submit(o, false)),
    ("fetch", |o| cmd_submit(o, true)),
    ("status", cmd_status),
    ("trace", cmd_trace),
    ("shutdown", cmd_shutdown),
];

/// The usage text: the flags, then every experiment and verb by name.
fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS
        .iter()
        .map(|(name, _)| *name)
        .chain(VERBS.iter().map(|(name, _)| *name))
        .chain(["all"])
        .collect();
    format!(
        "usage: repro [--scale paper|ci] [--seed N] [--source synthetic|real] [--threads N] \
         [--csv-dir DIR] [--preset NAME] [--matrix FILE] [--out FILE] [--addr HOST:PORT] \
         [--cache-dir DIR] [--hot-bytes N] [--queue-bound N] [--priority N] <experiment>\n\
         experiments: {}\n",
        names.join(" ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(msg) = run(&args) {
        eprintln!("error: {msg}");
        eprintln!();
        eprint!("{}", usage());
        std::process::exit(2);
    }
}

/// Every `repro` input, at its default until a flag sets it.
struct Options {
    /// `--scale`: the synthetic campaign's shape.
    config: JobConfig,
    seed: u64,
    /// `--source real`: trace the live kernels instead of the models.
    real: bool,
    csv_dir: Option<PathBuf>,
    /// Worker pool for generation and sweeps; output is bit-identical for
    /// any pool size, so this only affects wall-clock time.
    pool: Pool,
    /// `scenarios`/`submit`/`fetch`: the built-in matrix preset.
    preset: String,
    /// `scenarios`/`submit`/`fetch`: a custom [`ScenarioMatrix`] JSON,
    /// which wins over `preset`.
    matrix: Option<PathBuf>,
    /// `scenarios`/`submit`/`fetch`: also write the JSON rows to this file.
    out: Option<PathBuf>,
    /// Service verbs: the campaign server's address ([`DEFAULT_ADDR`] when
    /// not given). `metrics` scrapes the server exactly when it is given.
    addr: Option<String>,
    /// `serve`: persist the result cache's cold tier in this directory.
    cache_dir: Option<PathBuf>,
    /// `serve`: hot-tier byte budget (`None` = unbounded).
    hot_bytes: Option<usize>,
    /// `serve`: job-queue admission bound (`usize::MAX` = unbounded).
    queue_bound: usize,
    /// `submit`: queue priority (higher runs sooner).
    priority: i64,
    /// `trace`: the submit's request id, the positional after the verb.
    request: Option<u64>,
}

impl Options {
    fn addr(&self) -> &str {
        self.addr.as_deref().unwrap_or(DEFAULT_ADDR)
    }
}

/// The host's available parallelism (1 if it cannot say).
fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parses a flag's value, naming `what` in the error.
fn parse<T: std::str::FromStr>(what: &str, v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("bad {what} `{v}`: {e}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let mut opts = Options {
        config: JobConfig::paper_scale(),
        seed: DEFAULT_SEED,
        real: false,
        csv_dir: None,
        pool: Pool::new(host_threads()),
        preset: "full".to_string(),
        matrix: None,
        out: None,
        addr: None,
        cache_dir: None,
        hot_bytes: None,
        queue_bound: ebird_serve::DEFAULT_QUEUE_BOUND,
        priority: 0,
        request: None,
    };
    let mut experiment = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--help" | "-h" => {
                print!("{}", usage());
                return Ok(());
            }
            "--scale" => {
                let v = value()?;
                opts.config = match v.to_ascii_lowercase().as_str() {
                    "paper" => JobConfig::paper_scale(),
                    "ci" => JobConfig::ci_scale(),
                    _ => return Err(format!("unknown scale `{v}`")),
                };
            }
            "--seed" => opts.seed = parse("seed", value()?)?,
            "--source" => {
                opts.real = match value()?.as_str() {
                    "real" => true,
                    "synthetic" => false,
                    v => return Err(format!("unknown source `{v}`")),
                }
            }
            "--threads" => {
                let threads = parse("thread count", value()?)?;
                if !(1..=MAX_THREADS).contains(&threads) {
                    return Err(format!(
                        "--threads must be in 1..={MAX_THREADS}, got {threads}"
                    ));
                }
                opts.pool = Pool::new(threads);
            }
            "--csv-dir" => opts.csv_dir = Some(value()?.into()),
            "--preset" => opts.preset = value()?.clone(),
            "--matrix" => opts.matrix = Some(value()?.into()),
            "--out" => opts.out = Some(value()?.into()),
            "--addr" => opts.addr = Some(value()?.clone()),
            "--cache-dir" => opts.cache_dir = Some(value()?.into()),
            "--hot-bytes" => {
                // 0 = unbounded, mirroring the status wire sentinel.
                let n = parse("hot-bytes", value()?)?;
                opts.hot_bytes = (n > 0).then_some(n);
            }
            "--queue-bound" => {
                let n = parse("queue-bound", value()?)?;
                opts.queue_bound = if n == 0 { usize::MAX } else { n };
            }
            "--priority" => opts.priority = parse("priority", value()?)?,
            other if !other.starts_with('-') && experiment.is_none() => experiment = Some(other),
            other if experiment == Some("trace") && opts.request.is_none() => {
                opts.request = Some(parse("request id", other)?);
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let experiment = experiment.ok_or("no experiment given")?;
    if experiment == "metrics" && opts.addr.is_some() {
        return cmd_server_metrics(&opts);
    }
    if let Some((_, verb)) = VERBS.iter().find(|(name, _)| *name == experiment) {
        return verb(&opts);
    }
    let runners = match EXPERIMENTS.iter().position(|(name, _)| *name == experiment) {
        Some(i) => &EXPERIMENTS[i..=i],
        None if experiment == "all" => &EXPERIMENTS[..],
        None => return Err(format!("unknown experiment `{experiment}`")),
    };
    let campaign = Campaign::load(&opts)?;
    runners.iter().try_for_each(|(_, runner)| runner(&campaign))
}

/// The traces every table and figure renders from, and the three engine
/// stages over them, each run at most once, for every trace, the first time
/// a runner reads it: the three-level normality sweep (levels in
/// `SWEEP_LEVELS` order: process-iteration, application-iteration,
/// application), the scan, and the delivery sweep over each of
/// [`EARLYBIRD_LINKS`].
struct Campaign<'a> {
    opts: &'a Options,
    traces: Vec<TimingTrace>,
    arenas: RefCell<EngineArenas>,
    sweeps: OnceCell<Vec<[NormalitySweep; 3]>>,
    scans: OnceCell<Vec<TraceScan>>,
    deliveries: OnceCell<Vec<Vec<DeliverySweep>>>,
}

impl<'a> Campaign<'a> {
    fn load(opts: &'a Options) -> Result<Self, String> {
        let traces = if opts.real {
            // Real kernels at paper thread counts would oversubscribe this
            // host meaninglessly; real mode always runs the CI shape.
            let cfg = JobConfig::ci_scale();
            eprintln!("# source: real kernels at CI scale {cfg:?}");
            all_real_traces(&cfg, opts.seed)
        } else {
            let threads = opts.pool.threads();
            eprintln!(
                "# source: synthetic, scale {:?}, seed {}, {threads} worker thread(s)",
                opts.config, opts.seed
            );
            generate_synthetic(opts, &opts.pool)?
        };
        Ok(Campaign {
            opts,
            traces,
            arenas: RefCell::new(EngineArenas::new(opts.pool.threads())),
            sweeps: OnceCell::new(),
            scans: OnceCell::new(),
            deliveries: OnceCell::new(),
        })
    }

    /// `stage` over every trace, run the first time it is read.
    fn per_trace<'s, T>(
        &'s self,
        cell: &'s OnceCell<Vec<T>>,
        stage: impl Fn(&TimingTrace, &Pool, &mut EngineArenas) -> T,
    ) -> &'s [T] {
        cell.get_or_init(|| {
            let arenas = &mut self.arenas.borrow_mut();
            let pool = &self.opts.pool;
            self.traces
                .iter()
                .map(|tr| stage(tr, pool, arenas))
                .collect()
        })
    }

    fn sweeps(&self) -> &[[NormalitySweep; 3]] {
        self.per_trace(&self.sweeps, |tr, pool, arenas| {
            sweep_levels_parallel_with_arenas(tr, calibration::ALPHA, None, pool, arenas)
        })
    }

    fn scans(&self) -> &[TraceScan] {
        self.per_trace(&self.scans, |tr, pool, arenas| {
            trace_scan_parallel_with_arenas(tr, LAGGARD_THRESHOLD_MS, pool, arenas)
        })
    }

    fn deliveries(&self) -> &[Vec<DeliverySweep>] {
        self.per_trace(&self.deliveries, |tr, pool, arenas| {
            let over = |name| {
                let link = link_by_name(name).expect("a built-in link");
                let new_link = || SerialLink::new(link);
                delivery_sweep_parallel_with_arenas(tr, BUFFER_BYTES, new_link, pool, arenas)
            };
            EARLYBIRD_LINKS.map(over).into()
        })
    }
}

/// The generation stage: the three calibrated apps' campaign traces, in
/// paper order, on `pool`.
fn generate_synthetic(opts: &Options, pool: &Pool) -> Result<Vec<TimingTrace>, String> {
    let apps = SyntheticApp::all();
    let workloads: Vec<&dyn Workload> = apps.iter().map(|a| a as &dyn Workload).collect();
    generate_campaign_parallel(&workloads, &opts.config, opts.seed, pool)
}

fn write_csv(opts: &Options, name: &str, content: &str) -> Result<(), String> {
    if let Some(dir) = &opts.csv_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        let path = dir.join(name);
        std::fs::write(&path, content).map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!("# wrote {path:?}");
    }
    Ok(())
}

fn cmd_table1(c: &Campaign) -> Result<(), String> {
    let rows = c
        .traces
        .iter()
        .zip(c.sweeps())
        .map(|(tr, [pi, _, _])| (tr.app(), pi));
    let t = Table1::from_sweeps(calibration::ALPHA, rows);
    println!("{}", report::render_table1(&t));
    println!("paper Table 1:        MiniFE 3%/<1%/<1%   MiniMD 77%/74%/76%   MiniQMC 95%/96%/96%");
    println!();
    Ok(())
}

fn cmd_app_normality(c: &Campaign) -> Result<(), String> {
    println!("Application-level normality (one test per app over all samples):");
    for (tr, [_, _, sw]) in c.traces.iter().zip(c.sweeps()) {
        let verdict = |r: &Option<NormalityOutcome>| match r {
            Some(r) => {
                let pass = if r.passes(calibration::ALPHA) {
                    "PASS"
                } else {
                    "reject"
                };
                let extrapolated = if r.extrapolated { ", extrapolated" } else { "" };
                let name = r.statistic_kind.name();
                format!("{name}: {pass} (p={:.2e}{extrapolated})", r.p_value)
            }
            None => "degenerate".to_string(),
        };
        let verdicts: Vec<String> = sw.outcomes[0].iter().map(verdict).collect();
        println!("  {:<8} {}", tr.app(), verdicts.join(" | "));
    }
    println!("paper: all three tests reject for every application at this level");
    println!();
    Ok(())
}

fn cmd_iter_normality(c: &Campaign) -> Result<(), String> {
    println!("Application-iteration-level normality (pass counts over iterations):");
    for (tr, [_, sw, _]) in c.traces.iter().zip(c.sweeps()) {
        let (n, dag_only) = (sw.groups, sw.dagostino_only_passes().len());
        let [d, w, a] = sw.pass_rates().map(|r| (r * n as f64).round() as usize);
        println!(
            "  {:<8} D'Agostino {d:>3}/{n}  Shapiro-Wilk {w:>3}/{n}  Anderson-Darling {a:>3}/{n}  (D'Ag-only passes: {dag_only})",
            tr.app(),
        );
    }
    println!("paper: all reject, except 8 MiniQMC iterations that pass D'Agostino only");
    println!();
    Ok(())
}

fn cmd_fig3(c: &Campaign) -> Result<(), String> {
    for (tr, label) in c.traces.iter().zip(["fig3a", "fig3b", "fig3c"]) {
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
        write_csv(c.opts, &format!("{label}.csv"), &report::histogram_csv(&f))?;
    }
    println!("paper: unimodal peaks near 26.3 / 24.7 / 60.9 ms; MiniQMC widest");
    println!();
    Ok(())
}

/// Figures 4/6/8: trace `app`'s percentile series and IQR statistics.
fn cmd_percentiles(c: &Campaign, app: usize, label: &str) -> Result<(), String> {
    let (tr, census) = (&c.traces[app], &c.scans()[app].census);
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
        c.opts,
        &format!("{label}.csv"),
        &report::percentile_series_csv(&series),
    )?;
    println!();
    Ok(())
}

/// Trace `app`'s laggard rate from `from_iteration` on, and its calm and
/// laggard exemplar histograms at `bin_ms`.
fn cmd_exemplars(
    c: &Campaign,
    app: usize,
    from_iteration: usize,
    bin_ms: f64,
    label: &str,
) -> Result<(), String> {
    let (tr, census) = (&c.traces[app], &c.scans()[app].census);
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
            c.opts,
            &format!("{}.csv", fig.label),
            &report::histogram_csv(&fig),
        )?;
    }
    println!();
    Ok(())
}

fn cmd_fig7(c: &Campaign) -> Result<(), String> {
    let (tr, census) = (&c.traces[1], &c.scans()[1].census);
    // 7a: initial-phase exemplar (median-magnitude iteration < 19, 50 µs bins).
    let early: Vec<usize> = (0..census.iterations.len())
        .filter(|&unit| census.coords(unit).2 < MINIMD_PHASE_BOUNDARY)
        .collect();
    if let Some(&unit) = early.get(early.len() / 2) {
        let f = figures::process_iteration_histogram(tr, unit, bins::FIG5_MS, "fig7a");
        println!("{}", report::render_histogram(&f, 40));
        write_csv(c.opts, "fig7a.csv", &report::histogram_csv(&f))?;
    }
    // 7b/7c: steady-state exemplar pair at 10 µs bins.
    cmd_exemplars(c, 1, MINIMD_PHASE_BOUNDARY, bins::FIG7_STEADY_MS, "fig7")
}

fn cmd_fig9(c: &Campaign) -> Result<(), String> {
    let (tr, census) = (&c.traces[2], &c.scans()[2].census);
    // MiniQMC: any median-magnitude iteration typifies the wide distribution.
    let classes = [ArrivalClass::Laggard, ArrivalClass::NoLaggard];
    let exemplar = classes.iter().find_map(|&c| census.exemplar(c, 0));
    if let Some((unit, _)) = exemplar {
        let f = figures::process_iteration_histogram(tr, unit, bins::FIG9_MS, "fig9");
        println!("{}", report::render_histogram(&f, 40));
        write_csv(c.opts, "fig9.csv", &report::histogram_csv(&f))?;
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

fn cmd_metrics(c: &Campaign) -> Result<(), String> {
    for (tr, scan) in c.traces.iter().zip(c.scans()) {
        let (m, census) = (&scan.reclaim, &scan.census);
        let t = calibration::targets_for(tr.app())?;
        print!(
            "{}",
            report::render_metrics(tr.app(), m, t.reclaim_ms, t.idle_ratio, t.median_ms)
        );
        let paper = match t.laggard_rate {
            Some(paper) => format!(" {:.1}%", paper * 100.0),
            None => ": not reported".to_string(),
        };
        let rate = census.laggard_rate_from(steady_state_from(tr)) * 100.0;
        println!("  laggard rate          {rate:>10.1}%     (paper{paper})");
        println!();
    }
    println!("note: the paper's reclaim/idle columns are internally inconsistent with its");
    println!("medians/IQRs under its stated definitions; see the analysis::reclaim module docs.");
    println!();
    Ok(())
}

fn cmd_earlybird(c: &Campaign) -> Result<(), String> {
    println!(
        "Early-bird delivery sweep (8 MB partitioned buffer, every process-iteration priced):"
    );
    for ((tr, scan), per_link) in c.traces.iter().zip(c.scans()).zip(c.deliveries()) {
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
    Ok(())
}

/// Per app × link, over the process-iterations `earlybird` prices: the mean
/// exposed cost of bulk, of the best canonical strategy and of the oracle
/// bound, and the share of the oracle's gain over bulk the best captures.
fn cmd_answer(c: &Campaign) -> Result<(), String> {
    println!("Oracle bound on aggregation (8 MB buffer, mean exposed ms per process-iteration):");
    println!(
        "  {:<9}{:<14}{:>9}   {:<16}{:>9}{:>11}{:>10}",
        "app", "link", "bulk ms", "best canonical", "ms", "oracle ms", "captured"
    );
    let (mut scratch, mut values) = (SimScratch::new(), Vec::new());
    for (tr, per_link) in c.traces.iter().zip(c.deliveries()) {
        let shape = tr.shape();
        let steady = |(unit, _): &(usize, _)| shape.unit_coords(*unit).2 >= steady_state_from(tr);
        let units = tr
            .samples()
            .chunks(shape.threads)
            .enumerate()
            .filter(steady);
        for (link_name, outcomes) in EARLYBIRD_LINKS.iter().zip(per_link) {
            let link = link_by_name(link_name).expect("a built-in link");
            // Bulk, early-bird, timeout, binned, then the oracle.
            let (mut sums, mut count) = ([0.0; 5], 0.0);
            for (unit, samples) in units.clone() {
                values.clear();
                values.extend(samples.iter().map(ThreadSample::compute_time_ms));
                let oracle = oracle_exposed_ms(&values, BUFFER_BYTES, link, &mut scratch);
                let exposed = outcomes[unit].iter().map(DeliveryOutcome::exposed_ms);
                for (sum, exposed_ms) in sums.iter_mut().zip(exposed.chain([oracle])) {
                    *sum += exposed_ms;
                }
                count += 1.0;
            }
            let [bulk, .., oracle] = sums;
            let best = (0..4).fold(0, |best, s| if sums[s] < sums[best] { s } else { best });
            let captured = if oracle < bulk {
                format!("{:>9.1}%", 100.0 * (bulk - sums[best]) / (bulk - oracle))
            } else {
                format!("{:>10}", "-")
            };
            println!(
                "  {:<9}{:<14}{:>9.4}   {:<16}{:>9.4}{:>11.4}{captured}",
                tr.app(),
                link_name,
                bulk / count,
                canonical_strategies(shape.threads)[best].label(),
                sums[best] / count,
                oracle / count,
            );
        }
    }
    println!();
    Ok(())
}

fn cmd_battery(c: &Campaign) -> Result<(), String> {
    // Battery-sensitivity extension: does Table 1 change if two more classic
    // normality tests join the battery?
    use ebird_analysis::normality::battery_pass_rates;
    let battery = ebird_stats::normality::extended_battery();
    println!("Extended-battery Table 1 (adds Lilliefors and Jarque-Bera):");
    print!("{:<18}", "Test");
    for tr in &c.traces {
        print!("{:>12}", tr.app());
    }
    println!();
    let per_app: Vec<Vec<(&str, f64)>> = c
        .traces
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
    Ok(())
}

fn cmd_fit(c: &Campaign) -> Result<(), String> {
    println!("Fitted generative models (trace -> model extraction, §1's methodology):");
    for tr in &c.traces {
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
    Ok(())
}

/// Materializes the campaign matrix the scenario/service verbs operate on:
/// `--matrix FILE` is a self-contained config (its own seed governs) and wins
/// over `--preset NAME`, whose built-in matrix takes `--seed`.
fn build_matrix(opts: &Options) -> Result<ScenarioMatrix, String> {
    if let Some(path) = &opts.matrix {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
        return serde_json::from_str(&text).map_err(|e| format!("parsing {path:?}: {e}"));
    }
    // Unknown presets flow through the same Result<_, String> path as
    // matrix resolution: `error: unknown preset ...` on stderr.
    let mut m = ScenarioMatrix::preset(&opts.preset)?;
    m.seed = opts.seed;
    Ok(m)
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
/// built-in name (canonical spelling, calibration targets), then a `Named`
/// spec and the specs the `workload` presets sweep, as matrix JSON ready to
/// paste into a `workloads` array.
fn cmd_workloads() -> Result<(), String> {
    use ebird_cluster::{WorkloadSpec, BUILTIN_WORKLOAD_NAMES};
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
    for spec in [named]
        .iter()
        .chain(&ScenarioMatrix::workload_smoke().workloads)
    {
        let label = match spec {
            WorkloadSpec::Named { .. } => "Named",
            WorkloadSpec::Synthetic { .. } => "Synthetic (full inline model)",
            WorkloadSpec::RealKernel { .. } => "RealKernel (deterministic metered run)",
            WorkloadSpec::Mixture { .. } => "Mixture (weighted blend)",
        };
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
        opts.addr(),
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
        let _ = writeln!(out, "{row}");
        let _ = out.flush();
    };
    let outcome = if fetch_only {
        client::fetch_streaming(opts.addr(), &source, print_row)?
    } else {
        client::submit_streaming(opts.addr(), &source, opts.priority, print_row)?
    };
    eprintln!(
        "# {} {} rows from {}: {} cached, {} computed, {} coalesced{}",
        if fetch_only { "fetched" } else { "served" },
        outcome.footer.cells,
        opts.addr(),
        outcome.footer.cached,
        outcome.footer.computed,
        outcome.footer.coalesced,
        match outcome.footer.request {
            0 => String::new(),
            request => format!(" (request {request})"),
        },
    );
    if let Some(path) = &opts.out {
        let table: String = outcome.rows.iter().flat_map(|r| [r, "\n"]).collect();
        std::fs::write(path, &table).map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!("# wrote {path:?}");
    }
    Ok(())
}

fn cmd_status(opts: &Options) -> Result<(), String> {
    let s = ebird_serve::client::status(opts.addr())?;
    // The rendering lives next to the wire struct (with a field-coverage
    // test), so a counter added to the protocol cannot go missing here.
    print!("{}", ebird_serve::render_status(opts.addr(), &s));
    Ok(())
}

fn cmd_trace(opts: &Options) -> Result<(), String> {
    let request = opts
        .request
        .ok_or("trace needs a request id: repro trace <id>")?;
    let t = ebird_serve::client::trace(opts.addr(), request)?;
    print!("{}", ebird_serve::render_trace(opts.addr(), &t));
    Ok(())
}

/// Nanoseconds as a human-scaled milliseconds figure.
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn cmd_server_metrics(opts: &Options) -> Result<(), String> {
    let m = ebird_serve::client::metrics(opts.addr())?;
    println!(
        "server {} metrics (uptime {:.1} s):",
        opts.addr(),
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
    use ebird_bench::profile::{
        clock_oracle, effective_parallelism, record_peak_rss, render_profile, units_counter,
        TRACE_SAMPLES,
    };
    use ebird_runtime::PoolObserver;
    let registry = std::sync::Arc::new(ebird_obs::Registry::wall());
    let observer = PoolObserver::new(&registry);
    let pool = Pool::new(opts.pool.threads()).with_observer(observer.clone());
    let threads = pool.threads();
    eprintln!(
        "# profiling the synthetic pipeline: scale {:?}, seed {}, {} worker thread(s)",
        opts.config, opts.seed, threads
    );

    // The clock and the host's parallelism are measured before any stage
    // runs, on an idle host.
    let clock = clock_oracle(&registry);
    let parallelism = effective_parallelism(&registry, host_threads());

    // Each stage gets a wall-clock span and relabels the pool observer, so
    // `pool.{stage}.w{i}.busy_ns` splits busy time per stage per worker; the
    // process's peak resident set is read as each span closes.
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
    record_peak_rss(&registry, STAGES[0]);
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
    record_peak_rss(&registry, STAGES[1]);
    {
        let _span = stage(2);
        for tr in &traces {
            let _ = trace_scan_parallel_with_arenas(tr, LAGGARD_THRESHOLD_MS, &pool, &mut arenas);
        }
    }
    record_peak_rss(&registry, STAGES[2]);
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
    record_peak_rss(&registry, STAGES[3]);

    println!("{clock}");
    println!("{parallelism}");
    print!("{}", render_profile(&registry.snapshot(), threads));
    Ok(())
}

fn cmd_shutdown(opts: &Options) -> Result<(), String> {
    ebird_serve::client::shutdown(opts.addr())?;
    eprintln!("# server at {} acknowledged shutdown", opts.addr());
    Ok(())
}
