//! End-to-end pipeline throughput: generate → sweep → simulate, serial
//! against parallel, with a machine-readable report.
//!
//! This is the workspace's standing perf harness: every stage of the
//! reproduction runs twice — once single-threaded, once fanned out over the
//! workspace's own [`Pool`] — and the report records wall-clock times,
//! speedups, and whether the parallel sweep outputs were **bit-identical**
//! to serial (they must be; the run panics otherwise). The `bench_pipeline`
//! binary serializes the report to `BENCH_PIPELINE.json`, establishing the
//! BENCH trajectory future PRs measure against.

use std::time::Instant;

use ebird_analysis::engine::{
    delivery_sweep, delivery_sweep_parallel_with_arenas, generate_campaign,
    generate_campaign_parallel, sweep_levels_parallel_with_arenas, EngineArenas,
};
use ebird_analysis::laggard::laggard_census;
use ebird_analysis::normality::{sweep_levels_with_scratch, SweepObs, SweepScratch};
use ebird_analysis::reclaim::reclaim_metrics;
use ebird_analysis::scan::{trace_scan, trace_scan_parallel_with_arenas};
use ebird_cluster::{JobConfig, SyntheticApp, Workload};
use ebird_core::TimingTrace;
use ebird_partcomm::{LinkModel, SerialLink};
use ebird_runtime::{Pool, PoolObserver};
use ebird_stats::Moments;
use serde::{Deserialize, Serialize};

use crate::Scale;

/// Paper-default buffer for the delivery stage (8 MB).
const SIM_BYTES: usize = 8_000_000;

/// One pipeline stage's serial/parallel wall-clock comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageTiming {
    /// Stage name (`generate`, `normality-sweep`, …).
    pub stage: String,
    /// Best-of-`repeats` serial wall-clock (ms).
    pub serial_ms: f64,
    /// Best-of-`repeats` parallel wall-clock (ms).
    pub parallel_ms: f64,
    /// `serial_ms / parallel_ms`.
    pub speedup: f64,
    /// Total wall time the stage's obs span recorded across *all* parallel
    /// repeats (ms) — the span view of the same work `parallel_ms` takes
    /// the best-of over. Defaulted so pre-observability reports still parse.
    #[serde(default)]
    pub span_total_ms: f64,
    /// Team busy time from the pool observer across all parallel repeats
    /// (ms); `span_total_ms × threads − pool_busy_ms` is the stage's idle
    /// (skew + serial-section) time.
    #[serde(default)]
    pub pool_busy_ms: f64,
}

/// The full pipeline report written to `BENCH_PIPELINE.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Report format version (bump on breaking field changes).
    pub schema_version: u32,
    /// Scale label (`paper` or `ci`).
    pub scale: String,
    /// Campaign seed.
    pub seed: u64,
    /// Applications processed, in order.
    pub apps: Vec<String>,
    /// Worker threads in the parallel pool.
    pub pool_threads: usize,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: usize,
    /// Timing repeats per stage (best-of is reported).
    pub repeats: usize,
    /// Per-stage timings.
    pub stages: Vec<StageTiming>,
    /// Serial generate+sweep total (ms) — the acceptance metric's numerator.
    pub generate_sweep_serial_ms: f64,
    /// Parallel generate+sweep total (ms).
    pub generate_sweep_parallel_ms: f64,
    /// Generate+sweep speedup.
    pub generate_sweep_speedup: f64,
    /// Whole-pipeline serial total (ms).
    pub total_serial_ms: f64,
    /// Whole-pipeline parallel total (ms).
    pub total_parallel_ms: f64,
    /// Whole-pipeline speedup.
    pub total_speedup: f64,
    /// `true` — the run verifies sweep/census/reclaim/simulation outputs are
    /// bit-identical between serial and parallel and panics otherwise, so a
    /// written report always records `true`; the field keeps the check
    /// visible in the artifact.
    pub outputs_bit_identical: bool,
}

fn time_best<R>(repeats: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    (best, last.expect("at least one repeat"))
}

/// Full per-group outcomes of every (trace, level) sweep; compared with
/// derived `PartialEq`, so *every* field of every outcome (statistic,
/// p-value, n, extrapolated flag) participates in the bit-identity check —
/// a lossy projection here would let a divergence hide behind a clamped
/// p-value.
type SweepOutcomes = Vec<Vec<[Option<ebird_stats::normality::NormalityOutcome>; 3]>>;

fn sweep_all(
    traces: &[TimingTrace],
    alpha: f64,
    obs: Option<&SweepObs>,
    scratch: &mut SweepScratch,
) -> SweepOutcomes {
    // One scratch across all traces (and across bench repeats): same-shaped
    // campaigns share the cached Shapiro–Wilk weight vectors (bit-identical
    // to fresh solves), so the timed region measures the steady state a
    // long-lived analysis process sees rather than re-paying the one-off
    // per-n weight solve on every repeat.
    traces
        .iter()
        .flat_map(|tr| sweep_levels_with_scratch(tr, alpha, obs, scratch).map(|sw| sw.outcomes))
        .collect()
}

fn sweep_all_parallel(
    traces: &[TimingTrace],
    alpha: f64,
    obs: Option<&SweepObs>,
    pool: &Pool,
    arenas: &mut EngineArenas,
) -> SweepOutcomes {
    traces
        .iter()
        .flat_map(|tr| {
            sweep_levels_parallel_with_arenas(tr, alpha, obs, pool, arenas).map(|sw| sw.outcomes)
        })
        .collect()
}

/// Best-of-`repeats` wall-clock (ms) of the **serial** three-level normality
/// sweep over the canonical synthetic campaign at `scale` — the probe the
/// `bench_gate` binary compares against a committed baseline report.
pub fn time_serial_sweep(scale: Scale, seed: u64, repeats: usize) -> f64 {
    let traces = crate::all_synthetic_traces(scale, seed);
    let alpha = ebird_cluster::calibration::ALPHA;
    let mut scratch = SweepScratch::new();
    time_best(repeats, || sweep_all(&traces, alpha, None, &mut scratch)).0
}

/// Runs the canonical pipeline — the three calibrated synthetic apps — at
/// `scale`. See [`run_pipeline_workloads`] for the workload-generic
/// engine this delegates to.
///
/// # Panics
/// If any parallel stage output differs from its serial counterpart — that
/// is a correctness bug, not a measurement artifact.
pub fn run_pipeline(scale: Scale, seed: u64, pool: &Pool, repeats: usize) -> PipelineReport {
    let apps = SyntheticApp::all();
    let workloads: Vec<&dyn Workload> = apps.iter().map(|a| a as &dyn Workload).collect();
    let label = match scale {
        Scale::Paper => "paper",
        Scale::Ci => "ci",
    };
    run_pipeline_workloads(&workloads, label, &scale.config(), seed, pool, repeats)
}

/// Runs the full generate → sweep → trace-scan → simulate pipeline over any
/// workload set, serial and parallel, and verifies the parallel outputs are
/// bit-identical to serial (the fused trace scan is additionally checked
/// against the three standalone traversals it replaced). Generic over
/// [`Workload`], so the same harness prices calibrated apps, inline
/// synthetic models, metered real-kernel runs and mixtures.
///
/// # Panics
/// If any workload fails to generate, or any parallel stage output differs
/// from its serial counterpart — the latter is a correctness bug, not a
/// measurement artifact.
pub fn run_pipeline_workloads(
    workloads: &[&dyn Workload],
    scale_label: &str,
    cfg: &JobConfig,
    seed: u64,
    pool: &Pool,
    repeats: usize,
) -> PipelineReport {
    let alpha = ebird_cluster::calibration::ALPHA;
    let link = LinkModel::omni_path();
    let mut stages = Vec::new();

    // Every parallel pass runs on an observed clone of the caller's pool:
    // spans record per-stage wall time, the observer splits busy time per
    // stage per worker, and both land in the report's span/busy columns.
    let registry = std::sync::Arc::new(ebird_obs::Registry::wall());
    let observer = PoolObserver::new(&registry);
    let pool = &Pool::new(pool.threads()).with_observer(observer.clone());
    let span = |name: &str| {
        observer.set_stage(name);
        registry.span(name)
    };

    // Stage 1: campaign trace generation (workload-generic).
    let (gen_serial_ms, traces) = time_best(repeats, || {
        generate_campaign(workloads, cfg, seed).expect("workloads must generate")
    });
    let (gen_parallel_ms, traces_par) = time_best(repeats, || {
        let _span = span("generate");
        generate_campaign_parallel(workloads, cfg, seed, pool).expect("workloads must generate")
    });
    assert_eq!(
        traces, traces_par,
        "parallel generation diverged from serial"
    );
    drop(traces_par);
    stages.push(stage("generate", gen_serial_ms, gen_parallel_ms));

    // One arena set for the whole run: per-worker battery scratch, unit
    // buffers and simulation state persist across stages, traces and bench
    // repeats, so the timed parallel passes measure steady-state work rather
    // than allocator warm-up — and on a one-thread pool every arena-backed
    // stage runs its serial loop inline (Pool::run_serial), making p = 1
    // parallel the serial code plus one timestamped fork record.
    let mut arenas = EngineArenas::for_pool(pool);

    // Stage 2: the three-level normality sweeps (fast path: every group of
    // every level an independent task — integer-key radix sort, cached
    // Shapiro–Wilk weights, blocked-Φ fused SW+AD battery — instrumented
    // via SweepObs).
    let sweep_obs = SweepObs::new(&registry);
    let mut sweep_scratch = SweepScratch::new();
    let (sweep_serial_ms, sweeps) = time_best(repeats, || {
        sweep_all(&traces, alpha, Some(&sweep_obs), &mut sweep_scratch)
    });
    let (sweep_parallel_ms, sweeps_par) = time_best(repeats, || {
        let _span = span("normality-sweep");
        sweep_all_parallel(&traces, alpha, Some(&sweep_obs), pool, &mut arenas)
    });
    assert_eq!(sweeps, sweeps_par, "parallel sweep diverged from serial");
    stages.push(stage("normality-sweep", sweep_serial_ms, sweep_parallel_ms));

    // Stage 3: the fused single-pass trace scan — laggard census + reclaim
    // metrics + campaign moments in one traversal of each trace (replacing
    // the three standalone walks the pipeline used to time separately).
    let threshold = ebird_cluster::calibration::LAGGARD_THRESHOLD_MS;
    let (scan_serial_ms, scans) = time_best(repeats, || {
        traces
            .iter()
            .map(|tr| trace_scan(tr, threshold))
            .collect::<Vec<_>>()
    });
    let (scan_parallel_ms, scans_par) = time_best(repeats, || {
        let _span = span("trace-scan");
        traces
            .iter()
            .map(|tr| trace_scan_parallel_with_arenas(tr, threshold, pool, &mut arenas))
            .collect::<Vec<_>>()
    });
    for (a, b) in scans.iter().zip(&scans_par) {
        assert_eq!(
            a.census.iterations, b.census.iterations,
            "parallel scan census diverged"
        );
        assert_eq!(a.reclaim, b.reclaim, "parallel scan reclaim diverged");
        // Moments merge per-thread partials; exact equality holds at one
        // thread, count/extrema always.
        assert_eq!(a.moments.count(), b.moments.count(), "scan lost samples");
        assert_eq!(a.moments.min(), b.moments.min());
        assert_eq!(a.moments.max(), b.moments.max());
        if pool.threads() == 1 {
            assert_eq!(a.moments, b.moments, "one-thread scan moments diverged");
        }
    }
    // The fused scan must reproduce the three retired standalone traversals
    // bit-for-bit (checked once, untimed).
    for (tr, s) in traces.iter().zip(&scans) {
        assert_eq!(
            s.census.iterations,
            laggard_census(tr, threshold).iterations,
            "scan census diverged from laggard_census"
        );
        assert_eq!(
            s.reclaim,
            reclaim_metrics(tr),
            "scan reclaim diverged from reclaim_metrics"
        );
        assert_eq!(
            s.moments,
            Moments::from_slice(&tr.all_ms()),
            "scan moments diverged from whole-trace moments"
        );
    }
    // Cross-application fold through the Mergeable reduction: the combined
    // accumulator must account for every sample of every app.
    let overall = ebird_stats::reduce::merge_all(scans_par.iter().map(|s| s.moments))
        .expect("at least one application");
    assert_eq!(
        overall.count(),
        traces.iter().map(|t| t.samples().len() as u64).sum::<u64>(),
        "cross-app moments lost samples"
    );
    stages.push(stage("trace-scan", scan_serial_ms, scan_parallel_ms));

    // Stage 4: early-bird delivery simulation over every process-iteration
    // (the engine's canonical-strategy sweep, priced through the unified
    // NetModel kernel on a SerialLink).
    let (sim_serial_ms, sims) = time_best(repeats, || {
        let mut model = SerialLink::new(link);
        traces
            .iter()
            .map(|tr| delivery_sweep(tr, SIM_BYTES, &mut model))
            .collect::<Vec<_>>()
    });
    let (sim_parallel_ms, sims_par) = time_best(repeats, || {
        let _span = span("earlybird-sim");
        traces
            .iter()
            .map(|tr| {
                delivery_sweep_parallel_with_arenas(
                    tr,
                    SIM_BYTES,
                    || SerialLink::new(link),
                    pool,
                    &mut arenas,
                )
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(sims, sims_par, "parallel simulation diverged from serial");
    stages.push(stage("earlybird-sim", sim_serial_ms, sim_parallel_ms));

    // Fold the observability view into the stage rows: per-stage span wall
    // totals and pool busy time, accumulated over all parallel repeats.
    let snap = registry.snapshot();
    for s in &mut stages {
        s.span_total_ms = snap.histogram(&format!("span.{}.ns", s.stage)).total() as f64 / 1e6;
        s.pool_busy_ms = snap.counter(&PoolObserver::stage_counter(&s.stage)) as f64 / 1e6;
    }

    let generate_sweep_serial_ms = gen_serial_ms + sweep_serial_ms;
    let generate_sweep_parallel_ms = gen_parallel_ms + sweep_parallel_ms;
    let total_serial_ms: f64 = stages.iter().map(|s| s.serial_ms).sum();
    let total_parallel_ms: f64 = stages.iter().map(|s| s.parallel_ms).sum();

    PipelineReport {
        schema_version: 2,
        scale: scale_label.to_string(),
        seed,
        apps: traces.iter().map(|t| t.app().to_string()).collect(),
        pool_threads: pool.threads(),
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        repeats: repeats.max(1),
        stages,
        generate_sweep_serial_ms,
        generate_sweep_parallel_ms,
        generate_sweep_speedup: generate_sweep_serial_ms / generate_sweep_parallel_ms,
        total_serial_ms,
        total_parallel_ms,
        total_speedup: total_serial_ms / total_parallel_ms,
        outputs_bit_identical: true,
    }
}

/// Compares a committed baseline's measurement shape against the current
/// run configuration. Returns a human-readable description of the mismatch
/// when the baseline was measured with a different pool size or on a host
/// with different parallelism — regenerating over such a baseline would
/// silently shift what the gate's thresholds mean.
pub fn baseline_shape_mismatch(
    baseline: &PipelineReport,
    pool_threads: usize,
    host_parallelism: usize,
) -> Option<String> {
    let mut diffs = Vec::new();
    if baseline.pool_threads != pool_threads {
        diffs.push(format!(
            "pool_threads: baseline {} vs current {}",
            baseline.pool_threads, pool_threads
        ));
    }
    if baseline.host_parallelism != host_parallelism {
        diffs.push(format!(
            "host_parallelism: baseline {} vs current {}",
            baseline.host_parallelism, host_parallelism
        ));
    }
    if diffs.is_empty() {
        None
    } else {
        Some(diffs.join("; "))
    }
}

fn stage(name: &str, serial_ms: f64, parallel_ms: f64) -> StageTiming {
    StageTiming {
        stage: name.to_string(),
        serial_ms,
        parallel_ms,
        speedup: serial_ms / parallel_ms,
        // Filled from the registry snapshot once every stage has run.
        span_total_ms: 0.0,
        pool_busy_ms: 0.0,
    }
}

/// Renders a human-readable summary of a report.
pub fn render_report(r: &PipelineReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "pipeline @ {} scale, seed {}, {} pool threads ({} host), best of {}",
        r.scale, r.seed, r.pool_threads, r.host_parallelism, r.repeats
    );
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>12} {:>9} {:>12} {:>12}",
        "stage", "serial ms", "parallel ms", "speedup", "span ms", "busy ms"
    );
    for s in &r.stages {
        let _ = writeln!(
            out,
            "{:<18} {:>12.2} {:>12.2} {:>8.2}x {:>12.2} {:>12.2}",
            s.stage, s.serial_ms, s.parallel_ms, s.speedup, s.span_total_ms, s.pool_busy_ms
        );
    }
    let _ = writeln!(
        out,
        "{:<18} {:>12.2} {:>12.2} {:>8.2}x",
        "generate+sweep",
        r.generate_sweep_serial_ms,
        r.generate_sweep_parallel_ms,
        r.generate_sweep_speedup
    );
    let _ = writeln!(
        out,
        "{:<18} {:>12.2} {:>12.2} {:>8.2}x",
        "total", r.total_serial_ms, r.total_parallel_ms, r.total_speedup
    );
    let _ = writeln!(out, "outputs bit-identical: {}", r.outputs_bit_identical);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_scale_pipeline_runs_and_verifies() {
        // The run itself asserts serial/parallel equality on every stage.
        let pool = Pool::new(2);
        let r = run_pipeline(Scale::Ci, 7, &pool, 1);
        assert_eq!(r.stages.len(), 4);
        assert_eq!(
            r.stages
                .iter()
                .map(|s| s.stage.as_str())
                .collect::<Vec<_>>(),
            ["generate", "normality-sweep", "trace-scan", "earlybird-sim"]
        );
        assert!(r.outputs_bit_identical);
        assert!(r.total_serial_ms > 0.0 && r.total_parallel_ms > 0.0);
        assert_eq!(r.apps, vec!["MiniFE", "MiniMD", "MiniQMC"]);
        assert!(r
            .stages
            .iter()
            .all(|s| s.speedup.is_finite() && s.speedup > 0.0));
        // The observability columns: every stage ran under a span on an
        // observed pool, so both views are populated and consistent.
        for s in &r.stages {
            assert!(
                s.span_total_ms > 0.0,
                "stage {} recorded no span time",
                s.stage
            );
            assert!(
                s.pool_busy_ms > 0.0,
                "stage {} recorded no pool busy time",
                s.stage
            );
            assert!(
                s.pool_busy_ms <= s.span_total_ms * r.pool_threads as f64,
                "stage {}: team busy time exceeds span wall × team size",
                s.stage
            );
        }
    }

    #[test]
    fn generic_workload_pipeline_stays_bit_identical() {
        // Satellite contract: the workload-generic pipeline (inline
        // synthetic model + mixture + metered real kernel) passes the same
        // serial-vs-parallel bit-identity assertions as the canonical one.
        use ebird_cluster::{MixtureComponent, RealKernelParams, WorkloadSpec};
        let specs = [
            WorkloadSpec::Named {
                name: "MiniFE".into(),
            },
            WorkloadSpec::Mixture {
                name: "fe+qmc".into(),
                components: vec![
                    MixtureComponent {
                        weight: 1.0,
                        spec: WorkloadSpec::Named {
                            name: "MiniFE".into(),
                        },
                    },
                    MixtureComponent {
                        weight: 1.0,
                        spec: WorkloadSpec::Named {
                            name: "MiniQMC".into(),
                        },
                    },
                ],
            },
            WorkloadSpec::RealKernel {
                app: "MiniMD".into(),
                params: RealKernelParams::default(),
            },
        ];
        let resolved: Vec<_> = specs.iter().map(|s| s.resolve().unwrap()).collect();
        let workloads: Vec<&dyn Workload> = resolved.iter().map(|w| w as &dyn Workload).collect();
        let cfg = JobConfig::new(1, 2, 8, 4);
        let pool = Pool::new(2);
        let r = run_pipeline_workloads(&workloads, "workload-ci", &cfg, 5, &pool, 1);
        assert!(r.outputs_bit_identical);
        assert_eq!(r.scale, "workload-ci");
        assert_eq!(
            r.apps,
            vec!["MiniFE", "mix(fe+qmc)", "real(MiniMD)"],
            "trace labels must be the workloads' canonical labels"
        );
    }

    #[test]
    fn report_serializes_and_renders() {
        let pool = Pool::new(1);
        let r = run_pipeline(Scale::Ci, 3, &pool, 1);
        let json = serde_json::to_string(&r).unwrap();
        let back: PipelineReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, 2);
        assert_eq!(back.stages.len(), r.stages.len());
        assert_eq!(back.scale, "ci");
        let text = render_report(&r);
        assert!(text.contains("generate+sweep"));
        assert!(text.contains("bit-identical: true"));
    }

    #[test]
    fn baseline_shape_mismatch_flags_config_drift() {
        let pool = Pool::new(1);
        let r = run_pipeline(Scale::Ci, 3, &pool, 1);
        assert_eq!(
            baseline_shape_mismatch(&r, r.pool_threads, r.host_parallelism),
            None
        );
        let msg = baseline_shape_mismatch(&r, r.pool_threads + 1, r.host_parallelism)
            .expect("pool drift must be flagged");
        assert!(msg.contains("pool_threads"), "{msg}");
        let msg = baseline_shape_mismatch(&r, r.pool_threads, r.host_parallelism + 4)
            .expect("host drift must be flagged");
        assert!(msg.contains("host_parallelism"), "{msg}");
        let both = baseline_shape_mismatch(&r, r.pool_threads + 1, r.host_parallelism + 4).unwrap();
        assert!(both.contains("pool_threads") && both.contains("host_parallelism"));
    }
}
