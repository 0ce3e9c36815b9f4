//! The two pipeline workloads: one full generate → normality-sweep →
//! trace-scan → earlybird-sim pass per op, on a team of two
//! (`pipeline_paper`) or of one (`pipeline_serial`).

use std::time::Instant;

use crate::layers::{self, Metrics, Pipeline, PipelineOutput, STAGES};
use crate::stats::{self, BLOCKS};
use crate::sys::process_cpu_ns;
use crate::trace::TraceLog;
use crate::window::{Op, Window, Workload};
use crate::Opts;

/// The pipeline on a team of this many threads.
pub struct Team(pub usize);

pub struct Setup {
    pipeline: Pipeline,
    /// Outputs of the same campaign on one thread: every op is compared
    /// with them.
    reference: PipelineOutput,
    seed: u64,
}

/// Runs ops back to back for `seconds`. CPU is read around each op, so the
/// output check between ops is outside both the wall and the CPU figure.
fn window(setup: &mut Setup, seconds: f64, mut trace: Option<&mut TraceLog>) -> Window {
    let threads = setup.pipeline.threads();
    let mut ops = Vec::new();
    let mut cpu = Vec::new();
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let opened = Instant::now();
    loop {
        let start = Instant::now();
        let start_s = start.duration_since(opened).as_secs_f64();
        if start_s >= seconds {
            break;
        }
        let cpu_before = process_cpu_ns();
        let output = setup
            .pipeline
            .run_op(trace.as_deref_mut().map(|log| (log, attempted)));
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = (process_cpu_ns() - cpu_before) as f64 / 1e6;
        attempted += 1;
        match output.check(&setup.reference, threads) {
            Ok(()) => {
                ops.push(Op { start_s, wall_ms });
                cpu.push((start_s, cpu_ms));
            }
            Err(e) => failures.push(format!("op {attempted}: {e}")),
        }
    }
    Window {
        window_s: seconds,
        elapsed_s: opened.elapsed().as_secs_f64(),
        ops,
        block_cpu_ms_per_op: stats::per_block(
            &stats::split_blocks(&cpu, seconds, BLOCKS),
            stats::median,
        ),
        attempted,
        failures,
    }
}

impl Workload for Team {
    type Setup = Setup;
    const SETUPS: usize = 3;

    /// The one-thread reference outputs, then pool + arenas and one untimed
    /// warm-up op on the team under test (it fills the Shapiro–Wilk weight
    /// cache and faults the arenas in).
    fn set_up(&self, opts: &Opts) -> Result<Setup, String> {
        let reference = Pipeline::new(1, opts.quick, opts.seed).run_op(None);
        let mut pipeline = Pipeline::new(self.0, opts.quick, opts.seed);
        pipeline
            .run_op(None)
            .check(&reference, self.0)
            .map_err(|e| format!("warm-up op: {e}"))?;
        Ok(Setup {
            pipeline,
            reference,
            seed: opts.seed,
        })
    }

    fn tear_down(&self, _: Setup) -> Result<(), String> {
        Ok(())
    }

    fn window(&self, setup: &mut Setup, seconds: f64) -> Window {
        window(setup, seconds, None)
    }

    fn traced(&self, setup: &mut Setup, seconds: f64, out: &mut Metrics) -> Result<Window, String> {
        let busy_before = setup.pipeline.pool_busy();
        let mut log = TraceLog::new(Instant::now());
        let traced = window(setup, seconds, Some(&mut log));
        let busy_after = setup.pipeline.pool_busy();

        let ops = log.durations_ms("op").len().max(1) as f64;
        let [generate, sweep, scan, sim] = STAGES.map(|s| log.total_ms(s) / ops);
        out.insert("cluster.generate_ms", generate);
        out.insert("analysis.sweep_ms", sweep);
        out.insert("analysis.trace_scan_ms", scan);
        out.insert("analysis.delivery_sweep_ms", sim);
        // The op span's self time is what its four stage spans leave uncovered.
        out.insert(
            "analysis.stage_sum_ratio",
            1.0 - log.self_ms("op") / log.total_ms("op"),
        );
        out.insert("pipeline.samples_per_op", setup.reference.samples as f64);
        out.insert("pipeline.groups_per_op", setup.reference.groups as f64);

        // Team busy time as the pool's own observer booked it. What the team's
        // wall time holds beyond it is fork/join, chunking and skew.
        let busy_ms = busy_after
            .stage_ns
            .iter()
            .zip(busy_before.stage_ns)
            .map(|(after, before)| (after - before) as f64 / 1e6)
            .sum::<f64>()
            / ops;
        out.insert("runtime.busy_ms", busy_ms);
        out.insert(
            "runtime.overhead_ms",
            self.0 as f64 * (generate + sweep + scan + sim) - busy_ms,
        );
        let workers: Vec<f64> = busy_after
            .sweep_worker_ns
            .iter()
            .zip(&busy_before.sweep_worker_ns)
            .map(|(after, before)| (after - before) as f64)
            .collect();
        let max = workers.iter().copied().fold(0.0, f64::max);
        out.insert(
            "runtime.skew",
            max / stats::mean(&workers).unwrap_or(1.0).max(1.0),
        );

        layers::kernel_probes(setup.seed, out);
        Ok(traced)
    }

    fn work_per_op(&self, setup: &Setup) -> f64 {
        setup.reference.samples as f64
    }
}
