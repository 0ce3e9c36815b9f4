//! One measured window — the ops that ran in it, split into blocks, and the
//! statistics reported from it — and the run every workload shares: set-up,
//! windows, tear-down, result.

use std::time::Instant;

use crate::layers::Metrics;
use crate::report::{Measured, RunResult};
use crate::stats::{self, BLOCKS};
use crate::{calibrate, Opts};

/// One op as its caller saw it.
#[derive(Debug, Clone)]
pub struct Op {
    /// When the op started, seconds after the window opened.
    pub start_s: f64,
    /// Wall time of the op: for serve, the client-observed round trip.
    pub wall_ms: f64,
}

/// A finished window.
#[derive(Debug, Clone)]
pub struct Window {
    /// Length the window was asked to run for.
    pub window_s: f64,
    /// From the window's opening until its last op had completed.
    pub elapsed_s: f64,
    /// Every op that completed and passed its output check, in no
    /// particular order (two clients interleave).
    pub ops: Vec<Op>,
    /// Per block: process CPU (ms) per op completed in the block.
    pub block_cpu_ms_per_op: Vec<f64>,
    /// Ops started.
    pub attempted: u64,
    /// One line per op that failed, was refused or failed its output check.
    pub failures: Vec<String>,
}

impl Window {
    /// Per block, the median of the op wall times.
    fn block_walls(&self) -> Vec<f64> {
        let samples: Vec<(f64, f64)> = self.ops.iter().map(|o| (o.start_s, o.wall_ms)).collect();
        stats::per_block(
            &stats::split_blocks(&samples, self.window_s, BLOCKS),
            stats::median,
        )
    }

    pub fn walls_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.wall_ms).collect()
    }

    /// Median over the blocks of the per-block median op wall time.
    pub fn op_wall_ms(&self) -> Result<f64, String> {
        stats::median(&self.block_walls()).ok_or_else(|| "no op completed in the window".into())
    }

    /// Median over the blocks of the per-block CPU per op.
    pub fn cpu_ms_per_op(&self) -> Result<f64, String> {
        stats::median(&self.block_cpu_ms_per_op)
            .ok_or_else(|| "no block of the window completed an op".into())
    }

    /// `(max − min) ÷ median` of the per-block wall times, percent.
    pub fn block_spread_pct(&self) -> f64 {
        stats::spread_pct(&self.block_walls())
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The window's `#` lines: its size, its tail, its two timings, and one
    /// line per failed op.
    pub fn render(&self, label: &str) -> String {
        let walls = self.walls_ms();
        let tail = stats::hi_percentile(&walls).map_or_else(
            || "fewer than 11 samples, no tail percentile".to_string(),
            |(v, p)| format!("p{p:.1} {v:.3} ms (highest percentile with 10 samples beyond it)"),
        );
        let mut text = format!(
            "# {label}: {:.1} s window, {} blocks, {} ops attempted, {} failed, {} samples\n\
             #   block medians spread {:.2} % of their median; {tail}\n\
             #   op_wall_ms {:.4}, cpu_ms_per_op {:.4}\n",
            self.window_s,
            BLOCKS,
            self.attempted,
            self.failed(),
            self.ops.len(),
            self.block_spread_pct(),
            self.op_wall_ms().unwrap_or(f64::NAN),
            self.cpu_ms_per_op().unwrap_or(f64::NAN),
        );
        for failure in &self.failures {
            text.push_str(&format!("# FAILED {failure}\n"));
        }
        text
    }
}

/// Share of a traced run's `--seconds` given to each of its two windows; the
/// rest is left for the set-up and the probes.
const TRACED_SHARE: f64 = 0.4;

/// What a workload driver provides; [`run`] does the rest.
pub trait Workload {
    /// What set-up leaves behind for the windows to use.
    type Setup;
    /// Times an untraced run repeats the set-up; `setup_s` is the median.
    const SETUPS: usize;

    /// Everything between process start and the window.
    fn set_up(&self, opts: &Opts) -> Result<Self::Setup, String>;
    /// Stops what `set_up` started. Called on every path out of a run.
    fn tear_down(&self, setup: Self::Setup) -> Result<(), String>;
    /// Runs ops for `seconds`, recording nothing but what [`Window`] holds.
    fn window(&self, setup: &mut Self::Setup, seconds: f64) -> Window;
    /// Runs ops for `seconds` with spans and counters on, then the
    /// single-threaded probes of the layers this workload exercises; puts
    /// the per-layer metrics into `out`.
    fn traced(
        &self,
        setup: &mut Self::Setup,
        seconds: f64,
        out: &mut Metrics,
    ) -> Result<Window, String>;
    /// Units of work (thread samples, rows) in one op.
    fn work_per_op(&self, setup: &Self::Setup) -> f64;
}

/// One run of `workload`: untraced for the end-to-end metrics, traced for
/// the layer table.
pub fn run<W: Workload>(
    workload: &W,
    opts: &Opts,
    floor: &calibrate::Floor,
) -> Result<RunResult, String> {
    if opts.trace {
        let mut setup = workload.set_up(opts)?;
        let measured = traced_run(workload, &mut setup, opts, floor);
        workload.tear_down(setup)?;
        return measured;
    }
    let mut setup_s = Vec::with_capacity(W::SETUPS);
    let mut setup = None;
    for _ in 0..W::SETUPS {
        if let Some(old) = setup.take() {
            workload.tear_down(old)?;
        }
        let t = Instant::now();
        setup = Some(workload.set_up(opts)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut setup = setup.expect("at least one set-up");
    let w = workload.window(&mut setup, opts.seconds);
    workload.tear_down(setup)?;
    print!("{}", w.render(opts.workload));
    let each: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("#   setup_s: median of {} s", each.join(" "));
    Ok(RunResult::end_to_end(
        w.attempted,
        w.failed(),
        &Measured {
            op_wall_ms: w.op_wall_ms()?,
            cpu_ms_per_op: w.cpu_ms_per_op()?,
            setup_s: stats::median(&setup_s).expect("set-ups ran"),
            peak_rss_mb: crate::sys::peak_rss_mb()?,
        },
    ))
}

/// An untraced window, then a traced window of the same ops: the second
/// gives the layer metrics, their difference is the tracing overhead, and
/// the first gives the two timings the layer table repeats.
fn traced_run<W: Workload>(
    workload: &W,
    setup: &mut W::Setup,
    opts: &Opts,
    floor: &calibrate::Floor,
) -> Result<RunResult, String> {
    let mut out = Metrics::new();
    floor.record(&mut out);
    let seconds = opts.seconds * TRACED_SHARE;
    let plain = workload.window(setup, seconds);
    let traced = workload.traced(setup, seconds, &mut out)?;
    print!("{}", plain.render("untraced"));
    print!("{}", traced.render("traced"));

    let wall = plain.op_wall_ms()?;
    out.insert("op_wall_ms", wall);
    out.insert("cpu_ms_per_op", plain.cpu_ms_per_op()?);
    out.insert(
        "bench.trace_overhead_pct",
        (traced.op_wall_ms()? - wall) / wall * 100.0,
    );
    out.insert("bench.block_spread_pct", traced.block_spread_pct());
    let pooled: Vec<f64> = plain
        .walls_ms()
        .into_iter()
        .chain(traced.walls_ms())
        .collect();
    if let Some((value, pct)) = stats::hi_percentile(&pooled) {
        out.insert("bench.op_wall_hi_ms", value);
        out.insert("bench.op_wall_hi_pct", pct);
    }
    out.insert("bench.samples", pooled.len() as f64);
    out.insert(
        "bench.work_per_s",
        workload.work_per_op(setup) * plain.ops.len() as f64 / plain.elapsed_s,
    );
    Ok(RunResult::per_layer(
        plain.attempted + traced.attempted,
        plain.failed() + traced.failed(),
        &out,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_reports_median_over_block_medians() {
        let ops = [
            (0.1, 10.0),
            (0.5, 12.0),
            (0.9, 11.0),
            (1.2, 11.0),
            (2.5, 30.0),
            (3.1, 11.0),
            (4.9, 13.0),
        ]
        .map(|(start_s, wall_ms)| Op { start_s, wall_ms })
        .to_vec();
        let w = Window {
            window_s: 5.0,
            elapsed_s: 5.1,
            ops,
            block_cpu_ms_per_op: vec![20.0, 22.0, 60.0, 21.0, 23.0],
            attempted: 8,
            failures: vec!["op 7: refused".into()],
        };
        // Block medians 11, 11, 30, 11, 13: the disturbed block moves nothing.
        assert_eq!(w.op_wall_ms().unwrap(), 11.0);
        assert_eq!(w.cpu_ms_per_op().unwrap(), 22.0);
        assert_eq!(w.failed(), 1);
        assert!(w
            .render("x")
            .contains("8 ops attempted, 1 failed, 7 samples"));
        let empty = Window {
            ops: vec![],
            block_cpu_ms_per_op: vec![],
            ..w
        };
        assert!(empty.op_wall_ms().is_err() && empty.cpu_ms_per_op().is_err());
    }
}
