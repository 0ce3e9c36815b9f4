//! `suite` and `agree`: every workload, each run in a child process of this
//! same executable so that `peak_rss_mb` is per workload and a crash in one
//! costs that run's row, not the others' results.

use std::process::{Command, Stdio};

use crate::report::{parse_result, RunResult, CROSS_WORKLOAD, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{stats, Opts};

/// What a child run handed back, or why it handed back nothing.
type Outcome = Result<RunResult, String>;

/// Runs one workload in a child, echoes its `#` lines indented, and parses
/// its result. The child is always waited for.
fn child(workload: &str, trace: bool, opts: &Opts) -> Outcome {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with('#')) {
        println!("  {line}");
    }
    if !output.status.success() {
        return Err(format!("exited with {}", output.status));
    }
    parse_result(&stdout)
}

/// Announces a run, runs it, and says so at once if it failed.
fn announced(workload: &'static str, what: &str, trace: bool, opts: &Opts) -> Outcome {
    println!("== {workload}: {what}");
    let outcome = child(workload, trace, opts);
    if let Err(e) = &outcome {
        println!("RUN FAILED {workload} ({what}): {e}");
    }
    outcome
}

fn banner(opts: &Opts) {
    if opts.quick {
        println!("QUICK MODE: CI-scale inputs and {} s windows. These numbers are a smoke test of the harness and are not comparable with any other run.", opts.seconds);
    }
}

fn bound_text(bound: Option<f64>) -> String {
    bound.map_or_else(|| "demoted".to_string(), |b| format!("{b:.2}"))
}

fn end_to_end_table(results: &[(&str, Outcome)]) {
    println!(
        "\n{:<16} {:<14} {:>14} {:<5} {:>7} {:>9} {:>7}",
        "workload", "metric", "value", "unit", "bound", "attempted", "failed"
    );
    for (workload, outcome) in results {
        let result = match outcome {
            Ok(result) => result,
            Err(e) => {
                println!("{workload:<16} RUN FAILED: {e}");
                continue;
            }
        };
        for m in &END_TO_END {
            println!(
                "{:<16} {:<14} {:>14.4} {:<5} {:>7} {:>9} {:>7}",
                workload,
                m.name,
                result.value(m.name).unwrap_or(f64::NAN),
                m.unit,
                bound_text(m.bound),
                result.attempted,
                result.failed
            );
        }
        println!(
            "{:<16} {:<14} {:>14.4} {:<5} {:>7} {:>9} {:>7}",
            workload,
            "fail_ratio",
            result.failed as f64 / result.attempted.max(1) as f64,
            "ratio",
            "=0",
            result.attempted,
            result.failed
        );
    }
}

/// The two reconciliation ratios of [`CROSS_WORKLOAD`], in its order, from
/// the sibling workloads' layer tables; `None` where a run is missing.
fn cross_workload(layers: &[(&str, Outcome)]) -> [Option<f64>; 2] {
    let get = |workload: &str, name: &str| {
        let (_, outcome) = layers.iter().find(|(w, _)| *w == workload)?;
        outcome.as_ref().ok()?.value(name)
    };
    let scaling = || {
        Some(get("pipeline_serial", "op_wall_ms")? / (2.0 * get("pipeline_paper", "op_wall_ms")?))
    };
    let explained = || {
        let cold = |name| get("serve_cold", name);
        let per_cell_ms = cold("serve.scenario.compute_us_per_cell")? / 1e3
            + (cold("serve.encode_row_ns")? + cold("serve.cache.insert_ns")?) / 1e6;
        Some(
            (cold("serve.cells_per_op")? * per_cell_ms + get("serve_warm", "cpu_ms_per_op")?)
                / cold("cpu_ms_per_op")?,
        )
    };
    [scaling(), explained()]
}

/// Every workload untraced then traced; prints the end-to-end table and the
/// layer table. `Ok(false)` if any run or any op failed.
pub fn suite(opts: &Opts) -> Result<bool, String> {
    banner(opts);
    let mut gated = Vec::new();
    let mut layers = Vec::new();
    for (workload, _) in WORKLOADS {
        gated.push((workload, announced(workload, "end-to-end run", false, opts)));
        layers.push((workload, announced(workload, "traced run", true, opts)));
    }
    end_to_end_table(&gated);

    print!("\n{:<36} {:<6}", "layer metric", "unit");
    for (workload, _) in &layers {
        print!(" {workload:>16}");
    }
    println!();
    for (name, unit, _) in PER_LAYER {
        print!("{name:<36} {unit:<6}");
        for (_, outcome) in &layers {
            match outcome.as_ref().ok().and_then(|r| r.value(name)) {
                Some(v) => print!(" {v:>16.4}"),
                None => print!(" {:>16}", "run failed"),
            }
        }
        println!();
    }
    println!();
    for ((name, unit, what), value) in CROSS_WORKLOAD.iter().zip(cross_workload(&layers)) {
        match value {
            Some(v) => println!("{name:<36} {unit:<6} {v:>16.4}   {what}"),
            None => println!("{name:<36} {unit:<6} {:>16}   {what}", "run failed"),
        }
    }
    banner(opts);
    Ok(gated
        .iter()
        .chain(&layers)
        .all(|(_, outcome)| outcome.as_ref().is_ok_and(|r| r.correct)))
}

/// The end-to-end suite twice, the two runs of each workload back to back,
/// so that host drift over the suite's length hits both sets alike.
/// `Ok(false)` if any bounded metric's two values differ by more than its
/// bound, or any run or op failed.
pub fn agree(opts: &Opts) -> Result<bool, String> {
    banner(opts);
    let mut ok = true;
    let mut rows = Vec::new();
    for (i, (workload, _)) in WORKLOADS.into_iter().enumerate() {
        // Alternate which set goes first.
        let order = if i % 2 == 0 { ["A", "B"] } else { ["B", "A"] };
        let mut pair = order.map(|set| announced(workload, &format!("set {set}"), false, opts));
        if order[0] == "B" {
            pair.reverse();
        }
        let (a, b) = match pair {
            [Ok(a), Ok(b)] => (a, b),
            _ => {
                ok = false;
                rows.push(format!("{workload:<16} RUN FAILED"));
                continue;
            }
        };
        ok &= a.correct && b.correct;
        for m in &END_TO_END {
            let (va, vb) = (
                a.value(m.name).unwrap_or(f64::NAN),
                b.value(m.name).unwrap_or(f64::NAN),
            );
            let verdict = match m.bound {
                Some(bound) if stats::agree(va, vb, bound) => "ok",
                Some(_) => {
                    ok = false;
                    "DISAGREE"
                }
                None => "not gated",
            };
            rows.push(format!(
                "{:<16} {:<14} {:>12.4} {:>12.4} {:>8.2} % {:>8} {}",
                workload,
                m.name,
                va,
                vb,
                stats::worse_by(va.min(vb), va.max(vb)) * 100.0,
                bound_text(m.bound),
                verdict
            ));
        }
    }
    println!(
        "\n{:<16} {:<14} {:>12} {:>12} {:>10} {:>8}",
        "workload", "metric", "set A", "set B", "differ", "bound"
    );
    for row in rows {
        println!("{row}");
    }
    println!("{}", if ok { "AGREE" } else { "DISAGREE" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Metrics;

    #[test]
    fn cross_workload_ratios_come_from_the_sibling_runs() {
        let table = |entries: &[(&'static str, f64)]| -> Outcome {
            let values: Metrics = entries.iter().copied().collect();
            Ok(RunResult::per_layer(10, 0, &values))
        };
        let mut layers = vec![
            ("pipeline_paper", table(&[("op_wall_ms", 600.0)])),
            ("pipeline_serial", table(&[("op_wall_ms", 900.0)])),
            (
                "serve_cold",
                table(&[
                    ("cpu_ms_per_op", 30.0),
                    ("serve.cells_per_op", 200.0),
                    ("serve.scenario.compute_us_per_cell", 40.0),
                    ("serve.encode_row_ns", 6_000.0),
                    ("serve.cache.insert_ns", 4_000.0),
                ]),
            ),
            ("serve_warm", table(&[("cpu_ms_per_op", 2.0)])),
        ];
        // 900 / (2 x 600); (200 x (40 + 6 + 4) us + 2 ms) / 30 ms.
        let [scaling, explained] = cross_workload(&layers);
        assert_eq!(scaling, Some(0.75));
        assert!((explained.unwrap() - 0.4).abs() < 1e-12);
        // A sibling that failed leaves its ratio out and the other alone.
        layers[3].1 = Err("exited with 1".into());
        assert_eq!(cross_workload(&layers), [Some(0.75), None]);
    }
}
