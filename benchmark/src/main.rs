//! `ebird-benchmark` — the repository's benchmark.
//!
//! ```text
//! ebird-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ebird-benchmark suite  [--seed N] [--seconds S] [--quick]
//! ebird-benchmark agree  [--seed N] [--seconds S] [--quick]
//! ```
//!
//! The first form runs one workload in this process and prints, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the bounded end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `suite` runs every
//! workload both ways, each in a child process of its own (so peak memory is
//! per workload), and prints the two tables. `agree` runs the end-to-end
//! suite twice and exits non-zero if two measurements of the same code
//! differ by more than a metric's bound. See `README.md` beside this crate.

mod calibrate;
mod layers;
mod pipeline;
mod report;
mod serve;
mod stats;
mod suite;
mod sys;
mod trace;
mod window;

use std::process::ExitCode;

/// Seed used when none is given (the workspace default, the paper's date).
const DEFAULT_SEED: u64 = 20230421;
/// Window length used when none is given; `BENCHMARK.json` passes the same.
const DEFAULT_SECONDS: f64 = 25.0;
/// Window length of `--quick` runs: CI-scale inputs, not comparable.
const QUICK_SECONDS: f64 = 1.0;

/// One run's options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// CI-scale inputs (1 600-sample campaigns, 48-cell matrices): a smoke
    /// test of the harness whose numbers compare with nothing.
    pub quick: bool,
}

enum Command {
    Run,
    Suite,
    Agree,
}

const USAGE: &str = "usage: ebird-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]\n       ebird-benchmark suite|agree [--seed N] [--seconds S] [--quick]\nworkloads: pipeline_paper pipeline_serial serve_cold serve_warm";

fn parse(args: &[String]) -> Result<(Command, Opts), String> {
    let mut command = Command::Run;
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut it = args.iter().peekable();
    match it.peek().map(|s| s.as_str()) {
        Some("suite") => {
            command = Command::Suite;
            it.next();
        }
        Some("agree") => {
            command = Command::Agree;
            it.next();
        }
        _ => {}
    }
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    report::WORKLOADS
                        .iter()
                        .map(|(n, _)| *n)
                        .find(|n| n == name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|e| format!("bad seed `{v}`: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|e| format!("bad seconds `{v}`: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {v}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            "--quick" => quick = true,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let workload = match (&command, workload) {
        (Command::Run, None) => return Err("--workload is required".into()),
        (Command::Run, Some(w)) => w,
        (_, Some(_)) => return Err("suite and agree run every workload".into()),
        (_, None) => "",
    };
    Ok((
        command,
        Opts {
            workload,
            seed,
            seconds: seconds.unwrap_or(if quick {
                QUICK_SECONDS
            } else {
                DEFAULT_SECONDS
            }),
            trace,
            quick,
        },
    ))
}

/// One workload, in this process.
fn run(opts: &Opts) -> Result<report::RunResult, String> {
    println!(
        "# ebird-benchmark {} seed {} window {} s trace {}{}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.quick {
            " QUICK (CI-scale inputs: not comparable with any other run)"
        } else {
            ""
        }
    );
    if sys::nproc() < 2 {
        eprintln!(
            "warning: {} core available; pool, server and clients are sized for 2, so every \
             two-thread number here measures time-slicing",
            sys::nproc()
        );
    }
    let floor = calibrate::measure()?;
    print!("{}", floor.render());
    let result = match opts.workload {
        "pipeline_paper" => window::run(&pipeline::Team(2), opts, &floor),
        "pipeline_serial" => window::run(&pipeline::Team(1), opts, &floor),
        "serve_cold" => window::run(&serve::Mode::Cold, opts, &floor),
        "serve_warm" => window::run(&serve::Mode::Warm, opts, &floor),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    if !opts.trace {
        if let Some((name, _, v)) = result
            .metrics
            .iter()
            .chain(&result.demoted)
            .find(|(_, _, v)| !(v.is_finite() && *v > 0.0))
        {
            return Err(format!("end-to-end metric {name} measured {v}"));
        }
    }
    Ok(result)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        Command::Run => run(&opts).map(|result| {
            if !opts.trace {
                println!("{}", result.demoted_line());
            }
            println!("{}", result.json_line());
            true
        }),
        Command::Suite => suite::suite(&opts),
        Command::Agree => suite::agree(&opts),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let (_, opts) = parse(&args(
            "--workload serve_warm --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(opts.workload, "serve_warm");
        assert_eq!(
            (opts.seed, opts.seconds, opts.trace, opts.quick),
            (7, 20.0, true, false)
        );
        let (_, opts) = parse(&args("suite --quick")).unwrap();
        assert_eq!(
            (opts.seed, opts.seconds, opts.quick),
            (DEFAULT_SEED, QUICK_SECONDS, true)
        );
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seed 3")).is_err(), "a run needs a workload");
        assert!(parse(&args("--workload serve_warm --trace 2")).is_err());
        assert!(parse(&args("--workload serve_warm --seconds 0")).is_err());
        assert!(parse(&args("agree --workload serve_warm")).is_err());
    }
}
