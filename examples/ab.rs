//! A/B command: the benchmark of a base revision against the working tree's,
//! as interleaved pairs judged by an exact sign test.
//!
//! ```sh
//! cargo run --release --example ab -- <rev> --workload serve_cold \
//!     [--workload W ...] [--pairs 10] [--seconds 25] [--seed 20230421]
//! cargo test --release --example ab        # the self-tests on synthetic pairs
//! ```
//!
//! `<rev>` is exported with `git archive` into `ebird-ab-<commit>` under the
//! temporary directory (`$TMPDIR`, else `/tmp`) and its `benchmark/` built
//! there offline, as the working tree's is built in place; an export that
//! already holds a build is reused. Each pair runs both binaries once, each
//! from its own checkout, with `--workload W --seconds S --seed N --trace 0`;
//! odd pairs run the base first and even pairs the change, so a drift of the
//! host over the session falls on both sides alike.
//!
//! For every metric of the run's JSON line and its `# demoted` line — all of
//! them lower-is-better — it prints the per-pair ratios (change / base, in
//! pair order), their median, the pairs the change won, the exact two-sided
//! sign-test p-value (ties dropped) and the order-statistic interval for the
//! median ratio at confidence ≥ 1 − α, then a verdict at α: `improved` or
//! `regressed` when the sign test rejects "either side wins a pair with
//! probability ½", else `no claim`. At 10 pairs and α = 0.05 a claim needs 9
//! wins of 10. Wall-time noise on a shared host only widens the interval; it
//! cannot make a claim more likely than α.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const USAGE: &str =
    "usage: ab <rev> --workload W [--workload W ...] [--pairs N] [--seconds S] [--seed N]";

/// The sign test's level, and one minus the median interval's confidence.
const ALPHA: f64 = 0.05;

/// One run's metrics, in the order its output names them, and its failed
/// operations.
#[derive(Debug)]
struct Run {
    metrics: Vec<(String, f64)>,
    failed: u64,
}

/// The metrics of `"name":{"value":v,...}` entries in `json`, in order.
fn metric_values(json: &str) -> Vec<(String, f64)> {
    const VALUE: &str = "\":{\"value\":";
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find(VALUE) {
        let name_start = rest[..at].rfind('"').map_or(0, |q| q + 1);
        let name = &rest[name_start..at];
        let number = &rest[at + VALUE.len()..];
        let end = number.find([',', '}']).unwrap_or(number.len());
        if let Ok(value) = number[..end].parse() {
            out.push((name.to_string(), value));
        }
        rest = &number[end..];
    }
    out
}

/// Reads one untraced run's standard output: its last line, the JSON
/// object, and the `# demoted` line before it.
fn parse_run(stdout: &str) -> Result<Run, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the run printed nothing")?;
    let failed = last
        .split("\"failed\":")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no `failed` count in `{last}`"))?;
    let mut metrics = metric_values(last);
    if let Some(demoted) = stdout.lines().find_map(|l| l.strip_prefix("# demoted ")) {
        metrics.extend(metric_values(demoted));
    }
    if metrics.is_empty() {
        return Err(format!("no metrics in `{last}`"));
    }
    Ok(Run { metrics, failed })
}

/// `n` choose `k`, as a float (exact for the pair counts used here).
fn choose(n: u64, k: u64) -> f64 {
    (0..k).fold(1.0, |c, i| c * (n - i) as f64 / (i + 1) as f64)
}

/// P(X ≤ k) for X ~ Binomial(n, ½).
fn binomial_cdf(n: u64, k: u64) -> f64 {
    (0..=k.min(n)).map(|i| choose(n, i)).sum::<f64>() / 2f64.powi(n as i32)
}

/// Exact two-sided sign-test p-value of `wins` against `losses`.
fn sign_test(wins: u64, losses: u64) -> f64 {
    let n = wins + losses;
    if n == 0 {
        return 1.0;
    }
    (2.0 * binomial_cdf(n, wins.min(losses))).min(1.0)
}

/// The distribution-free interval `[x(j), x(n+1-j)]` (1-based, sorted) for
/// the median of `n` samples, with the largest `j` whose coverage
/// 1 − 2·P(X ≤ j−1), X ~ Binomial(n, ½), is at least 1 − α; `None` when even
/// the widest interval covers less.
fn median_interval(sorted: &[f64], alpha: f64) -> Option<(f64, f64)> {
    let n = sorted.len() as u64;
    let j = (1..=n / 2)
        .take_while(|&j| 2.0 * binomial_cdf(n, j - 1) <= alpha)
        .last()?;
    Some((sorted[j as usize - 1], sorted[(n - j) as usize]))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// What a metric's pairs say.
#[derive(Debug)]
struct Judgement {
    /// Change / base, in pair order.
    ratios: Vec<f64>,
    median: f64,
    wins: u64,
    losses: u64,
    p: f64,
    interval: Option<(f64, f64)>,
    verdict: &'static str,
}

/// Judges lower-is-better `(base, change)` pairs at [`ALPHA`].
fn judge(pairs: &[(f64, f64)]) -> Judgement {
    let ratios: Vec<f64> = pairs.iter().map(|&(base, change)| change / base).collect();
    let wins = pairs.iter().filter(|(b, c)| c < b).count() as u64;
    let losses = pairs.iter().filter(|(b, c)| c > b).count() as u64;
    let p = sign_test(wins, losses);
    let verdict = match (p <= ALPHA, wins.cmp(&losses)) {
        (true, std::cmp::Ordering::Greater) => "improved",
        (true, std::cmp::Ordering::Less) => "regressed",
        _ => "no claim",
    };
    Judgement {
        median: median(&ratios),
        interval: median_interval(&sorted(&ratios), ALPHA),
        ratios,
        wins,
        losses,
        p,
        verdict,
    }
}

/// Runs `cmd` and returns its standard output, failing with its standard
/// error if it fails.
fn run(cmd: &mut Command) -> Result<String, String> {
    let out = cmd.output().map_err(|e| format!("running {cmd:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{cmd:?} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Builds the benchmark of the checkout at `root` offline, in its own
/// target directory, and returns the binary.
fn build(root: &Path) -> Result<PathBuf, String> {
    let target = root.join("benchmark/target");
    run(Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(root.join("benchmark/Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .stdout(Stdio::null()))?;
    Ok(target.join("release/ebird-benchmark"))
}

/// Exports commit `rev` of the repository at `repo` under the temporary
/// directory, unless an earlier export is there, and returns its root.
fn export(repo: &Path, rev: &str) -> Result<PathBuf, String> {
    let commit = run(Command::new("git").arg("-C").arg(repo).args([
        "rev-parse",
        "--verify",
        &format!("{rev}^{{commit}}"),
    ]))?;
    let commit = commit.trim();
    let root = std::env::temp_dir().join(format!("ebird-ab-{}", &commit[..12]));
    if root.join("benchmark/Cargo.toml").exists() {
        return Ok(root);
    }
    let partial = root.with_extension("partial");
    std::fs::remove_dir_all(&partial).ok();
    std::fs::create_dir_all(&partial).map_err(|e| format!("creating {partial:?}: {e}"))?;
    let mut archive = Command::new("git")
        .arg("-C")
        .arg(repo)
        .args(["archive", "--format=tar", commit])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("running git archive: {e}"))?;
    let tar = archive.stdout.take().ok_or("git archive has no stdout")?;
    run(Command::new("tar")
        .arg("-x")
        .arg("-C")
        .arg(&partial)
        .stdin(tar))?;
    let status = archive.wait().map_err(|e| format!("git archive: {e}"))?;
    if !status.success() {
        return Err(format!("git archive {commit} exited with {status}"));
    }
    std::fs::rename(&partial, &root).map_err(|e| format!("renaming {partial:?}: {e}"))?;
    Ok(root)
}

/// One untraced run of `bin` from `root`.
fn measure(bin: &Path, root: &Path, opts: &Opts, workload: &str) -> Result<Run, String> {
    let stdout = run(Command::new(bin)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--seed", &opts.seed.to_string()])
        .current_dir(root)
        .stderr(Stdio::null()))?;
    parse_run(&stdout)
}

struct Opts {
    rev: String,
    workloads: Vec<String>,
    pairs: usize,
    seconds: f64,
    seed: u64,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        rev: String::new(),
        workloads: Vec::new(),
        pairs: 10,
        seconds: 25.0,
        seed: 20230421,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        let bad = |e: &dyn std::fmt::Display| format!("bad {arg}: {e}");
        match arg.as_str() {
            "--workload" => opts.workloads.push(value()?.clone()),
            "--pairs" => opts.pairs = value()?.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value()?.parse().map_err(|e| bad(&e))?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| bad(&e))?,
            rev if opts.rev.is_empty() && !rev.starts_with('-') => opts.rev = rev.to_string(),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if opts.rev.is_empty() || opts.workloads.is_empty() {
        return Err("a revision and at least one --workload are required".into());
    }
    if opts.pairs == 0 {
        return Err("--pairs must be positive".into());
    }
    Ok(opts)
}

fn print_judgement(name: &str, base: &[f64], change: &[f64], j: &Judgement) {
    let ratios: Vec<String> = j.ratios.iter().map(|r| format!("{r:.3}")).collect();
    let interval = j.interval.map_or("too few pairs".to_string(), |(lo, hi)| {
        format!("[{lo:.3}, {hi:.3}]")
    });
    println!(
        "  {name}: median {:.4} -> {:.4}; ratios {}",
        median(base),
        median(change),
        ratios.join(" ")
    );
    println!(
        "    median ratio {:.3}, won {}/{} (lost {}), sign-test p = {:.4}, interval {interval} -> {}",
        j.median,
        j.wins,
        j.ratios.len(),
        j.losses,
        j.p,
        j.verdict
    );
}

fn main_result() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).map_err(|e| format!("{e}\n{USAGE}"))?;
    let repo =
        PathBuf::from(run(Command::new("git").args(["rev-parse", "--show-toplevel"]))?.trim());
    let base_root = export(&repo, &opts.rev)?;
    eprintln!(
        "ab: building {} and {}",
        base_root.display(),
        repo.display()
    );
    let sides = [
        (build(&base_root)?, base_root.clone()),
        (build(&repo)?, repo.clone()),
    ];
    for workload in &opts.workloads {
        println!(
            "{workload}: {} pairs of {} s at seed {}, base {} vs the working tree, alpha {ALPHA}",
            opts.pairs, opts.seconds, opts.seed, opts.rev
        );
        let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
        for pair in 0..opts.pairs {
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let (bin, root) = &sides[side];
                let run = measure(bin, root, &opts, workload)?;
                eprintln!(
                    "ab: {workload} pair {} {}: {:?}",
                    pair + 1,
                    ["base", "change"][side],
                    run.metrics
                );
                runs[side].push(run);
            }
        }
        for (side, runs) in ["base", "change"].iter().zip(&runs) {
            let failed: u64 = runs.iter().map(|r| r.failed).sum();
            if failed > 0 {
                println!("  {side}: {failed} failed operation(s)");
            }
        }
        for (name, _) in &runs[0][0].metrics {
            let values = |side: &Vec<Run>| -> Option<Vec<f64>> {
                side.iter()
                    .map(|r| r.metrics.iter().find(|(n, _)| n == name).map(|m| m.1))
                    .collect()
            };
            let (Some(base), Some(change)) = (values(&runs[0]), values(&runs[1])) else {
                println!("  {name}: not in every run");
                continue;
            };
            let pairs: Vec<(f64, f64)> = base.iter().copied().zip(change.iter().copied()).collect();
            print_judgement(name, &base, &change, &judge(&pairs));
        }
    }
    Ok(())
}

fn main() {
    if let Err(e) = main_result() {
        eprintln!("ab: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic stream of uniform draws in [0, 1) (splitmix64).
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as f64 / 2f64.powi(64)
        }

        /// A run reading `1 ± 15 %`, times `scale`.
        fn run(&mut self, scale: f64) -> f64 {
            scale * (0.85 + 0.3 * self.next())
        }
    }

    /// Verdicts of `trials` synthetic 10-pair experiments whose change runs
    /// `handicap` times the base.
    fn verdicts(seed: u64, trials: usize, handicap: f64) -> Vec<&'static str> {
        let mut draws = Draws(seed);
        (0..trials)
            .map(|_| {
                let pairs: Vec<(f64, f64)> = (0..10)
                    .map(|_| (draws.run(1.0), draws.run(handicap)))
                    .collect();
                judge(&pairs).verdict
            })
            .collect()
    }

    #[test]
    fn a_against_a_claims_no_more_often_than_alpha() {
        let v = verdicts(1, 4_000, 1.0);
        let claims = v.iter().filter(|&&v| v != "no claim").count();
        // The exact size of the 10-pair sign test at 0.05 is 22/1024.
        assert!(
            (claims as f64) / (v.len() as f64) <= 0.05,
            "{claims} claims in {}",
            v.len()
        );
        assert_eq!(verdicts(7, 1, 1.0), ["no claim"]);
    }

    #[test]
    fn a_one_and_a_quarter_handicap_is_detected() {
        let slower = verdicts(2, 1_000, 1.25);
        let faster = verdicts(3, 1_000, 1.0 / 1.25);
        // A pair is lost with probability 0.034 at this noise, so 9 of 10
        // are won in 95.6 % of experiments; the rest read `no claim`.
        let count = |v: &[&str], verdict| v.iter().filter(|&&v| v == verdict).count();
        assert!(count(&slower, "regressed") >= 900 && count(&slower, "improved") == 0);
        assert!(count(&faster, "improved") >= 900 && count(&faster, "regressed") == 0);
    }

    #[test]
    fn the_sign_test_and_the_interval_are_the_closed_forms() {
        // 9 of 10: 2 · (1 + 10) / 1024; 8 of 10: 2 · 56 / 1024.
        assert!((sign_test(9, 1) - 22.0 / 1024.0).abs() < 1e-15);
        assert!((sign_test(2, 8) - 112.0 / 1024.0).abs() < 1e-15);
        assert_eq!(sign_test(0, 0), 1.0);
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        // At n = 10 and α = 0.05, j = 2: coverage 1 − 2 · 11/1024 ≥ 0.95.
        assert_eq!(median_interval(&sorted, 0.05), Some((2.0, 9.0)));
        // Five pairs cannot reach 95 %: the widest interval covers 15/16.
        assert_eq!(median_interval(&sorted[..5], 0.05), None);
        let j = judge(&[(1.0, 0.5); 10]);
        assert_eq!(
            (j.wins, j.losses, j.median, j.verdict),
            (10, 0, 0.5, "improved")
        );
        let j = judge(&[(1.0, 1.0); 10]);
        assert_eq!((j.wins, j.p, j.verdict), (0, 1.0, "no claim"));
    }

    #[test]
    fn a_run_is_read_from_its_last_line_and_its_demoted_line() {
        let stdout = "# header\n\
            # demoted {\"op_wall_ms\":{\"value\":5.8,\"unit\":\"ms\"},\"cpu_ms_per_op\":{\"value\":4.7,\"unit\":\"ms\"}}\n\
            {\"correct\":true,\"attempted\":2055,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.1,\"unit\":\"s\"},\"peak_rss_mb\":{\"value\":50.7,\"unit\":\"MB\"}}}\n";
        let run = parse_run(stdout).unwrap();
        assert_eq!(run.failed, 0);
        let names: Vec<&str> = run.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["setup_s", "peak_rss_mb", "op_wall_ms", "cpu_ms_per_op"]
        );
        assert_eq!(run.metrics[1].1, 50.7);
        assert!(parse_run("").is_err());
    }
}
