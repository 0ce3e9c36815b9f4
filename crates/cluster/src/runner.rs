//! Campaign runner for the *real* proxy applications.
//!
//! [`run_real_campaign`] reproduces the paper's experimental procedure on
//! live code: for each trial and each rank, build a fresh application
//! instance, run `iterations` instrumented iterations, and copy each
//! iteration's per-thread samples into the campaign's [`TimingTrace`].
//!
//! A [`RealTiming::Wall`] campaign steps on a live team of `threads`
//! members, because the team is the paper's measurement. A
//! [`RealTiming::Metered`] campaign steps its kernel on one member: its
//! samples are the `threads`-way partition's operation counts, which the
//! team that ran the step does not move (the [`ProxyApp::step`] contract),
//! so it forks no team.
//!
//! Ranks run sequentially inside one process. The measured compute sections
//! never communicate (the paper's apps only message *between* sections), so
//! rank-level concurrency would only add host-scheduler interference to the
//! measurements without changing what is measured.
//!
//! Nothing here communicates: scenario pricing needs thread arrivals only.
//!
//! [`ProxyApp::step`]: ebird_apps::ProxyApp::step

use ebird_core::{ThreadSample, TimingTrace};
use ebird_runtime::{Pool, TimeSource, WallClock};

use crate::job::JobConfig;

/// Errors from a real-application campaign.
#[derive(Debug)]
pub enum RunnerError {
    /// The campaign configuration is unusable (zero-sized dimension —
    /// reachable because [`JobConfig`]'s fields are public — or a
    /// non-positive metered clock rate), or an app yielded a per-thread
    /// vector of the wrong length.
    Config(String),
    /// An application instance failed its post-run invariant check.
    AppInvariant {
        /// Trial index of the failing instance.
        trial: usize,
        /// Rank index of the failing instance.
        rank: usize,
        /// The application's description of the violation.
        message: String,
    },
    /// A measured sample reached [`ThreadSample::CEILING_NS`] (≈ 4.29 s),
    /// the largest compute time a sample holds: filing it would record the
    /// ceiling, not the measurement.
    SampleOverflow {
        /// Trial index of the sample.
        trial: usize,
        /// Rank index of the sample.
        rank: usize,
        /// Iteration index of the sample.
        iteration: usize,
        /// Thread index of the sample.
        thread: usize,
    },
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunnerError::Config(message) => write!(f, "campaign config: {message}"),
            RunnerError::AppInvariant {
                trial,
                rank,
                message,
            } => write!(
                f,
                "app invariant violated at trial {trial} rank {rank}: {message}"
            ),
            RunnerError::SampleOverflow {
                trial,
                rank,
                iteration,
                thread,
            } => write!(
                f,
                "sample at (trial, rank, iteration, thread) = ({trial}, {rank}, {iteration}, {thread}) \
                 reached the {} ns ceiling a sample holds",
                ThreadSample::CEILING_NS
            ),
        }
    }
}

impl std::error::Error for RunnerError {}

/// How a real-application campaign derives per-thread timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RealTiming {
    /// Wall-clock stamps from a [`WallClock`] around each thread's
    /// loop share — the paper's Listing-1 procedure. Host-dependent, so two
    /// runs never produce the same bytes.
    Wall,
    /// Deterministic work-metered stamps: thread `t`'s compute time is its
    /// [`thread_ops`](ebird_apps::ProxyApp::thread_ops) count × `ns_per_op`.
    /// The kernels still execute for real (state trajectories, invariant
    /// checks), but the clock is the operation count — so the same seed and
    /// parameters yield a bit-identical [`TimingTrace`] on any host, the
    /// property the `RealKernel` workload cache relies on. The kernel runs
    /// on one member: an operation count of the `threads`-way partition
    /// does not depend on the team that stepped it, so no team is forked.
    Metered {
        /// Nanoseconds charged per inner-loop operation (must be finite
        /// and positive).
        ns_per_op: f64,
    },
}

/// Runs a full campaign of a real application.
///
/// `factory(trial, rank)` builds one application instance per (trial, rank)
/// pair — instances must be independent, like separate MPI processes. The
/// returned trace has shape `cfg.shape()` and the application name of the
/// first instance. `timing` selects wall-clock measurement or the
/// deterministic work-metered clock (see [`RealTiming`]).
///
/// Each iteration yields one per-thread vector — under [`RealTiming::Wall`]
/// the samples of a step on a `cfg.threads` team, under
/// [`RealTiming::Metered`] the `cfg.threads`-way operation counts of a step
/// on one member, priced at `ns_per_op` — whose length is checked once and
/// appended to the trace's column.
///
/// # Errors
/// [`RunnerError::Config`] if any campaign dimension is zero (reachable by
/// constructing [`JobConfig`] literally, bypassing [`JobConfig::new`]), the
/// metered `ns_per_op` is not finite-positive, or an iteration yields a
/// per-thread vector whose length is not `cfg.threads` (the message names
/// the app, `(trial, rank, iteration)` and both lengths);
/// [`RunnerError::SampleOverflow`] if a sample reaches
/// [`ThreadSample::CEILING_NS`] — measured samples are never clipped;
/// [`RunnerError::AppInvariant`] if any instance fails [`ProxyApp::verify`]
/// after its run.
///
/// [`ProxyApp::verify`]: ebird_apps::ProxyApp::verify
pub fn run_real_campaign<F>(
    cfg: &JobConfig,
    mut factory: F,
    timing: RealTiming,
) -> Result<TimingTrace, RunnerError>
where
    F: FnMut(usize, usize) -> Box<dyn ebird_apps::ProxyApp>,
{
    if cfg.trials == 0 || cfg.ranks == 0 || cfg.iterations == 0 || cfg.threads == 0 {
        return Err(RunnerError::Config(format!(
            "all campaign dimensions must be ≥ 1, got {} trials × {} ranks × {} iterations × {} threads",
            cfg.trials, cfg.ranks, cfg.iterations, cfg.threads
        )));
    }
    if let RealTiming::Metered { ns_per_op } = timing {
        if !(ns_per_op.is_finite() && ns_per_op > 0.0) {
            return Err(RunnerError::Config(format!(
                "metered ns_per_op {ns_per_op} must be finite and positive"
            )));
        }
    }
    // The team is what a wall campaign measures; a metered sample is an
    // operation count no team size moves (`ProxyApp::step`), so it forks none.
    let wall = WallClock::new();
    let (pool, clock): (Pool, Option<&dyn TimeSource>) = match timing {
        RealTiming::Wall => (Pool::new(cfg.threads), Some(&wall)),
        RealTiming::Metered { .. } => (Pool::new(1), None),
    };
    // Steps run in trace order (trial, rank, iteration), so each one's
    // per-thread samples are the column's next `threads` entries.
    let mut name = None;
    let mut column = Vec::with_capacity(cfg.shape().total_samples());
    for trial in 0..cfg.trials {
        for rank in 0..cfg.ranks {
            let mut app = factory(trial, rank);
            name.get_or_insert(app.name());
            for iteration in 0..cfg.iterations {
                let samples = app.step(&pool, clock);
                let samples = match timing {
                    RealTiming::Wall => samples,
                    // Clamp to ≥ 1 ns: samples must stay positive even for
                    // a degenerate zero-work partition.
                    RealTiming::Metered { ns_per_op } => app
                        .thread_ops(cfg.threads)
                        .iter()
                        .map(|&n| {
                            ThreadSample::new(0, ((n as f64 * ns_per_op).round() as u64).max(1))
                        })
                        .collect(),
                };
                // A vector of another length would shift every later unit
                // of the column — misattributed arrivals in every later
                // stage — so it ends the campaign
                // (ProxyApp is a public trait; downstream impls can skip
                // their timed section or miscount their threads).
                if samples.len() != cfg.threads {
                    return Err(RunnerError::Config(format!(
                        "app `{}` yielded {} per-thread samples for {} threads at (trial, rank, iteration) = ({trial}, {rank}, {iteration})",
                        app.name(),
                        samples.len(),
                        cfg.threads
                    )));
                }
                // A sample is filed only below the ceiling: one at it may
                // stand for a longer measurement `ThreadSample::new` cut.
                if let Some(thread) = samples
                    .iter()
                    .position(|s| s.compute_time_ns() >= ThreadSample::CEILING_NS)
                {
                    return Err(RunnerError::SampleOverflow {
                        trial,
                        rank,
                        iteration,
                        thread,
                    });
                }
                column.extend_from_slice(&samples);
            }
            app.verify().map_err(|message| RunnerError::AppInvariant {
                trial,
                rank,
                message,
            })?;
        }
    }
    let name = name.expect("cfg dimensions validated above");
    Ok(TimingTrace::from_samples(name, cfg.shape(), column)
        .expect("every step was checked to hold cfg.threads samples"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebird_apps::{MiniFe, MiniFeParams};
    use ebird_core::view::fill_group_ms;
    use ebird_core::AggregationLevel;

    #[test]
    fn all_three_kernels_run_under_both_timings() {
        let cfg = JobConfig::new(1, 2, 3, 2);
        for timing in [RealTiming::Wall, RealTiming::Metered { ns_per_op: 100.0 }] {
            for name in crate::BUILTIN_WORKLOAD_NAMES {
                let trace = crate::RealKernelParams::default()
                    .run_campaign(name, &cfg, 99, timing)
                    .unwrap();
                assert_eq!(trace.app(), name);
                assert_eq!(trace.shape(), cfg.shape());
                // Every sample is a measurement (> 0 compute time).
                assert!(trace.samples().iter().all(|s| s.compute_time_ns() > 0));
            }
        }
    }

    #[test]
    fn metered_campaign_is_bit_deterministic() {
        // The RealKernel workload contract: same seed + params ⇒ the same
        // trace bytes, run to run — impossible for wall-clock timing, exact
        // for the work-metered clock.
        // 22 iterations: past the first post-melt neighbor rebuild (step
        // 20), where per-atom neighbor counts — and so per-thread ops —
        // genuinely diverge.
        let cfg = JobConfig::new(1, 2, 22, 3);
        let run = || {
            crate::RealKernelParams::default()
                .run_campaign("MiniMD", &cfg, 7, RealTiming::Metered { ns_per_op: 250.0 })
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "metered traces must be bit-identical across runs");
        assert!(a.samples().iter().all(|s| s.compute_time_ns() > 0));
        // The ops-derived shape is not flat: different threads see different
        // neighbor counts once the lattice melts.
        // Unit 21 is (trial 0, rank 0, iteration 21).
        let mut ms = Vec::new();
        fill_group_ms(&a, AggregationLevel::ProcessIteration, 21, &mut ms);
        let spread = ms.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - ms.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.0, "expected per-thread work spread, got {ms:?}");
    }

    #[test]
    fn misconfigured_partition_counts_are_config_errors() {
        // JobConfig's fields are public, so a zero dimension can reach the
        // runner without passing JobConfig::new's assert — it must surface
        // as RunnerError::Config, not a panic deep in trace plumbing.
        for cfg in [
            JobConfig {
                trials: 0,
                ranks: 1,
                iterations: 1,
                threads: 2,
            },
            JobConfig {
                trials: 1,
                ranks: 1,
                iterations: 1,
                threads: 0,
            },
        ] {
            let err = run_real_campaign(
                &cfg,
                |_, _| Box::new(MiniFe::new(MiniFeParams::test_scale())),
                RealTiming::Wall,
            )
            .unwrap_err();
            assert!(
                matches!(err, RunnerError::Config(_)),
                "expected Config error, got {err:?}"
            );
            assert!(err.to_string().contains("≥ 1"), "{err}");
        }
    }

    #[test]
    fn non_positive_metered_rate_is_a_config_error() {
        let cfg = JobConfig::new(1, 1, 1, 1);
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = run_real_campaign(
                &cfg,
                |_, _| Box::new(MiniFe::new(MiniFeParams::test_scale())),
                RealTiming::Metered { ns_per_op: rate },
            )
            .unwrap_err();
            assert!(
                matches!(err, RunnerError::Config(_)),
                "rate {rate}: {err:?}"
            );
        }
    }

    #[test]
    fn short_thread_ops_vector_is_a_config_error() {
        // A ProxyApp impl that under-reports its op counts must error, not
        // silently leave zero-time samples.
        struct ShortOps;
        impl ebird_apps::ProxyApp for ShortOps {
            fn name(&self) -> &'static str {
                "ShortOps"
            }
            fn step(&mut self, _pool: &Pool, _clock: Option<&dyn TimeSource>) -> Vec<ThreadSample> {
                Vec::new()
            }
            fn thread_ops(&self, threads: usize) -> Vec<u64> {
                vec![1; threads.saturating_sub(1)]
            }
            fn verify(&self) -> Result<(), String> {
                Ok(())
            }
        }
        let cfg = JobConfig::new(1, 1, 1, 3);
        let err = run_real_campaign(
            &cfg,
            |_, _| Box::new(ShortOps),
            RealTiming::Metered { ns_per_op: 10.0 },
        )
        .unwrap_err();
        assert!(matches!(err, RunnerError::Config(_)), "{err:?}");
        assert!(
            err.to_string().contains(
                "`ShortOps` yielded 2 per-thread samples for 3 threads at (trial, rank, iteration) = (0, 0, 0)"
            ),
            "{err}"
        );
    }

    #[test]
    fn a_step_that_stamps_too_few_threads_is_a_config_error() {
        // An app that skips its timed section in one iteration must end the
        // campaign, not put zero-time "arrivals" into the trace.
        struct Skips {
            steps: usize,
        }
        impl ebird_apps::ProxyApp for Skips {
            fn name(&self) -> &'static str {
                "Skips"
            }
            fn step(&mut self, pool: &Pool, clock: Option<&dyn TimeSource>) -> Vec<ThreadSample> {
                self.steps += 1;
                if self.steps == 2 {
                    return Vec::new();
                }
                let mut data = vec![0u8; pool.threads()];
                pool.timed_parts_mut(clock, &mut data, &vec![1; pool.threads()], |_, _, _| {})
            }
            fn thread_ops(&self, threads: usize) -> Vec<u64> {
                vec![1; threads]
            }
            fn verify(&self) -> Result<(), String> {
                Ok(())
            }
        }
        let cfg = JobConfig::new(1, 1, 3, 2);
        let err = run_real_campaign(&cfg, |_, _| Box::new(Skips { steps: 0 }), RealTiming::Wall)
            .unwrap_err();
        assert!(matches!(err, RunnerError::Config(_)), "{err:?}");
        assert!(
            err.to_string().contains(
                "`Skips` yielded 0 per-thread samples for 2 threads at (trial, rank, iteration) = (0, 0, 1)"
            ),
            "{err}"
        );
    }

    #[test]
    fn a_sample_past_the_ceiling_ends_the_campaign_with_its_coordinates() {
        // Rank 1's thread 1 takes 5 s in iteration 1: past what a sample
        // holds, so neither timing files a trace.
        struct Stalls {
            rank: usize,
            steps: usize,
        }
        impl Stalls {
            fn ns(&self, thread: usize) -> u64 {
                if self.rank == 1 && self.steps == 2 && thread == 1 {
                    5_000_000_000
                } else {
                    1_000
                }
            }
        }
        impl ebird_apps::ProxyApp for Stalls {
            fn name(&self) -> &'static str {
                "Stalls"
            }
            fn step(&mut self, pool: &Pool, clock: Option<&dyn TimeSource>) -> Vec<ThreadSample> {
                self.steps += 1;
                match clock {
                    Some(_) => (0..pool.threads())
                        .map(|t| ThreadSample::new(0, self.ns(t)))
                        .collect(),
                    None => Vec::new(),
                }
            }
            fn thread_ops(&self, threads: usize) -> Vec<u64> {
                // One op is 1 000 ns at the rate below.
                (0..threads).map(|t| self.ns(t) / 1_000).collect()
            }
            fn verify(&self) -> Result<(), String> {
                Ok(())
            }
        }
        let cfg = JobConfig::new(1, 2, 3, 2);
        for timing in [RealTiming::Wall, RealTiming::Metered { ns_per_op: 1_000.0 }] {
            let err =
                run_real_campaign(&cfg, |_, rank| Box::new(Stalls { rank, steps: 0 }), timing)
                    .unwrap_err();
            assert!(
                matches!(
                    err,
                    RunnerError::SampleOverflow {
                        trial: 0,
                        rank: 1,
                        iteration: 1,
                        thread: 1
                    }
                ),
                "{timing:?}: {err:?}"
            );
            assert!(err.to_string().contains("4294967295 ns ceiling"), "{err}");
        }
        // Just below the ceiling, the same campaign files its trace.
        let trace = run_real_campaign(
            &cfg,
            |_, rank| Box::new(Stalls { rank, steps: 0 }),
            RealTiming::Metered { ns_per_op: 858.0 },
        )
        .unwrap();
        assert_eq!(trace.samples()[9].compute_time_ns(), 4_290_000_000);
    }

    #[test]
    fn a_metered_campaign_steps_on_one_member_and_a_wall_campaign_on_the_team() {
        // Each step checks the team it was given and counts itself.
        struct Records {
            team: usize,
            steps: std::rc::Rc<std::cell::Cell<usize>>,
        }
        impl ebird_apps::ProxyApp for Records {
            fn name(&self) -> &'static str {
                "Records"
            }
            fn step(&mut self, pool: &Pool, clock: Option<&dyn TimeSource>) -> Vec<ThreadSample> {
                assert_eq!(pool.threads(), self.team);
                self.steps.set(self.steps.get() + 1);
                let mut data = vec![0u8; pool.threads()];
                pool.timed_parts_mut(clock, &mut data, &vec![1; pool.threads()], |_, _, _| {})
            }
            fn thread_ops(&self, threads: usize) -> Vec<u64> {
                vec![1; threads]
            }
            fn verify(&self) -> Result<(), String> {
                Ok(())
            }
        }
        let cfg = JobConfig::new(2, 2, 3, 3);
        for (timing, team) in [
            (RealTiming::Wall, cfg.threads),
            (RealTiming::Metered { ns_per_op: 10.0 }, 1),
        ] {
            let steps = std::rc::Rc::default();
            let trace = run_real_campaign(
                &cfg,
                |_, _| {
                    Box::new(Records {
                        team,
                        steps: std::rc::Rc::clone(&steps),
                    })
                },
                timing,
            )
            .unwrap();
            assert_eq!(steps.get(), 2 * 2 * 3, "{timing:?}");
            assert_eq!(trace.shape(), cfg.shape());
        }
    }

    #[test]
    fn failed_app_invariant_surfaces_with_coordinates() {
        // A kernel whose invariant check fails must abort the campaign with
        // the (trial, rank) of the offender, on both timing paths.
        struct Broken;
        impl ebird_apps::ProxyApp for Broken {
            fn name(&self) -> &'static str {
                "Broken"
            }
            fn step(&mut self, pool: &Pool, clock: Option<&dyn TimeSource>) -> Vec<ThreadSample> {
                clock.map_or_else(Vec::new, |_| vec![ThreadSample::new(0, 1); pool.threads()])
            }
            fn thread_ops(&self, threads: usize) -> Vec<u64> {
                vec![1; threads]
            }
            fn verify(&self) -> Result<(), String> {
                Err("intentionally broken".into())
            }
        }
        let cfg = JobConfig::new(1, 2, 2, 2);
        for timing in [RealTiming::Wall, RealTiming::Metered { ns_per_op: 10.0 }] {
            let err = run_real_campaign(&cfg, |_, _| Box::new(Broken), timing).unwrap_err();
            match err {
                RunnerError::AppInvariant {
                    trial,
                    rank,
                    message,
                } => {
                    assert_eq!((trial, rank), (0, 0));
                    assert!(message.contains("intentionally broken"));
                }
                other => panic!("expected AppInvariant, got {other:?}"),
            }
        }
    }

    #[test]
    fn factory_sees_every_trial_rank_pair() {
        let cfg = JobConfig::new(2, 3, 1, 1);
        let mut seen = Vec::new();
        let _ = run_real_campaign(
            &cfg,
            |t, r| {
                seen.push((t, r));
                Box::new(MiniFe::new(MiniFeParams::test_scale()))
            },
            RealTiming::Wall,
        )
        .unwrap();
        assert_eq!(seen, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }
}
