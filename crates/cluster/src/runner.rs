//! Campaign runner for the *real* proxy applications.
//!
//! [`run_real_campaign`] reproduces the paper's experimental procedure on
//! live code: for each trial and each rank, build a fresh application
//! instance, run `iterations` instrumented iterations on a thread pool, and
//! drain the per-thread stamps into the campaign's [`TimingTrace`].
//!
//! Ranks run sequentially inside one process. The measured compute sections
//! never communicate (the paper's apps only message *between* sections), so
//! rank-level concurrency would only add host-scheduler interference to the
//! measurements without changing what is measured.
//!
//! Nothing here communicates: scenario pricing needs thread arrivals only.

use ebird_core::{
    Clock, IterationCollector, MonotonicClock, ThreadSample, TimedRegion, TimingTrace,
};
use ebird_runtime::Pool;

use crate::job::JobConfig;

/// Errors from a real-application campaign.
#[derive(Debug)]
pub enum RunnerError {
    /// The campaign configuration is unusable (zero-sized dimension —
    /// reachable because [`JobConfig`]'s fields are public — or a
    /// non-positive metered clock rate).
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
    /// Trace plumbing failed (shape mismatch etc.).
    Core(ebird_core::CoreError),
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
            RunnerError::Core(e) => write!(f, "trace error: {e}"),
        }
    }
}

impl std::error::Error for RunnerError {}

impl From<ebird_core::CoreError> for RunnerError {
    fn from(e: ebird_core::CoreError) -> Self {
        RunnerError::Core(e)
    }
}

/// How a real-application campaign derives per-thread timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RealTiming {
    /// Wall-clock stamps from a [`MonotonicClock`] around each thread's
    /// loop share — the paper's Listing-1 procedure. Host-dependent, so two
    /// runs never produce the same bytes.
    Wall,
    /// Deterministic work-metered stamps: thread `t`'s compute time is its
    /// [`thread_ops`](ebird_apps::ProxyApp::thread_ops) count × `ns_per_op`.
    /// The kernels still execute for real (state trajectories, invariant
    /// checks), but the clock is the operation count — so the same seed and
    /// parameters yield a bit-identical [`TimingTrace`] on any host, the
    /// property the `RealKernel` workload cache relies on.
    Metered {
        /// Nanoseconds charged per inner-loop operation (must be finite
        /// and positive).
        ns_per_op: f64,
    },
}

/// Runs a full campaign of a real application with wall-clock timing —
/// [`run_real_campaign_with`] at [`RealTiming::Wall`].
///
/// # Errors
/// See [`run_real_campaign_with`].
pub fn run_real_campaign<F>(cfg: &JobConfig, factory: F) -> Result<TimingTrace, RunnerError>
where
    F: FnMut(usize, usize) -> Box<dyn ebird_apps::ProxyApp>,
{
    run_real_campaign_with(cfg, factory, RealTiming::Wall)
}

/// Runs a full campaign of a real application.
///
/// `factory(trial, rank)` builds one application instance per (trial, rank)
/// pair — instances must be independent, like separate MPI processes. The
/// returned trace has shape `cfg.shape()` and the application name of the
/// first instance. `timing` selects wall-clock measurement or the
/// deterministic work-metered clock (see [`RealTiming`]).
///
/// # Errors
/// [`RunnerError::Config`] if any campaign dimension is zero (reachable by
/// constructing [`JobConfig`] literally, bypassing [`JobConfig::new`]) or
/// the metered `ns_per_op` is not finite-positive;
/// [`RunnerError::AppInvariant`] if any instance fails [`ProxyApp::verify`]
/// after its run; [`RunnerError::Core`] on trace plumbing failures.
///
/// [`ProxyApp::verify`]: ebird_apps::ProxyApp::verify
pub fn run_real_campaign_with<F>(
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
    let mut trace: Option<TimingTrace> = None;
    let pool = Pool::new(cfg.threads);
    for trial in 0..cfg.trials {
        for rank in 0..cfg.ranks {
            let mut app = factory(trial, rank);
            if trace.is_none() {
                trace = Some(TimingTrace::new(app.name(), cfg.shape()));
            }
            match timing {
                RealTiming::Wall => {
                    let clock = MonotonicClock::new();
                    let clock_dyn: &dyn Clock = &clock;
                    let collector = IterationCollector::new(cfg.iterations, cfg.threads);
                    let region = TimedRegion::new(clock_dyn, &collector);
                    for iteration in 0..cfg.iterations {
                        app.timed_step(&pool, &region, iteration);
                    }
                    app.verify().map_err(|message| RunnerError::AppInvariant {
                        trial,
                        rank,
                        message,
                    })?;
                    collector.drain_into(
                        trace.as_mut().expect("initialized above"),
                        trial,
                        rank,
                    )?;
                }
                RealTiming::Metered { ns_per_op } => {
                    for iteration in 0..cfg.iterations {
                        app.untimed_step(&pool);
                        let ops = app.thread_ops(cfg.threads);
                        // A short vector would silently zip-truncate,
                        // leaving zero-time samples — reject it loudly
                        // (ProxyApp is a public trait; downstream impls can
                        // get this wrong).
                        if ops.len() != cfg.threads {
                            return Err(RunnerError::Config(format!(
                                "app `{}` reported {} thread-op counts for {} threads",
                                app.name(),
                                ops.len(),
                                cfg.threads
                            )));
                        }
                        let dst = trace
                            .as_mut()
                            .expect("initialized above")
                            .process_iteration_mut(trial, rank, iteration)
                            .expect("in range by construction");
                        for (slot, &n) in dst.iter_mut().zip(&ops) {
                            // Clamp to ≥ 1 ns: samples must stay positive
                            // even for a degenerate zero-work partition.
                            *slot = ThreadSample::new(
                                0,
                                ((n as f64 * ns_per_op).round() as u64).max(1),
                            );
                        }
                    }
                    app.verify().map_err(|message| RunnerError::AppInvariant {
                        trial,
                        rank,
                        message,
                    })?;
                }
            }
        }
    }
    Ok(trace.expect("cfg dimensions validated above"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebird_apps::{MiniFe, MiniFeParams, MiniMd, MiniMdParams, MiniQmc, MiniQmcParams};

    #[test]
    fn minife_campaign_produces_complete_trace() {
        let cfg = JobConfig::new(1, 2, 3, 2);
        let trace = run_real_campaign(&cfg, |_, _| {
            Box::new(MiniFe::new(MiniFeParams::test_scale()))
        })
        .unwrap();
        assert_eq!(trace.app(), "MiniFE");
        assert_eq!(trace.shape(), cfg.shape());
        // Every sample must be a real measurement (> 0 compute time).
        assert!(trace.samples().iter().all(|s| s.compute_time_ns() > 0));
    }

    #[test]
    fn minimd_campaign_runs() {
        let cfg = JobConfig::new(1, 1, 4, 2);
        let trace = run_real_campaign(&cfg, |_, _| {
            let mut p = MiniMdParams::test_scale();
            p.seed = 99;
            Box::new(MiniMd::new(p))
        })
        .unwrap();
        assert_eq!(trace.app(), "MiniMD");
        assert!(trace.samples().iter().all(|s| s.compute_time_ns() > 0));
    }

    #[test]
    fn miniqmc_campaign_runs() {
        let cfg = JobConfig::new(1, 1, 3, 2);
        let trace = run_real_campaign(&cfg, |trial, rank| {
            let mut p = MiniQmcParams::test_scale();
            p.seed = 1000 + (trial * 10 + rank) as u64;
            Box::new(MiniQmc::new(p))
        })
        .unwrap();
        assert_eq!(trace.app(), "MiniQMC");
        assert!(trace.samples().iter().all(|s| s.compute_time_ns() > 0));
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
            run_real_campaign_with(
                &cfg,
                |trial, rank| {
                    let mut p = MiniMdParams::test_scale();
                    p.seed = 7 ^ ((trial as u64) << 32 | rank as u64);
                    Box::new(MiniMd::new(p))
                },
                RealTiming::Metered { ns_per_op: 250.0 },
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "metered traces must be bit-identical across runs");
        assert!(a.samples().iter().all(|s| s.compute_time_ns() > 0));
        // The ops-derived shape is not flat: different threads see different
        // neighbor counts once the lattice melts.
        let ms = a.process_iteration_ms(0, 0, 21).unwrap();
        let spread = ms.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - ms.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.0, "expected per-thread work spread, got {ms:?}");
    }

    #[test]
    fn metered_campaigns_run_for_all_three_kernels() {
        type Factory = Box<dyn FnMut(usize, usize) -> Box<dyn ebird_apps::ProxyApp>>;
        let cfg = JobConfig::new(1, 1, 3, 2);
        let cases: [(&str, Factory); 3] = [
            (
                "MiniFE",
                Box::new(|_, _| Box::new(MiniFe::new(MiniFeParams::test_scale()))),
            ),
            (
                "MiniMD",
                Box::new(|_, _| Box::new(MiniMd::new(MiniMdParams::test_scale()))),
            ),
            (
                "MiniQMC",
                Box::new(|_, _| Box::new(MiniQmc::new(MiniQmcParams::test_scale()))),
            ),
        ];
        for (name, factory) in cases {
            let trace =
                run_real_campaign_with(&cfg, factory, RealTiming::Metered { ns_per_op: 100.0 })
                    .unwrap();
            assert_eq!(trace.app(), name);
            assert!(trace.samples().iter().all(|s| s.compute_time_ns() > 0));
        }
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
            let err = run_real_campaign(&cfg, |_, _| {
                Box::new(MiniFe::new(MiniFeParams::test_scale()))
            })
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
            let err = run_real_campaign_with(
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
        // silently leave zero-time samples via zip truncation.
        struct ShortOps;
        impl ebird_apps::ProxyApp for ShortOps {
            fn name(&self) -> &'static str {
                "ShortOps"
            }
            fn timed_step(
                &mut self,
                _pool: &Pool,
                _region: &ebird_core::TimedRegion<'_, dyn Clock>,
                _iteration: usize,
            ) {
            }
            fn untimed_step(&mut self, _pool: &Pool) {}
            fn thread_ops(&self, threads: usize) -> Vec<u64> {
                vec![1; threads.saturating_sub(1)]
            }
            fn verify(&self) -> Result<(), String> {
                Ok(())
            }
        }
        let cfg = JobConfig::new(1, 1, 1, 3);
        let err = run_real_campaign_with(
            &cfg,
            |_, _| Box::new(ShortOps),
            RealTiming::Metered { ns_per_op: 10.0 },
        )
        .unwrap_err();
        assert!(matches!(err, RunnerError::Config(_)), "{err:?}");
        assert!(err.to_string().contains("thread-op counts"), "{err}");
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
            fn timed_step(
                &mut self,
                pool: &Pool,
                region: &ebird_core::TimedRegion<'_, dyn Clock>,
                iteration: usize,
            ) {
                for t in 0..pool.threads() {
                    region.run(iteration, t, || {});
                }
            }
            fn untimed_step(&mut self, _pool: &Pool) {}
            fn thread_ops(&self, threads: usize) -> Vec<u64> {
                vec![1; threads]
            }
            fn verify(&self) -> Result<(), String> {
                Err("intentionally broken".into())
            }
        }
        let cfg = JobConfig::new(1, 2, 2, 2);
        for timing in [RealTiming::Wall, RealTiming::Metered { ns_per_op: 10.0 }] {
            let err = run_real_campaign_with(&cfg, |_, _| Box::new(Broken), timing).unwrap_err();
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
        let _ = run_real_campaign(&cfg, |t, r| {
            seen.push((t, r));
            Box::new(MiniFe::new(MiniFeParams::test_scale()))
        })
        .unwrap();
        assert_eq!(seen, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }
}
