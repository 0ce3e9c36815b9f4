//! # early-bird
//!
//! Façade crate for the `early-bird` workspace — a reproduction of
//! *"Measuring Thread Timing to Assess the Feasibility of Early-bird Message
//! Delivery"* (Marts, Dosanjh, Schonbein, Levy, Bridges — ICPP 2023).
//!
//! The workspace instruments fork/join parallel regions, collects per-thread
//! compute times across simulated multi-rank jobs, statistically characterises
//! thread-arrival distributions (normality, laggards, reclaimable idle time),
//! and simulates early-bird partitioned-communication delivery strategies on
//! the measured arrival patterns.
//!
//! Each subsystem lives in its own crate and is re-exported here under a
//! stable module name:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `ebird-core` | clocks, samples, traces, collectors |
//! | [`runtime`] | `ebird-runtime` | OpenMP-like thread pool, `parallel_for`, barriers |
//! | [`stats`] | `ebird-stats` | normality tests, percentiles, histograms |
//! | [`apps`] | `ebird-apps` | MiniFE / MiniMD / MiniQMC kernels |
//! | [`cluster`] | `ebird-cluster` | job runner, OS-noise, synthetic timing models |
//! | [`partcomm`] | `ebird-partcomm` | network model + early-bird delivery sim |
//! | [`analysis`] | `ebird-analysis` | aggregation, metrics, paper figures/tables |
//! | [`serve`] | `ebird-serve` | campaign service: TCP protocol, job queue, result cache |
//!
//! ## Quickstart
//!
//! ```
//! use early_bird::cluster::{JobConfig, synthetic::SyntheticApp};
//! use early_bird::analysis::reclaim::reclaim_metrics;
//!
//! // Paper-scale job, CI-scale sizes: 1 trial, 2 ranks, 10 iterations, 8 threads.
//! let cfg = JobConfig::new(1, 2, 10, 8);
//! let trace = SyntheticApp::minife().generate(&cfg, 42);
//! let metrics = reclaim_metrics(&trace);
//! assert!(metrics.idle_ratio > 0.0 && metrics.idle_ratio < 1.0);
//! ```
//!
//! The production route — what `repro` and the benchmark run — is the
//! analysis engine: one entry point per pipeline stage, each taking the pool
//! it runs on (README's library quick-start, at CI scale):
//!
//! ```
//! use early_bird::analysis::engine::{
//!     generate_campaign_parallel, sweep_levels_parallel_with_arenas, EngineArenas,
//! };
//! use early_bird::cluster::{JobConfig, SyntheticApp, Workload};
//! use early_bird::runtime::Pool;
//!
//! let pool = Pool::new(2);
//! let mut arenas = EngineArenas::new(pool.threads());
//! let app = SyntheticApp::minife();
//! let traces = generate_campaign_parallel(&[&app as &dyn Workload], &JobConfig::ci_scale(), 42, &pool)
//!     .expect("synthetic apps always generate");
//! // All three aggregation levels in one pass, process-iteration first.
//! let [process_iteration, _app_iteration, _application] =
//!     sweep_levels_parallel_with_arenas(&traces[0], 0.05, None, &pool, &mut arenas);
//! assert_eq!(process_iteration.groups, traces[0].shape().process_iterations());
//! assert!(process_iteration.pass_rates().iter().all(|r| (0.0..=1.0).contains(r)));
//! ```

pub use ebird_analysis as analysis;
pub use ebird_apps as apps;
pub use ebird_cluster as cluster;
pub use ebird_core as core;
pub use ebird_partcomm as partcomm;
pub use ebird_runtime as runtime;
pub use ebird_serve as serve;
pub use ebird_stats as stats;
