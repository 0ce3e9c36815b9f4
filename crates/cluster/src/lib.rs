//! # ebird-cluster
//!
//! The simulated-cluster substrate: everything the paper got from the Manzano
//! machine (10-trial × 8-rank × 200-iteration × 48-thread campaigns) that this
//! workspace must reproduce without a cluster.
//!
//! Two timing sources are provided:
//!
//! * [`runner`] — runs the *real* Rust proxy apps (`ebird-apps`) through the
//!   instrumented runtime across simulated ranks and trials, producing a
//!   [`ebird_core::TimingTrace`] from live measurements. Ranks execute
//!   sequentially within a process (the measured sections never communicate,
//!   so rank concurrency only adds host-dependent interference).
//! * [`synthetic`] — seeded generative models of each application's
//!   per-thread compute times, calibrated against every distribution-shape
//!   statistic the paper reports (medians, IQR bands, laggard rates, phase
//!   structure, Table 1 normality pass rates). This is the documented
//!   substitution for the paper's hardware: it regenerates the *shapes* of
//!   all figures and tables deterministically on any machine.
//!
//! Both sources are unified behind the [`workload`] module's pluggable
//! engine: the [`workload::Workload`] trait (generate a campaign trace on
//! a pool, plus per-rank arrival sets) and the serde-able
//! [`workload::WorkloadSpec`] (named calibrated apps, inline synthetic
//! models, deterministic work-metered real-kernel runs, weighted
//! mixtures) — so scenario campaigns name arrival shapes as data, the way
//! they already name network topologies.
//!
//! Supporting modules: [`job`] (campaign configuration), [`noise`]
//! (OS-noise building blocks: laggard processes, turbulence, heavy-tail
//! contamination), [`calibration`] (the paper's reported statistics as
//! machine-checkable targets), and [`fit`] (the inverse direction: extract a
//! generative model *from* any measured trace and replay it at scale).

#![warn(missing_docs)]

pub mod calibration;
pub mod fit;
pub mod job;
pub mod noise;
pub mod runner;
pub mod synthetic;
pub mod workload;

pub use fit::{fit, FittedModel};
pub use job::JobConfig;
pub use noise::NoiseRegime;
pub use runner::{run_real_campaign, RealTiming};
pub use synthetic::SyntheticApp;
pub use workload::{
    canonical_workload_name, MixtureComponent, RealKernelParams, ResolvedWorkload, Workload,
    WorkloadSpec, BUILTIN_WORKLOAD_NAMES,
};
