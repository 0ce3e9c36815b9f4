//! # ebird-apps
//!
//! Rust ports of the three proxy applications the paper instruments, reduced
//! to the structures that matter for thread-timing measurement: the exact
//! compute kernels whose parallel-for loops the paper wraps with timestamps.
//!
//! * [`minife`] — unstructured-mesh finite-element solver proxy (Mantevo
//!   MiniFE). The timed section is the **matrix–vector product** inside the
//!   CG solve, partitioned over the mesh's outer *planes* exactly as the
//!   paper describes ("an outer loop iterates over 200 planes of the problem
//!   space and are distributed to 48 threads").
//! * [`minimd`] — molecular-dynamics proxy (Mantevo MiniMD, based on LAMMPS).
//!   The timed section is the **Lennard-Jones forcing function**, the most
//!   computationally intensive section.
//! * [`miniqmc`] — quantum Monte Carlo proxy (based on QMCPACK). The timed
//!   section is the **entirety of the computation for the threaded "movers"**
//!   (tricubic B-spline wavefunction evaluation + two-body Jastrow +
//!   Metropolis drift-diffusion).
//!
//! Every app implements [`ProxyApp`]: one iteration per
//! [`step`](ProxyApp::step), timed when given a clock. The timed section
//! runs through `ebird-runtime`'s `Pool::timed_parts_mut`, which places the
//! Listing-1 stamps and returns each thread's sample; the step hands those
//! back to its caller. All randomness is seeded (`ebird-stats::dist`-
//! compatible xoshiro generators), so runs are bit-reproducible.

#![warn(missing_docs)]

pub mod minife;
pub mod minimd;
pub mod miniqmc;
pub mod rng;

pub use minife::{MiniFe, MiniFeParams};
pub use minimd::{MiniMd, MiniMdParams};
pub use miniqmc::{MiniQmc, MiniQmcParams};

use ebird_core::{Clock, ThreadSample};
use ebird_runtime::Pool;

/// A proxy application whose main compute section can be run as instrumented
/// iterations.
pub trait ProxyApp {
    /// Application name as used in the paper ("MiniFE", "MiniMD", "MiniQMC").
    fn name(&self) -> &'static str;

    /// Runs one application iteration on `pool`. With `Some(clock)` it
    /// returns one [`ThreadSample`] per pool thread, in thread order: the
    /// timed compute section's compute times, as `Pool::timed_parts_mut`
    /// returned them. With `None` it reads no clock and returns an empty
    /// vector — the work-metered campaign runner, which derives timing from
    /// deterministic operation counts, steps that way. Either way the
    /// computation is the same, and untimed work surrounding the section
    /// (integration, vector updates, …) runs as part of the same call,
    /// exactly as in the instrumented originals.
    fn step(&mut self, pool: &Pool, clock: Option<&dyn Clock>) -> Vec<ThreadSample>;

    /// Checks an application-specific physical/numerical invariant, returning
    /// a description of the violation if any. Used by integration tests to
    /// make sure instrumentation never perturbs correctness.
    fn verify(&self) -> Result<(), String>;

    /// Deterministic per-thread work measure of the timed compute section
    /// executed by the **most recent** step, for a `threads`-way static
    /// partition: element `t` counts the model-specific inner-loop
    /// operations thread `t` performed (matrix nonzeros visited, neighbor
    /// pairs evaluated, electron moves proposed). Because every kernel's
    /// work partitioning and state trajectory are seeded and
    /// thread-count-neutral, these counts are bit-reproducible across runs
    /// and hosts — the property the deterministic `RealKernel` workload
    /// timing relies on.
    fn thread_ops(&self, threads: usize) -> Vec<u64>;
}
