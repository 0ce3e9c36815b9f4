//! # ebird-runtime
//!
//! The OpenMP-like fork/join substrate the proxy applications run on — the
//! workspace's substitute for the GCC OpenMP runtime the paper instrumented.
//!
//! What the paper relies on from OpenMP, and where it lives here:
//!
//! | OpenMP construct | This crate |
//! |---|---|
//! | `#pragma omp parallel` (team of N threads) | [`Pool::region`] |
//! | `omp_get_thread_num()` | [`Ctx::thread`] |
//! | `#pragma omp barrier` | [`barrier::SenseBarrier`], via [`Ctx::barrier`] |
//! | `#pragma omp for` (static schedule) | [`schedule::static_block`], [`Pool::parallel_for_static`] |
//! | `nowait` + Listing-1 enter/exit stamps | [`Pool::timed_parts_mut`] returns each member's `ThreadSample` |
//! | `clock_gettime(CLOCK_MONOTONIC)` | [`TimeSource`] (re-exported from `ebird-obs`): [`WallClock`] live, [`ManualClock`] in tests |
//!
//! Only the default static schedule is implemented: it is the one the
//! paper's applications use (see [`schedule`]). Fork/join itself is written
//! once — every entry in the table is an adapter over one private primitive
//! in [`pool`], and a one-member team runs its body inline on the caller.
//!
//! **Substitution note:** OpenMP keeps one thread team alive for the whole
//! program; [`Pool`] spawns scoped threads per region. The paper's Listing 1
//! inserts a barrier *before* the start stamps precisely so that start skew
//! (from any source, including thread wake-up) cancels; our region entry does
//! the same, so measured compute times are unaffected.

#![warn(missing_docs)]

pub mod arena;
pub mod barrier;
pub mod pool;
pub mod queue;
pub mod schedule;

pub use arena::WorkerArenas;
pub use barrier::SenseBarrier;
pub use ebird_obs::{ManualClock, TimeSource, WallClock};
pub use pool::{Ctx, Pool, PoolObserver};
pub use queue::{JobQueue, PushError, QueueMetrics};
pub use schedule::static_block;
