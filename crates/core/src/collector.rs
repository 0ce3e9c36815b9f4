//! Lock-free per-thread timestamp recording for instrumented regions.
//!
//! The paper's Listing 1 writes `t_start[i][t]` / `t_end[i][t]` arrays from
//! inside the parallel region. The equivalent here is [`IterationCollector`]:
//! a preallocated `(iterations × threads)` grid of atomic slots that worker
//! threads write with relaxed stores — no locks, no allocation, nothing that
//! could perturb the measured arrival times. The two stamps live only here:
//! reading a slot back ([`IterationCollector::sample`],
//! [`IterationCollector::drain_into`]) subtracts them into the one-word
//! [`ThreadSample`] the trace keeps.
//!
//! **Layout note.** Slots are stored *thread-major* (`[thread][iteration]`),
//! the transpose of the paper's arrays. All threads write "their" column at
//! nearly the same instant (right after the barrier); thread-major layout
//! gives each thread its own contiguous cache-line region, so the simultaneous
//! writes never contend on a line.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::sample::ThreadSample;
use crate::trace::TimingTrace;
use crate::CoreError;

/// Sentinel for "not recorded": `u64::MAX` can never be produced by our
/// clocks (they start near zero at process start).
const UNSET: u64 = u64::MAX;

/// Preallocated enter/exit slot grid for one rank's instrumented region.
#[derive(Debug)]
pub struct IterationCollector {
    iterations: usize,
    threads: usize,
    /// Thread-major: slot for `(iteration i, thread t)` is `t * iterations + i`.
    enter: Vec<AtomicU64>,
    exit: Vec<AtomicU64>,
}

impl IterationCollector {
    /// Allocates a collector for `iterations × threads` samples.
    pub fn new(iterations: usize, threads: usize) -> Self {
        let n = iterations * threads;
        let mut enter = Vec::with_capacity(n);
        let mut exit = Vec::with_capacity(n);
        for _ in 0..n {
            enter.push(AtomicU64::new(UNSET));
            exit.push(AtomicU64::new(UNSET));
        }
        IterationCollector {
            iterations,
            threads,
            enter,
            exit,
        }
    }

    /// Number of iterations this collector covers.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Number of threads this collector covers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    #[inline]
    fn slot(&self, iteration: usize, thread: usize) -> usize {
        debug_assert!(iteration < self.iterations && thread < self.threads);
        thread * self.iterations + iteration
    }

    /// Records a thread's region-entry timestamp. Called from worker threads;
    /// wait-free (one relaxed store).
    #[inline]
    pub fn record_enter(&self, iteration: usize, thread: usize, t_ns: u64) {
        self.enter[self.slot(iteration, thread)].store(t_ns, Ordering::Relaxed);
    }

    /// Records a thread's region-exit timestamp. Called from worker threads;
    /// wait-free (one relaxed store).
    #[inline]
    pub fn record_exit(&self, iteration: usize, thread: usize, t_ns: u64) {
        self.exit[self.slot(iteration, thread)].store(t_ns, Ordering::Relaxed);
    }

    /// Reads back one recorded sample, or `None` if either stamp is missing.
    ///
    /// Only meaningful after the parallel region has joined (the fork/join
    /// barrier provides the necessary happens-before edge).
    pub fn sample(&self, iteration: usize, thread: usize) -> Option<ThreadSample> {
        let e = self.enter[self.slot(iteration, thread)].load(Ordering::Relaxed);
        let x = self.exit[self.slot(iteration, thread)].load(Ordering::Relaxed);
        (e != UNSET && x != UNSET).then(|| ThreadSample::new(e, x))
    }

    /// Fraction of slots with both stamps recorded (diagnostic).
    ///
    /// Walks the enter/exit arrays directly in storage order — one contiguous
    /// pass — instead of re-deriving the `slot()` offset (and paying two
    /// bounds checks) per `(iteration, thread)` pair.
    pub fn completeness(&self) -> f64 {
        let done = self
            .enter
            .iter()
            .zip(&self.exit)
            .filter(|(e, x)| {
                e.load(Ordering::Relaxed) != UNSET && x.load(Ordering::Relaxed) != UNSET
            })
            .count();
        done as f64 / (self.iterations * self.threads) as f64
    }

    /// Writes every recorded slot's compute time into `trace` at
    /// `(trial, rank, ·, ·)`. Unrecorded slots become zero samples.
    ///
    /// # Errors
    /// [`CoreError::ShapeMismatch`] if the trace's iteration/thread dimensions
    /// differ from the collector's; index errors if `trial`/`rank` are out of
    /// range.
    pub fn drain_into(
        &self,
        trace: &mut TimingTrace,
        trial: usize,
        rank: usize,
    ) -> Result<(), CoreError> {
        if trace.shape().iterations != self.iterations || trace.shape().threads != self.threads {
            return Err(CoreError::ShapeMismatch);
        }
        // One contiguous destination block per (trial, rank); per-thread rows
        // of the thread-major slot grid are read sequentially instead of
        // re-deriving a bounds-checked `slot()` offset for every sample.
        let block = trace.rank_block_mut(trial, rank)?;
        block.fill(ThreadSample::default());
        let rows = self
            .enter
            .chunks_exact(self.iterations)
            .zip(self.exit.chunks_exact(self.iterations));
        for (thread, (enter_row, exit_row)) in rows.enumerate() {
            for (iteration, (e, x)) in enter_row.iter().zip(exit_row).enumerate() {
                let enter_ns = e.load(Ordering::Relaxed);
                let exit_ns = x.load(Ordering::Relaxed);
                if enter_ns != UNSET && exit_ns != UNSET {
                    block[iteration * self.threads + thread] = ThreadSample::new(enter_ns, exit_ns);
                }
            }
        }
        Ok(())
    }

    /// Clears all slots for reuse (e.g. between trials).
    pub fn reset(&self) {
        for s in &self.enter {
            s.store(UNSET, Ordering::Relaxed);
        }
        for s in &self.exit {
            s.store(UNSET, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceShape;

    #[test]
    fn record_and_read_back() {
        let c = IterationCollector::new(3, 2);
        c.record_enter(1, 0, 100);
        c.record_exit(1, 0, 250);
        assert_eq!(c.sample(1, 0), Some(ThreadSample::new(100, 250)));
        assert_eq!(c.sample(0, 0), None, "unrecorded slot");
        assert_eq!(c.sample(1, 1), None, "other thread untouched");
    }

    #[test]
    fn half_recorded_slot_is_none() {
        let c = IterationCollector::new(1, 1);
        c.record_enter(0, 0, 5);
        assert_eq!(c.sample(0, 0), None);
        c.record_exit(0, 0, 9);
        assert!(c.sample(0, 0).is_some());
    }

    #[test]
    fn completeness_fraction() {
        let c = IterationCollector::new(2, 2);
        assert_eq!(c.completeness(), 0.0);
        c.record_enter(0, 0, 1);
        c.record_exit(0, 0, 2);
        assert_eq!(c.completeness(), 0.25);
        for i in 0..2 {
            for t in 0..2 {
                c.record_enter(i, t, 1);
                c.record_exit(i, t, 2);
            }
        }
        assert_eq!(c.completeness(), 1.0);
    }

    #[test]
    fn drain_into_places_samples_at_trial_rank() {
        let c = IterationCollector::new(4, 3);
        for i in 0..4 {
            for t in 0..3 {
                c.record_enter(i, t, 10);
                c.record_exit(i, t, 10 + (i * 3 + t) as u64);
            }
        }
        let mut trace = TimingTrace::new("x", TraceShape::new(2, 2, 4, 3).unwrap());
        c.drain_into(&mut trace, 1, 0).unwrap();
        let pi = trace.process_iteration(1, 0, 2).unwrap();
        assert_eq!(pi[1].compute_time_ns(), 7);
        // Other trial untouched (zero samples).
        let other = trace.process_iteration(0, 0, 2).unwrap();
        assert!(other.iter().all(|s| s.compute_time_ns() == 0));
    }

    #[test]
    fn drain_into_rejects_shape_mismatch() {
        let c = IterationCollector::new(4, 3);
        let mut trace = TimingTrace::new("x", TraceShape::new(1, 1, 4, 2).unwrap());
        assert!(matches!(
            c.drain_into(&mut trace, 0, 0),
            Err(CoreError::ShapeMismatch)
        ));
    }

    #[test]
    fn reset_clears_all_slots() {
        let c = IterationCollector::new(2, 2);
        c.record_enter(0, 0, 1);
        c.record_exit(0, 0, 2);
        c.reset();
        assert_eq!(c.sample(0, 0), None);
        assert_eq!(c.completeness(), 0.0);
    }

    #[test]
    fn concurrent_recording_from_many_threads() {
        use std::sync::Arc;
        let c = Arc::new(IterationCollector::new(100, 8));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        c.record_enter(i, t, (i * 10) as u64);
                        c.record_exit(i, t, (i * 10 + t + 1) as u64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.completeness(), 1.0);
        for i in 0..100 {
            for t in 0..8 {
                let s = c.sample(i, t).unwrap();
                assert_eq!(s.compute_time_ns(), (t + 1) as u64);
            }
        }
    }
}
