//! `TimedRegion` — the Rust analogue of the paper's Listing 1.
//!
//! The paper instruments each compute section as:
//!
//! ```c
//! #pragma omp parallel
//! {
//!     int t = omp_get_thread_num();
//!     #pragma omp barrier                      // synchronize start estimate
//!     clock_gettime(CLOCK_MONOTONIC, &t_start[i][t]);
//!     #pragma omp for nowait
//!     for (...) { /* work */ }
//!     clock_gettime(CLOCK_MONOTONIC, &t_end[i][t]);  // no barrier first!
//!     #pragma omp barrier
//! }
//! ```
//!
//! [`TimedRegion::run`] wraps a thread's loop share with the two stamps. The
//! *barrier before the start stamps* and the *join barrier after the exit
//! stamps* are the enclosing runtime's responsibility (see
//! `ebird-runtime::Pool::timed_parts_mut`), exactly as `#pragma omp
//! barrier` is in the original.

use crate::clock::Clock;
use crate::collector::IterationCollector;

/// Instrumentation handle binding a clock to a collector for one region.
///
/// Cheap to copy into worker closures; [`run`](Self::run) is callable
/// concurrently from any number of threads.
#[derive(Debug, Clone, Copy)]
pub struct TimedRegion<'a> {
    clock: &'a dyn Clock,
    collector: &'a IterationCollector,
}

impl<'a> TimedRegion<'a> {
    /// Binds `clock` and `collector` into a region handle.
    pub fn new(clock: &'a dyn Clock, collector: &'a IterationCollector) -> Self {
        TimedRegion { clock, collector }
    }

    /// Runs `work` as thread `thread` of `iteration`, recording enter/exit
    /// stamps around it. Returns `work`'s output.
    ///
    /// The enter stamp is taken immediately before `work`, the exit stamp
    /// immediately after — mirroring the `nowait` semantics where a thread
    /// stamps its own completion without waiting for siblings.
    #[inline]
    pub fn run<T>(&self, iteration: usize, thread: usize, work: impl FnOnce() -> T) -> T {
        self.collector
            .record_enter(iteration, thread, self.clock.now_ns());
        let out = work();
        self.collector
            .record_exit(iteration, thread, self.clock.now_ns());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{MonotonicClock, VirtualClock};
    use crate::sample::ThreadSample;

    #[test]
    fn run_records_both_stamps_and_returns_output() {
        let clock = VirtualClock::new(1000);
        let coll = IterationCollector::new(2, 2);
        let region = TimedRegion::new(&clock, &coll);
        let out = region.run(1, 0, || {
            clock.advance(500);
            "done"
        });
        assert_eq!(out, "done");
        assert_eq!(coll.sample(1, 0), Some(ThreadSample::new(1000, 1500)));
        assert_eq!(coll.sample(1, 0).unwrap().compute_time_ns(), 500);
    }

    #[test]
    fn real_clock_measures_work() {
        let clock = MonotonicClock::new();
        let coll = IterationCollector::new(1, 1);
        let region = TimedRegion::new(&clock, &coll);
        region.run(0, 0, || {
            // ~1 ms of busy work.
            let mut acc = 0u64;
            let t0 = std::time::Instant::now();
            while t0.elapsed().as_micros() < 1000 {
                acc = acc.wrapping_add(1);
            }
            std::hint::black_box(acc);
        });
        let ms = coll.sample(0, 0).unwrap().compute_time_ms();
        assert!(ms >= 0.9, "measured {ms} ms");
    }

    #[test]
    fn concurrent_regions_do_not_interfere() {
        use std::sync::Arc;
        let clock = Arc::new(MonotonicClock::new());
        let coll = Arc::new(IterationCollector::new(1, 4));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let clock = Arc::clone(&clock);
                let coll = Arc::clone(&coll);
                std::thread::spawn(move || {
                    let region = TimedRegion::new(clock.as_ref(), coll.as_ref());
                    region.run(0, t, || {
                        std::thread::sleep(std::time::Duration::from_millis(1))
                    });
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4 {
            let s = coll.sample(0, t).unwrap();
            assert!(
                s.compute_time_ms() >= 0.5,
                "thread {t}: {}",
                s.compute_time_ms()
            );
        }
    }
}
