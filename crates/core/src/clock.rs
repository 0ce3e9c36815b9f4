//! Monotonic clocks.
//!
//! The paper uses `clock_gettime(CLOCK_MONOTONIC)` (POSIX.1-2017), which
//! guarantees per-core monotonicity but **not** cross-core comparability
//! (their platform lacks `tsc_reliable`). The [`Clock`] trait captures exactly
//! that contract: nanoseconds since an unspecified origin, monotone per
//! caller. [`MonotonicClock`] wraps `std::time::Instant` (itself
//! `CLOCK_MONOTONIC` on Linux); [`VirtualClock`] is a manually advanced clock
//! for deterministic simulation and tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A source of monotonic nanosecond timestamps.
///
/// Implementations must guarantee that two calls from the *same thread*
/// never go backwards. Cross-thread comparability is **not** guaranteed —
/// consumers must derive per-thread elapsed times (see
/// [`ThreadSample::compute_time_ns`](crate::sample::ThreadSample::compute_time_ns)),
/// which is the paper's core methodological point.
pub trait Clock: Send + Sync {
    /// Current time in nanoseconds since an unspecified, fixed origin.
    fn now_ns(&self) -> u64;
}

/// Real monotonic clock backed by [`std::time::Instant`].
///
/// The origin is the moment of construction, so values stay small and
/// conversions to `f64` milliseconds keep full precision over any realistic
/// run length.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// Creates a clock whose origin is "now".
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Deterministic, manually advanced clock for simulation and tests.
///
/// All threads observe the same value; [`advance`](VirtualClock::advance)
/// moves it forward. Attempting to move backwards is a no-op, preserving the
/// monotonicity contract.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: AtomicU64,
}

impl VirtualClock {
    /// Creates a clock at time `start_ns`.
    pub fn new(start_ns: u64) -> Self {
        VirtualClock {
            now: AtomicU64::new(start_ns),
        }
    }

    /// Advances the clock by `delta_ns` and returns the new time.
    pub fn advance(&self, delta_ns: u64) -> u64 {
        self.now.fetch_add(delta_ns, Ordering::Relaxed) + delta_ns
    }

    /// Sets the clock to `t_ns` if that is in the future; otherwise keeps the
    /// current value (monotonicity).
    pub fn advance_to(&self, t_ns: u64) -> u64 {
        self.now.fetch_max(t_ns, Ordering::Relaxed).max(t_ns)
    }
}

impl Clock for VirtualClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::ns_to_ms;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let c = MonotonicClock::new();
        let mut prev = c.now_ns();
        for _ in 0..10_000 {
            let now = c.now_ns();
            assert!(now >= prev);
            prev = now;
        }
    }

    #[test]
    fn monotonic_clock_measures_real_time() {
        let c = MonotonicClock::new();
        let t0 = c.now_ns();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let t1 = c.now_ns();
        let elapsed_ms = ns_to_ms(t1 - t0);
        assert!(elapsed_ms >= 9.0, "elapsed {elapsed_ms} ms");
        // Generous upper bound to avoid flakiness on loaded CI machines.
        assert!(elapsed_ms < 2_000.0, "elapsed {elapsed_ms} ms");
    }

    #[test]
    fn virtual_clock_is_deterministic() {
        let c = VirtualClock::new(100);
        assert_eq!(c.now_ns(), 100);
        assert_eq!(c.advance(50), 150);
        assert_eq!(c.now_ns(), 150);
        assert_eq!(c.advance_to(120), 150, "moving backwards is a no-op");
        assert_eq!(c.now_ns(), 150);
        assert_eq!(c.advance_to(500), 500);
        assert_eq!(c.now_ns(), 500);
    }

    #[test]
    fn virtual_clock_shared_across_threads() {
        use std::sync::Arc;
        let c = Arc::new(VirtualClock::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.advance(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now_ns(), 4000);
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(ns_to_ms(1_500_000), 1.5);
        assert_eq!(ns_to_ms(0), 0.0);
    }
}
