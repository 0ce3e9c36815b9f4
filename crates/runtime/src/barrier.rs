//! A reusable sense-reversing barrier.
//!
//! Equivalent of `#pragma omp barrier`: all `n` participants block until the
//! last one arrives, then all proceed; immediately reusable for the next
//! phase. The implementation is a classic centralized sense-reversing barrier
//! with a short adaptive spin before parking on a condvar — spinning wins when
//! threads ≈ cores and arrival is imminent, parking wins when oversubscribed
//! (this host runs 48 logical threads on 2 cores in the paper-scale demos).

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// How many relaxed loads to spin before parking. Small on purpose: the
/// paper-scale configurations are heavily oversubscribed.
const SPIN_LIMIT: u32 = 128;

/// A reusable barrier for a fixed team of `n` threads.
#[derive(Debug)]
pub struct SenseBarrier {
    n: usize,
    arrived: AtomicUsize,
    /// Global sense: flipped by the last arriver of each phase.
    sense: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
    /// Total phases completed (diagnostics/tests).
    phases: AtomicUsize,
}

impl SenseBarrier {
    /// Creates a barrier for `n` participants (`n ≥ 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "barrier needs at least one participant");
        SenseBarrier {
            n,
            arrived: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            phases: AtomicUsize::new(0),
        }
    }

    /// Number of completed phases so far.
    pub fn phases(&self) -> usize {
        self.phases.load(Ordering::Relaxed)
    }

    /// Blocks until all `n` participants have called `wait` for this phase.
    /// Returns `true` for exactly one participant per phase (the last
    /// arriver), mirroring `std::sync::Barrier`'s leader flag.
    pub fn wait(&self) -> bool {
        let my_sense = !self.sense.load(Ordering::Acquire);
        let pos = self.arrived.fetch_add(1, Ordering::AcqRel) + 1;
        if pos == self.n {
            // Last arriver: reset and release the phase.
            self.arrived.store(0, Ordering::Release);
            self.phases.fetch_add(1, Ordering::Relaxed);
            {
                // The lock pairs with waiters' re-check inside the mutex so a
                // sense flip can't race between their check and their sleep.
                let _g = self.lock.lock();
                self.sense.store(my_sense, Ordering::Release);
            }
            self.cv.notify_all();
            return true;
        }
        // Short spin first.
        for _ in 0..SPIN_LIMIT {
            if self.sense.load(Ordering::Acquire) == my_sense {
                return false;
            }
            std::hint::spin_loop();
        }
        // Park.
        let mut g = self.lock.lock();
        while self.sense.load(Ordering::Acquire) != my_sense {
            self.cv.wait(&mut g);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn single_participant_never_blocks() {
        let b = SenseBarrier::new(1);
        for _ in 0..100 {
            assert!(b.wait(), "sole participant is always the leader");
        }
        assert_eq!(b.phases(), 100);
    }

    #[test]
    fn all_threads_released_each_phase() {
        const N: usize = 8;
        const PHASES: usize = 50;
        let b = Arc::new(SenseBarrier::new(N));
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let b = Arc::clone(&b);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for phase in 0..PHASES {
                        counter.fetch_add(1, Ordering::SeqCst);
                        b.wait();
                        // After the barrier, every thread must observe all N
                        // increments of this phase.
                        let seen = counter.load(Ordering::SeqCst);
                        assert!(
                            seen >= ((phase + 1) * N) as u64,
                            "phase {phase}: saw {seen}"
                        );
                        b.wait(); // second barrier so no thread races ahead
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), (N * PHASES) as u64);
        assert_eq!(b.phases(), 2 * PHASES);
    }

    #[test]
    fn exactly_one_leader_per_phase() {
        const N: usize = 6;
        const PHASES: usize = 40;
        let b = Arc::new(SenseBarrier::new(N));
        let leaders = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let b = Arc::clone(&b);
                let leaders = Arc::clone(&leaders);
                std::thread::spawn(move || {
                    for _ in 0..PHASES {
                        if b.wait() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), PHASES as u64);
    }

    #[test]
    fn oversubscribed_barrier_makes_progress() {
        // Many more threads than cores: exercises the parking path.
        const N: usize = 32;
        let b = Arc::new(SenseBarrier::new(N));
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        b.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.phases(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        SenseBarrier::new(0);
    }
}
