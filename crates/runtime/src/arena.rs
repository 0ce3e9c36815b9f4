//! Per-worker scratch arenas for fork/join teams.
//!
//! A stage body needs scratch (sort buffers, weight caches, simulation
//! state) that is expensive to build and cheap to reuse. A [`WorkerArenas`]
//! owns one scratch value per team member for the lifetime of the analysis,
//! so a member entering a region locks its own (uncontended) slot and finds
//! its buffers already warm from the previous cell, trace, or repeat — at
//! every team size, a one-member team included.

use parking_lot::{Mutex, MutexGuard};

/// One scratch value per worker slot of a fork/join team.
///
/// Slot `t` is only ever locked by team member `t` inside a region, so the
/// mutex is uncontended — it exists to make the aggregate `Sync` so region
/// closures (which are `Fn` and shared across the team) can reach their
/// member's scratch mutably. Outside a region, [`WorkerArenas::get_mut`]
/// inspects a slot without locking at all.
#[derive(Debug)]
pub struct WorkerArenas<T> {
    slots: Vec<Mutex<T>>,
}

impl<T> WorkerArenas<T> {
    /// `workers` slots, each initialized by `init` (called once per slot).
    pub fn with(workers: usize, mut init: impl FnMut() -> T) -> Self {
        assert!(workers >= 1, "arena needs at least one worker slot");
        Self {
            slots: (0..workers).map(|_| Mutex::new(init())).collect(),
        }
    }

    /// `workers` default-initialized slots.
    pub fn new(workers: usize) -> Self
    where
        T: Default,
    {
        Self::with(workers, T::default)
    }

    /// Number of worker slots.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Locks worker `thread`'s slot for the duration of its region body.
    ///
    /// # Panics
    /// Panics if `thread` is out of range — a team larger than the arena is
    /// a caller bug (the arena must be built for the pool it serves).
    pub fn slot(&self, thread: usize) -> MutexGuard<'_, T> {
        self.slots[thread].lock()
    }

    /// Direct access to a slot through `&mut self` (no locking); for
    /// post-region inspection.
    pub fn get_mut(&mut self, thread: usize) -> &mut T {
        self.slots[thread].get_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::Pool;

    #[test]
    fn slots_persist_across_regions() {
        let pool = Pool::new(3);
        let arenas: WorkerArenas<Vec<u64>> = WorkerArenas::new(3);
        for round in 0..4u64 {
            pool.region(|ctx| {
                arenas.slot(ctx.thread()).push(round);
            });
        }
        let mut arenas = arenas;
        for t in 0..3 {
            assert_eq!(arenas.get_mut(t).as_slice(), &[0, 1, 2, 3], "worker {t}");
        }
    }

    #[test]
    fn with_initializer_runs_once_per_slot() {
        let mut calls = 0;
        let mut arenas = WorkerArenas::with(4, || {
            calls += 1;
            calls * 10
        });
        assert_eq!(arenas.workers(), 4);
        assert_eq!(*arenas.get_mut(0), 10);
        assert_eq!(*arenas.get_mut(3), 40);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = WorkerArenas::<u8>::new(0);
    }
}
