//! The fork/join pool: scoped thread teams with OpenMP-like work sharing.
//!
//! [`Pool::region`] forks a team of `n` threads (the calling thread is member
//! 0, as in OpenMP), runs the closure on every member, and joins. Work-sharing
//! variants layer loop scheduling on top; `timed_*` variants add the paper's
//! Listing-1 instrumentation: a team barrier, per-thread enter stamps, the
//! thread's loop share, a per-thread exit stamp (`nowait` — no barrier before
//! it), then the join.

use std::ops::Range;
use std::sync::Arc;

use ebird_core::{Clock, TimedRegion};
use parking_lot::Mutex;

use crate::barrier::SenseBarrier;
use crate::schedule::static_block;

/// Per-worker busy-time instrumentation for a [`Pool`].
///
/// When attached ([`Pool::with_observer`]), every team-member body — across
/// *all* fork paths: [`Pool::region`], [`Pool::parallel_chunks_mut`] and
/// [`Pool::parallel_parts_mut`] — is bracketed with registry time stamps,
/// accumulating into counters named
/// `pool.{stage}.w{thread}.busy_ns` (per worker) and
/// `pool.{stage}.busy_ns` (team total). The *stage* label is set by the
/// caller ([`PoolObserver::set_stage`]) between phases, so one observed
/// pool yields the per-stage × per-worker table `repro profile` prints.
///
/// Busy time is wall residency of the member body: for compute regions that
/// is work; for blocking bodies (e.g. [`Pool::service`] workers parked on
/// an empty queue) it includes the wait, so services measure per-job run
/// time at the job site instead of attaching an observer.
#[derive(Clone)]
pub struct PoolObserver {
    registry: Arc<ebird_obs::Registry>,
    stage: Arc<Mutex<String>>,
    fork_ns: Arc<ebird_obs::Histogram>,
}

impl std::fmt::Debug for PoolObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolObserver")
            .field("stage", &*self.stage.lock())
            .finish_non_exhaustive()
    }
}

impl PoolObserver {
    /// Histogram carrying per-fork overhead: for every fork/join the pool
    /// executes, the region's wall time minus member 0's busy time — i.e.
    /// spawn + join + scheduling skew, the cost the paper's Listing 1 is
    /// built to expose. At `p = 1` every fork runs inline on the calling
    /// thread, so entries near zero are the direct evidence that the unified
    /// serial/parallel codepath carries no task indirection.
    pub const FORK_NS: &'static str = "pool.fork.ns";

    /// An observer writing into `registry`, with the stage label initially
    /// `"unlabeled"`.
    pub fn new(registry: &Arc<ebird_obs::Registry>) -> Self {
        Self {
            registry: Arc::clone(registry),
            stage: Arc::new(Mutex::new("unlabeled".to_string())),
            fork_ns: registry.histogram(Self::FORK_NS),
        }
    }

    /// Relabels subsequent member executions (call between phases).
    pub fn set_stage(&self, stage: &str) {
        *self.stage.lock() = stage.to_string();
    }

    /// Counter name carrying worker `thread`'s busy time for `stage`.
    pub fn worker_counter(stage: &str, thread: usize) -> String {
        format!("pool.{stage}.w{thread}.busy_ns")
    }

    /// Counter name carrying the team-total busy time for `stage`.
    pub fn stage_counter(stage: &str) -> String {
        format!("pool.{stage}.busy_ns")
    }

    fn record(&self, thread: usize, busy_ns: u64) {
        let stage = self.stage.lock().clone();
        self.registry
            .counter(&Self::worker_counter(&stage, thread))
            .add(busy_ns);
        self.registry
            .counter(&Self::stage_counter(&stage))
            .add(busy_ns);
    }
}

/// Per-member execution context inside a parallel region
/// (the analogue of `omp_get_thread_num()` / `omp_get_num_threads()` plus a
/// handle to the team barrier).
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    thread: usize,
    nthreads: usize,
    barrier: &'a SenseBarrier,
}

impl<'a> Ctx<'a> {
    /// This member's id in `0..nthreads` (member 0 is the forking thread).
    pub fn thread(&self) -> usize {
        self.thread
    }

    /// Team size.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Blocks until every team member reaches the barrier
    /// (`#pragma omp barrier`).
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

/// A fork/join thread team factory of fixed size.
///
/// Teams are forked per region with `std::thread::scope`, so region closures
/// may borrow freely from the caller's stack — the idiomatic-safe equivalent
/// of OpenMP's shared-by-default variables.
#[derive(Debug, Clone)]
pub struct Pool {
    n: usize,
    observer: Option<PoolObserver>,
}

impl Pool {
    /// Creates a pool that forks teams of `n` threads (`n ≥ 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "pool needs at least one thread");
        Pool { n, observer: None }
    }

    /// Attaches a [`PoolObserver`]: every member body in every fork path is
    /// timed into per-stage/per-worker busy counters.
    pub fn with_observer(mut self, observer: PoolObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&PoolObserver> {
        self.observer.as_ref()
    }

    /// Team size.
    pub fn threads(&self) -> usize {
        self.n
    }

    /// Runs one member body, timing it when an observer is attached.
    fn run_member<R>(&self, thread: usize, f: impl FnOnce() -> R) -> R {
        self.run_member_timed(thread, f).0
    }

    /// [`run_member`](Self::run_member), also returning the member's busy
    /// time (0 when unobserved) so fork paths can subtract it from the
    /// region's wall time to get the pure fork/join overhead.
    fn run_member_timed<R>(&self, thread: usize, f: impl FnOnce() -> R) -> (R, u64) {
        match &self.observer {
            None => (f(), 0),
            Some(o) => {
                let start = o.registry.now_ns();
                let r = f();
                let busy = o.registry.now_ns().saturating_sub(start);
                o.record(thread, busy);
                (r, busy)
            }
        }
    }

    /// Stamp taken just before a fork (observed pools only).
    fn fork_start(&self) -> Option<u64> {
        self.observer.as_ref().map(|o| o.registry.now_ns())
    }

    /// Records one fork/join's overhead — region wall time minus member 0's
    /// busy time — into the [`PoolObserver::FORK_NS`] histogram.
    fn record_fork(&self, fork_start: Option<u64>, member0_busy_ns: u64) {
        if let (Some(o), Some(t0)) = (&self.observer, fork_start) {
            let wall = o.registry.now_ns().saturating_sub(t0);
            o.fork_ns.record(wall.saturating_sub(member0_busy_ns));
        }
    }

    /// Runs `f` inline on the calling thread as a one-member observed
    /// "region": busy time lands in the stage counters and the (near-zero)
    /// bookkeeping cost in the [`PoolObserver::FORK_NS`] histogram, exactly
    /// like a `p = 1` [`region`](Self::region) fork — but with `FnOnce`
    /// semantics, so serial fast paths holding `&mut` scratch can delegate
    /// here without `Sync` bounds or interior mutability.
    ///
    /// This is the unification hook: at `p = 1` the engine's `*_parallel`
    /// entry points run the serial loop through this method, keeping the
    /// profile's per-stage attribution while paying no task indirection.
    pub fn run_serial<R>(&self, f: impl FnOnce() -> R) -> R {
        let fork_start = self.fork_start();
        let (r, busy) = self.run_member_timed(0, f);
        self.record_fork(fork_start, busy);
        r
    }

    /// Runs `f` on every team member concurrently and joins
    /// (`#pragma omp parallel`).
    pub fn region<F>(&self, f: F)
    where
        F: Fn(&Ctx<'_>) + Sync,
    {
        let barrier = SenseBarrier::new(self.n);
        let n = self.n;
        let fork_start = self.fork_start();
        if n == 1 {
            let (_, busy) = self.run_member_timed(0, || {
                f(&Ctx {
                    thread: 0,
                    nthreads: 1,
                    barrier: &barrier,
                })
            });
            self.record_fork(fork_start, busy);
            return;
        }
        let busy0 = std::thread::scope(|s| {
            for t in 1..n {
                let barrier = &barrier;
                let f = &f;
                let this = &*self;
                s.spawn(move || {
                    this.run_member(t, || {
                        f(&Ctx {
                            thread: t,
                            nthreads: n,
                            barrier,
                        })
                    })
                });
            }
            self.run_member_timed(0, || {
                f(&Ctx {
                    thread: 0,
                    nthreads: n,
                    barrier: &barrier,
                })
            })
            .1
        });
        self.record_fork(fork_start, busy0);
    }

    /// Static-schedule loop: each member executes its contiguous
    /// [`static_block`] of `0..count`, calling `body(i, ctx)` per iteration
    /// (`#pragma omp parallel for`).
    pub fn parallel_for_static<F>(&self, count: usize, body: F)
    where
        F: Fn(usize, &Ctx<'_>) + Sync,
    {
        self.region(|ctx| {
            for i in static_block(count, ctx.nthreads(), ctx.thread()) {
                body(i, ctx);
            }
        });
    }

    /// Static-schedule loop over an output slice: `data` is split into the
    /// same contiguous blocks as [`static_block`] and each member receives
    /// exclusive `&mut` access to its block — the safe-Rust shape of
    /// "`omp for` writing disjoint array rows".
    ///
    /// `body` receives `(block, global_range, ctx)`.
    pub fn parallel_chunks_mut<T, F>(&self, data: &mut [T], body: F)
    where
        T: Send,
        F: Fn(&mut [T], Range<usize>, &Ctx<'_>) + Sync,
    {
        let count = data.len();
        let n = self.n;
        // Pre-split into disjoint blocks so no unsafe aliasing is needed.
        let mut parts: Vec<(&mut [T], Range<usize>)> = Vec::with_capacity(n);
        let mut rest = data;
        for t in 0..n {
            let range = static_block(count, n, t);
            let (head, tail) = rest.split_at_mut(range.len());
            parts.push((head, range));
            rest = tail;
        }
        let barrier = SenseBarrier::new(n);
        let fork_start = self.fork_start();
        if n == 1 {
            let (block, range) = parts.pop().expect("one part");
            let (_, busy) = self.run_member_timed(0, || {
                body(
                    block,
                    range,
                    &Ctx {
                        thread: 0,
                        nthreads: 1,
                        barrier: &barrier,
                    },
                )
            });
            self.record_fork(fork_start, busy);
            return;
        }
        let busy0 = std::thread::scope(|s| {
            let mut iter = parts.into_iter().enumerate();
            let (_, first) = iter.next().expect("at least one part");
            for (t, (block, range)) in iter {
                let barrier = &barrier;
                let body = &body;
                let this = &*self;
                s.spawn(move || {
                    this.run_member(t, || {
                        body(
                            block,
                            range,
                            &Ctx {
                                thread: t,
                                nthreads: n,
                                barrier,
                            },
                        )
                    })
                });
            }
            let (block, range) = first;
            self.run_member_timed(0, || {
                body(
                    block,
                    range,
                    &Ctx {
                        thread: 0,
                        nthreads: n,
                        barrier: &barrier,
                    },
                )
            })
            .1
        });
        self.record_fork(fork_start, busy0);
    }

    /// Like [`parallel_chunks_mut`](Self::parallel_chunks_mut) but with
    /// caller-chosen part lengths — needed when blocks must align to logical
    /// units larger than one element (MiniFE splits its result vector by
    /// *mesh planes*, not rows). `part_lens` must have one entry per thread
    /// and sum to `data.len()`.
    ///
    /// `body` receives `(block, global_range, ctx)`.
    pub fn parallel_parts_mut<T, F>(&self, data: &mut [T], part_lens: &[usize], body: F)
    where
        T: Send,
        F: Fn(&mut [T], Range<usize>, &Ctx<'_>) + Sync,
    {
        assert_eq!(part_lens.len(), self.n, "one part per thread");
        assert_eq!(
            part_lens.iter().sum::<usize>(),
            data.len(),
            "part lengths must cover data exactly"
        );
        let n = self.n;
        let mut parts: Vec<(&mut [T], Range<usize>)> = Vec::with_capacity(n);
        let mut rest = data;
        let mut start = 0usize;
        for &len in part_lens {
            let (head, tail) = rest.split_at_mut(len);
            parts.push((head, start..start + len));
            rest = tail;
            start += len;
        }
        let barrier = SenseBarrier::new(n);
        let fork_start = self.fork_start();
        if n == 1 {
            let (block, range) = parts.pop().expect("one part");
            let (_, busy) = self.run_member_timed(0, || {
                body(
                    block,
                    range,
                    &Ctx {
                        thread: 0,
                        nthreads: 1,
                        barrier: &barrier,
                    },
                )
            });
            self.record_fork(fork_start, busy);
            return;
        }
        let busy0 = std::thread::scope(|s| {
            let mut iter = parts.into_iter().enumerate();
            let (_, first) = iter.next().expect("at least one part");
            for (t, (block, range)) in iter {
                let barrier = &barrier;
                let body = &body;
                let this = &*self;
                s.spawn(move || {
                    this.run_member(t, || {
                        body(
                            block,
                            range,
                            &Ctx {
                                thread: t,
                                nthreads: n,
                                barrier,
                            },
                        )
                    })
                });
            }
            let (block, range) = first;
            self.run_member_timed(0, || {
                body(
                    block,
                    range,
                    &Ctx {
                        thread: 0,
                        nthreads: n,
                        barrier: &barrier,
                    },
                )
            })
            .1
        });
        self.record_fork(fork_start, busy0);
    }

    /// Parallel fold-and-merge over `0..count` — the generic reduction the
    /// analysis engine runs its `Moments::merge`-style combines on.
    ///
    /// Each team member folds its contiguous [`static_block`] of indices into
    /// a local accumulator (`init` → repeated `fold`); the per-member
    /// partials then merge **in thread order** at the join. The block
    /// decomposition and merge order are functions of `(count, threads)`
    /// only, so the result is deterministic for a fixed pool size even when
    /// `merge` is only associative up to floating-point rounding.
    pub fn parallel_reduce<T, I, F, M>(&self, count: usize, init: I, fold: F, merge: M) -> T
    where
        T: Send,
        I: Fn() -> T + Sync,
        F: Fn(T, usize) -> T + Sync,
        M: Fn(T, T) -> T + Sync,
    {
        let slots: Vec<Mutex<Option<T>>> = (0..self.n).map(|_| Mutex::new(None)).collect();
        self.region(|ctx| {
            let mut acc = init();
            for i in static_block(count, ctx.nthreads(), ctx.thread()) {
                acc = fold(acc, i);
            }
            *slots[ctx.thread()].lock() = Some(acc);
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("every member stores its partial"))
            .reduce(merge)
            .expect("pool has at least one thread")
    }

    /// Instrumented region: the paper's Listing 1.
    ///
    /// Sequence per member: team barrier (synchronize start estimates) →
    /// enter stamp → `body` → exit stamp (**no** barrier first — `nowait`) →
    /// join at region end.
    pub fn timed_region<C, F>(&self, region: &TimedRegion<'_, C>, iteration: usize, body: F)
    where
        C: Clock + ?Sized,
        F: Fn(&Ctx<'_>) + Sync,
    {
        self.region(|ctx| {
            ctx.barrier();
            region.run(iteration, ctx.thread(), || body(ctx));
        });
    }

    /// Instrumented static-schedule loop
    /// (`barrier; stamp; omp for nowait; stamp; join`).
    pub fn timed_for_static<C, F>(
        &self,
        region: &TimedRegion<'_, C>,
        iteration: usize,
        count: usize,
        body: F,
    ) where
        C: Clock + ?Sized,
        F: Fn(usize, &Ctx<'_>) + Sync,
    {
        self.region(|ctx| {
            ctx.barrier();
            region.run(iteration, ctx.thread(), || {
                for i in static_block(count, ctx.nthreads(), ctx.thread()) {
                    body(i, ctx);
                }
            });
        });
    }

    /// Instrumented variant of [`parallel_parts_mut`](Self::parallel_parts_mut):
    /// stamps wrap each member's exclusive, caller-sized block.
    pub fn timed_parts_mut<C, T, F>(
        &self,
        region: &TimedRegion<'_, C>,
        iteration: usize,
        data: &mut [T],
        part_lens: &[usize],
        body: F,
    ) where
        C: Clock + ?Sized,
        T: Send,
        F: Fn(&mut [T], Range<usize>, &Ctx<'_>) + Sync,
    {
        self.parallel_parts_mut(data, part_lens, |block, range, ctx| {
            ctx.barrier();
            region.run(iteration, ctx.thread(), || body(block, range, ctx));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebird_core::{IterationCollector, MonotonicClock, VirtualClock};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn region_runs_every_member_once() {
        let pool = Pool::new(6);
        let hits = AtomicU64::new(0);
        let seen = Mutex::new(vec![false; 6]);
        pool.region(|ctx| {
            hits.fetch_add(1, Ordering::SeqCst);
            assert_eq!(ctx.nthreads(), 6);
            let mut g = seen.lock();
            assert!(!g[ctx.thread()], "duplicate member id");
            g[ctx.thread()] = true;
        });
        assert_eq!(hits.load(Ordering::SeqCst), 6);
        assert!(seen.lock().iter().all(|&s| s));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        let mut touched = false;
        // Borrowing mutably proves it runs on the calling thread w/o Sync needs.
        let cell = Mutex::new(&mut touched);
        pool.region(|ctx| {
            assert_eq!(ctx.thread(), 0);
            **cell.lock() = true;
        });
        assert!(touched);
    }

    #[test]
    fn static_for_covers_range_exactly_once() {
        let pool = Pool::new(4);
        let counts: Vec<AtomicU64> = (0..103).map(|_| AtomicU64::new(0)).collect();
        pool.parallel_for_static(103, |i, _| {
            counts[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn chunks_mut_gives_disjoint_blocks() {
        let pool = Pool::new(5);
        let mut data = vec![0usize; 23];
        pool.parallel_chunks_mut(&mut data, |block, range, ctx| {
            assert_eq!(block.len(), range.len());
            assert_eq!(range, static_block(23, 5, ctx.thread()));
            for (off, v) in block.iter_mut().enumerate() {
                *v = range.start + off + 1; // global index + 1
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i + 1);
        }
    }

    #[test]
    fn chunks_mut_single_thread() {
        let pool = Pool::new(1);
        let mut data = vec![0u8; 5];
        pool.parallel_chunks_mut(&mut data, |block, range, _| {
            assert_eq!(range, 0..5);
            block.fill(7);
        });
        assert_eq!(data, vec![7; 5]);
    }

    #[test]
    fn timed_region_records_all_threads() {
        let pool = Pool::new(4);
        let clock = MonotonicClock::new();
        let coll = IterationCollector::new(3, 4);
        let region = TimedRegion::new(&clock, &coll);
        for iter in 0..3 {
            pool.timed_region(&region, iter, |_| {
                std::thread::sleep(std::time::Duration::from_micros(200));
            });
        }
        assert_eq!(coll.completeness(), 1.0);
        for i in 0..3 {
            for t in 0..4 {
                let s = coll.sample(i, t).unwrap();
                assert!(s.compute_time_ns() >= 100_000, "i={i} t={t}");
            }
        }
    }

    #[test]
    fn timed_for_static_measures_work_share() {
        let pool = Pool::new(2);
        let clock = MonotonicClock::new();
        let coll = IterationCollector::new(1, 2);
        let region = TimedRegion::new(&clock, &coll);
        let sum = AtomicU64::new(0);
        pool.timed_for_static(&region, 0, 1000, |i, _| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 499_500);
        assert_eq!(coll.completeness(), 1.0);
    }

    #[test]
    fn parts_mut_respects_caller_lengths() {
        let pool = Pool::new(3);
        let mut data = vec![0usize; 10];
        let lens = [5, 2, 3];
        pool.parallel_parts_mut(&mut data, &lens, |block, range, ctx| {
            assert_eq!(block.len(), lens[ctx.thread()]);
            for (off, v) in block.iter_mut().enumerate() {
                *v = range.start + off;
            }
        });
        assert_eq!(data, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cover data exactly")]
    fn parts_mut_rejects_bad_lengths() {
        let pool = Pool::new(2);
        let mut data = vec![0u8; 4];
        pool.parallel_parts_mut(&mut data, &[1, 2], |_, _, _| {});
    }

    #[test]
    fn timed_parts_mut_records_and_writes() {
        let pool = Pool::new(2);
        let clock = VirtualClock::new(0);
        let coll = IterationCollector::new(1, 2);
        let region = TimedRegion::new(&clock, &coll);
        let mut data = vec![0u8; 6];
        pool.timed_parts_mut(&region, 0, &mut data, &[4, 2], |block, _, _| block.fill(3));
        assert_eq!(data, vec![3; 6]);
        assert_eq!(coll.completeness(), 1.0);
    }

    #[test]
    fn parallel_reduce_matches_sequential_fold() {
        let pool = Pool::new(4);
        // Sum of squares with an exactly-associative merge (integers in f64).
        let got = pool.parallel_reduce(100, || 0.0f64, |acc, i| acc + (i * i) as f64, |a, b| a + b);
        assert_eq!(got, 328_350.0);
        // Empty range returns the merged identities.
        let empty = pool.parallel_reduce(0, || 7u64, |acc, _| acc + 1, |a, b| a.min(b));
        assert_eq!(empty, 7);
    }

    #[test]
    fn parallel_reduce_is_deterministic_for_fixed_pool() {
        let pool = Pool::new(3);
        let run = || {
            pool.parallel_reduce(
                1000,
                || 0.0f64,
                |acc, i| acc + 1.0 / (i as f64 + 1.0),
                |a, b| a + b,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.to_bits(), b.to_bits(), "same decomposition, same bits");
    }

    #[test]
    fn observer_times_every_worker_on_every_fork_path() {
        let registry = Arc::new(ebird_obs::Registry::wall());
        let observer = PoolObserver::new(&registry);
        let pool = Pool::new(3).with_observer(observer.clone());

        observer.set_stage("alpha");
        pool.region(|_| {
            std::thread::sleep(std::time::Duration::from_micros(200));
        });
        observer.set_stage("beta");
        let mut data = vec![0u8; 9];
        pool.parallel_chunks_mut(&mut data, |block, _, _| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            block.fill(1);
        });
        observer.set_stage("gamma");
        let mut more = vec![0u8; 6];
        pool.parallel_parts_mut(&mut more, &[3, 2, 1], |block, _, _| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            block.fill(2);
        });

        let snap = registry.snapshot();
        for stage in ["alpha", "beta", "gamma"] {
            let mut workers_total = 0u64;
            for t in 0..3 {
                let busy = snap.counter(&PoolObserver::worker_counter(stage, t));
                assert!(busy >= 100_000, "stage {stage} worker {t}: {busy} ns");
                workers_total += busy;
            }
            assert_eq!(
                snap.counter(&PoolObserver::stage_counter(stage)),
                workers_total,
                "stage total must equal the sum over workers"
            );
        }
        assert_eq!(data, vec![1; 9], "observation must not change results");
        assert_eq!(more, vec![2; 6]);
    }

    #[test]
    fn fork_overhead_histogram_counts_every_fork_path() {
        let registry = Arc::new(ebird_obs::Registry::wall());
        let observer = PoolObserver::new(&registry);
        let pool = Pool::new(2).with_observer(observer.clone());

        pool.region(|_| {});
        let mut data = vec![0u8; 4];
        pool.parallel_chunks_mut(&mut data, |_, _, _| {});
        pool.parallel_parts_mut(&mut data, &[3, 1], |_, _, _| {});
        pool.run_serial(|| {});

        let snap = registry.snapshot();
        let forks = snap.histogram(PoolObserver::FORK_NS);
        assert_eq!(forks.count(), 4, "one entry per fork/join");
    }

    #[test]
    fn run_serial_records_busy_time_and_near_zero_fork_overhead() {
        let registry = Arc::new(ebird_obs::Registry::wall());
        let observer = PoolObserver::new(&registry);
        let pool = Pool::new(1).with_observer(observer.clone());

        observer.set_stage("serial");
        let mut scratch = [0u64; 8];
        let out = pool.run_serial(|| {
            std::thread::sleep(std::time::Duration::from_micros(300));
            scratch[0] = 9; // FnOnce: &mut captures need no Sync wrapper.
            scratch[0]
        });
        assert_eq!(out, 9);

        let snap = registry.snapshot();
        let busy = snap.counter(&PoolObserver::worker_counter("serial", 0));
        assert!(busy >= 100_000, "busy time attributed to the stage: {busy}");
        let forks = snap.histogram(PoolObserver::FORK_NS);
        assert_eq!(forks.count(), 1);
        // The inline path's overhead is bookkeeping only — far below the
        // body's own run time (which sits in the busy counter, not here).
        assert!(
            forks.total() < busy / 2,
            "inline fork overhead {} vs busy {busy}",
            forks.total()
        );
    }

    #[test]
    fn unobserved_run_serial_is_passthrough() {
        let pool = Pool::new(4);
        let mut hits = 0u32;
        let r = pool.run_serial(|| {
            hits += 1;
            hits
        });
        assert_eq!((r, hits), (1, 1));
    }

    #[test]
    fn nested_barrier_use_inside_region() {
        let pool = Pool::new(4);
        let phase1 = AtomicU64::new(0);
        pool.region(|ctx| {
            phase1.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // All four increments must be visible after the barrier.
            assert_eq!(phase1.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_thread_pool_rejected() {
        Pool::new(0);
    }

    #[test]
    fn oversubscribed_pool_completes() {
        // 16 threads on a 2-core box: exercises parking paths end-to-end.
        let pool = Pool::new(16);
        let hits = AtomicU64::new(0);
        pool.parallel_for_static(160, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 160);
    }
}
