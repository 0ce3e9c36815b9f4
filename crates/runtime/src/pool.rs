//! The fork/join pool: scoped thread teams with OpenMP-like work sharing.
//!
//! Fork/join is written once, in a private primitive: one payload per team
//! member in, the body run on every member (the calling thread is member 0,
//! as in OpenMP), each member's value out in thread order at the join. A
//! one-member team runs the body inline on the caller — no thread is
//! spawned — so every pool size runs the same code. [`Pool::region`], the
//! work-sharing variants (static loop, disjoint `&mut` blocks, reduction)
//! and [`Pool::service`] are adapters that choose the payloads;
//! [`Pool::timed_parts_mut`] adds the paper's Listing-1 instrumentation when
//! given a clock: a team barrier, the member's enter stamp, its loop share,
//! its exit stamp (`nowait` — no barrier before it), then the join, which
//! hands each member's [`ThreadSample`] back in thread order.

use std::ops::Range;
use std::sync::Arc;

use ebird_core::ThreadSample;
use ebird_obs::TimeSource;
use parking_lot::Mutex;

use crate::barrier::SenseBarrier;
use crate::schedule::static_block;

/// Per-worker busy-time instrumentation for a [`Pool`].
///
/// When attached ([`Pool::with_observer`]), every team-member body of every
/// fork is bracketed with registry time stamps, accumulating into counters
/// named
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
    /// built to expose. A one-member team runs inline on the calling thread,
    /// so its entries are bookkeeping only: near zero.
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
/// Teams are forked per region as scoped threads, so region closures may
/// borrow freely from the caller's stack — the idiomatic-safe equivalent of
/// OpenMP's shared-by-default variables.
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

    /// Attaches a [`PoolObserver`]: every member body of every fork is timed
    /// into per-stage/per-worker busy counters.
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

    /// The fork/join primitive under every public entry: forks one team
    /// member per payload, runs `body(payload, ctx)` on each, joins, and
    /// returns the members' values in thread order. Member 0 is the calling
    /// thread and members `1..` are scoped threads, so a one-member team
    /// spawns nothing and runs `body` inline on the caller. A member's panic
    /// resumes on the forking thread once the whole team has joined (the
    /// scope waits for every member either way).
    ///
    /// With an observer attached, this is the one place a member body is
    /// bracketed into the busy counters and a fork's overhead — region wall
    /// time minus member 0's busy time — lands in
    /// [`PoolObserver::FORK_NS`].
    fn fork_join<P, R, F>(&self, payloads: Vec<P>, body: F) -> Vec<R>
    where
        P: Send,
        R: Send,
        F: Fn(P, &Ctx<'_>) -> R + Sync,
    {
        let n = self.n;
        assert_eq!(payloads.len(), n, "one payload per team member");
        let barrier = SenseBarrier::new(n);
        let now_ns = || self.observer.as_ref().map_or(0, |o| o.registry.now_ns());
        let member = |thread: usize, payload: P| {
            let ctx = Ctx {
                thread,
                nthreads: n,
                barrier: &barrier,
            };
            let start = now_ns();
            let value = body(payload, &ctx);
            let busy = now_ns().saturating_sub(start);
            if let Some(o) = &self.observer {
                o.record(thread, busy);
            }
            (value, busy)
        };
        let fork_start = now_ns();
        let mut payloads = payloads.into_iter();
        let first = payloads.next().expect("pool has at least one thread");
        let (values, busy0) = std::thread::scope(|s| {
            let member = &member;
            let spawned: Vec<_> = (1..)
                .zip(payloads)
                .map(|(t, payload)| s.spawn(move || member(t, payload).0))
                .collect();
            let (value0, busy0) = member(0, first);
            let mut values = Vec::with_capacity(n);
            values.push(value0);
            for handle in spawned {
                values.push(
                    handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                );
            }
            (values, busy0)
        });
        if let Some(o) = &self.observer {
            let wall = now_ns().saturating_sub(fork_start);
            o.fork_ns.record(wall.saturating_sub(busy0));
        }
        values
    }

    /// Runs `f` on every team member concurrently and joins
    /// (`#pragma omp parallel`).
    pub fn region<F>(&self, f: F)
    where
        F: Fn(&Ctx<'_>) + Sync,
    {
        self.fork_join(vec![(); self.n], |(), ctx| f(ctx));
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
        let part_lens: Vec<usize> = (0..self.n)
            .map(|t| static_block(data.len(), self.n, t).len())
            .collect();
        self.parallel_parts_mut(data, &part_lens, body);
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
        self.fork_parts(data, part_lens, body);
    }

    /// The disjoint-block split under [`parallel_parts_mut`] and
    /// [`timed_parts_mut`]: each member runs `body` on its block, and the
    /// members' values come back in thread order.
    ///
    /// [`parallel_parts_mut`]: Self::parallel_parts_mut
    /// [`timed_parts_mut`]: Self::timed_parts_mut
    fn fork_parts<T, R, F>(&self, data: &mut [T], part_lens: &[usize], body: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut [T], Range<usize>, &Ctx<'_>) -> R + Sync,
    {
        assert_eq!(part_lens.len(), self.n, "one part per thread");
        assert_eq!(
            part_lens.iter().sum::<usize>(),
            data.len(),
            "part lengths must cover data exactly"
        );
        // Pre-split into disjoint blocks so no unsafe aliasing is needed.
        let mut parts: Vec<(&mut [T], Range<usize>)> = Vec::with_capacity(self.n);
        let mut rest = data;
        let mut start = 0usize;
        for &len in part_lens {
            let (head, tail) = rest.split_at_mut(len);
            parts.push((head, start..start + len));
            rest = tail;
            start += len;
        }
        self.fork_join(parts, |(block, range), ctx| body(block, range, ctx))
    }

    /// [`parallel_parts_mut`](Self::parallel_parts_mut), stamped as the
    /// paper's Listing 1 when given a clock, returning each member's sample
    /// in thread order.
    ///
    /// Sequence per member: team barrier (synchronize start estimates) →
    /// enter stamp → `body` on its exclusive, caller-sized block → exit stamp
    /// (**no** barrier first — `nowait`) → the stamps subtracted into a
    /// [`ThreadSample`] on the member that took them, so nothing is written
    /// to shared memory inside the timed window → join at region end. With
    /// `None` this is `parallel_parts_mut` itself: no barrier, no clock read,
    /// and an empty vector.
    pub fn timed_parts_mut<T, F>(
        &self,
        clock: Option<&dyn TimeSource>,
        data: &mut [T],
        part_lens: &[usize],
        body: F,
    ) -> Vec<ThreadSample>
    where
        T: Send,
        F: Fn(&mut [T], Range<usize>, &Ctx<'_>) + Sync,
    {
        let Some(clock) = clock else {
            self.parallel_parts_mut(data, part_lens, body);
            return Vec::new();
        };
        self.fork_parts(data, part_lens, |block, range, ctx| {
            ctx.barrier();
            let enter_ns = clock.now_ns();
            body(block, range, ctx);
            ThreadSample::new(enter_ns, clock.now_ns())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebird_obs::{ManualClock, WallClock};
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
    fn timed_parts_mut_stamps_only_when_asked_and_writes_either_way() {
        let pool = Pool::new(2);
        let clock = ManualClock::new();
        let mut data = vec![0u8; 6];
        let untimed = pool.timed_parts_mut(None, &mut data, &[4, 2], |block, _, _| block.fill(2));
        assert_eq!(data, vec![2; 6]);
        assert!(untimed.is_empty(), "no samples without a clock");
        let timed = pool.timed_parts_mut(Some(&clock), &mut data, &[4, 2], |block, _, _| {
            block.fill(3)
        });
        assert_eq!(data, vec![3; 6]);
        assert_eq!(timed, vec![ThreadSample::default(); 2]);
    }

    #[test]
    fn timed_parts_mut_reads_the_clock_around_the_body() {
        let clock = ManualClock::new();
        clock.set(1000);
        let samples = Pool::new(1).timed_parts_mut(Some(&clock), &mut [0u8; 3], &[3], |_, _, _| {
            clock.advance(500);
        });
        assert_eq!(samples, vec![ThreadSample::new(1000, 1500)]);
    }

    #[test]
    fn timed_parts_mut_measures_a_real_spin() {
        let clock = WallClock::new();
        let samples = Pool::new(1).timed_parts_mut(Some(&clock), &mut [0u8; 1], &[1], |_, _, _| {
            // ~1 ms of busy work.
            let start = clock.now_ns();
            let mut acc = 0u64;
            while clock.now_ns() - start < 1_000_000 {
                acc = acc.wrapping_add(1);
            }
            std::hint::black_box(acc);
        });
        let ms = samples[0].compute_time_ms();
        assert!(ms >= 0.9, "measured {ms} ms");
    }

    #[test]
    fn timed_parts_mut_stamps_every_member_in_thread_order() {
        let clock = WallClock::new();
        let mut data = vec![0u8; 4];
        let samples =
            Pool::new(4).timed_parts_mut(Some(&clock), &mut data, &[1; 4], |_, _, ctx| {
                // Member t sleeps t + 1 ms, so its sample is at least that long.
                std::thread::sleep(std::time::Duration::from_millis(ctx.thread() as u64 + 1));
            });
        assert_eq!(samples.len(), 4);
        for (t, s) in samples.iter().enumerate() {
            let floor_ns = (t as u64 + 1) * 1_000_000;
            assert!(s.compute_time_ns() >= floor_ns, "member {t}: {s:?}");
        }
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

        let snap = registry.snapshot();
        let forks = snap.histogram(PoolObserver::FORK_NS);
        assert_eq!(forks.count(), 3, "one entry per fork/join");
    }

    #[test]
    fn one_member_team_runs_inline_with_one_fork_and_one_busy_entry_per_call() {
        let clock = Arc::new(ManualClock::new());
        let registry = Arc::new(ebird_obs::Registry::with_time(
            Arc::clone(&clock) as Arc<dyn TimeSource>
        ));
        let observer = PoolObserver::new(&registry);
        let pool = Pool::new(1).with_observer(observer.clone());
        let caller = std::thread::current().id();
        // Every member body: on the calling thread, 700 metered ns long.
        let member = || {
            assert_eq!(std::thread::current().id(), caller, "spawned a thread");
            clock.advance(700);
        };
        type Adapter<'a> = (&'static str, &'a dyn Fn(&Pool));
        let adapters: [Adapter<'_>; 3] = [
            ("region", &|pool| pool.region(|_| member())),
            ("chunks", &|pool| {
                pool.parallel_chunks_mut(&mut [0u8; 3], |block, range, _| {
                    assert_eq!((block.len(), range), (3, 0..3));
                    member();
                })
            }),
            ("parts", &|pool| {
                pool.parallel_parts_mut(&mut [0u8; 3], &[3], |block, range, _| {
                    assert_eq!((block.len(), range), (3, 0..3));
                    member();
                })
            }),
        ];
        for (calls, (stage, call)) in (1u64..).zip(adapters) {
            observer.set_stage(stage);
            call(&pool);
            let snap = registry.snapshot();
            let busy = snap.counter(&PoolObserver::worker_counter(stage, 0));
            assert_eq!(busy, 700, "{stage}: one w0 busy entry");
            assert_eq!(snap.counter(&PoolObserver::stage_counter(stage)), 700);
            // The clock only moves inside the body, so the fork's overhead
            // (wall minus member 0's busy time) is exactly zero.
            let forks = snap.histogram(PoolObserver::FORK_NS);
            assert_eq!((forks.count(), forks.total()), (calls, 0), "{stage}");
        }
        // Unobserved, the same calls run the same inline path.
        for (_, call) in adapters {
            call(&Pool::new(1));
        }
    }

    #[test]
    fn a_panicking_member_surfaces_on_the_forking_thread_after_the_team_joined() {
        let pool = Pool::new(4);
        let finished = AtomicU64::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.region(|ctx| {
                if ctx.thread() == 2 {
                    panic!("member 2 failed");
                }
                // The survivors outlive the panic: the fork must still wait
                // for them before it unwinds.
                std::thread::sleep(std::time::Duration::from_millis(20));
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }));
        let panic = caught.expect_err("the member's panic must reach the forking thread");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"member 2 failed"));
        assert_eq!(finished.load(Ordering::SeqCst), 3, "team joined first");
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
