//! Allocation discipline of the analysis stages, as numbers: with warm
//! [`EngineArenas`], a stage entry allocates its result, its fork/join
//! bookkeeping and (the sweep) one group buffer per worker part — a count
//! that depends on the team size and **not** on how many process-iterations
//! the trace holds. The delivery sweep used to break that (one heap cell per
//! outcome, four per process-iteration). And a warm call leaves nothing
//! behind: once its result is dropped, live heap bytes are where they were.
//!
//! The counters are this binary's global allocator, so the file holds
//! exactly one test: a second one running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

use early_bird::analysis::engine::{
    delivery_sweep_parallel_with_arenas, sweep_levels_parallel_with_arenas, EngineArenas,
};
use early_bird::analysis::scan::trace_scan_parallel_with_arenas;
use early_bird::cluster::calibration::{ALPHA, LAGGARD_THRESHOLD_MS};
use early_bird::cluster::{JobConfig, SyntheticApp};
use early_bird::core::TimingTrace;
use early_bird::partcomm::{LinkModel, SerialLink};
use early_bird::runtime::Pool;

/// The system allocator, counting every request for memory and the bytes
/// live on the heap.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's `alloc` obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` came from this allocator, that is, from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, that is, from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made while `stage` runs, and the live heap bytes it leaves
/// behind once its result is dropped.
fn allocations<T>(stage: impl FnOnce() -> T) -> (usize, isize) {
    let (before, live_before) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    );
    let result = stage();
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(result);
    (made, LIVE_BYTES.load(Ordering::Relaxed) - live_before)
}

/// The three analysis stage entries' allocation counts, and the live heap
/// bytes each leaves behind, on `trace`.
fn stage_allocations(
    trace: &TimingTrace,
    pool: &Pool,
    arenas: &mut EngineArenas,
) -> ([usize; 3], [isize; 3]) {
    let link = LinkModel::omni_path();
    let stages = [
        allocations(|| sweep_levels_parallel_with_arenas(trace, ALPHA, None, pool, arenas)),
        allocations(|| trace_scan_parallel_with_arenas(trace, LAGGARD_THRESHOLD_MS, pool, arenas)),
        allocations(|| {
            delivery_sweep_parallel_with_arenas(
                trace,
                1_000_000,
                || SerialLink::new(link),
                pool,
                arenas,
            )
        }),
    ];
    (stages.map(|(made, _)| made), stages.map(|(_, kept)| kept))
}

#[test]
fn analysis_stages_allocate_per_call_and_per_worker_never_per_unit() {
    // The ci-scale campaign (200 process-iterations) and the same with its
    // iterations doubled (400).
    let ci = JobConfig::ci_scale();
    let doubled = JobConfig::new(ci.trials, ci.ranks, 2 * ci.iterations, ci.threads);
    for app in SyntheticApp::all() {
        let small = app.generate(&ci, 20230421);
        let large = app.generate(&doubled, 20230421);
        for workers in [1, 3] {
            let pool = Pool::new(workers);
            let mut arenas = EngineArenas::for_pool(&pool);
            // Warm-up: every buffer reaches its high-water mark, every
            // Shapiro–Wilk weight vector either trace needs is cached.
            stage_allocations(&large, &pool, &mut arenas);
            stage_allocations(&small, &pool, &mut arenas);

            let (on_small, kept_small) = stage_allocations(&small, &pool, &mut arenas);
            let (on_large, kept_large) = stage_allocations(&large, &pool, &mut arenas);
            let what = format!("{} × {workers} worker(s)", small.app());
            assert_eq!(
                on_small, on_large,
                "{what}: [sweep, scan, delivery] counts moved with the unit count"
            );
            // Results plus fork/join bookkeeping: measured 11 / 6 / 4 on one
            // worker and 20 / 21 / 11 on three for every app (the scan reads
            // 25 under the harness's output capture, which spawned threads
            // inherit). The sweep's count includes its group buffer: one per
            // worker part per call, sized to the part's largest group and
            // freed before the call returns, so warm arenas hold no group.
            // With a heap cell per outcome the delivery sweep read 804 and
            // 1604 on one worker. One worker spawns nothing, so its counts
            // are exact: a sweep whose sorted milliseconds took a buffer of
            // their own instead of the keys' would add to them, and so does
            // a delivery table staged in `Option`s (5 on the ci-scale trace,
            // 4 on the doubled one: a 32-byte outcome has no niche, so the
            // collect out of the staged rows reallocates).
            if workers == 1 {
                assert_eq!(on_small, [11, 6, 4], "{what}");
                // Nothing a warm call allocates outlives it: no arena buffer
                // grows and no group buffer is kept for the next call.
                assert_eq!(kept_small, [0, 0, 0], "{what}: live bytes kept");
                assert_eq!(kept_large, [0, 0, 0], "{what}: live bytes kept");
            }
            for (stage, made) in ["sweep", "scan", "delivery"].into_iter().zip(on_small) {
                assert!(
                    made <= 10 + 6 * workers,
                    "{what}: {stage} allocated {made} times"
                );
            }
        }
    }
}
