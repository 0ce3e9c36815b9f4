//! Allocation discipline of the analysis stages, as numbers: with warm
//! [`EngineArenas`], a stage entry allocates its result, its fork/join
//! bookkeeping and (the sweep) one group buffer and one battery scratch per
//! worker part — a count that depends on the team size and **not** on how
//! many process-iterations the trace holds. The delivery sweep used to break that (one heap cell per
//! outcome, four per process-iteration). And a warm call leaves nothing
//! behind: once its result is dropped, live heap bytes are where they were.
//! And the sweep's one group buffer is 4 B an element: its heap high-water
//! above its result is the part's largest group as `u32` keys, its weight
//! vectors and its Φ block, plus slack.
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
static PEAK_LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

/// Adds `delta` to the live heap bytes and raises the high-water mark to
/// the new total.
fn track(delta: isize) {
    let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        track(layout.size() as isize);
        // SAFETY: the caller's `alloc` obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        track(layout.size() as isize);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        track(new_size as isize - layout.size() as isize);
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

/// What one call of `stage` costs the heap.
struct Cost {
    /// Allocations made while it runs.
    made: usize,
    /// Live heap bytes it leaves behind once its result is dropped.
    kept: isize,
    /// Its heap high-water above its result: the most live bytes at any
    /// point of the call, less those live when it returned.
    transient: isize,
}

fn allocations<T>(stage: impl FnOnce() -> T) -> Cost {
    let (before, live_before) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    );
    PEAK_LIVE_BYTES.store(live_before, Ordering::Relaxed);
    let result = stage();
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let transient = PEAK_LIVE_BYTES.load(Ordering::Relaxed) - LIVE_BYTES.load(Ordering::Relaxed);
    drop(result);
    let kept = LIVE_BYTES.load(Ordering::Relaxed) - live_before;
    Cost {
        made,
        kept,
        transient,
    }
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
    (stages.each_ref().map(|c| c.made), stages.map(|c| c.kept))
}

/// How far a one-worker sweep call's heap high-water above its result may
/// sit from its key buffer, weight vectors and Φ block: the weight cache's
/// entry table and the fork/join bookkeeping, less the result's labels.
const SWEEP_SLACK_BYTES: usize = 1024;

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
            // Warm-up: every arena buffer reaches its high-water mark.
            stage_allocations(&large, &pool, &mut arenas);
            stage_allocations(&small, &pool, &mut arenas);

            let (on_small, kept_small) = stage_allocations(&small, &pool, &mut arenas);
            let (on_large, kept_large) = stage_allocations(&large, &pool, &mut arenas);
            let what = format!("{} × {workers} worker(s)", small.app());
            assert_eq!(
                on_small, on_large,
                "{what}: [sweep, scan, delivery] counts moved with the unit count"
            );
            // Results plus fork/join bookkeeping: measured 18 / 6 / 4 on one
            // worker and 20 / 21 / 11 on three for every app (the scan reads
            // 25 under the harness's output capture, which spawned threads
            // inherit). The sweep's count includes, per worker part per
            // call, its group buffer (sized to the part's largest group)
            // and its battery scratch — one weight vector per distinct group
            // size (three on one worker), the cache's entry table and the
            // three Φ block buffers — all freed before the call returns, so
            // warm arenas hold no group and no weights.
            // With a heap cell per outcome the delivery sweep read 804 and
            // 1604 on one worker. One worker spawns nothing, so its counts
            // are exact: a sweep whose sorted milliseconds took a buffer of
            // their own instead of the keys' would add to them, and so does
            // a delivery table staged in `Option`s (5 on the ci-scale trace,
            // 4 on the doubled one: a 32-byte outcome has no niche, so the
            // collect out of the staged rows reallocates).
            if workers == 1 {
                assert_eq!(on_small, [18, 6, 4], "{what}");
                // Nothing a warm call allocates outlives it: no arena buffer
                // grows, and no group buffer or weight vector is kept for
                // the next call.
                assert_eq!(kept_small, [0, 0, 0], "{what}: live bytes kept");
                assert_eq!(kept_large, [0, 0, 0], "{what}: live bytes kept");
                // The sweep's group buffer is one `u32` key per element of
                // the part's largest group. On the ci-scale traces the level
                // split's copy of the process-iteration rows sets the call's
                // high-water, so the key width is read on a trace whose one
                // application group (8 192 samples, 5 groups in all) dwarfs
                // its outcome table: there, the heap high-water above the
                // result is the buffer, the call's two weight vectors (n/2
                // `f64` for n = 8 192 and 4 096, held together by the cache)
                // and its Φ block (three `f64` buffers of 2 × 512), plus the
                // bookkeeping.
                let wide = app.generate(&JobConfig::new(1, 1, 2, 4096), 20230421);
                let keys = 4 * wide.samples().len() as isize;
                let weights = 8 * (8192 / 2 + 4096 / 2);
                let phi = 3 * 8 * 2 * 512;
                allocations(|| {
                    sweep_levels_parallel_with_arenas(&wide, ALPHA, None, &pool, &mut arenas)
                });
                let sweep = allocations(|| {
                    sweep_levels_parallel_with_arenas(&wide, ALPHA, None, &pool, &mut arenas)
                });
                // Eight-byte keys read 32 KiB over.
                assert!(
                    sweep.transient.abs_diff(keys + weights + phi) <= SWEEP_SLACK_BYTES,
                    "{what}: sweep high-water {} B above its result; keys {keys} B, \
                     weights {weights} B, Φ block {phi} B",
                    sweep.transient
                );
            }
            // Every stage allocates at most six times a worker beyond its
            // result; a sweep part also owns its battery scratch, at most
            // seven more: the three Φ buffers, the weight cache's entry
            // table and one weight vector per level's group size (37 on
            // three workers, where the three parts solve five vectors).
            for (stage, made) in ["sweep", "scan", "delivery"].into_iter().zip(on_small) {
                let scratch = if stage == "sweep" { 7 * workers } else { 0 };
                assert!(
                    made <= 10 + 6 * workers + scratch,
                    "{what}: {stage} allocated {made} times"
                );
            }
        }
    }
}
