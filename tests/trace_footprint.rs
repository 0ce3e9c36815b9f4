//! The trace's footprint, as numbers: a sample is one 4-byte word, a trace is
//! one column of them, and generating a trace writes that column once — no
//! zero-filled twin that the workers then overwrite, no amortised-growth
//! reallocation, and on a team only the non-first members' blocks are copied.
//!
//! The counter is this binary's global allocator (the style of
//! `tests/stage_allocations.rs`), so the file holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::{size_of, size_of_val};
use std::sync::atomic::{AtomicUsize, Ordering};

use early_bird::cluster::{JobConfig, SyntheticApp};
use early_bird::core::ThreadSample;
use early_bird::runtime::{static_block, Pool};

/// Requests of at least this many bytes are sample storage: nothing else in
/// generation (scratch rows, fork/join bookkeeping) comes near it, and a
/// three-member team's smallest block (a third of a paper-scale column,
/// ≈ 1.0 MB) is above it.
const LARGE: usize = 1 << 19;

/// The system allocator, recording every large request.
struct Counting;

static LARGE_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LARGE_BYTES: AtomicUsize = AtomicUsize::new(0);
static LARGE_REALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    if size >= LARGE {
        LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LARGE_BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `alloc` obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if layout.size().max(new_size) >= LARGE {
            LARGE_REALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from this allocator, that is, from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is, from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(large allocations, their bytes, large reallocations)` made by `stage`.
fn large_requests<T>(stage: impl FnOnce() -> T) -> (T, [usize; 3]) {
    let read = || {
        [
            LARGE_ALLOCATIONS.load(Ordering::Relaxed),
            LARGE_BYTES.load(Ordering::Relaxed),
            LARGE_REALLOCATIONS.load(Ordering::Relaxed),
        ]
    };
    let before = read();
    let result = stage();
    let after = read();
    (result, [0, 1, 2].map(|k| after[k] - before[k]))
}

#[test]
fn a_trace_is_one_four_byte_column_written_once() {
    assert_eq!(size_of::<ThreadSample>(), 4);

    let cfg = JobConfig::paper_scale();
    let shape = cfg.shape();
    let column_bytes = 4 * shape.total_samples();
    let app = SyntheticApp::minife();

    // One member: the block it fills *is* the trace's storage.
    let (trace, requests) = large_requests(|| app.generate_parallel(&cfg, 7, &Pool::new(1)));
    assert_eq!(size_of_val(trace.samples()), column_bytes);
    assert_eq!(
        requests,
        [1, column_bytes, 0],
        "one member: [allocations, bytes, reallocations] of sample storage"
    );

    // Three members: the first block is the storage, the other two are
    // filled beside it and appended — the only samples that move.
    let appended: usize = (1..3)
        .map(|member| static_block(shape.process_iterations(), 3, member).len())
        .sum::<usize>()
        * shape.threads
        * 4;
    let (teamed, requests) = large_requests(|| app.generate_parallel(&cfg, 7, &Pool::new(3)));
    assert_eq!(
        requests,
        [3, column_bytes + appended, 0],
        "three members: [allocations, bytes, reallocations] of sample storage"
    );
    assert!(teamed == trace, "bit-identical at every pool size");

    // The pool-free reference pays the same single column.
    let (reference, requests) = large_requests(|| app.generate(&cfg, 7));
    assert_eq!(requests, [1, column_bytes, 0], "reference generator");
    assert!(reference == trace);
}
