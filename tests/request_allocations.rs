//! What a submit's cells cost the heap, as numbers. A resolved matrix holds
//! its axes once, and a cell is an index on each axis: enumerating the
//! cells of `full` is one allocation however many cells the matrix spans,
//! and a cell's content key is one exactly-sized string written from
//! per-axis fragments. Cells once carried deep copies of their specs, labels
//! and handles (2 063 allocations for `full`'s 288 cells, growing with the
//! cell count), and each key re-serialized its cell's spec into a growing
//! string (2 017 allocations for 288 keys).
//!
//! The counter is this binary's global allocator, so the file holds exactly
//! one test: a second one running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use early_bird::serve::scenario::{ResolvedCell, ScenarioMatrix};

/// The system allocator, counting every request for memory.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `alloc` obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// The result of `step`, and the allocations made while it ran.
fn allocations<T>(step: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = step();
    (result, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_resolved_matrix_allocates_per_axis_not_per_cell() {
    let full = ScenarioMatrix::full();
    // One more rank count: 96 more cells, the same axes otherwise.
    let wider = ScenarioMatrix {
        ranks: [full.ranks.clone(), vec![16]].concat(),
        ..full.clone()
    };
    let (full, wider) = (full.resolve().unwrap(), wider.resolve().unwrap());

    let (cells, on_full) = allocations(|| full.cells());
    let (wider_cells, on_wider) = allocations(|| wider.cells());
    assert_eq!((cells.len(), wider_cells.len()), (288, 384));
    assert_eq!(on_full, on_wider, "cells() allocated per cell");
    assert_eq!(on_full, 1, "cells() allocates its Vec and nothing else");

    // One exactly-sized string per key, and nothing else.
    let ((), on_keys) = allocations(|| {
        for cell in &cells {
            std::hint::black_box(cell.content_key());
        }
    });
    assert_eq!(on_keys, cells.len(), "288 keys");

    // Grouping and cloning read indices and bump a reference count.
    let (groups, on_groups) = allocations(|| cells.chunk_by(ResolvedCell::same_group).count());
    assert_eq!((groups, on_groups), (36, 0));
    let (copy, on_copy) = allocations(|| cells[..8].to_vec());
    assert_eq!((copy.len(), on_copy), (8, 1));
}
