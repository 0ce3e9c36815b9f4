//! What registering a submit's cells in the single-flight table costs the
//! heap. The registering subscriber of a cell is held inline, and a list is
//! allocated only once a second submission subscribes, so registering the
//! 288 cells of `full` allocates nothing but the table's own growth — and,
//! once the table has grown, nothing at all. A table holding a one-element
//! list per cell allocated 288 times per submit, under the table's lock.
//!
//! The counter is this binary's global allocator, so the file holds exactly
//! one test: a second one running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use early_bird::serve::coalesce::{InflightTable, Subscriber};
use early_bird::serve::scenario::ScenarioMatrix;
use early_bird::serve::ContentKey;

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
fn registering_a_submits_cells_allocates_only_the_tables_growth() {
    let keys: Vec<ContentKey> = ScenarioMatrix::full()
        .resolve()
        .expect("the full preset resolves")
        .cells()
        .iter()
        .map(|cell| cell.content_key())
        .collect();
    assert_eq!(keys.len(), 288);
    let (reply, replies) = mpsc::channel();
    let subscribers = || -> Vec<Subscriber> {
        (0..keys.len())
            .map(|index| Subscriber {
                index,
                reply: reply.clone(),
            })
            .collect()
    };
    let table = InflightTable::new();
    let register = |subscribers: Vec<Subscriber>| {
        let mut guard = table.lock();
        for (key, subscriber) in keys.iter().zip(subscribers) {
            guard.register(key, subscriber);
        }
    };
    let complete = || -> usize { keys.iter().map(|key| table.complete(key).count()).sum() };

    // A new table grows by doubling: a handful of allocations, not one per
    // cell.
    let prepared = subscribers();
    let ((), grown) = allocations(|| register(prepared));
    assert!(
        grown <= 12,
        "registering 288 cells in a new table allocated {grown} times"
    );
    let (done, completing) = allocations(complete);
    assert_eq!((done, completing), (288, 0));

    // The grown table takes the next submit's 288 cells without allocating.
    let prepared = subscribers();
    let ((), again) = allocations(|| register(prepared));
    assert_eq!(again, 0, "registering 288 cells allocated {again} times");

    // A second subscriber to a cell is the first list it allocates.
    let joiner = Subscriber { index: 0, reply };
    let ((), joined) = allocations(|| table.lock().subscribe(&keys[0], joiner));
    assert_eq!(joined, 1);
    assert_eq!(complete(), 289);
    // Nothing was sent: completing a cell hands its subscribers back.
    assert_eq!(replies.try_iter().count(), 0);
}
