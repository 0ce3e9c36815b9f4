//! The hot tier holds less than its budget charges: filled far past its
//! budget with real rows, a `ResultCache` holds at most 0.46 × the bytes it
//! charges on the heap — the budget charges each entry's plain spec and row,
//! the tier keeps them coded: keys, preset labels and digit pairs one byte
//! each (this file reads at most 0.437 so, and 0.630 from a tier that codes
//! keys only) — gives back every byte when dropped, and serves each hit
//! byte for byte as it was inserted.
//!
//! The live-byte counter is this binary's global allocator, so the file
//! holds exactly one test: a second one running beside it would be counted
//! too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use ebird_analysis::report::json_line;
use ebird_runtime::Pool;
use ebird_serve::scenario::{run_matrix, CellSpec, ScenarioMatrix};
use ebird_serve::{CacheConfig, ContentKey, ResultCache};

/// The system allocator, counting the bytes live on the heap.
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's `alloc` obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
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

fn live() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

#[test]
fn the_hot_tier_holds_less_than_it_charges_and_returns_it_all() {
    const BUDGET: usize = 4 << 20;
    // The full campaign's 288 cells, priced once: real specs and rows.
    let matrix = ScenarioMatrix::full();
    let cells = matrix.resolve().expect("the full preset resolves").cells();
    let specs: Vec<CellSpec> = cells
        .iter()
        .map(|cell| serde_json::from_str(cell.content_key().content()).expect("keys parse"))
        .collect();
    let rows: Vec<String> = run_matrix(&matrix, &Pool::new(1))
        .expect("the full preset prices")
        .iter()
        .map(|row| json_line(row).expect("rows encode"))
        .collect();
    // Entry `i` is cell `i % 288` under seed `i / 288`: a distinct spec of
    // the real length, with its cell's real row.
    let entry = |i: usize| {
        let mut spec = specs[i % specs.len()].clone();
        spec.seed = (i / specs.len()) as u64;
        let key = ContentKey::of(serde_json::to_string(&spec).expect("specs encode"));
        (key, &rows[i % rows.len()])
    };

    let baseline = live();
    let cache = ResultCache::new(CacheConfig {
        cold_dir: None,
        hot_budget_bytes: Some(BUDGET),
    })
    .expect("a memory-only cache opens");
    let (mut inserted, mut charged, mut hits) = (0usize, 0usize, 0usize);
    while charged < 10 * BUDGET {
        let (key, row) = entry(inserted);
        charged += key.content().len() + row.len() + 64;
        drop(cache.insert(&key, row.clone()));
        inserted += 1;
        // Re-read an entry a few hundred inserts back: some are still in
        // small and get promoted, the rest go through main's requeue.
        if inserted % 3 == 0 && inserted > 300 {
            let (key, row) = entry(inserted - 300);
            if let Some(hit) = cache.lookup(&key) {
                assert_eq!(
                    hit.row(),
                    row.as_str(),
                    "entry {} read back changed",
                    inserted - 300
                );
                hits += 1;
            }
        }
        if inserted % 1_000 == 0 {
            let held = (live() - baseline) as f64;
            let hot = cache.hot_bytes() as f64;
            assert!(
                held <= 0.46 * hot,
                "after {inserted} inserts the heap holds {held} B for {hot} B charged ({:.3}×)",
                held / hot
            );
            let resident = cache.hot_resident_bytes() as f64;
            assert!(
                (0.97 * held..=1.01 * held).contains(&resident),
                "after {inserted} inserts status reports {resident} B resident for {held} B held"
            );
        }
    }
    assert!(cache.evictions() > 0 && hits > 1_000, "{hits} hits");
    // Every entry still resident reads back as it went in.
    for i in 0..inserted {
        let (key, row) = entry(i);
        if let Some(hit) = cache.lookup(&key) {
            assert_eq!(hit.row(), row.as_str(), "entry {i} read back changed");
        }
    }
    drop(cache);
    assert_eq!(live(), baseline, "the dropped cache left heap bytes behind");
}
