//! S3-FIFO eviction for the hot cache tier.
//!
//! Three plain FIFO queues under one byte budget, after Yang et al.'s
//! "FIFO queues are all you need for cache eviction" (SOSP '23):
//!
//! * **small** (~10% of the budget) absorbs new insertions, so one-hit
//!   wonders — a submitted-once matrix's cells — wash through without
//!   displacing the working set;
//! * **main** (the rest) holds entries that proved themselves: an entry
//!   leaves small for main only if it was hit while queued there, and main
//!   evicts lazily (a hit entry is reinserted with its frequency decayed,
//!   a cold one leaves);
//! * **ghost** remembers the *keys* of recently evicted small entries (no
//!   values, bounded by the resident entry count), so a key that returns
//!   quickly skips small and enters main directly — the classic
//!   quick-demotion + lazy-promotion pair.
//!
//! Unlike LRU, a hit only bumps a saturating 2-bit counter — no list
//! splicing on the read path — which is what lets the result cache sit on
//! the server's every-request path under one short mutex hold.
//!
//! The store is value-agnostic: it tracks `CachedRow` handles by their
//! reported byte weight and enforces `bytes() <= budget` as a hard
//! post-insert invariant (evicting down to empty if a single entry exceeds
//! the budget outright — the caller still holds its own handle).

use std::collections::{HashMap, VecDeque};

use crate::cache::CachedRow;

/// Saturating per-entry hit counter ceiling (2 bits, per the paper).
const FREQ_MAX: u8 = 3;

/// Fixed per-entry bookkeeping overhead charged against the budget, beyond
/// the spec + row payload bytes (map entry, queue slot, reference counts, counters).
const ENTRY_OVERHEAD_BYTES: usize = 64;

/// Where a resident entry currently queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Small,
    Main,
}

#[derive(Debug)]
struct Resident {
    row: CachedRow,
    /// Saturating hit counter; promotion/eviction currency.
    freq: u8,
    tier: Tier,
    /// Budget charge: payload + [`ENTRY_OVERHEAD_BYTES`].
    bytes: usize,
}

/// The bounded hot tier: an S3-FIFO keyed by the cache's 128-bit content
/// hash.
#[derive(Debug)]
pub struct S3Fifo {
    /// Byte budget over all resident entries; `usize::MAX` = unbounded.
    budget: usize,
    /// Target ceiling for the small queue (10% of the budget).
    small_budget: usize,
    entries: HashMap<u128, Resident>,
    small: VecDeque<u128>,
    main: VecDeque<u128>,
    /// Evicted-from-small keys, newest at the back. Membership is the
    /// ghost set itself; the deque orders expiry. Lazily pruned: a key
    /// revived into main is removed from the map but may linger in the
    /// deque until it reaches the front.
    ghost: HashMap<u128, ()>,
    ghost_fifo: VecDeque<u128>,
    small_bytes: usize,
    bytes: usize,
    evictions: u64,
    ghost_hits: u64,
}

impl S3Fifo {
    /// An empty store under `budget` bytes (`None` = unbounded).
    pub fn new(budget: Option<usize>) -> Self {
        let budget = budget.unwrap_or(usize::MAX);
        S3Fifo {
            budget,
            // `usize::MAX / 10` still dwarfs any real working set.
            small_budget: budget / 10,
            entries: HashMap::new(),
            small: VecDeque::new(),
            main: VecDeque::new(),
            ghost: HashMap::new(),
            ghost_fifo: VecDeque::new(),
            small_bytes: 0,
            bytes: 0,
            evictions: 0,
            ghost_hits: 0,
        }
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently charged against the budget.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The configured budget (`usize::MAX` = unbounded).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Entries evicted since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Insertions that found their key in the ghost queue (evicted recently,
    /// wanted again — the signal that sends them straight to main).
    pub fn ghost_hits(&self) -> u64 {
        self.ghost_hits
    }

    /// Looks `key` up, bumping its hit counter on success. No queue motion
    /// happens on the read path.
    pub fn get(&mut self, key: u128) -> Option<CachedRow> {
        let e = self.entries.get_mut(&key)?;
        e.freq = (e.freq + 1).min(FREQ_MAX);
        Some(e.row.clone())
    }

    /// Inserts (or replaces) `row` under `key` with the given payload
    /// weight, then evicts until the budget holds again.
    pub fn insert(&mut self, key: u128, row: CachedRow, payload_bytes: usize) {
        let charged = payload_bytes.saturating_add(ENTRY_OVERHEAD_BYTES);
        if let Some(e) = self.entries.get_mut(&key) {
            // Replacement (e.g. a recomputed duplicate): same key, possibly
            // new weight; the entry keeps its queue position and counter.
            self.bytes = self.bytes - e.bytes + charged;
            if e.tier == Tier::Small {
                self.small_bytes = self.small_bytes - e.bytes + charged;
            }
            e.row = row;
            e.bytes = charged;
        } else {
            // A ghost hit re-enters main directly; a cold key starts in
            // small.
            let tier = if self.ghost.remove(&key).is_some() {
                self.ghost_hits += 1;
                Tier::Main
            } else {
                Tier::Small
            };
            match tier {
                Tier::Small => {
                    self.small.push_back(key);
                    self.small_bytes += charged;
                }
                Tier::Main => self.main.push_back(key),
            }
            self.entries.insert(
                key,
                Resident {
                    row,
                    freq: 0,
                    tier,
                    bytes: charged,
                },
            );
            self.bytes += charged;
        }
        self.evict_to_budget();
        self.trim_ghost();
    }

    /// Evicts until `bytes <= budget` (possibly to empty).
    fn evict_to_budget(&mut self) {
        while self.bytes > self.budget && !self.entries.is_empty() {
            if self.small_bytes > self.small_budget || self.main.is_empty() {
                self.evict_small();
            } else {
                self.evict_main();
            }
        }
    }

    /// Advances the small queue by one: a hit entry is promoted to main,
    /// a cold one is evicted with its key remembered in ghost.
    fn evict_small(&mut self) {
        let Some(key) = self.small.pop_front() else {
            return;
        };
        let e = self.entries.get_mut(&key).expect("small keys are resident");
        self.small_bytes -= e.bytes;
        if e.freq > 0 {
            e.freq = 0;
            e.tier = Tier::Main;
            self.main.push_back(key);
        } else {
            let e = self.entries.remove(&key).expect("present");
            self.bytes -= e.bytes;
            self.evictions += 1;
            if self.ghost.insert(key, ()).is_none() {
                self.ghost_fifo.push_back(key);
            }
        }
    }

    /// Advances the main queue by one: a hit entry decays and requeues, a
    /// cold one leaves outright (main evictions don't enter ghost).
    fn evict_main(&mut self) {
        let Some(key) = self.main.pop_front() else {
            return;
        };
        let e = self.entries.get_mut(&key).expect("main keys are resident");
        if e.freq > 0 {
            e.freq -= 1;
            self.main.push_back(key);
        } else {
            let e = self.entries.remove(&key).expect("present");
            self.bytes -= e.bytes;
            self.evictions += 1;
        }
    }

    /// Bounds ghost to the resident entry count (min 16 so a tiny cache
    /// still gets quick-demotion signal), pruning revived keys lazily.
    fn trim_ghost(&mut self) {
        let cap = self.entries.len().max(16);
        while self.ghost.len() > cap {
            match self.ghost_fifo.pop_front() {
                // Deque entries whose key was revived (removed from the map
                // on a ghost hit) are stale; skip them without counting.
                Some(key) => {
                    self.ghost.remove(&key);
                }
                None => break,
            }
        }
        // Drop leading stale deque slots so the deque cannot outgrow the
        // map unboundedly.
        while let Some(front) = self.ghost_fifo.front() {
            if self.ghost.contains_key(front) {
                break;
            }
            self.ghost_fifo.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(tag: &str) -> CachedRow {
        CachedRow::new(&format!("spec-{tag}"), &format!("row-{tag}"))
    }

    /// Budget that fits exactly `n` entries of `payload` bytes each.
    fn budget_for(n: usize, payload: usize) -> Option<usize> {
        Some(n * (payload + ENTRY_OVERHEAD_BYTES))
    }

    #[test]
    fn unbounded_never_evicts() {
        let mut s = S3Fifo::new(None);
        for i in 0..1000u128 {
            s.insert(i, row(&i.to_string()), 100);
        }
        assert_eq!(s.len(), 1000);
        assert_eq!(s.evictions(), 0);
        assert_eq!(s.bytes(), 1000 * (100 + ENTRY_OVERHEAD_BYTES));
    }

    #[test]
    fn budget_is_a_hard_ceiling() {
        let mut s = S3Fifo::new(budget_for(4, 100));
        for i in 0..32u128 {
            s.insert(i, row(&i.to_string()), 100);
            assert!(s.bytes() <= s.budget(), "over budget after insert {i}");
        }
        assert!(s.len() <= 4);
        assert!(s.evictions() >= 28);
    }

    #[test]
    fn oversized_entry_evicts_to_empty_not_panic() {
        let mut s = S3Fifo::new(Some(64));
        s.insert(1, row("big"), 10_000);
        assert!(s.is_empty());
        assert_eq!(s.bytes(), 0);
    }

    #[test]
    fn hot_entries_survive_a_scan() {
        // A small working set hit on every round must survive a flood of
        // one-hit wonders (the S3-FIFO raison d'être; plain FIFO fails it).
        let mut s = S3Fifo::new(budget_for(8, 100));
        for i in 0..4u128 {
            s.insert(i, row(&i.to_string()), 100);
        }
        for round in 0..50u128 {
            for i in 0..4u128 {
                assert!(
                    s.get(i).is_some() || {
                        // Re-warm a casualty (lookup-miss → recompute path);
                        // after the first rounds, ghosts route it to main.
                        s.insert(i, row(&i.to_string()), 100);
                        true
                    }
                );
            }
            // One-hit wonder of the round.
            s.insert(1000 + round, row(&round.to_string()), 100);
        }
        let survivors = (0..4u128).filter(|&i| s.get(i).is_some()).count();
        assert_eq!(survivors, 4, "working set displaced by scan traffic");
    }

    #[test]
    fn ghost_hit_is_counted_and_promotes_to_main() {
        let mut s = S3Fifo::new(budget_for(2, 100));
        s.insert(1, row("a"), 100);
        s.insert(2, row("b"), 100);
        s.insert(3, row("c"), 100); // evicts 1 (freq 0) into ghost
        assert!(s.get(1).is_none());
        let ghosts_before = s.ghost_hits();
        s.insert(1, row("a"), 100); // ghost hit → straight to main
        assert_eq!(s.ghost_hits(), ghosts_before + 1);
        assert!(s.get(1).is_some());
    }

    #[test]
    fn replacing_a_key_adjusts_bytes_in_place() {
        let mut s = S3Fifo::new(None);
        s.insert(7, row("x"), 100);
        let b = s.bytes();
        s.insert(7, row("y"), 300);
        assert_eq!(s.len(), 1);
        assert_eq!(s.bytes(), b + 200);
        assert_eq!(s.get(7).unwrap().row(), "row-y");
    }

    #[test]
    fn read_path_moves_nothing() {
        let mut s = S3Fifo::new(budget_for(4, 100));
        s.insert(1, row("a"), 100);
        for _ in 0..100 {
            s.get(1);
        }
        assert_eq!(s.len(), 1);
        assert_eq!(s.evictions(), 0);
    }
}
