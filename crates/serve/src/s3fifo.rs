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
//! The store owns the bytes it keeps. Each of small and main is a log of
//! fixed [`PAGE_BYTES`] text pages: an entry (spec, then row) is appended at
//! its queue's tail, and its page keeps a 24-byte record of whose bytes lie
//! where. Popping a queue's head is reading the head page's next record; a
//! promotion or a main reinsertion copies the bytes to main's tail, and a
//! page is released once its log's head has passed it, up to two being kept
//! as spares the next new pages are taken from. The index maps a key
//! to its page, record, split and counter in a 32-byte bucket, so a resident
//! entry costs its bytes, a record, a bucket and (once evicted) a ghost
//! fingerprint — nothing per entry is a heap allocation of its own.
//!
//! `bytes() <= budget` is a hard post-insert invariant (evicting down to
//! empty if a single entry exceeds the budget outright — the caller still
//! holds its own copy).

use std::collections::{HashMap, HashSet, VecDeque};
use std::mem::size_of;

/// Saturating per-entry hit counter ceiling (2 bits, per the paper).
const FREQ_MAX: u8 = 3;

/// Fixed per-entry bookkeeping overhead charged against the budget, beyond
/// the spec + row payload bytes (its record, index bucket and ghost slot).
const ENTRY_OVERHEAD_BYTES: usize = 64;

/// Text bytes of one log page; an entry longer than this gets a page of
/// its own size.
const PAGE_BYTES: usize = 32 * 1024;

/// Released full-size pages kept for the next pages the logs open.
const SPARE_PAGES: usize = 2;

/// Which queue a resident entry's bytes sit in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Small,
    Main,
}

/// A resident entry, as the index holds it: where its bytes are and its
/// policy state. With the `u128` key, one index bucket is 32 bytes.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tier: Tier,
    /// Sequence number of the page holding the entry, in its tier's log.
    page: u32,
    /// The entry's record within that page.
    record: u32,
    /// Where the spec ends and the row begins.
    spec_len: u32,
    /// Saturating hit counter; promotion/eviction currency.
    freq: u8,
}

/// One appended entry: its key (two halves, so a record is 24 bytes and
/// not 32) and where its bytes lie in the page.
#[derive(Debug, Clone, Copy)]
struct Record {
    key: [u64; 2],
    start: u32,
    len: u32,
}

impl Record {
    fn key(&self) -> u128 {
        (u128::from(self.key[0]) << 64) | u128::from(self.key[1])
    }
}

// The sizes the module docs and the budget's per-entry charge assume.
const _: () = assert!(size_of::<(u128, Slot)>() == 32 && size_of::<Record>() == 24);

/// A log page: entries' bytes back to back, and one record per entry.
#[derive(Debug)]
pub(crate) struct Page {
    text: String,
    records: Vec<Record>,
}

impl Page {
    /// An empty full-size page whose memory is already written, so that
    /// filling it takes no page faults; see [`S3Fifo::stock`].
    pub(crate) fn touched() -> Page {
        let mut text = "\0".repeat(PAGE_BYTES);
        text.clear();
        Page {
            text,
            records: Vec::new(),
        }
    }

    fn resident_bytes(&self) -> usize {
        self.text.capacity() + self.records.capacity() * size_of::<Record>()
    }
}

/// One queue: its pages in FIFO order, entries appended at the back page
/// and popped from the front one.
#[derive(Debug, Default)]
struct Log {
    pages: VecDeque<Page>,
    /// Sequence number of `pages[0]` (wrapping).
    first: u32,
    /// Records of `pages[0]` already popped.
    head: usize,
    /// Entries in the log that are still resident there.
    entries: usize,
}

impl Log {
    /// Appends `spec` then `row` for `key`, returning the `(page, record)`
    /// that locates them. A new page is a spare when one fits.
    fn append(&mut self, spare: &mut Vec<Page>, key: u128, spec: &str, row: &str) -> (u32, u32) {
        let len = spec.len() + row.len();
        let fits = self
            .pages
            .back()
            .is_some_and(|page| page.text.capacity() - page.text.len() >= len);
        if !fits {
            // The page is sealed: its record list is final.
            if let Some(sealed) = self.pages.back_mut() {
                sealed.records.shrink_to_fit();
            }
            let page = match spare.pop() {
                Some(page) if len <= PAGE_BYTES => page,
                other => {
                    spare.extend(other);
                    Page {
                        text: String::with_capacity(len.max(PAGE_BYTES)),
                        records: Vec::new(),
                    }
                }
            };
            self.pages.push_back(page);
        }
        let last = self.pages.len() - 1;
        let page = &mut self.pages[last];
        page.records.push(Record {
            key: [(key >> 64) as u64, key as u64],
            start: page.text.len() as u32,
            len: len as u32,
        });
        page.text.push_str(spec);
        page.text.push_str(row);
        self.entries += 1;
        (
            self.first.wrapping_add(last as u32),
            (page.records.len() - 1) as u32,
        )
    }

    /// Pops the head record with its `(page, record)`, resident or not. Its
    /// bytes stay readable until [`Log::release_passed`].
    fn pop(&mut self, spare: &mut Vec<Page>) -> Option<(u32, u32, Record)> {
        self.release_passed(spare);
        let record = *self.pages.front()?.records.get(self.head)?;
        self.head += 1;
        Some((self.first, (self.head - 1) as u32, record))
    }

    /// The bytes `(page, record)` locates.
    fn text(&self, page: u32, record: u32) -> &str {
        let page = &self.pages[page.wrapping_sub(self.first) as usize];
        let r = page.records[record as usize];
        &page.text[r.start as usize..(r.start + r.len) as usize]
    }

    /// Releases every page the head has passed, keeping full-size ones as
    /// spares up to [`SPARE_PAGES`].
    fn release_passed(&mut self, spare: &mut Vec<Page>) {
        while self
            .pages
            .front()
            .is_some_and(|page| self.head == page.records.len())
        {
            let Some(mut page) = self.pages.pop_front() else {
                break;
            };
            self.first = self.first.wrapping_add(1);
            self.head = 0;
            if spare.len() < SPARE_PAGES && page.text.capacity() == PAGE_BYTES {
                page.text.clear();
                page.records.clear();
                spare.push(page);
            }
        }
    }

    /// Heap bytes the log holds: page text and record capacity, and the
    /// page deque.
    fn resident_bytes(&self) -> usize {
        self.pages.iter().map(Page::resident_bytes).sum::<usize>()
            + self.pages.capacity() * size_of::<Page>()
    }
}

/// A ghost key's fingerprint: the key's two halves folded. The key is
/// already a content hash, so two keys share a fingerprint with
/// probability 2⁻⁶⁴ — a false ghost hit admits a cold key to main, and can
/// never change served bytes.
fn fingerprint(key: u128) -> u64 {
    (key ^ (key >> 64)) as u64
}

/// Heap bytes of a std hash table reporting `capacity`: a power-of-two
/// bucket count holding `capacity` at 7/8 load (below eight buckets, one
/// more than the capacity), one `bucket`-byte slot and one control byte per
/// bucket, and a 16-byte control group mirrored at the end.
fn table_bytes(capacity: usize, bucket: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = if capacity < 8 {
        capacity + 1
    } else {
        capacity / 7 * 8
    };
    buckets * (bucket + 1) + 16
}

/// The bounded hot tier: an S3-FIFO keyed by the cache's 128-bit content
/// hash.
#[derive(Debug)]
pub(crate) struct S3Fifo {
    /// Byte budget over all resident entries; `usize::MAX` = unbounded.
    budget: usize,
    /// Target ceiling for the small queue (10% of the budget).
    small_budget: usize,
    index: HashMap<u128, Slot>,
    small: Log,
    main: Log,
    /// Empty full-size pages either log takes before allocating one.
    spare: Vec<Page>,
    /// Fingerprints of evicted-from-small keys. Membership is the ghost
    /// set itself; the deque orders expiry, newest at the back. Lazily
    /// pruned: a key revived into main is removed from the set but may
    /// linger in the deque until it reaches the front.
    ghost: HashSet<u64>,
    ghost_fifo: VecDeque<u64>,
    /// Holds a main entry's bytes while they move to main's own tail.
    requeue: String,
    small_bytes: usize,
    bytes: usize,
    evictions: u64,
    ghost_hits: u64,
}

impl S3Fifo {
    /// An empty store under `budget` bytes (`None` = unbounded).
    pub(crate) fn new(budget: Option<usize>) -> Self {
        let budget = budget.unwrap_or(usize::MAX);
        S3Fifo {
            budget,
            // `usize::MAX / 10` still dwarfs any real working set.
            small_budget: budget / 10,
            index: HashMap::new(),
            small: Log::default(),
            main: Log::default(),
            spare: Vec::new(),
            ghost: HashSet::new(),
            ghost_fifo: VecDeque::new(),
            requeue: String::new(),
            small_bytes: 0,
            bytes: 0,
            evictions: 0,
            ghost_hits: 0,
        }
    }

    /// Resident entry count.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Bytes currently charged against the budget: payload plus
    /// [`ENTRY_OVERHEAD_BYTES`] per entry.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Heap bytes the store holds: page and record capacity, and the
    /// index's and ghost set's table capacity.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.small.resident_bytes()
            + self.main.resident_bytes()
            + self.spare.iter().map(Page::resident_bytes).sum::<usize>()
            + table_bytes(self.index.capacity(), size_of::<(u128, Slot)>())
            + table_bytes(self.ghost.capacity(), size_of::<u64>())
            + self.ghost_fifo.capacity() * size_of::<u64>()
            + self.requeue.capacity()
    }

    /// Whether no spare page is ready for the next page a log opens.
    pub(crate) fn wants_page(&self) -> bool {
        self.spare.is_empty()
    }

    /// Keeps `page` as a spare when none is left (else drops it).
    pub(crate) fn stock(&mut self, page: Page) {
        if self.spare.is_empty() {
            self.spare.push(page);
        }
    }

    /// The configured budget (`usize::MAX` = unbounded).
    pub(crate) fn budget(&self) -> usize {
        self.budget
    }

    /// Entries evicted since construction.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Insertions that found their key in the ghost queue (evicted recently,
    /// wanted again — the signal that sends them straight to main).
    pub(crate) fn ghost_hits(&self) -> u64 {
        self.ghost_hits
    }

    fn log(&self, tier: Tier) -> &Log {
        match tier {
            Tier::Small => &self.small,
            Tier::Main => &self.main,
        }
    }

    /// Looks `key` up, bumping its hit counter on success, and returns its
    /// spec and row as they lie in the page. No queue motion happens on the
    /// read path.
    pub(crate) fn get(&mut self, key: u128) -> Option<(&str, &str)> {
        let slot = self.index.get_mut(&key)?;
        slot.freq = (slot.freq + 1).min(FREQ_MAX);
        let slot = *slot;
        let text = self.log(slot.tier).text(slot.page, slot.record);
        Some(text.split_at(slot.spec_len as usize))
    }

    /// Inserts `spec` and `row` under `key`, then evicts until the budget
    /// holds again. A resident key re-inserted with the same bytes stays
    /// where it is with its counter; other bytes replace it as a new entry.
    /// An entry longer than `u32::MAX` bytes is not kept.
    pub(crate) fn insert(&mut self, key: u128, spec: &str, row: &str) {
        let len = spec.len() + row.len();
        if len > u32::MAX as usize {
            return;
        }
        if let Some(&slot) = self.index.get(&key) {
            let text = self.log(slot.tier).text(slot.page, slot.record);
            if text.split_at(slot.spec_len as usize) == (spec, row) {
                return;
            }
            self.remove(key, slot);
        }
        let charged = len.saturating_add(ENTRY_OVERHEAD_BYTES);
        // A ghost hit re-enters main directly; a cold key starts in small.
        let (tier, log) = if self.ghost.remove(&fingerprint(key)) {
            self.ghost_hits += 1;
            (Tier::Main, &mut self.main)
        } else {
            self.small_bytes += charged;
            (Tier::Small, &mut self.small)
        };
        let (page, record) = log.append(&mut self.spare, key, spec, row);
        self.index.insert(
            key,
            Slot {
                tier,
                page,
                record,
                spec_len: spec.len() as u32,
                freq: 0,
            },
        );
        self.bytes += charged;
        self.evict_to_budget();
        self.trim_ghost();
    }

    /// Drops resident `key` from the index and the charge; its record
    /// stays in the log, skipped when the head reaches it.
    fn remove(&mut self, key: u128, slot: Slot) {
        let charged = self.log(slot.tier).text(slot.page, slot.record).len() + ENTRY_OVERHEAD_BYTES;
        self.index.remove(&key);
        self.bytes -= charged;
        match slot.tier {
            Tier::Small => {
                self.small_bytes -= charged;
                self.small.entries -= 1;
            }
            Tier::Main => self.main.entries -= 1,
        }
    }

    /// Evicts until `bytes <= budget` (possibly to empty).
    fn evict_to_budget(&mut self) {
        while self.bytes > self.budget && !self.index.is_empty() {
            if self.small_bytes > self.small_budget || self.main.entries == 0 {
                self.evict_small();
            } else {
                self.evict_main();
            }
        }
    }

    /// Pops `tier`'s head entry that is still resident there, with its
    /// slot and charge; records of replaced entries are skipped.
    fn pop_resident(&mut self, tier: Tier) -> Option<(u128, Slot, usize)> {
        let log = match tier {
            Tier::Small => &mut self.small,
            Tier::Main => &mut self.main,
        };
        while let Some((page, record, r)) = log.pop(&mut self.spare) {
            let key = r.key();
            let here = |s: &&Slot| s.tier == tier && s.page == page && s.record == record;
            if let Some(&slot) = self.index.get(&key).filter(here) {
                log.entries -= 1;
                return Some((key, slot, r.len as usize + ENTRY_OVERHEAD_BYTES));
            }
        }
        None
    }

    /// Advances the small queue by one: a hit entry is promoted to main,
    /// a cold one is evicted with its key remembered in ghost.
    fn evict_small(&mut self) {
        let Some((key, slot, charged)) = self.pop_resident(Tier::Small) else {
            return;
        };
        self.small_bytes -= charged;
        if slot.freq > 0 {
            let text = self.small.text(slot.page, slot.record);
            let (page, record) = self.main.append(&mut self.spare, key, text, "");
            self.index.insert(
                key,
                Slot {
                    tier: Tier::Main,
                    page,
                    record,
                    freq: 0,
                    ..slot
                },
            );
        } else {
            self.index.remove(&key);
            self.bytes -= charged;
            self.evictions += 1;
            let print = fingerprint(key);
            if self.ghost.insert(print) {
                self.ghost_fifo.push_back(print);
            }
        }
        self.small.release_passed(&mut self.spare);
    }

    /// Advances the main queue by one: a hit entry decays and requeues, a
    /// cold one leaves outright (main evictions don't enter ghost).
    fn evict_main(&mut self) {
        let Some((key, slot, charged)) = self.pop_resident(Tier::Main) else {
            return;
        };
        if slot.freq > 0 {
            self.requeue.clear();
            self.requeue
                .push_str(self.main.text(slot.page, slot.record));
            let (page, record) = self.main.append(&mut self.spare, key, &self.requeue, "");
            self.index.insert(
                key,
                Slot {
                    page,
                    record,
                    freq: slot.freq - 1,
                    ..slot
                },
            );
        } else {
            self.index.remove(&key);
            self.bytes -= charged;
            self.evictions += 1;
        }
        self.main.release_passed(&mut self.spare);
    }

    /// Bounds ghost to the resident entry count (min 16 so a tiny cache
    /// still gets quick-demotion signal), pruning revived keys lazily.
    fn trim_ghost(&mut self) {
        let cap = self.index.len().max(16);
        while self.ghost.len() > cap {
            match self.ghost_fifo.pop_front() {
                // Deque entries whose key was revived (removed from the set
                // on a ghost hit) are stale; skip them without counting.
                Some(print) => {
                    self.ghost.remove(&print);
                }
                None => break,
            }
        }
        // Drop leading stale deque slots so the deque cannot outgrow the
        // set unboundedly.
        while let Some(front) = self.ghost_fifo.front() {
            if self.ghost.contains(front) {
                break;
            }
            self.ghost_fifo.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Spec and row of exactly `payload` bytes together, tagged by `tag`.
    fn entry(tag: &str, payload: usize) -> (String, String) {
        let spec = format!("spec-{tag}");
        let mut row = format!("row-{tag}");
        assert!(spec.len() + row.len() <= payload, "payload too small");
        row.extend(std::iter::repeat_n('.', payload - spec.len() - row.len()));
        (spec, row)
    }

    fn insert(s: &mut S3Fifo, key: u128, payload: usize) {
        let (spec, row) = entry(&key.to_string(), payload);
        s.insert(key, &spec, &row);
    }

    /// Budget that fits exactly `n` entries of `payload` bytes each.
    fn budget_for(n: usize, payload: usize) -> Option<usize> {
        Some(n * (payload + ENTRY_OVERHEAD_BYTES))
    }

    #[test]
    fn unbounded_never_evicts() {
        let mut s = S3Fifo::new(None);
        for i in 0..1000u128 {
            insert(&mut s, i, 100);
        }
        assert_eq!(s.len(), 1000);
        assert_eq!(s.evictions(), 0);
        assert_eq!(s.bytes(), 1000 * (100 + ENTRY_OVERHEAD_BYTES));
    }

    #[test]
    fn budget_is_a_hard_ceiling() {
        let mut s = S3Fifo::new(budget_for(4, 100));
        for i in 0..32u128 {
            insert(&mut s, i, 100);
            assert!(s.bytes() <= s.budget(), "over budget after insert {i}");
        }
        assert!(s.len() <= 4);
        assert!(s.evictions() >= 28);
    }

    #[test]
    fn oversized_entry_evicts_to_empty_not_panic() {
        let mut s = S3Fifo::new(Some(64));
        insert(&mut s, 1, 100_000);
        assert_eq!(s.len(), 0);
        assert_eq!(s.bytes(), 0);
        // Its page of its own size is released, not kept as a spare.
        assert!(s.resident_bytes() < PAGE_BYTES);
    }

    #[test]
    fn hot_entries_survive_a_scan() {
        // A small working set hit on every round must survive a flood of
        // one-hit wonders (the S3-FIFO raison d'être; plain FIFO fails it).
        let mut s = S3Fifo::new(budget_for(8, 100));
        for i in 0..4u128 {
            insert(&mut s, i, 100);
        }
        for round in 0..50u128 {
            for i in 0..4u128 {
                if s.get(i).is_none() {
                    // Re-warm a casualty (lookup-miss → recompute path);
                    // after the first rounds, ghosts route it to main.
                    insert(&mut s, i, 100);
                }
            }
            // One-hit wonder of the round.
            insert(&mut s, 1000 + round, 100);
        }
        let survivors = (0..4u128).filter(|&i| s.get(i).is_some()).count();
        assert_eq!(survivors, 4, "working set displaced by scan traffic");
    }

    #[test]
    fn ghost_hit_is_counted_and_promotes_to_main() {
        let mut s = S3Fifo::new(budget_for(2, 100));
        insert(&mut s, 1, 100);
        insert(&mut s, 2, 100);
        insert(&mut s, 3, 100); // evicts 1 (freq 0) into ghost
        assert!(s.get(1).is_none());
        let ghosts_before = s.ghost_hits();
        insert(&mut s, 1, 100); // ghost hit → straight to main
        assert_eq!(s.ghost_hits(), ghosts_before + 1);
        assert!(s.get(1).is_some());
    }

    #[test]
    fn replacing_a_key_adjusts_bytes_in_place() {
        let mut s = S3Fifo::new(None);
        let (spec, x) = entry("x", 100);
        s.insert(7, &spec, &x);
        let b = s.bytes();
        let (_, y) = entry("y", 300);
        s.insert(7, &spec, &y);
        assert_eq!(s.len(), 1);
        assert_eq!(s.bytes(), b + 200);
        assert_eq!(s.get(7), Some((spec.as_str(), y.as_str())));
    }

    #[test]
    fn a_replaced_entry_leaves_a_record_the_head_skips() {
        let mut s = S3Fifo::new(budget_for(4, 100));
        for k in 0..4u128 {
            insert(&mut s, k, 100);
        }
        // Other bytes under key 0: it is queued again, and its first
        // record stays behind in small, dead.
        let (spec, _) = entry("0", 100);
        let row = "x".repeat(100 - spec.len());
        s.insert(0, &spec, &row);
        for k in 4..16u128 {
            insert(&mut s, k, 100);
            let charged = |tier| -> usize {
                s.index
                    .values()
                    .filter(|slot| slot.tier == tier)
                    .map(|slot| s.log(tier).text(slot.page, slot.record).len())
                    .map(|len| len + ENTRY_OVERHEAD_BYTES)
                    .sum()
            };
            assert_eq!(s.small_bytes, charged(Tier::Small));
            assert_eq!(s.bytes(), charged(Tier::Small) + charged(Tier::Main));
            assert!(s.bytes() <= s.budget());
        }
        // Twelve new keys through four places evict twelve entries; the
        // replaced key leaves once, by its second record.
        assert_eq!(s.evictions(), 12);
        assert!(s.get(0).is_none());
    }

    #[test]
    fn reinserting_the_same_bytes_keeps_the_entry_where_it_is() {
        // Key 1 is hit, then re-inserted with its own bytes: it keeps its
        // counter and its place, so it is promoted, not evicted, when
        // small overflows — and its bytes are never appended twice.
        let mut s = S3Fifo::new(budget_for(3, 100));
        insert(&mut s, 1, 100);
        assert!(s.get(1).is_some());
        insert(&mut s, 1, 100);
        assert_eq!((s.len(), s.small.pages[0].records.len()), (1, 1));
        for k in 2..=4u128 {
            insert(&mut s, k, 100);
        }
        assert_eq!(s.index[&1].tier, Tier::Main);
        assert_eq!(s.get(1).map(|(spec, _)| spec), Some("spec-1"));
    }

    #[test]
    fn read_path_moves_nothing() {
        let mut s = S3Fifo::new(budget_for(4, 100));
        insert(&mut s, 1, 100);
        for _ in 0..100 {
            s.get(1);
        }
        assert_eq!(s.len(), 1);
        assert_eq!(s.evictions(), 0);
    }

    #[test]
    fn passed_pages_are_released() {
        // 1 000-byte entries, 65 to a page, under a budget of 200 entries:
        // both logs turn over many pages, and what stays is the pages that
        // hold resident entries.
        let mut s = S3Fifo::new(budget_for(200, 1_000));
        for i in 0..5_000u128 {
            insert(&mut s, i, 1_000);
            if i % 3 == 0 {
                s.get(i);
            }
        }
        assert!(s.evictions() > 4_000 && s.main.entries > 100);
        for log in [&s.small, &s.main] {
            let live = log.entries.div_ceil(PAGE_BYTES / 1_000) + 1;
            assert!(
                log.pages.len() <= live,
                "{} pages for {} entries",
                log.pages.len(),
                log.entries
            );
        }
    }

    /// Today's policy, key by key: the `VecDeque` S3-FIFO the paged store
    /// replaced, kept as the reference its decisions must equal.
    #[derive(Default)]
    struct Model {
        budget: usize,
        entries: HashMap<u128, (u8, Tier, usize)>,
        small: VecDeque<u128>,
        main: VecDeque<u128>,
        ghost: HashSet<u128>,
        ghost_fifo: VecDeque<u128>,
        small_bytes: usize,
        bytes: usize,
        evictions: u64,
        ghost_hits: u64,
    }

    impl Model {
        fn get(&mut self, key: u128) -> bool {
            self.entries
                .get_mut(&key)
                .map(|e| e.0 = (e.0 + 1).min(FREQ_MAX))
                .is_some()
        }

        fn insert(&mut self, key: u128, payload: usize) {
            let charged = payload + ENTRY_OVERHEAD_BYTES;
            if let Some(e) = self.entries.get_mut(&key) {
                self.bytes = self.bytes - e.2 + charged;
                if e.1 == Tier::Small {
                    self.small_bytes = self.small_bytes - e.2 + charged;
                }
                e.2 = charged;
            } else {
                let tier = if self.ghost.remove(&key) {
                    self.ghost_hits += 1;
                    self.main.push_back(key);
                    Tier::Main
                } else {
                    self.small.push_back(key);
                    self.small_bytes += charged;
                    Tier::Small
                };
                self.entries.insert(key, (0, tier, charged));
                self.bytes += charged;
            }
            while self.bytes > self.budget && !self.entries.is_empty() {
                let from_small = self.small_bytes > self.budget / 10 || self.main.is_empty();
                let queue = if from_small {
                    &mut self.small
                } else {
                    &mut self.main
                };
                let Some(key) = queue.pop_front() else {
                    continue;
                };
                let e = self.entries.get_mut(&key).unwrap();
                if from_small {
                    self.small_bytes -= e.2;
                }
                if e.0 > 0 {
                    e.0 = if from_small { 0 } else { e.0 - 1 };
                    e.1 = Tier::Main;
                    self.main.push_back(key);
                } else {
                    self.bytes -= self.entries.remove(&key).unwrap().2;
                    self.evictions += 1;
                    if from_small && self.ghost.insert(key) {
                        self.ghost_fifo.push_back(key);
                    }
                }
            }
            while self.ghost.len() > self.entries.len().max(16) {
                let Some(key) = self.ghost_fifo.pop_front() else {
                    break;
                };
                self.ghost.remove(&key);
            }
            while self
                .ghost_fifo
                .front()
                .is_some_and(|k| !self.ghost.contains(k))
            {
                self.ghost_fifo.pop_front();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn paged_store_decides_every_operation_as_the_reference_does(
            ops in proptest::collection::vec(0u64..u64::MAX, 1..600),
            keys in 2u64..48,
            fits in 1usize..24,
        ) {
            // Per-key payloads of 20–219 bytes, so a re-insert carries the
            // key's own bytes (a row is a function of its spec).
            let payload = |key: u128| 20 + (key as usize * 37) % 200;
            let budget = Some(fits * (120 + ENTRY_OVERHEAD_BYTES));
            let mut store = S3Fifo::new(budget);
            let mut model = Model { budget: store.budget(), ..Model::default() };
            for (step, op) in ops.iter().enumerate() {
                let key = u128::from((op >> 8) % keys);
                if op & 1 == 0 {
                    let hit = store.get(key);
                    if let Some((spec, row)) = hit {
                        let (s, r) = entry(&key.to_string(), payload(key));
                        prop_assert_eq!((spec, row), (s.as_str(), r.as_str()));
                    }
                    prop_assert_eq!(hit.is_some(), model.get(key), "get at step {}", step);
                } else {
                    insert(&mut store, key, payload(key));
                    model.insert(key, payload(key));
                }
                let mut resident: Vec<u128> = store.index.keys().copied().collect();
                let mut expected: Vec<u128> = model.entries.keys().copied().collect();
                resident.sort_unstable();
                expected.sort_unstable();
                prop_assert_eq!(resident, expected, "resident keys at step {}", step);
                prop_assert_eq!(
                    (store.bytes(), store.evictions(), store.ghost_hits()),
                    (model.bytes, model.evictions, model.ghost_hits),
                    "bytes, evictions, ghost hits at step {}", step
                );
            }
        }
    }
}
