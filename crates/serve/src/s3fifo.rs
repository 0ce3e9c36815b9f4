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
//! The bytes an entry keeps are coded, and this module is the only place
//! that knows it. A spec's or row's JSON is mostly object keys, the same
//! few dozen every time, labels from a small vocabulary and number digits,
//! so it is coded left to right in three families: each key fragment of
//! [`KEY_TOKENS`] (`{"k":` or `,"k":`) becomes one byte below 0x20 — bytes
//! compact JSON never holds —, each value of [`VALUE_TOKENS`] (a quoted
//! preset label such as `"MiniFE"` or `"early-bird"`, and `true`) one byte
//! from 0xE4 up, and any two consecutive ASCII digits one byte in
//! 0x80..=0xE3 (an odd trailing digit stays literal). Every other byte
//! stays, and a part that holds a byte below 0x20 or at or above 0x80
//! (control bytes, non-ASCII text) is stored as is behind [`RAW`], so the
//! code stays one-to-one on any input. One 256-entry table says what each
//! coded byte stands for ([`EXPANSIONS`]), so decoding is a table walk.
//! A [`HotEntry`] is coded by the inserting thread before it takes the
//! tier's lock; a lookup decodes the stored spec into the store's own
//! buffer to compare it with the probed one, and a hit decodes the row
//! there too, for the caller to copy. The budget still charges the *plain*
//! bytes (each record keeps the entry's plain length), so coding changes
//! what the tier holds, never what it decides.
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

/// The object-key fragments the spec and row serializers write, each stored
/// as one byte: code `c` stands for `KEY_TOKENS[c - 1]`. `CellSpec`'s keys
/// with its workload, strategy and model wrappers' come first, then
/// `ScenarioRow`'s own; together they are every key of the `full` and
/// `smoke` presets. Other keys stay literal.
const KEY_TOKENS: [&str; 29] = [
    "{\"app\":",
    ",\"workload\":",
    "{\"Named\":",
    "{\"name\":",
    ",\"strategy\":",
    "{\"TimeoutFlush\":",
    "{\"timeout_ms\":",
    "{\"Binned\":",
    "{\"bins\":",
    ",\"link\":",
    ",\"model\":",
    "{\"Fabric\":",
    "{\"link\":",
    ",\"contention\":",
    ",\"noise\":",
    ",\"ranks\":",
    ",\"threads\":",
    ",\"bytes_per_rank\":",
    ",\"iteration\":",
    ",\"seed\":",
    ",\"deadline_ms\":",
    ",\"completion_ms\":",
    ",\"last_arrival_ms\":",
    ",\"exposed_ms\":",
    ",\"messages\":",
    ",\"wire_ms\":",
    ",\"bulk_exposed_ms\":",
    ",\"speedup_vs_bulk\":",
    ",\"transport_verified\":",
];

/// The values the spec and row serializers write as quoted labels, and
/// `true`, each stored as one byte: code `c` stands for
/// `VALUE_TOKENS[c - VALUE_CODES]`. Together they are every string value of
/// the `full` and `smoke` presets: the spec's app, strategy, link and noise
/// names, then the row's strategy labels. Other values stay literal.
const VALUE_TOKENS: [&str; 16] = [
    "\"MiniFE\"",
    "\"MiniMD\"",
    "\"MiniQMC\"",
    "\"Bulk\"",
    "\"EarlyBird\"",
    "\"omni-path\"",
    "\"high-latency\"",
    "\"baseline\"",
    "\"laggard\"",
    "\"turbulent\"",
    "\"contaminated\"",
    "\"bulk\"",
    "\"early-bird\"",
    "\"timeout(1.000ms)\"",
    "\"binned(6)\"",
    "true",
];

/// Leads a part stored as is because it holds a byte below 0x20 or at or
/// above 0x80, which would read as a code. Compact JSON escapes every byte
/// below 0x20, and the serializers write ASCII but for the text of a
/// string, so only text that is not JSON or not ASCII takes this path.
const RAW: u8 = 0x1F;

/// Code of the digit pair "00": two consecutive digits `a`, `b` are stored
/// as `DIGIT_PAIRS + 10 * a + b`, up to 0xE3.
const DIGIT_PAIRS: u8 = 0x80;

/// Code of `VALUE_TOKENS[0]`, the first byte past the digit pairs.
const VALUE_CODES: u8 = DIGIT_PAIRS + 100;

/// Bytes a decoder may write past the end of its text: it writes every
/// code's expansion as one [`SLACK`]-byte block.
const SLACK: usize = 24;

/// What each byte of a coded part stands for: its text, zero past its end,
/// and that text's length. A literal (0x20..0x80) stands for itself.
const EXPANSIONS: [([u8; SLACK], u8); 256] = expansions();

/// Codes a token may start at a byte, by the byte that tells the tokens
/// sharing that start apart (0 ends a list): a key fragment by its key's
/// first letter, the third byte; a value by its second.
const KEYS_BY_LETTER: [[u8; 4]; 128] = codes_by(1, &KEY_TOKENS, 2);
const VALUES_BY_SECOND: [[u8; 4]; 128] = codes_by(VALUE_CODES, &VALUE_TOKENS, 1);

const fn expansions() -> [([u8; SLACK], u8); 256] {
    assert!(
        KEY_TOKENS.len() < RAW as usize,
        "key codes must stay below RAW"
    );
    assert!(
        VALUE_CODES as usize + VALUE_TOKENS.len() <= 256,
        "value codes must fit a byte"
    );
    let mut table = [([0; SLACK], 0); 256];
    let mut b = 0x20;
    while b < 0x80 {
        put(&mut table, b, &[b as u8]);
        b += 1;
    }
    let mut pair = 0;
    while pair < 100 {
        let digits = [b'0' + (pair / 10) as u8, b'0' + (pair % 10) as u8];
        put(&mut table, DIGIT_PAIRS as usize + pair, &digits);
        pair += 1;
    }
    let mut t = 0;
    while t < KEY_TOKENS.len() {
        put(&mut table, 1 + t, KEY_TOKENS[t].as_bytes());
        t += 1;
    }
    let mut t = 0;
    while t < VALUE_TOKENS.len() {
        put(
            &mut table,
            VALUE_CODES as usize + t,
            VALUE_TOKENS[t].as_bytes(),
        );
        t += 1;
    }
    table
}

/// Makes `code` stand for `text` in `table`.
const fn put(table: &mut [([u8; SLACK], u8); 256], code: usize, text: &[u8]) {
    assert!(text.len() <= SLACK, "a token outgrows its expansion");
    let mut i = 0;
    while i < text.len() {
        table[code].0[i] = text[i];
        i += 1;
    }
    table[code].1 = text.len() as u8;
}

const fn codes_by<const N: usize>(first: u8, tokens: &[&str; N], by: usize) -> [[u8; 4]; 128] {
    let mut table = [[0; 4]; 128];
    let mut t = 0;
    while t < N {
        let at = tokens[t].as_bytes()[by] as usize;
        let mut j = 0;
        while table[at][j] != 0 {
            j += 1;
        }
        table[at][j] = first + t as u8;
        t += 1;
    }
    table
}

/// The text code `code` stands for.
fn expansion(code: u8) -> &'static [u8] {
    let (text, len) = &EXPANSIONS[usize::from(code)];
    &text[..usize::from(*len)]
}

/// The code and plain length of the token `plain` holds at `at`, if one of
/// `codes` (a list from [`KEYS_BY_LETTER`] or [`VALUES_BY_SECOND`]) is there.
fn token_at(plain: &[u8], at: usize, codes: &[u8; 4]) -> Option<(u8, usize)> {
    codes
        .iter()
        .take_while(|&&c| c != 0)
        .map(|&c| (c, expansion(c)))
        .find(|(_, token)| plain[at..].starts_with(token))
        .map(|(c, token)| (c, token.len()))
}

/// Writes `plain` coded to `out` at `start` and returns where the code
/// ends: left to right, each key fragment or value token becomes its byte,
/// each two digits one byte, and every other byte stays — or, when `plain`
/// holds a byte below 0x20 or at or above 0x80, [`RAW`] and then `plain`
/// unchanged. `out` must hold `plain.len() + 1` bytes from `start`.
fn code_at(out: &mut [u8], start: usize, plain: &[u8]) -> usize {
    let (mut n, mut at) = (start, 0);
    while let Some(&b) = plain.get(at) {
        let lookup = |by: usize, table: &[[u8; 4]; 128]| {
            let next = *plain.get(at + by)?;
            token_at(plain, at, table.get(usize::from(next))?)
        };
        let (code, len) = match b {
            0..0x20 | 0x80.. => {
                out[start] = RAW;
                out[start + 1..start + 1 + plain.len()].copy_from_slice(plain);
                return start + 1 + plain.len();
            }
            b'0'..=b'9' => match plain.get(at + 1) {
                Some(&d @ b'0'..=b'9') => (DIGIT_PAIRS + 10 * (b - b'0') + (d - b'0'), 2),
                _ => (b, 1),
            },
            b'{' | b',' => lookup(2, &KEYS_BY_LETTER).unwrap_or((b, 1)),
            b'"' | b't' => lookup(1, &VALUES_BY_SECOND).unwrap_or((b, 1)),
            _ => (b, 1),
        };
        out[n] = code;
        n += 1;
        at += len;
    }
    n
}

/// Writes the plain text of coded part `coded` to `out` at `n` and returns
/// where it ends. `out` must hold that text and [`SLACK`] bytes more.
fn decode_at(out: &mut [u8], mut n: usize, coded: &[u8]) -> usize {
    if let Some(raw) = coded.strip_prefix(&[RAW]) {
        out[n..n + raw.len()].copy_from_slice(raw);
        return n + raw.len();
    }
    for &code in coded {
        let (text, len) = &EXPANSIONS[usize::from(code)];
        out[n..n + SLACK].copy_from_slice(text);
        n += usize::from(*len);
    }
    n
}

/// An entry coded for the store: its spec's code, then its row's. The
/// inserting thread makes it before taking the tier's lock, so the lock is
/// held only to copy these bytes into a page.
#[derive(Debug)]
pub(crate) struct HotEntry {
    text: Vec<u8>,
    /// Where the spec's code ends.
    spec_len: usize,
    /// Plain spec and row bytes: what the budget charges.
    plain_len: usize,
}

impl HotEntry {
    /// `spec` and `row`, coded.
    pub(crate) fn new(spec: &str, row: &str) -> Self {
        // A part codes to at most its own length plus the `RAW` byte.
        let mut text = vec![0; spec.len() + row.len() + 2];
        let spec_len = code_at(&mut text, 0, spec.as_bytes());
        let end = code_at(&mut text, spec_len, row.as_bytes());
        text.truncate(end);
        HotEntry {
            text,
            spec_len,
            plain_len: spec.len() + row.len(),
        }
    }
}

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
    /// Where the spec's code ends and the row's begins.
    spec_len: u32,
    /// Saturating hit counter; promotion/eviction currency.
    freq: u8,
}

/// One appended entry: its key (two halves, so a record is 24 bytes and
/// not 32), where its coded bytes start in the page (they end where the
/// next record's start) and its plain length, which the budget charges.
#[derive(Debug, Clone, Copy)]
struct Record {
    key: [u64; 2],
    start: u32,
    plain_len: u32,
}

impl Record {
    fn key(&self) -> u128 {
        (u128::from(self.key[0]) << 64) | u128::from(self.key[1])
    }
}

// The sizes the module docs and the budget's per-entry charge assume.
const _: () = assert!(size_of::<(u128, Slot)>() == 32 && size_of::<Record>() == 24);

/// A log page: entries' coded bytes back to back, and one record per entry.
#[derive(Debug)]
pub(crate) struct Page {
    text: Vec<u8>,
    records: Vec<Record>,
}

impl Page {
    /// An empty full-size page whose memory is already written, so that
    /// filling it takes no page faults; see [`S3Fifo::stock`].
    pub(crate) fn touched() -> Page {
        let mut text = b"\0".repeat(PAGE_BYTES);
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
    /// Appends coded `text` of `plain_len` plain bytes for `key`, returning
    /// the `(page, record)` that locates it. A new page is a spare when one
    /// fits.
    fn append(
        &mut self,
        spare: &mut Vec<Page>,
        key: u128,
        text: &[u8],
        plain_len: usize,
    ) -> (u32, u32) {
        let len = text.len();
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
                        text: Vec::with_capacity(len.max(PAGE_BYTES)),
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
            plain_len: plain_len as u32,
        });
        page.text.extend_from_slice(text);
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

    /// The record `(page, record)` locates, and its coded bytes.
    fn entry(&self, page: u32, record: u32) -> (Record, &[u8]) {
        let page = &self.pages[page.wrapping_sub(self.first) as usize];
        let i = record as usize;
        let end = page
            .records
            .get(i + 1)
            .map_or(page.text.len(), |next| next.start as usize);
        let r = page.records[i];
        (r, &page.text[r.start as usize..end])
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
/// bucket count holding at most `capacity` at 7/8 load (below eight
/// buckets, one more than the capacity), one `bucket`-byte slot and one
/// control byte per bucket, and a 16-byte control group mirrored at the
/// end. A table that removes keys reports less than it holds — each
/// removed key's bucket stays spent until the table next rehashes — so the
/// count is rounded up to the power of two, not read off the capacity.
fn table_bytes(capacity: usize, bucket: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = if capacity < 8 {
        capacity + 1
    } else {
        (capacity * 8).div_ceil(7)
    };
    buckets.next_power_of_two() * (bucket + 1) + 16
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
    /// Holds a main entry's bytes while they move to main's own tail, and a
    /// probed entry decoded.
    scratch: Vec<u8>,
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
            scratch: Vec::new(),
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
            + self.scratch.capacity()
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

    /// Looks up `key` for `spec`. A hit is a resident entry whose spec is
    /// `spec`: its hit counter is bumped and `take` gets its row. Any other
    /// entry under `key` (a hash collision) is a miss and keeps its counter.
    /// No queue motion happens on the read path.
    pub(crate) fn lookup<T>(
        &mut self,
        key: u128,
        spec: &str,
        take: impl FnOnce(&str) -> T,
    ) -> Option<T> {
        let slot = self.index.get_mut(&key)?;
        let log = match slot.tier {
            Tier::Small => &self.small,
            Tier::Main => &self.main,
        };
        let (record, text) = log.entry(slot.page, slot.record);
        let (stored_spec, row) = text.split_at(slot.spec_len as usize);
        let decoded = record.plain_len as usize + SLACK;
        if self.scratch.len() < decoded {
            self.scratch.resize(decoded, 0);
        }
        let spec_end = decode_at(&mut self.scratch, 0, stored_spec);
        if self.scratch[..spec_end] != *spec.as_bytes() {
            return None;
        }
        let row_end = decode_at(&mut self.scratch, spec_end, row);
        // Decoding restores the text that was coded, a `str`; were it ever
        // not to, the probe would miss and the cell be computed again.
        let row = std::str::from_utf8(&self.scratch[spec_end..row_end]).ok()?;
        slot.freq = (slot.freq + 1).min(FREQ_MAX);
        Some(take(row))
    }

    /// Inserts `entry` under `key`, then evicts until the budget holds
    /// again. A resident key re-inserted with the same bytes stays where it
    /// is with its counter; other bytes replace it as a new entry. An entry
    /// longer than `u32::MAX` bytes is not kept.
    pub(crate) fn insert(&mut self, key: u128, entry: &HotEntry) {
        let len = entry.plain_len;
        if len.max(entry.text.len()) > u32::MAX as usize {
            return;
        }
        if let Some(&slot) = self.index.get(&key) {
            let (_, text) = self.log(slot.tier).entry(slot.page, slot.record);
            // Coding is one-to-one, so equal codes are equal bytes.
            if (text, slot.spec_len as usize) == (&entry.text[..], entry.spec_len) {
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
        let (page, record) = log.append(&mut self.spare, key, &entry.text, len);
        self.index.insert(
            key,
            Slot {
                tier,
                page,
                record,
                spec_len: entry.spec_len as u32,
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
        let (record, _) = self.log(slot.tier).entry(slot.page, slot.record);
        let charged = record.plain_len as usize + ENTRY_OVERHEAD_BYTES;
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
    /// slot and plain length; records of replaced entries are skipped.
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
                return Some((key, slot, r.plain_len as usize));
            }
        }
        None
    }

    /// Advances the small queue by one: a hit entry is promoted to main,
    /// a cold one is evicted with its key remembered in ghost.
    fn evict_small(&mut self) {
        let Some((key, slot, plain_len)) = self.pop_resident(Tier::Small) else {
            return;
        };
        let charged = plain_len + ENTRY_OVERHEAD_BYTES;
        self.small_bytes -= charged;
        if slot.freq > 0 {
            let (_, text) = self.small.entry(slot.page, slot.record);
            let (page, record) = self.main.append(&mut self.spare, key, text, plain_len);
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
        let Some((key, slot, plain_len)) = self.pop_resident(Tier::Main) else {
            return;
        };
        if slot.freq > 0 {
            let (_, text) = self.main.entry(slot.page, slot.record);
            let len = text.len();
            if self.scratch.len() < len {
                self.scratch.resize(len, 0);
            }
            self.scratch[..len].copy_from_slice(text);
            let (page, record) =
                self.main
                    .append(&mut self.spare, key, &self.scratch[..len], plain_len);
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
            self.bytes -= plain_len + ENTRY_OVERHEAD_BYTES;
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
        s.insert(key, &HotEntry::new(&spec, &row));
    }

    impl S3Fifo {
        /// [`S3Fifo::lookup`] with the spec [`entry`] gives `key`: on a hit,
        /// that spec and the row, decoded.
        fn get(&mut self, key: u128) -> Option<(&str, &str)> {
            let spec = format!("spec-{key}");
            let row = self.lookup(key, &spec, str::to_owned)?;
            self.scratch = (spec + &row).into_bytes();
            let text = std::str::from_utf8(&self.scratch).expect("specs and rows are text");
            Some(text.split_at(text.len() - row.len()))
        }
    }

    /// `plain` coded on its own.
    fn coded(plain: &str) -> Vec<u8> {
        let mut out = vec![0; plain.len() + 1 + SLACK];
        let end = code_at(&mut out, 0, plain.as_bytes());
        out.truncate(end);
        out
    }

    /// `coded` decoded (each byte decodes to at most [`SLACK`]).
    fn decoded(coded: &[u8]) -> Vec<u8> {
        let mut out = vec![0; (coded.len() + 1) * SLACK];
        let end = decode_at(&mut out, 0, coded);
        out.truncate(end);
        out
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
        let (spec, x) = entry("7", 100);
        s.insert(7, &HotEntry::new(&spec, &x));
        let b = s.bytes();
        let y = format!("{x}{}", "y".repeat(200));
        s.insert(7, &HotEntry::new(&spec, &y));
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
        s.insert(0, &HotEntry::new(&spec, &row));
        for k in 4..16u128 {
            insert(&mut s, k, 100);
            let charged = |tier| -> usize {
                s.index
                    .values()
                    .filter(|slot| slot.tier == tier)
                    .map(|slot| s.log(tier).entry(slot.page, slot.record).0.plain_len)
                    .map(|len| len as usize + ENTRY_OVERHEAD_BYTES)
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
    fn every_key_and_label_of_the_full_and_smoke_presets_is_one_byte() {
        use crate::scenario::{run_matrix, ScenarioMatrix};
        for matrix in [ScenarioMatrix::full(), ScenarioMatrix::smoke()] {
            let cells = matrix.resolve().expect("presets resolve").cells();
            let rows = run_matrix(&matrix, &ebird_runtime::Pool::new(1)).expect("presets price");
            for (cell, row) in cells.iter().zip(&rows) {
                let spec = cell.content_key().content().to_owned();
                let row = ebird_analysis::report::json_line(row).expect("rows encode");
                for part in [&spec, &row] {
                    for (colon, _) in part.match_indices("\":") {
                        let open = part[..colon].rfind('"').expect("a key opens");
                        let fragment = &part[open - 1..colon + 2];
                        assert!(KEY_TOKENS.contains(&fragment), "{fragment} has no code");
                    }
                }
                let entry = HotEntry::new(&spec, &row);
                // Every key and every string value went to one byte, so no
                // quote is left; what is left is mostly digit pairs.
                assert!(!entry.text.contains(&b'"'), "{spec} {row} left a quote");
                assert!(
                    4 * entry.text.len() <= entry.plain_len,
                    "{} coded bytes for {} plain",
                    entry.text.len(),
                    entry.plain_len
                );
            }
        }
    }

    #[test]
    fn text_that_is_not_json_round_trips() {
        for plain in [
            "",
            "\u{1f}",
            "a\u{1}b",
            "{\"app\":\"a,\\\"seed\\\":b\",\"seed\":1}",
            "{\"app\",\"seed\":\"\"",
            ",\"seed\"",
            "é{\"app\":→",
        ] {
            assert_eq!(decoded(&coded(plain)), plain.as_bytes());
        }
        assert_eq!(coded("{\"app\":1,\"seed\":2}"), b"\x011\x142}");
        assert_eq!(coded("a\x01"), b"\x1fa\x01");
    }

    #[test]
    fn digit_runs_code_two_to_a_byte_with_an_odd_last_digit_literal() {
        let digits = "31415926535897932384";
        for len in 0..=digits.len() {
            let run = &digits[..len];
            // A run alone, at a part's start, at its end and inside it.
            for (before, after) in [("", ""), ("", "x"), ("x", ""), ("{\"seed\":", ".5}")] {
                let plain = format!("{before}{run}{after}");
                let code = coded(&plain);
                assert_eq!(decoded(&code), plain.as_bytes(), "{plain}");
                let run_code = &code[before.len()..code.len() - after.len()];
                assert_eq!(run_code.len(), len.div_ceil(2), "{plain}");
                for (pair, code) in run.as_bytes().chunks(2).zip(run_code) {
                    match pair {
                        [a, b] => assert_eq!(*code, DIGIT_PAIRS + 10 * (a - b'0') + (b - b'0')),
                        [a] => assert_eq!(code, a, "an odd last digit stays literal"),
                        _ => unreachable!(),
                    }
                }
            }
        }
        assert_eq!(
            coded("1.25e-7"),
            [b'1', b'.', DIGIT_PAIRS + 25, b'e', b'-', b'7']
        );
        assert_eq!(coded("00990"), [DIGIT_PAIRS, DIGIT_PAIRS + 99, b'0']);
    }

    #[test]
    fn each_value_token_is_one_byte_whole_and_literal_inside_longer_text() {
        for (i, token) in VALUE_TOKENS.iter().enumerate() {
            let code = VALUE_CODES + i as u8;
            assert_eq!(coded(token), [code], "{token}");
            assert_eq!(expansion(code), token.as_bytes());
            // After a key and before the next, as the serializers write it.
            let plain = format!("{{\"app\":{token},\"seed\":7}}");
            assert_eq!(coded(&plain), [1, code, 20, b'7', b'}'], "{plain}");
        }
        // A label that only starts or ends like a token is no token.
        for plain in [
            "\"bulkhead\"",
            "\"omni-path2\"",
            "\"Bulk",
            "bulk\"",
            "truth",
            "tru",
        ] {
            let code = coded(plain);
            assert!(
                code.iter().all(|&c| c < VALUE_CODES),
                "{plain} coded a token"
            );
            assert_eq!(decoded(&code), plain.as_bytes());
        }
        // A token's text inside a longer string is coded, and still decodes
        // to the text it came from.
        for (plain, code) in [
            ("\"x\\\"bulk\"", &b"\"x\\\xEF"[..]),
            ("\"untrue\"", b"\"un\xF3\""),
            ("\"MiniFE\"\"", b"\xE4\""),
        ] {
            assert_eq!(coded(plain), code, "{plain}");
            assert_eq!(decoded(code), plain.as_bytes());
        }
    }

    #[test]
    fn control_bytes_and_text_beyond_ascii_go_raw() {
        for plain in [
            "\u{0}",
            "\u{1f}",
            "a\u{1}b",
            "12\n34",
            "é",
            "\u{80}",
            "{\"app\":\"MiniFE\"}→",
            "😀\"bulk\"",
            "\"MiniFE\"\u{7}",
        ] {
            let code = coded(plain);
            assert_eq!(code[0], RAW, "{plain:?}");
            assert_eq!(&code[1..], plain.as_bytes(), "{plain:?}");
            assert_eq!(decoded(&code), plain.as_bytes());
        }
        // DEL is ASCII at or above 0x20: a literal, not a reason to go raw.
        assert_eq!(coded("\u{7f}12"), [0x7F, DIGIT_PAIRS + 12]);
    }

    #[test]
    fn empty_parts_round_trip_through_the_store() {
        assert!(coded("").is_empty());
        assert!(decoded(&[]).is_empty());
        let mut s = S3Fifo::new(None);
        for (key, spec, row) in [(1, "", ""), (2, "", "{\"ranks\":12}"), (3, "\"bulk\"", "")] {
            s.insert(key, &HotEntry::new(spec, row));
            assert_eq!(s.lookup(key, spec, str::to_owned).as_deref(), Some(row));
            assert_eq!(s.lookup(key, "x", str::to_owned), None);
        }
    }

    /// What the codec proptest's strings are made of: fragments and value
    /// tokens with and without a code, pieces of them, digits, quotes and
    /// escapes, control bytes and text beyond ASCII.
    const PIECES: [&str; 44] = [
        "{\"app\":",
        ",\"seed\":",
        "{\"link\":",
        ",\"link\":",
        ",\"transport_verified\":",
        "{\"other\":",
        ",\"seed\"",
        "\"seed\":",
        ",\\\"seed\\\":",
        "\"",
        "\\\"",
        "{",
        "}",
        ",",
        ":",
        "]",
        "MiniFE",
        "\"MiniFE\"",
        "\"MiniQMC\"",
        "\"bulk\"",
        "\"bulk",
        "head\"",
        "\"timeout(1.000ms)\"",
        "\"omni-path\"",
        "2",
        "true",
        "tru",
        "t",
        "0",
        "7",
        "42",
        "909",
        "0.5",
        "1e-7",
        "\u{7f}",
        "é",
        "→",
        "😀",
        "\0",
        "\u{1}",
        "\u{1d}",
        "\u{1f}",
        "\n",
        " ",
    ];

    fn text_of(picks: &[u64]) -> String {
        picks
            .iter()
            .map(|&p| PIECES[(p % PIECES.len() as u64) as usize])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn coding_is_one_to_one_and_a_probe_matches_only_its_own_text(
            spec in proptest::collection::vec(0u64..u64::MAX, 0..24),
            row in proptest::collection::vec(0u64..u64::MAX, 0..24),
            cut in 0usize..24,
        ) {
            let (plain, row) = (text_of(&spec), text_of(&row));
            let code = coded(&plain);
            prop_assert_eq!(decoded(&code), plain.as_bytes());
            let probes = [
                plain.clone(),
                row.clone(),
                text_of(&spec[..cut.min(spec.len())]),
                format!("{plain}\""),
                format!("{{{plain}"),
            ];
            for probe in &probes {
                prop_assert_eq!(decoded(&code) == probe.as_bytes(), *probe == plain, "probe {:?}", probe);
            }
            // Through the store, where the spec's code and the row's are
            // one text split by the slot.
            let mut s = S3Fifo::new(None);
            s.insert(1, &HotEntry::new(&plain, &row));
            for probe in &probes {
                let hit = s.lookup(1, probe, str::to_owned);
                prop_assert_eq!(hit, (*probe == plain).then(|| row.clone()));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn any_text_round_trips_and_codes_no_longer_than_itself_and_raw(
            bytes in proptest::collection::vec(0u16..256, 0..64),
            ascii in 0u16..2,
        ) {
            // Arbitrary bytes made text, or folded to ASCII digits and
            // punctuation, where the digit pairs and tokens live.
            const ASCII: &[u8; 22] = b"0123456789\"{,:.truebkM";
            let bytes: Vec<u8> = bytes
                .iter()
                .map(|&b| match ascii {
                    1 => ASCII[usize::from(b) % ASCII.len()],
                    _ => b as u8,
                })
                .collect();
            let plain = String::from_utf8_lossy(&bytes).into_owned();
            let code = coded(&plain);
            prop_assert_eq!(decoded(&code), plain.as_bytes());
            prop_assert!(code.len() <= plain.len() + 1);
            let raw = plain.bytes().any(|b| !(0x20..0x80).contains(&b));
            prop_assert_eq!(code.first() == Some(&RAW), raw);
        }
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
