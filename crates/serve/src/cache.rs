//! The content-addressed result cache behind the campaign service.
//!
//! A cell's row is a pure function of its [`CellSpec`](crate::scenario::CellSpec),
//! so results are addressed by content: the key is an FNV-1a 128-bit hash of
//! the spec's canonical JSON. Identical resubmissions — and shared cells of
//! merely *overlapping* matrices — hit instead of recomputing, and a hit
//! replays the exact bytes of the originally streamed row.
//!
//! Two tiers:
//!
//! * **hot** — an in-memory S3-FIFO store under a configurable
//!   byte budget (`repro serve --hot-bytes`): new entries wash through a
//!   small probationary queue, proven entries live in the main queue, and a
//!   ghost queue of recently evicted keys routes fast returners straight
//!   back to main. Unbounded when no budget is set.
//! * **cold** — a directory of record files, one per persisted cell, each
//!   named by its key (`DIR/<32 hex digits>`) and written under a temporary
//!   name of its own, then renamed into place. Opening the tier lists the directory
//!   and keeps the set of keys stored there; nothing is read until asked
//!   for. A lookup that misses hot reads a file only for a key in the set,
//!   and a row read from disk is re-admitted hot. [`ResultCache::insert`]
//!   persists every row; the server persists only the rows worth reading
//!   back (see `server::settle`).
//!
//! A cold record proves itself or is not used: the file is UTF-8 JSON
//! `{"spec":…,"row":…,"digest":…}`, its name is the hash of its `spec`, and
//! `digest` — the FNV-1a 128-bit hash of `row`, as 32 hex digits — addresses
//! its `row`. A record that fails is quarantined: counted
//! (`{prefix}.quarantined`, see [`CacheMetrics`]) and dropped from the set,
//! so its cell recomputes, and the recomputed row's record replaces the
//! file. A name that is not a key is never read. One server owns a cold
//! directory at a time, so opening the tier removes the temporary files a
//! killed writer left between write and rename. FNV-1a detects
//! corruption but does not withstand a forger: whoever can write the
//! directory can write a record that passes.
//!
//! Hash collisions are guarded, not assumed away: entries store the full
//! canonical spec, and a lookup whose stored spec differs from the probe's
//! is treated as a miss.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::s3fifo::{HotEntry, Page, S3Fifo};

/// FNV-1a 128-bit offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// FNV-1a 128-bit hash of `bytes`.
fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// `hash` as 32 lowercase hex digits.
fn hash_hex(hash: u128) -> String {
    format!("{hash:032x}")
}

/// A content-address: the canonical content string plus its hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentKey {
    hash: u128,
    content: String,
}

impl ContentKey {
    /// Addresses `content` (typically a canonical spec JSON).
    pub fn of(content: impl Into<String>) -> Self {
        let content = content.into();
        ContentKey {
            hash: fnv1a_128(content.as_bytes()),
            content,
        }
    }

    /// The hash as 32 lowercase hex digits (the name of a cold record).
    pub fn hex(&self) -> String {
        hash_hex(self.hash)
    }

    /// The canonical content this key addresses.
    pub fn content(&self) -> &str {
        &self.content
    }

    /// The raw 128-bit hash (the hot tier's and in-flight table's map key).
    pub(crate) fn hash(&self) -> u128 {
        self.hash
    }
}

/// One cached row as a request streams it: a handle on one allocation
/// holding the row, decoded out of the hot tier's pages (or taken from a
/// cold read or a fresh row), and shared by every subscriber of the cell.
/// Cloning bumps a reference count; dropping the last handle frees one
/// chunk. The spec stays behind: the collision guard compares it inside the
/// hot tier, and nothing downstream reads it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedRow {
    row: Arc<str>,
}

impl CachedRow {
    /// A handle on an exact-size copy of `row`.
    fn new(row: &str) -> Self {
        CachedRow { row: row.into() }
    }

    /// The row's exact serialized JSON line (no trailing newline).
    pub fn row(&self) -> &str {
        &self.row
    }
}

/// The cold tier's record: the whole content of one file.
#[derive(Serialize, Deserialize)]
struct ColdRecord {
    /// Canonical spec JSON, embedded as a string.
    spec: String,
    /// Exact row JSON line, embedded as a string.
    row: String,
    /// 32-hex-digit FNV-1a 128-bit hash of `row`.
    digest: String,
}

impl ColdRecord {
    /// The record `bytes` hold, if it proves itself as the file named by
    /// `hash`: it is UTF-8 JSON, its spec hashes to `hash` and its digest
    /// addresses its row.
    fn parse(bytes: &[u8], hash: u128) -> Option<ColdRecord> {
        let record: ColdRecord = serde_json::from_str(std::str::from_utf8(bytes).ok()?).ok()?;
        (fnv1a_128(record.spec.as_bytes()) == hash
            && record.digest == hash_hex(fnv1a_128(record.row.as_bytes())))
        .then_some(record)
    }
}

/// Configuration for [`ResultCache::new`].
#[derive(Debug, Clone, Default)]
pub struct CacheConfig {
    /// Directory for the cold tier (`None` = memory only).
    pub cold_dir: Option<PathBuf>,
    /// Hot-tier byte budget (`None` = unbounded).
    pub hot_budget_bytes: Option<usize>,
}

/// Lookup instrumentation for a [`ResultCache`], attached with
/// [`ResultCache::observe`]. Every lookup lands in exactly one histogram by
/// outcome — hot-tier hit, cold-tier point read, or miss — so the
/// histograms' counts are the cache's tallies: hits are `{prefix}.hit_ns`
/// plus `{prefix}.cold_read_ns`, cold hits `{prefix}.cold_read_ns`, misses
/// `{prefix}.miss_ns`. The counter `{prefix}.quarantined` counts the cold
/// records a point read found unproven (see the module doc), and
/// `{prefix}.row_copies` the copies of a row's bytes the hot hits took,
/// two a hit (see `ROW_COPIES_PER_HOT_HIT`). An unobserved cache counts
/// nothing.
#[derive(Debug, Clone)]
pub struct CacheMetrics {
    registry: Arc<ebird_obs::Registry>,
    hit_ns: Arc<ebird_obs::Histogram>,
    cold_read_ns: Arc<ebird_obs::Histogram>,
    miss_ns: Arc<ebird_obs::Histogram>,
    quarantined: Arc<ebird_obs::Counter>,
    row_copies: Arc<ebird_obs::Counter>,
}

impl CacheMetrics {
    /// Handles under `prefix`: histograms `{prefix}.hit_ns`,
    /// `{prefix}.cold_read_ns`, `{prefix}.miss_ns` and the counters
    /// `{prefix}.quarantined` and `{prefix}.row_copies`.
    pub fn new(registry: &Arc<ebird_obs::Registry>, prefix: &str) -> Self {
        CacheMetrics {
            registry: Arc::clone(registry),
            hit_ns: registry.histogram(&format!("{prefix}.hit_ns")),
            cold_read_ns: registry.histogram(&format!("{prefix}.cold_read_ns")),
            miss_ns: registry.histogram(&format!("{prefix}.miss_ns")),
            quarantined: registry.counter(&format!("{prefix}.quarantined")),
            row_copies: registry.counter(&format!("{prefix}.row_copies")),
        }
    }
}

/// Copies of a row's bytes a hot hit takes: the hot tier decodes the entry
/// into its scratch, and the handle copies the row out of it
/// ([`CachedRow::new`]).
const ROW_COPIES_PER_HOT_HIT: u64 = 2;

/// How a lookup was answered, for latency classification.
enum LookupClass {
    HotHit,
    ColdHit,
    Miss,
}

/// The cold tier: a directory of record files, one per stored key, and the
/// set of keys stored there. The set's lock is never held across a file
/// operation, so a lookup of a key not stored never waits on the disk.
struct ColdTier {
    dir: PathBuf,
    stored: Mutex<HashSet<u128>>,
}

impl ColdTier {
    /// Opens `dir`, creating it if needed: every file named by a key (32
    /// lowercase hex digits) is stored, and nothing is read. A temporary
    /// file a killed writer left (`<key>.<process>-<write>.tmp`) is
    /// removed: one server owns a cold directory at a time, so no live
    /// write can own it.
    fn open(dir: &Path) -> Result<ColdTier, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        let mut stored = HashSet::new();
        for entry in std::fs::read_dir(dir).map_err(|e| format!("listing {dir:?}: {e}"))? {
            let name = entry
                .map_err(|e| format!("listing {dir:?}: {e}"))?
                .file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(hash) = parse_key(name) {
                stored.insert(hash);
            } else if is_leftover_write(name) {
                let path = dir.join(name);
                std::fs::remove_file(&path).map_err(|e| format!("removing {path:?}: {e}"))?;
            }
        }
        Ok(ColdTier {
            dir: dir.to_path_buf(),
            stored: Mutex::new(stored),
        })
    }

    /// The record stored under `hash`, if its file reads and proves itself.
    fn read(&self, hash: u128) -> Option<ColdRecord> {
        ColdRecord::parse(&std::fs::read(self.dir.join(hash_hex(hash))).ok()?, hash)
    }

    /// Stores `text` as the record of `hash`: written under a temporary
    /// name no other write uses (`<key>.<process>-<write>.tmp`), then
    /// renamed over `<key>`, so a read finds a whole file and two writers of
    /// one key never share a temporary file.
    fn write(&self, hash: u128, text: &str) -> std::io::Result<()> {
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let key = hash_hex(hash);
        let write = WRITES.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("{key}.{}-{write}.tmp", std::process::id()));
        std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, self.dir.join(&key)))?;
        self.stored.lock().insert(hash);
        Ok(())
    }
}

/// The key a file name addresses: exactly 32 lowercase hex digits.
fn parse_key(name: &str) -> Option<u128> {
    let hash = u128::from_str_radix(name, 16).ok()?;
    (hash_hex(hash) == name).then_some(hash)
}

/// Whether `name` is a temporary name [`ColdTier::write`] gives a record
/// (`<key>.<process>-<write>.tmp`).
fn is_leftover_write(name: &str) -> bool {
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let Some((key, writer)) = name.strip_suffix(".tmp").and_then(|n| n.split_once('.')) else {
        return false;
    };
    let Some((process, write)) = writer.split_once('-') else {
        return false;
    };
    parse_key(key).is_some() && digits(process) && digits(write)
}

/// The two-tier content-addressed result cache.
pub struct ResultCache {
    hot: Mutex<S3Fifo>,
    /// `None` for a memory-only cache.
    cold: Option<ColdTier>,
    /// Lookup instrumentation; `None` records nothing.
    metrics: Option<CacheMetrics>,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("entries", &self.len())
            .field("cold", &self.cold.as_ref().map(|c| &c.dir))
            .finish()
    }
}

impl ResultCache {
    /// A hot-tier-only, unbounded cache for the unit tests.
    #[cfg(test)]
    pub(crate) fn in_memory() -> Self {
        Self::new(CacheConfig::default()).expect("memory-only cache construction is infallible")
    }

    /// An unbounded cache whose cold tier lives in `dir`.
    ///
    /// # Errors
    /// See [`ResultCache::new`].
    #[cfg(test)]
    fn with_cold_tier(dir: impl AsRef<Path>) -> Result<Self, String> {
        Self::new(CacheConfig {
            cold_dir: Some(dir.as_ref().to_path_buf()),
            hot_budget_bytes: None,
        })
    }

    /// Opens a cache per `config`. With a cold dir, the keys stored there
    /// are listed (see the module doc); the hot tier starts empty.
    ///
    /// # Errors
    /// A human-readable description of the I/O failure.
    pub fn new(config: CacheConfig) -> Result<Self, String> {
        let cold = match &config.cold_dir {
            None => None,
            Some(dir) => Some(ColdTier::open(dir)?),
        };
        Ok(ResultCache {
            hot: Mutex::new(S3Fifo::new(config.hot_budget_bytes)),
            cold,
            metrics: None,
        })
    }

    /// Attaches lookup instrumentation (call before sharing the cache
    /// across threads).
    pub fn observe(&mut self, metrics: CacheMetrics) {
        self.metrics = Some(metrics);
    }

    /// Looks `key` up, booking its latency under its outcome when observed.
    /// A hot-tier miss falls through to a cold-tier point read when the key
    /// is stored there (the row is then re-admitted hot). A hash collision
    /// (stored spec ≠ probed spec) is a miss in either tier.
    pub fn lookup(&self, key: &ContentKey) -> Option<CachedRow> {
        let start = self.metrics.as_ref().map(|m| m.registry.now_ns());
        let (result, class) = self.lookup_classified(key);
        if let (Some(m), Some(start)) = (&self.metrics, start) {
            let elapsed = m.registry.now_ns().saturating_sub(start);
            match class {
                LookupClass::HotHit => {
                    m.hit_ns.record(elapsed);
                    m.row_copies.add(ROW_COPIES_PER_HOT_HIT);
                }
                LookupClass::ColdHit => m.cold_read_ns.record(elapsed),
                LookupClass::Miss => m.miss_ns.record(elapsed),
            }
        }
        result
    }

    fn lookup_classified(&self, key: &ContentKey) -> (Option<CachedRow>, LookupClass) {
        // A hit decodes the row and copies it out under the lock. On a collision the
        // resident entry belongs to a different spec, and the cold read
        // below finds that same spec under the hash: a miss in both tiers.
        let hot = self
            .hot
            .lock()
            .lookup(key.hash, &key.content, CachedRow::new);
        if let Some(row) = hot {
            return (Some(row), LookupClass::HotHit);
        }
        let stored = |cold: &&ColdTier| cold.stored.lock().contains(&key.hash);
        if let Some(cold) = self.cold.as_ref().filter(stored) {
            match cold.read(key.hash) {
                Some(r) if r.spec == key.content => {
                    self.admit(key.hash, &r.spec, &r.row);
                    return (Some(CachedRow::new(&r.row)), LookupClass::ColdHit);
                }
                Some(_) => {} // collision on disk: miss
                None => {
                    cold.stored.lock().remove(&key.hash);
                    if let Some(m) = &self.metrics {
                        m.quarantined.incr();
                    }
                }
            }
        }
        (None, LookupClass::Miss)
    }

    /// Inserts `row` under `key`, persisting it to the cold tier when
    /// present. Concurrent duplicate inserts are benign: the content address
    /// guarantees both writers carry identical bytes.
    pub fn insert(&self, key: &ContentKey, row: String) -> CachedRow {
        self.store(key, row, true)
    }

    /// Inserts `row` under `key` into the hot tier and, when `persist` and a
    /// cold tier is present, writes its record there too (replacing any
    /// record of the key). A failed write is reported and leaves the row
    /// hot only.
    pub(crate) fn store(&self, key: &ContentKey, row: String, persist: bool) -> CachedRow {
        // The hot tier copies the bytes into its pages; the returned handle
        // is one exact-size copy, not the serializer's buffer.
        let entry = CachedRow::new(&row);
        self.admit(key.hash, &key.content, &row);
        if let (true, Some(cold)) = (persist, &self.cold) {
            let record = ColdRecord {
                spec: key.content.clone(),
                digest: hash_hex(fnv1a_128(row.as_bytes())),
                row,
            };
            let written = serde_json::to_string(&record)
                .map_err(|e| e.to_string())
                .and_then(|text| cold.write(key.hash, &text).map_err(|e| e.to_string()));
            if let Err(e) = written {
                eprintln!("ebird-serve: cold record {} not written: {e}", key.hex());
            }
        }
        entry
    }

    /// Copies `spec` and `row` into the hot tier. The entry is made before
    /// the lock is taken, and when the tier has no spare page left the next
    /// one is made after it is released: its memory is written before it is
    /// handed in, so filling it takes no page faults while other workers
    /// wait for the lock.
    fn admit(&self, key: u128, spec: &str, row: &str) {
        let entry = HotEntry::new(spec, row);
        let wants_page = {
            let mut hot = self.hot.lock();
            hot.insert(key, &entry);
            hot.wants_page()
        };
        if wants_page {
            let page = Page::touched();
            self.hot.lock().stock(page);
        }
    }

    /// Does nothing: every cold record is complete on disk when its insert
    /// returns.
    ///
    /// # Errors
    /// Never.
    pub fn flush(&self) -> Result<(), String> {
        Ok(())
    }

    /// Entries currently resident in the hot tier.
    pub fn len(&self) -> usize {
        self.hot.lock().len()
    }

    /// Whether the hot tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged against the hot-tier budget: each resident
    /// entry's spec and row plus a fixed 64 bytes.
    pub fn hot_bytes(&self) -> usize {
        self.hot.lock().bytes()
    }

    /// Heap bytes the hot tier holds: its pages, the index and the ghost
    /// set, at their capacity.
    pub fn hot_resident_bytes(&self) -> usize {
        self.hot.lock().resident_bytes()
    }

    /// The hot-tier byte budget (`usize::MAX` = unbounded).
    pub fn hot_budget(&self) -> usize {
        self.hot.lock().budget()
    }

    /// Hot-tier entries evicted under the byte budget since construction.
    pub fn evictions(&self) -> u64 {
        self.hot.lock().evictions()
    }

    /// Insertions whose key sat in the hot tier's ghost queue (evicted
    /// recently, wanted again — admitted straight to the main queue).
    pub fn ghost_hits(&self) -> u64 {
        self.hot.lock().ghost_hits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebird_obs::Registry;

    /// A cache built from `config` and observed under `probe`, and the
    /// registry that tallies its lookups.
    fn observed(config: CacheConfig) -> (ResultCache, Arc<Registry>) {
        let registry = Arc::new(Registry::wall());
        let mut cache = ResultCache::new(config).unwrap();
        cache.observe(CacheMetrics::new(&registry, "probe"));
        (cache, registry)
    }

    /// `(hits, misses, cold hits)` as one snapshot of the registry reads them.
    fn tallies(registry: &Registry) -> (u64, u64, u64) {
        let snap = registry.snapshot();
        let count = |name: &str| snap.histogram(name).count();
        let cold = count("probe.cold_read_ns");
        (count("probe.hit_ns") + cold, count("probe.miss_ns"), cold)
    }

    #[test]
    fn fnv_vectors() {
        // Classic FNV-1a 128 test vectors (empty string = offset basis).
        assert_eq!(fnv1a_128(b""), FNV128_OFFSET);
        // Differing inputs diverge immediately.
        assert_ne!(fnv1a_128(b"a"), fnv1a_128(b"b"));
        assert_ne!(fnv1a_128(b"ab"), fnv1a_128(b"ba"));
    }

    #[test]
    fn key_hex_is_stable_and_32_digits() {
        let k = ContentKey::of("{\"app\":\"MiniFE\"}");
        assert_eq!(k.hex().len(), 32);
        assert_eq!(k.hex(), ContentKey::of("{\"app\":\"MiniFE\"}").hex());
        assert_ne!(k.hex(), ContentKey::of("{\"app\":\"MiniMD\"}").hex());
    }

    #[test]
    fn lookup_miss_then_hit_counts() {
        let (cache, registry) = observed(CacheConfig::default());
        let key = ContentKey::of("spec-a");
        assert!(cache.lookup(&key).is_none());
        cache.insert(&key, "row-a".into());
        let hit = cache.lookup(&key).expect("inserted");
        assert_eq!(hit.row(), "row-a");
        assert_eq!(tallies(&registry), (1, 1, 0));
        assert_eq!((cache.evictions(), cache.ghost_hits()), (0, 0));
    }

    #[test]
    fn a_handle_is_one_buffer_shared_by_its_clones() {
        let cache = ResultCache::in_memory();
        let key = ContentKey::of("spec-a");
        let inserted = cache.insert(&key, "row-a".into());
        let hit = cache.lookup(&key).expect("inserted");
        // A hit is a copy out of the hot tier, equal to what went in; a
        // clone copies nothing.
        assert_eq!((inserted.row(), hit.row()), ("row-a", "row-a"));
        assert_ne!(inserted.row().as_ptr(), hit.row().as_ptr());
        assert_eq!(hit.clone().row().as_ptr(), hit.row().as_ptr());
    }

    #[test]
    fn collision_guard_treats_mismatched_spec_as_miss() {
        let cache = ResultCache::in_memory();
        let key = ContentKey::of("spec-a");
        cache.insert(&key, "row-a".into());
        // Forge a probe with the same hash but different content.
        let forged = ContentKey {
            hash: key.hash,
            content: "spec-b".into(),
        };
        assert!(cache.lookup(&forged).is_none());
    }

    #[test]
    fn a_colliding_probe_does_not_promote_the_resident_entry() {
        // Room for about 25 entries; the first eviction pops small's head.
        let cache = ResultCache::new(CacheConfig {
            cold_dir: None,
            hot_budget_bytes: Some(2_000),
        })
        .unwrap();
        let key = ContentKey::of("spec-a");
        cache.insert(&key, "row-a".into());
        let forged = ContentKey {
            hash: key.hash,
            content: "spec-b".into(),
        };
        assert!(cache.lookup(&forged).is_none());
        // Fill small until the entry reaches its head: an entry that was
        // never hit is evicted there, where a hit one would be promoted.
        let mut filler = 0;
        while cache.evictions() == 0 {
            cache.insert(&ContentKey::of(format!("spec-{filler}")), "row".into());
            filler += 1;
        }
        assert!(
            cache.lookup(&key).is_none(),
            "the colliding probe promoted the entry it did not match"
        );
    }

    #[test]
    fn bounded_hot_tier_evicts_but_never_exceeds_budget() {
        let budget = 2_000usize;
        let (cache, registry) = observed(CacheConfig {
            cold_dir: None,
            hot_budget_bytes: Some(budget),
        });
        for i in 0..100 {
            cache.insert(&ContentKey::of(format!("spec-{i}")), format!("row-{i}"));
            assert!(
                cache.hot_bytes() <= budget,
                "hot tier exceeded budget after insert {i}"
            );
        }
        assert!(cache.evictions() > 0, "a 100-row flood must evict");
        assert!(cache.len() < 100);
        // Without a cold tier an evicted row is simply a miss (recompute).
        assert!(cache.lookup(&ContentKey::of("spec-0")).is_none());
        assert_eq!(tallies(&registry), (0, 1, 0));
    }

    #[test]
    fn evicted_rows_remain_reachable_through_the_cold_tier() {
        let dir =
            std::env::temp_dir().join(format!("ebird_serve_cache_cold_hit_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (cache, registry) = observed(CacheConfig {
            cold_dir: Some(dir.clone()),
            hot_budget_bytes: Some(2_000),
        });
        for i in 0..100 {
            cache.insert(&ContentKey::of(format!("spec-{i}")), format!("row-{i}"));
        }
        assert!(cache.evictions() > 0);
        // Every row — resident or evicted — still reads back correctly.
        for i in 0..100 {
            let hit = cache
                .lookup(&ContentKey::of(format!("spec-{i}")))
                .unwrap_or_else(|| panic!("row {i} lost by eviction"));
            assert_eq!(hit.row(), format!("row-{i}"));
        }
        let (hits, misses, cold_hits) = tallies(&registry);
        assert!(cold_hits > 0, "some hits must have come from disk");
        assert_eq!((hits, misses), (100, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cold_tier_roundtrip_survives_restart() {
        let dir = scratch_dir("restart");
        {
            let cache = ResultCache::with_cold_tier(&dir).unwrap();
            cache.insert(&ContentKey::of("spec-1"), "row-1".into());
            cache.insert(&ContentKey::of("spec-2"), "row-2".into());
            // Duplicate insert: the record is replaced, not doubled.
            cache.insert(&ContentKey::of("spec-1"), "row-1".into());
        }
        assert_eq!(record_names(&dir).len(), 2);
        // Nothing is read at open: the hot tier starts empty, and each row
        // reads back from its file.
        let reloaded = ResultCache::with_cold_tier(&dir).unwrap();
        assert_eq!(reloaded.len(), 0);
        let hit = reloaded.lookup(&ContentKey::of("spec-1")).unwrap();
        assert_eq!(hit.row(), "row-1");
        assert_eq!(
            reloaded.lookup(&ContentKey::of("spec-2")).unwrap().row(),
            "row-2"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The names of `dir`'s files, sorted.
    fn record_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_row_stored_hot_only_never_touches_the_cold_tier() {
        let dir = scratch_dir("hot_only");
        let (cache, registry) = observed(CacheConfig {
            cold_dir: Some(dir.clone()),
            hot_budget_bytes: Some(1),
        });
        let key = ContentKey::of("spec-cheap");
        cache.store(&key, "row-cheap".into(), false);
        assert!(record_names(&dir).is_empty());
        // Evicted at once: the lookup misses without a cold read.
        assert!(cache.lookup(&key).is_none());
        assert_eq!(tallies(&registry), (0, 1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_leftover_temporary_file_is_never_read() {
        let dir = scratch_dir("leftover");
        let key = ContentKey::of("spec-1");
        {
            let cache = ResultCache::with_cold_tier(&dir).unwrap();
            cache.insert(&key, "row-1".into());
        }
        // A kill between write and rename leaves the temporary file behind;
        // here it holds a proven record of another row. A name of another
        // shape is not the tier's to remove.
        let stray = ContentKey::of("spec-2");
        let record = std::fs::read_to_string(dir.join(key.hex()))
            .unwrap()
            .replace("spec-1", "spec-2");
        let leftover = format!("{}.4242-7.tmp", stray.hex());
        std::fs::write(dir.join(&leftover), &record).unwrap();
        std::fs::write(dir.join("notes.tmp"), "").unwrap();
        let (cache, registry) = observed(CacheConfig {
            cold_dir: Some(dir.clone()),
            hot_budget_bytes: None,
        });
        assert_eq!(record_names(&dir), vec![key.hex(), "notes.tmp".to_string()]);
        assert_eq!(cache.lookup(&key).unwrap().row(), "row-1");
        assert!(cache.lookup(&stray).is_none());
        assert_eq!((tallies(&registry), quarantined(&registry)), ((1, 1, 1), 0));
        cache.insert(&stray, "row-2".into());
        let mut names = vec![key.hex(), stray.hex(), "notes.tmp".to_string()];
        names.sort();
        assert_eq!(record_names(&dir), names);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn only_the_tiers_own_temporary_names_are_leftovers() {
        let key = ContentKey::of("spec").hex();
        assert!(is_leftover_write(&format!("{key}.12-0.tmp")));
        for name in [
            key.clone(),
            format!("{key}.tmp"),
            format!("{key}.12.tmp"),
            format!("{key}.12-.tmp"),
            format!("{key}.-3.tmp"),
            format!("{key}.1a-3.tmp"),
            format!("{key}.12-3"),
            format!("{}.12-3.tmp", key.to_uppercase()),
            format!("{}.12-3.tmp", &key[1..]),
            "results.jsonl".to_string(),
        ] {
            assert!(!is_leftover_write(&name), "{name}");
        }
    }

    /// The `probe.quarantined` count of `registry`.
    fn quarantined(registry: &Registry) -> u64 {
        registry.snapshot().counter("probe.quarantined")
    }

    /// A fresh directory under the system's temporary directory.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ebird_serve_cache_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// `record` with the first byte of `field`'s string value XOR 1
    /// (`"row-1"` becomes `"sow-1"`, a hex digit another one): the record
    /// stays JSON.
    fn flip_field(record: &str, field: &str) -> Vec<u8> {
        let at = record.find(&format!("\"{field}\":\"")).unwrap() + field.len() + 4;
        let mut bytes = record.as_bytes().to_vec();
        bytes[at] ^= 1;
        bytes
    }

    #[test]
    fn a_quarantined_record_is_recomputed_and_overwritten() {
        let dir = scratch_dir("overwritten");
        let key = ContentKey::of("s");
        std::fs::create_dir_all(&dir).unwrap();
        // Named by its key, but without a digest.
        std::fs::write(dir.join(key.hex()), "{\"spec\":\"s\",\"row\":\"r\"}").unwrap();
        for restart in 0..2 {
            let (cache, registry) = observed(CacheConfig {
                cold_dir: Some(dir.clone()),
                hot_budget_bytes: None,
            });
            if restart == 0 {
                assert!(cache.lookup(&key).is_none());
                assert!(cache.lookup(&key).is_none(), "dropped from the set");
                assert_eq!(quarantined(&registry), 1);
                cache.insert(&key, "r".into());
            } else {
                assert_eq!(cache.lookup(&key).unwrap().row(), "r");
                assert_eq!(quarantined(&registry), 0);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_unproven_record_is_quarantined_once_and_never_served() {
        let dir = scratch_dir("unproven");
        let specs = ["spec-0", "spec-1", "spec-2"].map(ContentKey::of);
        {
            let cache = ResultCache::with_cold_tier(&dir).unwrap();
            for (i, key) in specs.iter().enumerate() {
                cache.insert(key, format!("row-{i}"));
            }
        }
        let path = dir.join(specs[1].hex());
        let written = std::fs::read_to_string(&path).unwrap();
        // Each case rewrites the middle record: the lookup of its key
        // misses and counts one record, the others read back, and so does
        // the recomputed row's record.
        let cases: [(&str, Vec<u8>); 6] = [
            ("spec", flip_field(&written, "spec")),
            ("row", flip_field(&written, "row")),
            ("digest", flip_field(&written, "digest")),
            (
                "another key's record",
                std::fs::read(dir.join(specs[0].hex())).unwrap(),
            ),
            ("non-UTF-8", [written.as_bytes(), b"\xff\xfe"].concat()),
            ("non-JSON", written.as_bytes()[..written.len() - 1].to_vec()),
        ];
        for (case, record) in cases {
            std::fs::write(&path, record).unwrap();
            let (cache, registry) = observed(CacheConfig {
                cold_dir: Some(dir.clone()),
                hot_budget_bytes: Some(1),
            });
            assert_eq!(quarantined(&registry), 0, "{case}: nothing is read at open");
            for (i, key) in specs.iter().enumerate() {
                let got = cache.lookup(key).map(|row| row.row().to_string());
                let want = (i != 1).then(|| format!("row-{i}"));
                assert_eq!(got, want, "{case}: spec-{i}");
            }
            assert_eq!(quarantined(&registry), 1, "{case}");
            cache.insert(&specs[1], "row-1".into());
            assert_eq!(cache.lookup(&specs[1]).unwrap().row(), "row-1", "{case}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), written, "{case}");
            assert_eq!(tallies(&registry), (3, 1, 3), "{case}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_persisted_row_is_point_readable_at_once() {
        let dir = scratch_dir("at_once");
        let (cache, registry) = observed(CacheConfig {
            cold_dir: Some(dir.clone()),
            // Budget so tight every insert is evicted immediately: each
            // lookup must go to disk.
            hot_budget_bytes: Some(1),
        });
        cache.insert(&ContentKey::of("spec-1"), "row-1".into());
        assert_eq!(cache.len(), 0, "budget of 1 byte keeps nothing resident");
        let hit = cache.lookup(&ContentKey::of("spec-1")).expect("cold hit");
        assert_eq!(hit.row(), "row-1");
        assert_eq!(tallies(&registry), (1, 0, 1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
