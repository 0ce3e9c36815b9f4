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
//! * **cold** — an append-only JSON Lines file replayed at startup *and*
//!   point-readable at runtime: every record's byte offset is indexed, so a
//!   row evicted from the hot tier is re-read from disk (and re-admitted
//!   hot) instead of recomputed. Appends are buffered; [`flush`] (and
//!   graceful shutdown) force them to disk.
//!
//! A cold record proves itself or is not used. Replay and every point read
//! apply one check, [`ColdRecord::parse`]: the line is UTF-8 JSON, its `key`
//! addresses its `spec`, and its `digest` — the FNV-1a 128-bit hash of its
//! `row`, as 32 hex digits — addresses its `row`. A record without a
//! `digest`, as written before the field existed, is trusted on its key
//! alone. Any other line is skipped, counted (`{prefix}.quarantined`, see
//! [`CacheMetrics`]) and left out of the index, so its cell recomputes on
//! demand; the line stays in the file, and every restart counts it again.
//! FNV-1a detects corruption but does not withstand a forger: whoever can
//! write the file can write a record that passes. The one edit the tier
//! makes to the file is cutting the bytes after its last newline, the tail
//! of an append torn by a crash.
//!
//! Hash collisions are guarded, not assumed away: entries store the full
//! canonical spec, and a lookup whose stored spec differs from the probe's
//! is treated as a miss.
//!
//! [`flush`]: ResultCache::flush

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
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

    /// The hash as 32 lowercase hex digits (the cold tier's `key` field).
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

/// The cold tier's on-disk record: one JSON line per cached cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ColdRecord {
    /// 32-hex-digit content hash of `spec`.
    key: String,
    /// Canonical spec JSON, embedded as a string.
    spec: String,
    /// Exact row JSON line, embedded as a string.
    row: String,
    /// 32-hex-digit FNV-1a 128-bit hash of `row`; empty in a record written
    /// before the field existed.
    #[serde(default)]
    digest: String,
}

impl ColdRecord {
    /// The record `line` holds and its spec's hash, if the line proves
    /// itself: it is UTF-8 JSON, its key addresses its spec and its digest,
    /// when present, addresses its row.
    fn parse(line: &[u8]) -> Option<(u128, ColdRecord)> {
        let record: ColdRecord = serde_json::from_str(std::str::from_utf8(line).ok()?).ok()?;
        let hash = fnv1a_128(record.spec.as_bytes());
        let row_ok =
            record.digest.is_empty() || record.digest == hash_hex(fnv1a_128(record.row.as_bytes()));
        (record.key == hash_hex(hash) && row_ok).then_some((hash, record))
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
/// `{prefix}.miss_ns`. The counter `{prefix}.quarantined` counts the
/// cold-tier lines that failed the check (see the module doc): those replay
/// skipped, booked when the cache is observed, and those a point read found.
/// An unobserved cache counts nothing.
#[derive(Debug, Clone)]
pub struct CacheMetrics {
    registry: Arc<ebird_obs::Registry>,
    hit_ns: Arc<ebird_obs::Histogram>,
    cold_read_ns: Arc<ebird_obs::Histogram>,
    miss_ns: Arc<ebird_obs::Histogram>,
    quarantined: Arc<ebird_obs::Counter>,
}

impl CacheMetrics {
    /// Handles under `prefix`: histograms `{prefix}.hit_ns`,
    /// `{prefix}.cold_read_ns`, `{prefix}.miss_ns` and the counter
    /// `{prefix}.quarantined`.
    pub fn new(registry: &Arc<ebird_obs::Registry>, prefix: &str) -> Self {
        CacheMetrics {
            registry: Arc::clone(registry),
            hit_ns: registry.histogram(&format!("{prefix}.hit_ns")),
            cold_read_ns: registry.histogram(&format!("{prefix}.cold_read_ns")),
            miss_ns: registry.histogram(&format!("{prefix}.miss_ns")),
            quarantined: registry.counter(&format!("{prefix}.quarantined")),
        }
    }
}

/// How a lookup was answered, for latency classification.
enum LookupClass {
    HotHit,
    ColdHit,
    Miss,
}

/// The cold tier: one file, appended through a buffer and point-read
/// through the same handle, and a point-read index.
struct ColdTier {
    /// Point reads seek and read the buffer's file, so a cold hit (read
    /// under the single-flight lock) opens nothing.
    writer: BufWriter<File>,
    path: PathBuf,
    /// Content hash → (line offset, line length sans newline).
    index: HashMap<u128, (u64, u32)>,
    /// Next append offset (== current logical file length).
    append_at: u64,
    /// Whether unflushed appends are buffered (a point read flushes first).
    dirty: bool,
    /// Lines replay skipped, for [`ResultCache::observe`] to count.
    skipped: u64,
}

impl ColdTier {
    /// Opens `dir/results.jsonl`, replaying every line that proves itself
    /// into `hot` and indexing it; later lines win on duplicate keys.
    fn open(dir: &Path, hot: &mut S3Fifo) -> Result<ColdTier, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        let path = dir.join("results.jsonl");
        let mut file = File::options()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("opening {path:?}: {e}"))?;
        let mut text = Vec::new();
        file.read_to_end(&mut text)
            .map_err(|e| format!("reading {path:?}: {e}"))?;
        // Bytes after the last newline are a torn append: cut, or the next
        // append would glue a record onto them.
        let good_len = text.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let mut skipped = 0;
        if good_len < text.len() {
            file.set_len(good_len as u64)
                .map_err(|e| format!("truncating {path:?}: {e}"))?;
            skipped += 1;
        }
        let mut index = HashMap::new();
        let mut offset = 0;
        for line in text[..good_len].split_inclusive(|&b| b == b'\n') {
            let len = line.len() - 1;
            match ColdRecord::parse(&line[..len]) {
                Some((hash, r)) => {
                    index.insert(hash, (offset, len as u32));
                    hot.insert(hash, &HotEntry::new(&r.spec, &r.row));
                }
                None => skipped += 1,
            }
            offset += line.len() as u64;
        }
        if skipped > 0 {
            eprintln!("ebird-serve: skipped {skipped} unproven line(s) of {path:?}");
        }
        Ok(ColdTier {
            writer: BufWriter::new(file),
            path,
            index,
            append_at: offset,
            dirty: false,
            skipped,
        })
    }

    /// The bytes of the line at `loc`, flushing buffered appends first so
    /// the read cannot land in unwritten bytes.
    fn read_at(&mut self, (offset, len): (u64, u32)) -> std::io::Result<Vec<u8>> {
        if self.dirty {
            self.writer.flush()?;
            self.dirty = false;
        }
        let mut file = self.writer.get_ref();
        let mut line = vec![0; len as usize];
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(&mut line)?;
        Ok(line)
    }
}

/// The two-tier content-addressed result cache.
pub struct ResultCache {
    hot: Mutex<S3Fifo>,
    /// `None` for a memory-only cache.
    cold: Option<Mutex<ColdTier>>,
    /// Lookup instrumentation; `None` records nothing.
    metrics: Option<CacheMetrics>,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("entries", &self.len())
            .field("cold", &self.cold.as_ref().map(|c| c.lock().path.clone()))
            .finish()
    }
}

impl ResultCache {
    /// A hot-tier-only, unbounded cache for the unit tests.
    #[cfg(test)]
    pub(crate) fn in_memory() -> Self {
        Self::new(CacheConfig::default()).expect("memory-only cache construction is infallible")
    }

    /// An unbounded cache whose cold tier lives in `dir/results.jsonl`.
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

    /// Opens a cache per `config`. With a cold dir, every record that proves
    /// itself replays into the hot tier (later records win on duplicate
    /// keys, so a file holding a recomputed duplicate loads cleanly) and has
    /// its offset indexed for point reads; every other line is skipped and a
    /// torn tail is cut (see the module doc).
    ///
    /// # Errors
    /// A human-readable description of the I/O failure.
    pub fn new(config: CacheConfig) -> Result<Self, String> {
        let mut hot = S3Fifo::new(config.hot_budget_bytes);
        let cold = match &config.cold_dir {
            None => None,
            Some(dir) => Some(Mutex::new(ColdTier::open(dir, &mut hot)?)),
        };
        Ok(ResultCache {
            hot: Mutex::new(hot),
            cold,
            metrics: None,
        })
    }

    /// Attaches lookup instrumentation (call before sharing the cache
    /// across threads), counting the lines replay skipped.
    pub fn observe(&mut self, metrics: CacheMetrics) {
        if let Some(cold) = &self.cold {
            metrics.quarantined.add(cold.lock().skipped);
        }
        self.metrics = Some(metrics);
    }

    /// Looks `key` up, booking its latency under its outcome when observed.
    /// A hot-tier miss falls through to a cold-tier point read (the row is
    /// then re-admitted hot). A hash collision (stored spec ≠ probed spec)
    /// is a miss in either tier.
    pub fn lookup(&self, key: &ContentKey) -> Option<CachedRow> {
        let start = self.metrics.as_ref().map(|m| m.registry.now_ns());
        let (result, class) = self.lookup_classified(key);
        if let (Some(m), Some(start)) = (&self.metrics, start) {
            let elapsed = m.registry.now_ns().saturating_sub(start);
            match class {
                LookupClass::HotHit => m.hit_ns.record(elapsed),
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
        if let Some(cold) = &self.cold {
            let mut tier = cold.lock();
            if let Some(&loc) = tier.index.get(&key.hash) {
                match tier
                    .read_at(loc)
                    .ok()
                    .and_then(|line| ColdRecord::parse(&line))
                {
                    Some((_, r)) if r.spec == key.content => {
                        drop(tier);
                        self.admit(key.hash, &r.spec, &r.row);
                        return (Some(CachedRow::new(&r.row)), LookupClass::ColdHit);
                    }
                    Some(_) => {} // collision on disk: miss
                    None => {
                        tier.index.remove(&key.hash);
                        if let Some(m) = &self.metrics {
                            m.quarantined.incr();
                        }
                    }
                }
            }
        }
        (None, LookupClass::Miss)
    }

    /// Inserts `row` under `key`, appending to the cold tier when present.
    /// Concurrent duplicate inserts are benign: the content address
    /// guarantees both writers carry identical bytes.
    pub fn insert(&self, key: &ContentKey, row: String) -> CachedRow {
        // The hot tier copies the bytes into its pages; the returned handle
        // is one exact-size copy, not the serializer's buffer.
        let entry = CachedRow::new(&row);
        self.admit(key.hash, &key.content, &row);
        if let Some(cold) = &self.cold {
            let record = ColdRecord {
                key: key.hex(),
                spec: key.content.clone(),
                digest: hash_hex(fnv1a_128(row.as_bytes())),
                row,
            };
            match serde_json::to_string(&record) {
                Ok(line) => {
                    debug_assert!(!line.contains('\n'), "JSON line must stay one line");
                    let mut tier = cold.lock();
                    let offset = tier.append_at;
                    let write = tier
                        .writer
                        .write_all(line.as_bytes())
                        .and_then(|()| tier.writer.write_all(b"\n"));
                    match write {
                        Ok(()) => {
                            tier.index.insert(key.hash, (offset, line.len() as u32));
                            tier.append_at += line.len() as u64 + 1;
                            tier.dirty = true;
                        }
                        Err(e) => {
                            eprintln!("ebird-serve: cache append to {:?} failed: {e}", tier.path);
                        }
                    }
                }
                Err(e) => eprintln!("ebird-serve: serializing cache record failed: {e}"),
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

    /// Flushes buffered cold-tier appends to disk (no-op in memory-only mode).
    ///
    /// # Errors
    /// The underlying I/O failure, rendered.
    pub fn flush(&self) -> Result<(), String> {
        if let Some(cold) = &self.cold {
            let mut tier = cold.lock();
            tier.writer
                .flush()
                .map_err(|e| format!("flushing {:?}: {e}", tier.path))?;
            tier.dirty = false;
        }
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
        let dir =
            std::env::temp_dir().join(format!("ebird_serve_cache_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let cache = ResultCache::with_cold_tier(&dir).unwrap();
            cache.insert(&ContentKey::of("spec-1"), "row-1".into());
            cache.insert(&ContentKey::of("spec-2"), "row-2".into());
            // Duplicate insert: later record must win on reload.
            cache.insert(&ContentKey::of("spec-1"), "row-1".into());
            cache.flush().unwrap();
        }
        let reloaded = ResultCache::with_cold_tier(&dir).unwrap();
        assert_eq!(reloaded.len(), 2);
        let hit = reloaded.lookup(&ContentKey::of("spec-1")).unwrap();
        assert_eq!(hit.row(), "row-1");
        assert_eq!(
            reloaded.lookup(&ContentKey::of("spec-2")).unwrap().row(),
            "row-2"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_final_line_is_dropped_not_fatal() {
        let dir =
            std::env::temp_dir().join(format!("ebird_serve_cache_torn_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let cache = ResultCache::with_cold_tier(&dir).unwrap();
            cache.insert(&ContentKey::of("spec-1"), "row-1".into());
            cache.flush().unwrap();
        }
        // Simulate a crash mid-append: a truncated JSON line at the tail.
        let mut f = File::options()
            .append(true)
            .open(dir.join("results.jsonl"))
            .unwrap();
        f.write_all(b"{\"key\":\"deadbeef\",\"spec\":\"sp").unwrap();
        drop(f);
        let reloaded = ResultCache::with_cold_tier(&dir).unwrap();
        assert_eq!(reloaded.len(), 1);
        assert!(reloaded.lookup(&ContentKey::of("spec-1")).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_after_a_torn_line_do_not_corrupt_the_file() {
        // The tear must be truncated at recovery: otherwise the next append
        // lands on the torn line and the *following* restart reads a corrupt
        // mid-file record — fatal where the tear itself was benign.
        let dir = std::env::temp_dir().join(format!(
            "ebird_serve_cache_torn_append_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        {
            let cache = ResultCache::with_cold_tier(&dir).unwrap();
            cache.insert(&ContentKey::of("spec-1"), "row-1".into());
            cache.flush().unwrap();
        }
        let mut f = File::options()
            .append(true)
            .open(dir.join("results.jsonl"))
            .unwrap();
        f.write_all(b"{\"key\":\"deadbeef\",\"spec\":\"sp").unwrap();
        drop(f);
        {
            let recovered = ResultCache::with_cold_tier(&dir).unwrap();
            recovered.insert(&ContentKey::of("spec-2"), "row-2".into());
            recovered.flush().unwrap();
        }
        let reloaded = ResultCache::with_cold_tier(&dir).unwrap();
        assert_eq!(reloaded.len(), 2, "both good records load after the tear");
        assert_eq!(
            reloaded.lookup(&ContentKey::of("spec-2")).unwrap().row(),
            "row-2"
        );
        std::fs::remove_dir_all(&dir).ok();
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

    /// `line` with the first byte of `field`'s string value XOR 1 (`"row-1"`
    /// becomes `"sow-1"`, a hex digit another one): the line stays JSON.
    fn flip_field(line: &str, field: &str) -> Vec<u8> {
        let at = line.find(&format!("\"{field}\":\"")).unwrap() + field.len() + 4;
        let mut bytes = line.as_bytes().to_vec();
        bytes[at] ^= 1;
        bytes
    }

    #[test]
    fn corruption_before_the_final_line_is_skipped_and_counted() {
        let dir = scratch_dir("midcorrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let good = {
            let key = ContentKey::of("spec-ok");
            format!(
                "{{\"key\":\"{}\",\"spec\":\"spec-ok\",\"row\":\"row-ok\"}}",
                key.hex()
            )
        };
        std::fs::write(
            dir.join("results.jsonl"),
            format!("not json at all\n{good}\n"),
        )
        .unwrap();
        let (cache, registry) = observed(CacheConfig {
            cold_dir: Some(dir.clone()),
            hot_budget_bytes: None,
        });
        assert_eq!(quarantined(&registry), 1);
        let hit = cache.lookup(&ContentKey::of("spec-ok")).unwrap();
        assert_eq!(hit.row(), "row-ok", "a record without a digest is trusted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_key_off_its_spec_is_skipped_counted_and_recomputed() {
        let dir = scratch_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("results.jsonl"),
            "{\"key\":\"00000000000000000000000000000000\",\"spec\":\"s\",\"row\":\"r\"}\n",
        )
        .unwrap();
        for restart in 0..2 {
            let (cache, registry) = observed(CacheConfig {
                cold_dir: Some(dir.clone()),
                hot_budget_bytes: None,
            });
            // The line stays in the file: every restart counts it again,
            // and the recomputed record appended after it loads.
            assert_eq!(quarantined(&registry), 1, "restart {restart}");
            let key = ContentKey::of("s");
            if restart == 0 {
                assert!(cache.lookup(&key).is_none());
                cache.insert(&key, "r".into());
                cache.flush().unwrap();
            } else {
                assert_eq!(cache.lookup(&key).unwrap().row(), "r");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_unproven_line_is_skipped_counted_once_and_never_served() {
        let dir = scratch_dir("unproven");
        let specs = ["spec-0", "spec-1", "spec-2"].map(ContentKey::of);
        {
            let cache = ResultCache::with_cold_tier(&dir).unwrap();
            for (i, key) in specs.iter().enumerate() {
                cache.insert(key, format!("row-{i}"));
            }
            cache.flush().unwrap();
        }
        let path = dir.join("results.jsonl");
        let written = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = written.lines().collect();
        // Each case rewrites the middle record or adds a line after it:
        // the file loads, counts one line, and every lookup is either the
        // row inserted or a miss.
        let cases: [(&str, Vec<u8>, bool); 6] = [
            ("key", flip_field(lines[1], "key"), false),
            ("spec", flip_field(lines[1], "spec"), false),
            ("row", flip_field(lines[1], "row"), false),
            ("digest", flip_field(lines[1], "digest"), false),
            (
                "non-UTF-8",
                [lines[1].as_bytes(), b"\n\xff\xfe"].concat(),
                true,
            ),
            (
                "non-JSON",
                [lines[1], "\nnot json"].concat().into_bytes(),
                true,
            ),
        ];
        for (case, middle, kept) in cases {
            let file = [
                lines[0].as_bytes(),
                b"\n",
                &middle,
                b"\n",
                lines[2].as_bytes(),
                b"\n",
            ]
            .concat();
            std::fs::write(&path, file).unwrap();
            let (cache, registry) = observed(CacheConfig {
                cold_dir: Some(dir.clone()),
                hot_budget_bytes: None,
            });
            assert_eq!(quarantined(&registry), 1, "{case}");
            for (i, key) in specs.iter().enumerate() {
                let got = cache.lookup(key).map(|row| row.row().to_string());
                let want = (i != 1 || kept).then(|| format!("row-{i}"));
                assert_eq!(got, want, "{case}: spec-{i}");
            }
        }

        // A point read applies the same check: with nothing resident, a
        // record corrupted after open misses, counts, and the recomputed
        // row's record reads back.
        std::fs::write(&path, &written).unwrap();
        let (cache, registry) = observed(CacheConfig {
            cold_dir: Some(dir.clone()),
            hot_budget_bytes: Some(1),
        });
        assert_eq!((cache.len(), quarantined(&registry)), (0, 0));
        let middle_at = lines[0].len() + 1;
        let mut file = [
            &written.as_bytes()[..middle_at],
            &flip_field(lines[1], "row")[..],
        ]
        .concat();
        file.extend_from_slice(&written.as_bytes()[middle_at + lines[1].len()..]);
        std::fs::write(&path, file).unwrap();
        assert!(cache.lookup(&specs[1]).is_none());
        assert_eq!(quarantined(&registry), 1);
        assert_eq!(cache.lookup(&specs[0]).unwrap().row(), "row-0");
        cache.insert(&specs[1], "row-1".into());
        assert_eq!(cache.lookup(&specs[1]).unwrap().row(), "row-1");
        assert_eq!(quarantined(&registry), 1);
        assert_eq!(tallies(&registry), (2, 1, 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unflushed_appends_are_point_readable() {
        // A cold read between insert and flush must not read past the
        // buffered bytes: the tier flushes lazily before the read.
        let dir = std::env::temp_dir().join(format!(
            "ebird_serve_cache_unflushed_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
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
