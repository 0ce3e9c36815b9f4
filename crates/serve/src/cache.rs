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

/// One replayed cold-tier record and where its line sits in the file.
struct LocatedRecord {
    record: ColdRecord,
    /// Byte offset of the line's first byte.
    offset: u64,
    /// Line length in bytes, excluding the trailing newline.
    len: u32,
}

/// The cold tier replayed: its records (with file locations) and the byte
/// length of the well-formed prefix — anything past it is a torn tail to
/// truncate away before appending, or the next restart would read the tear
/// and the first new record glued into one corrupt line.
struct ColdReplay {
    records: Vec<LocatedRecord>,
    good_len: u64,
}

/// Loads the cold tier's records, tolerating a torn trailing line: appends
/// go through a buffered writer, so a crash mid-flush can leave the last
/// line truncated — that line is dropped with a warning (the cell simply
/// recomputes), while a parse failure on any earlier line is treated as
/// corruption.
fn load_cold_records(path: &Path) -> Result<ColdReplay, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(ColdReplay {
                records: Vec::new(),
                good_len: 0,
            })
        }
        Err(e) => return Err(format!("reading {path:?}: {e}")),
    };
    // Split keeping byte offsets (std `lines()` hides them).
    let mut lines: Vec<(u64, &str)> = Vec::new();
    let mut start = 0usize;
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            lines.push((start as u64, &text[start..i]));
            start = i + 1;
        }
    }
    if start < text.len() {
        lines.push((start as u64, &text[start..]));
    }
    let nonempty: Vec<(usize, u64, &str)> = lines
        .iter()
        .enumerate()
        .filter(|(_, (_, l))| !l.trim().is_empty())
        .map(|(no, &(off, l))| (no, off, l))
        .collect();
    let mut records = Vec::with_capacity(nonempty.len());
    let mut good_len = text.len() as u64;
    for (pos, &(lineno, offset, line)) in nonempty.iter().enumerate() {
        match serde_json::from_str::<ColdRecord>(line) {
            Ok(record) => records.push(LocatedRecord {
                record,
                offset,
                len: line.len() as u32,
            }),
            Err(e) if pos + 1 == nonempty.len() => {
                eprintln!(
                    "ebird-serve: dropping torn final line {} of {path:?} ({e})",
                    lineno + 1
                );
                good_len = offset;
            }
            Err(e) => {
                return Err(format!("corrupt cache {path:?} line {}: {e}", lineno + 1));
            }
        }
    }
    Ok(ColdReplay { records, good_len })
}

/// FNV-1a 128-bit hash of `bytes`.
fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
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
        format!("{:032x}", self.hash)
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
    /// 32-hex-digit content hash (redundant with `spec`, kept for grepping).
    key: String,
    /// Canonical spec JSON, embedded as a string.
    spec: String,
    /// Exact row JSON line, embedded as a string.
    row: String,
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
/// `{prefix}.miss_ns`. An unobserved cache counts nothing.
#[derive(Debug, Clone)]
pub struct CacheMetrics {
    registry: Arc<ebird_obs::Registry>,
    hit_ns: Arc<ebird_obs::Histogram>,
    cold_read_ns: Arc<ebird_obs::Histogram>,
    miss_ns: Arc<ebird_obs::Histogram>,
}

impl CacheMetrics {
    /// Handles under `prefix`: histograms `{prefix}.hit_ns`,
    /// `{prefix}.cold_read_ns`, `{prefix}.miss_ns`.
    pub fn new(registry: &Arc<ebird_obs::Registry>, prefix: &str) -> Self {
        CacheMetrics {
            registry: Arc::clone(registry),
            hit_ns: registry.histogram(&format!("{prefix}.hit_ns")),
            cold_read_ns: registry.histogram(&format!("{prefix}.cold_read_ns")),
            miss_ns: registry.histogram(&format!("{prefix}.miss_ns")),
        }
    }
}

/// How a lookup was answered, for latency classification.
enum LookupClass {
    HotHit,
    ColdHit,
    Miss,
}

/// The cold tier: buffered append writer, a read handle kept open for the
/// tier's whole life, and a point-read index.
struct ColdTier {
    writer: BufWriter<File>,
    /// Point reads seek and read through this one handle, so a cold hit
    /// (read under the single-flight lock) opens no file.
    reader: File,
    path: PathBuf,
    /// Content hash → (line offset, line length sans newline).
    index: HashMap<u128, (u64, u32)>,
    /// Next append offset (== current logical file length).
    append_at: u64,
    /// Whether unflushed appends are buffered (a point read flushes first).
    dirty: bool,
}

impl ColdTier {
    /// Reads the record at `loc`, flushing buffered appends first so the
    /// read cannot land in unwritten bytes.
    fn read_at(&mut self, loc: (u64, u32)) -> Result<ColdRecord, String> {
        if self.dirty {
            self.writer
                .flush()
                .map_err(|e| format!("flushing {:?} before read: {e}", self.path))?;
            self.dirty = false;
        }
        self.reader
            .seek(SeekFrom::Start(loc.0))
            .map_err(|e| format!("seeking {:?}: {e}", self.path))?;
        let mut buf = vec![0u8; loc.1 as usize];
        self.reader
            .read_exact(&mut buf)
            .map_err(|e| format!("reading {:?} at {}: {e}", self.path, loc.0))?;
        let line = std::str::from_utf8(&buf)
            .map_err(|e| format!("non-UTF-8 record in {:?} at {}: {e}", self.path, loc.0))?;
        serde_json::from_str(line)
            .map_err(|e| format!("corrupt record in {:?} at {}: {e}", self.path, loc.0))
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

    /// Opens a cache per `config`. With a cold dir, existing records replay
    /// into the hot tier (later records win on duplicate keys, so a file
    /// holding a recomputed duplicate loads cleanly) and every record's
    /// offset is indexed for point reads. A malformed **final** line — the
    /// signature of a crash mid-append — is dropped with a warning and
    /// truncated away (standard append-only-log recovery; truncation keeps
    /// the next append off the torn line); a malformed line anywhere else
    /// is real corruption and refuses to load.
    ///
    /// # Errors
    /// A human-readable description of the I/O or parse failure.
    pub fn new(config: CacheConfig) -> Result<Self, String> {
        let mut hot = S3Fifo::new(config.hot_budget_bytes);
        let cold = match &config.cold_dir {
            None => None,
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
                let path = dir.join("results.jsonl");
                let replay = load_cold_records(&path)?;
                let mut index = HashMap::with_capacity(replay.records.len());
                for located in replay.records {
                    let r = located.record;
                    let key = ContentKey::of(r.spec.clone());
                    if key.hex() != r.key {
                        return Err(format!(
                            "corrupt cache {path:?}: stored key {} does not address its spec (expected {})",
                            r.key,
                            key.hex()
                        ));
                    }
                    index.insert(key.hash, (located.offset, located.len));
                    hot.insert(key.hash, &HotEntry::new(&r.spec, &r.row));
                }
                if path.exists() {
                    let actual = std::fs::metadata(&path)
                        .map_err(|e| format!("stat {path:?}: {e}"))?
                        .len();
                    if actual > replay.good_len {
                        let f = File::options()
                            .write(true)
                            .open(&path)
                            .map_err(|e| format!("opening {path:?} to truncate: {e}"))?;
                        f.set_len(replay.good_len)
                            .map_err(|e| format!("truncating {path:?}: {e}"))?;
                    }
                }
                let file = File::options()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .map_err(|e| format!("opening {path:?}: {e}"))?;
                let reader =
                    File::open(&path).map_err(|e| format!("opening {path:?} to read: {e}"))?;
                Some(Mutex::new(ColdTier {
                    writer: BufWriter::new(file),
                    reader,
                    path,
                    index,
                    append_at: replay.good_len,
                    dirty: false,
                }))
            }
        };
        Ok(ResultCache {
            hot: Mutex::new(hot),
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
            let read = {
                let mut tier = cold.lock();
                tier.index
                    .get(&key.hash)
                    .copied()
                    .map(|loc| tier.read_at(loc))
            };
            match read {
                Some(Ok(r)) if r.spec == key.content => {
                    self.admit(key.hash, &r.spec, &r.row);
                    return (Some(CachedRow::new(&r.row)), LookupClass::ColdHit);
                }
                Some(Ok(_)) => {} // collision on disk: miss
                Some(Err(e)) => eprintln!("ebird-serve: cold-tier read failed: {e}"),
                None => {}
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

    #[test]
    fn corruption_before_the_final_line_is_fatal() {
        let dir = std::env::temp_dir().join(format!(
            "ebird_serve_cache_midcorrupt_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
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
        let err = ResultCache::with_cold_tier(&dir).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_cold_tier_is_rejected() {
        let dir =
            std::env::temp_dir().join(format!("ebird_serve_cache_corrupt_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("results.jsonl"),
            "{\"key\":\"00000000000000000000000000000000\",\"spec\":\"s\",\"row\":\"r\"}\n",
        )
        .unwrap();
        let err = ResultCache::with_cold_tier(&dir).unwrap_err();
        assert!(err.contains("does not address"), "{err}");
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
