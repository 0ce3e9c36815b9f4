//! The sharded metric registry: named counters, gauges and histograms with
//! deterministic snapshots.
//!
//! Counters are striped across cache-line-padded shards indexed by a
//! per-thread stripe id, so hot-path increments from a worker pool do not
//! contend on one cache line. Snapshots collect every metric into
//! `BTreeMap`s, so rendering order is deterministic regardless of
//! registration order or thread interleaving.

use crate::clock::{TimeSource, WallClock};
use crate::hist::{Histogram, HistogramSnapshot};
use crate::span::SpanGuard;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of counter stripes. Eight covers the pool sizes this workspace
/// runs (the serve default is `available_parallelism`, typically ≤ 16; two
/// threads sharing a stripe is contention-harmless, just not ideal).
const STRIPES: usize = 8;

/// A cache-line-padded shard, so adjacent stripes never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Stripe(AtomicU64);

static NEXT_THREAD_INDEX: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_INDEX: usize = NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed);
}

/// A small dense id for the calling thread (assigned on first use).
fn thread_index() -> usize {
    THREAD_INDEX.with(|i| *i)
}

/// A monotonically increasing striped counter.
#[derive(Debug, Default)]
pub struct Counter {
    stripes: [Stripe; STRIPES],
}

impl Counter {
    /// Add `n` to the calling thread's stripe.
    pub fn add(&self, n: u64) {
        self.stripes[thread_index() % STRIPES]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Sum across stripes (saturating).
    pub fn get(&self) -> u64 {
        self.stripes.iter().fold(0u64, |acc, s| {
            acc.saturating_add(s.0.load(Ordering::Relaxed))
        })
    }
}

/// A settable signed gauge (e.g. current queue depth).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Set the gauge to an absolute value.
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adjust the gauge by a signed delta.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A deterministic point-in-time view of every metric in a [`Registry`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Nanoseconds since the registry was created (its time source's view).
    pub uptime_ns: u64,
    /// Counter totals, name-ordered.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values, name-ordered.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states, name-ordered.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter total by name (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram by name (empty when never touched).
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms
            .get(name)
            .cloned()
            .unwrap_or_else(HistogramSnapshot::empty)
    }
}

/// The metric registry. Cheap to share (`Arc<Registry>`); metric handles
/// (`Arc<Counter>` etc.) are grabbed once and used lock-free thereafter.
pub struct Registry {
    time: Arc<dyn TimeSource>,
    origin_ns: u64,
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("origin_ns", &self.origin_ns)
            .finish_non_exhaustive()
    }
}

/// Read a std `RwLock` ignoring poisoning: metric maps hold plain data, so
/// a panicked writer leaves them structurally intact.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    /// A registry over an explicit time source (use [`crate::ManualClock`]
    /// for work-metered deterministic tests).
    pub fn with_time(time: Arc<dyn TimeSource>) -> Self {
        let origin_ns = time.now_ns();
        Self {
            time,
            origin_ns,
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
        }
    }

    /// A wall-clocked registry for ops use.
    pub fn wall() -> Self {
        Self::with_time(Arc::new(WallClock::new()))
    }

    /// The registry's current time reading.
    pub fn now_ns(&self) -> u64 {
        self.time.now_ns()
    }

    /// Nanoseconds since construction.
    pub fn uptime_ns(&self) -> u64 {
        self.now_ns().saturating_sub(self.origin_ns)
    }

    /// Counter handle by name, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = read(&self.counters).get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            write(&self.counters)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    /// Gauge handle by name, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = read(&self.gauges).get(name) {
            return Arc::clone(g);
        }
        Arc::clone(
            write(&self.gauges)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::default())),
        )
    }

    /// Histogram handle by name, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = read(&self.histograms).get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            write(&self.histograms)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Open a span. Dropping the returned RAII guard (normally or during
    /// unwinding) records the time it was open into histogram
    /// `span.{name}.ns`.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        SpanGuard::open(self, name)
    }

    /// A deterministic snapshot of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let counters = read(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = read(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = read(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        Snapshot {
            uptime_ns: self.uptime_ns(),
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManualClock;

    #[test]
    fn counters_accumulate_across_threads() {
        let reg = Arc::new(Registry::wall());
        let c = reg.counter("jobs");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(reg.snapshot().counter("jobs"), 4000);
    }

    #[test]
    fn handles_are_shared_by_name() {
        let reg = Registry::wall();
        reg.counter("a").add(3);
        reg.counter("a").add(4);
        assert_eq!(reg.snapshot().counter("a"), 7);
        reg.gauge("depth").set(9);
        reg.gauge("depth").add(-2);
        assert_eq!(reg.snapshot().gauges["depth"], 7);
    }

    #[test]
    fn snapshot_is_name_ordered() {
        let reg = Registry::wall();
        reg.counter("zeta").incr();
        reg.counter("alpha").incr();
        reg.counter("mid").incr();
        let names: Vec<_> = reg.snapshot().counters.keys().cloned().collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn manual_time_makes_spans_deterministic() {
        let clock = Arc::new(ManualClock::new());
        let reg = Registry::with_time(Arc::clone(&clock) as Arc<dyn TimeSource>);
        {
            let _outer = reg.span("stage");
            clock.advance(1_000);
        }
        {
            let _outer = reg.span("stage");
            clock.advance(1_000);
        }
        let snap = reg.snapshot();
        let h = snap.histogram("span.stage.ns");
        assert_eq!(h.count(), 2);
        assert_eq!(h.total(), 2_000);
        assert_eq!(snap.uptime_ns, 2_000);
    }

    #[test]
    fn nested_spans_each_record_their_own_duration() {
        let clock = Arc::new(ManualClock::new());
        let reg = Registry::with_time(Arc::clone(&clock) as Arc<dyn TimeSource>);
        {
            let _outer = reg.span("outer");
            clock.advance(10);
            {
                let _inner = reg.span("inner");
                clock.advance(5);
            }
            clock.advance(10);
        }
        let snap = reg.snapshot();
        let (outer, inner) = (
            snap.histogram("span.outer.ns"),
            snap.histogram("span.inner.ns"),
        );
        assert_eq!((outer.count(), outer.total()), (1, 25));
        assert_eq!((inner.count(), inner.total()), (1, 5));
    }
}
