//! A closable priority job queue, and [`Pool::service`] to drain it with a
//! thread team.
//!
//! The campaign service schedules groups of scenario cells as jobs:
//! higher-priority submissions overtake lower-priority ones, equal
//! priorities run FIFO (submission order), and shutdown is a two-phase drain
//! — [`JobQueue::close`] refuses new work while every already-queued job
//! still runs. Depth is **weighted**: a job counts its
//! [`push_weighted`](JobQueue::push_weighted) weight (the service passes
//! the job's cell count, so bound and depth stay in cells) and `1` through
//! plain [`push`](JobQueue::push). The queue is deliberately job-agnostic:
//! it stores any `Send` payload, so the runtime layer stays free of
//! protocol or scenario types.

use std::collections::BinaryHeap;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::pool::{Ctx, Pool};

/// Metric handles an observed [`JobQueue`] publishes into: depth gauge
/// (queued weight), queue-wait histogram (enqueue → pop, one entry per job:
/// the paper's "time spent waiting for a thread"), and push/refusal
/// counters (per job). Built once from a registry via
/// [`QueueMetrics::new`]; the queue then records lock-free on every
/// push/pop. An unobserved queue (the default constructors) records
/// nothing and pays only an `Option` check.
#[derive(Debug, Clone)]
pub struct QueueMetrics {
    registry: Arc<ebird_obs::Registry>,
    depth: Arc<ebird_obs::Gauge>,
    wait_ns: Arc<ebird_obs::Histogram>,
    pushed: Arc<ebird_obs::Counter>,
    refused_full: Arc<ebird_obs::Counter>,
    refused_closed: Arc<ebird_obs::Counter>,
}

impl QueueMetrics {
    /// Handles under `prefix`: gauge `{prefix}.depth`, histogram
    /// `{prefix}.wait_ns`, counters `{prefix}.pushed`,
    /// `{prefix}.refused_full`, `{prefix}.refused_closed`.
    pub fn new(registry: &Arc<ebird_obs::Registry>, prefix: &str) -> Self {
        Self {
            registry: Arc::clone(registry),
            depth: registry.gauge(&format!("{prefix}.depth")),
            wait_ns: registry.histogram(&format!("{prefix}.wait_ns")),
            pushed: registry.counter(&format!("{prefix}.pushed")),
            refused_full: registry.counter(&format!("{prefix}.refused_full")),
            refused_closed: registry.counter(&format!("{prefix}.refused_closed")),
        }
    }
}

/// One heap entry: ordering uses `(priority, seq)` only, never the payload.
struct Entry<T> {
    priority: i64,
    /// Push sequence number; lower = earlier, so ties break FIFO.
    seq: u64,
    /// Enqueue stamp (registry time) for the queue-wait histogram; 0 when
    /// the queue is unobserved.
    enqueued_ns: u64,
    /// What this job counts toward the queue's depth.
    weight: usize,
    job: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority wins; within a priority, earlier seq wins
        // (so seq compares reversed).
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct State<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    closed: bool,
    /// Summed weight of the queued (not-yet-popped) jobs.
    depth: usize,
    /// Maximum depth; `usize::MAX` = unbounded. `depth <= capacity` always.
    capacity: usize,
}

impl<T> State<T> {
    /// Pops the next entry, giving its weight back.
    fn pop(&mut self) -> Option<Entry<T>> {
        let entry = self.heap.pop()?;
        self.depth -= entry.weight;
        Some(entry)
    }
}

/// Why a [`push`](JobQueue::push) was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is closed (shutdown drain in progress).
    Closed,
    /// The queue is at capacity — admission control territory: the caller
    /// should shed or defer the work, not block on it.
    Full,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Closed => write!(f, "queue is closed"),
            PushError::Full => write!(f, "queue is full"),
        }
    }
}

/// A blocking multi-producer/multi-consumer priority queue with close/drain
/// shutdown semantics and an optional depth bound.
///
/// * [`push`](JobQueue::push) enqueues at a priority (higher runs first;
///   equal priorities run in push order). Pushing to a closed queue is
///   refused with [`PushError::Closed`]; pushing more weight than a
///   [`bounded`](JobQueue::bounded) queue has room for is refused with
///   [`PushError::Full`] — it never blocks, so producers can degrade
///   gracefully instead of wedging.
/// * [`pop`](JobQueue::pop) blocks until a job is available, returning `None`
///   only once the queue is closed **and** drained — the worker-loop exit
///   signal.
/// * [`close`](JobQueue::close) starts the drain: no new jobs, queued jobs
///   still pop. Closing a full queue must (and does) still drain every
///   accepted job.
pub struct JobQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    metrics: Option<QueueMetrics>,
}

impl<T> Default for JobQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for JobQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.state.lock();
        f.debug_struct("JobQueue")
            .field("len", &g.depth)
            .field("closed", &g.closed)
            .finish()
    }
}

impl<T> JobQueue<T> {
    /// Creates an empty, open, unbounded queue.
    pub fn new() -> Self {
        Self::bounded(usize::MAX)
    }

    /// Creates an empty, open queue refusing pushes beyond `capacity` queued
    /// weight (jobs already popped by workers don't count).
    pub fn bounded(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(State {
                heap: BinaryHeap::new(),
                next_seq: 0,
                closed: false,
                depth: 0,
                capacity,
            }),
            available: Condvar::new(),
            metrics: None,
        }
    }

    /// Attaches metric handles: subsequent pushes/pops record depth,
    /// queue-wait and refusals into the handles' registry.
    pub fn observed(mut self, metrics: QueueMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// [`push_weighted`](JobQueue::push_weighted) at weight 1.
    ///
    /// # Errors
    /// See [`push_weighted`](JobQueue::push_weighted).
    pub fn push(&self, priority: i64, job: T) -> Result<(), PushError> {
        self.push_weighted(priority, 1, job)
    }

    /// Enqueues `job` at `priority` (higher = sooner; ties run FIFO),
    /// counting `weight` toward the depth until it is popped. Refuses —
    /// dropping the job — when the queue is closed or `len + weight` would
    /// exceed the capacity; never blocks.
    ///
    /// # Errors
    /// [`PushError::Closed`] after [`close`](JobQueue::close),
    /// [`PushError::Full`] when a bounded queue has no room for `weight`.
    pub fn push_weighted(&self, priority: i64, weight: usize, job: T) -> Result<(), PushError> {
        let enqueued_ns = self.metrics.as_ref().map_or(0, |m| m.registry.now_ns());
        let mut g = self.state.lock();
        if g.closed {
            if let Some(m) = &self.metrics {
                m.refused_closed.incr();
            }
            return Err(PushError::Closed);
        }
        if weight > g.capacity - g.depth {
            if let Some(m) = &self.metrics {
                m.refused_full.incr();
            }
            return Err(PushError::Full);
        }
        let seq = g.next_seq;
        g.next_seq += 1;
        g.heap.push(Entry {
            priority,
            seq,
            enqueued_ns,
            weight,
            job,
        });
        g.depth += weight;
        if let Some(m) = &self.metrics {
            m.pushed.incr();
            m.depth.set(g.depth as i64);
        }
        drop(g);
        self.available.notify_one();
        Ok(())
    }

    /// Records a pop into the metric handles (depth after the pop, and the
    /// job's enqueue → pop wait).
    fn record_pop(&self, depth_after: usize, enqueued_ns: u64) {
        if let Some(m) = &self.metrics {
            m.depth.set(depth_after as i64);
            m.wait_ns
                .record(m.registry.now_ns().saturating_sub(enqueued_ns));
        }
    }

    /// Blocks until a job is available and returns it; `None` once the queue
    /// is closed and fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut g = self.state.lock();
        loop {
            if let Some(entry) = g.pop() {
                let depth = g.depth;
                drop(g);
                self.record_pop(depth, entry.enqueued_ns);
                return Some(entry.job);
            }
            if g.closed {
                return None;
            }
            self.available.wait(&mut g);
        }
    }

    /// Pops without blocking: `Some(job)` if one is queued, `None` otherwise
    /// (whether open-and-empty or closed).
    #[cfg(test)]
    fn try_pop(&self) -> Option<T> {
        let mut g = self.state.lock();
        let entry = g.pop()?;
        let depth = g.depth;
        drop(g);
        self.record_pop(depth, entry.enqueued_ns);
        Some(entry.job)
    }

    /// Closes the queue: subsequent pushes are refused, queued jobs still
    /// drain, and blocked `pop`s return `None` once the heap empties.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.available.notify_all();
    }

    /// Summed weight of the jobs currently queued (not yet popped) — the
    /// admission-control depth signal; the job count while every push is
    /// weight 1.
    pub fn len(&self) -> usize {
        self.state.lock().depth
    }

    /// The depth bound ([`usize::MAX`] for an unbounded queue).
    pub fn capacity(&self) -> usize {
        self.state.lock().capacity
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.state.lock().heap.is_empty()
    }
}

impl Pool {
    /// Services `queue` with a full team: every member loops popping jobs and
    /// calling `handler` until the queue is closed and drained, then the team
    /// joins. The calling thread is member 0, as in [`Pool::region`].
    ///
    /// Jobs are independent by contract — `handler` must not block on another
    /// job's completion, or a team smaller than the dependency chain
    /// deadlocks.
    pub fn service<T, F>(&self, queue: &JobQueue<T>, handler: F)
    where
        T: Send,
        F: Fn(T, &Ctx<'_>) + Sync,
    {
        self.region(|ctx| {
            while let Some(job) = queue.pop() {
                handler(job, ctx);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn pops_by_priority_then_fifo() {
        let q = JobQueue::new();
        assert!(q.push(1, "low-a").is_ok());
        assert!(q.push(5, "high-a").is_ok());
        assert!(q.push(1, "low-b").is_ok());
        assert!(q.push(5, "high-b").is_ok());
        q.close();
        let drained: Vec<&str> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec!["high-a", "high-b", "low-a", "low-b"]);
    }

    #[test]
    fn negative_priorities_run_last() {
        let q = JobQueue::new();
        q.push(0, 0).unwrap();
        q.push(-3, -3).unwrap();
        q.push(7, 7).unwrap();
        q.close();
        let drained: Vec<i64> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![7, 0, -3]);
    }

    #[test]
    fn close_refuses_new_work_but_drains_old() {
        let q = JobQueue::new();
        assert!(q.push(0, 1).is_ok());
        q.close();
        assert_eq!(
            q.push(0, 2),
            Err(PushError::Closed),
            "push after close must be refused"
        );
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "pop stays None after drain");
    }

    #[test]
    fn try_pop_never_blocks() {
        let q: JobQueue<u32> = JobQueue::new();
        assert_eq!(q.try_pop(), None);
        q.push(0, 9).unwrap();
        assert_eq!(q.try_pop(), Some(9));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn bounded_queue_refuses_past_capacity_without_blocking() {
        let q = JobQueue::bounded(2);
        assert_eq!(q.capacity(), 2);
        assert!(q.push(0, 1).is_ok());
        assert!(q.push(0, 2).is_ok());
        assert_eq!(q.push(0, 3), Err(PushError::Full));
        assert_eq!(q.len(), 2, "a refused job is not queued");
        // A pop frees a slot; pushes are admitted again.
        assert_eq!(q.pop(), Some(1));
        assert!(q.push(9, 4).is_ok());
        // Closed wins over Full in reporting: the queue is gone, not busy.
        q.close();
        assert_eq!(q.push(0, 5), Err(PushError::Closed));
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![4, 2]);
    }

    #[test]
    fn weighted_depth_refuses_what_does_not_fit_and_pops_give_it_back() {
        let registry = Arc::new(ebird_obs::Registry::wall());
        let q = JobQueue::bounded(10).observed(QueueMetrics::new(&registry, "q"));
        assert!(q.push_weighted(0, 4, "four").is_ok());
        assert!(q.push_weighted(0, 6, "six").is_ok());
        assert_eq!(q.len(), 10, "depth is summed weight, not job count");
        // The gauge reads weight; pushes (and waits, refusals) count jobs.
        assert_eq!(registry.snapshot().gauges["q.depth"], 10);
        assert_eq!(registry.snapshot().counter("q.pushed"), 2);
        // Full to the brim: not even weight 1 fits.
        assert_eq!(q.push(0, "one"), Err(PushError::Full));
        assert_eq!(q.pop(), Some("four"));
        assert_eq!(q.len(), 6, "a pop gives the job's weight back");
        // 6 + 5 > 10 is refused whole; 6 + 4 fits exactly.
        assert_eq!(q.push_weighted(0, 5, "five"), Err(PushError::Full));
        assert_eq!(q.len(), 6, "a refused job is not queued");
        assert!(q.push_weighted(0, 4, "four again").is_ok());
        assert_eq!(q.try_pop(), Some("six"));
        assert_eq!(q.len(), 4);
        // Heavier than the whole bound: never admissible, even when empty.
        assert_eq!(q.pop(), Some("four again"));
        assert!(q.is_empty());
        assert_eq!(q.push_weighted(0, 11, "eleven"), Err(PushError::Full));
        assert_eq!(q.len(), 0);
        let snap = registry.snapshot();
        assert_eq!(snap.gauges["q.depth"], 0);
        assert_eq!(snap.histogram("q.wait_ns").count(), 3, "one wait per job");
        assert_eq!(snap.counter("q.refused_full"), 3);
    }

    #[test]
    fn close_while_saturated_drains_every_accepted_job() {
        // Shutdown with a full queue must neither deadlock nor drop accepted
        // cells: fill a bounded queue, close it while saturated, then let a
        // team drain — every accepted job runs exactly once, every refused
        // job never runs.
        let cap = 8usize;
        let q = Arc::new(JobQueue::bounded(cap));
        let accepted: Vec<usize> = (0..cap + 4)
            .filter(|&i| q.push((i % 3) as i64, i).is_ok())
            .collect();
        assert_eq!(accepted.len(), cap, "exactly `cap` jobs admitted");
        assert_eq!(q.len(), cap);
        let ran: Arc<Vec<AtomicUsize>> =
            Arc::new((0..cap + 4).map(|_| AtomicUsize::new(0)).collect());
        // Close from another thread while the queue is still full.
        let closer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.close())
        };
        let pool = Pool::new(3);
        let ran2 = Arc::clone(&ran);
        pool.service(&q, move |i, _ctx| {
            ran2[i].fetch_add(1, Ordering::SeqCst);
        });
        closer.join().unwrap();
        for (i, c) in ran.iter().enumerate() {
            let expected = usize::from(accepted.contains(&i));
            assert_eq!(
                c.load(Ordering::SeqCst),
                expected,
                "job {i} ran the wrong number of times"
            );
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None, "drained and closed");
    }

    #[test]
    fn blocked_pop_wakes_on_push_and_on_close() {
        let q = Arc::new(JobQueue::new());
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || {
            let first = q2.pop();
            let second = q2.pop();
            (first, second)
        });
        // Give the popper time to block, then feed it one job and close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(0, 42u64).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        let (first, second) = popper.join().unwrap();
        assert_eq!(first, Some(42));
        assert_eq!(second, None);
    }

    #[test]
    fn service_drains_every_job_exactly_once() {
        let pool = Pool::new(4);
        let q = JobQueue::new();
        let counts: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
        for i in 0..200usize {
            q.push((i % 3) as i64, i).unwrap();
        }
        q.close();
        pool.service(&q, |i, _ctx| {
            counts[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        assert!(q.is_empty());
    }

    #[test]
    fn observed_queue_records_depth_wait_and_refusals() {
        // A manual clock makes queue-wait exact: push at t, pop at t+Δ.
        let clock = Arc::new(ebird_obs::ManualClock::new());
        let registry = Arc::new(ebird_obs::Registry::with_time(
            Arc::clone(&clock) as Arc<dyn ebird_obs::TimeSource>
        ));
        let q = JobQueue::bounded(2).observed(QueueMetrics::new(&registry, "q"));
        assert!(q.push(0, "a").is_ok());
        clock.advance(100);
        assert!(q.push(0, "b").is_ok());
        assert_eq!(q.push(0, "c"), Err(PushError::Full));
        clock.advance(50);
        assert_eq!(q.pop(), Some("a")); // waited 150
        assert_eq!(q.pop(), Some("b")); // waited 50
        q.close();
        assert_eq!(q.push(0, "d"), Err(PushError::Closed));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("q.pushed"), 2);
        assert_eq!(snap.counter("q.refused_full"), 1);
        assert_eq!(snap.counter("q.refused_closed"), 1);
        assert_eq!(snap.gauges["q.depth"], 0);
        let wait = snap.histogram("q.wait_ns");
        assert_eq!(wait.count(), 2);
        assert_eq!(wait.total(), 200);
    }

    #[test]
    fn service_supports_producers_running_alongside() {
        // One producer thread feeds the queue while a pool team services it:
        // the shape the campaign server uses (connection threads produce,
        // the scheduler team consumes).
        let q = Arc::new(JobQueue::new());
        let done = Arc::new(AtomicUsize::new(0));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..100u64 {
                    assert!(q.push((i % 5) as i64, i).is_ok());
                }
                q.close();
            })
        };
        let pool = Pool::new(3);
        pool.service(&q, |_job, _ctx| {
            done.fetch_add(1, Ordering::SeqCst);
        });
        producer.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 100);
    }
}
