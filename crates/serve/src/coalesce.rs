//! Single-flight coalescing of in-flight cells.
//!
//! Two clients submitting overlapping matrices at the same moment used to
//! compute the shared cells twice: the result cache dedupes only *completed*
//! rows, so the window between "cell enqueued" and "row cached" admitted
//! duplicates. The [`InflightTable`] closes it: the first requester of a
//! cell registers it here and enqueues the one job; every later requester
//! **subscribes** to that computation instead of enqueueing its own. On
//! completion the worker drains the subscriber list in one step, fanning the
//! single result (a row handle, or the rendered pricing failure) out to every
//! waiting submission.
//!
//! Correctness leans on the lock protocol, not luck: the submit path holds
//! the table lock across its *cache probe → subscribe-or-register* decision,
//! and the completion path inserts into the cache **before** taking the
//! table lock to drain subscribers. A requester that finds neither a cache
//! entry nor an in-flight record therefore knows no computation exists or
//! can complete unseen — each distinct cell is enqueued exactly once.
//! (Deterministic, content-addressed cells make this safe: coalescing can
//! never hand a subscriber a different answer than its own compute would
//! have produced.)

use std::collections::HashMap;
use std::sync::mpsc;

use parking_lot::{Mutex, MutexGuard};

use crate::cache::{CachedRow, ContentKey, ResultCache};

/// What a subscriber receives: its cell index within its own submission,
/// plus the shared outcome (row, or rendered pricing failure).
pub type CellOutcome = (usize, Result<CachedRow, String>);

/// One waiting submission: where the cell sits in its matrix and the
/// submission's reply channel.
pub struct Subscriber {
    /// Cell index within the subscriber's matrix (reorder-buffer slot).
    pub index: usize,
    /// The subscriber's result channel.
    pub reply: mpsc::Sender<CellOutcome>,
}

/// The single-flight table: content hash → subscribers of the one in-flight
/// computation.
#[derive(Default)]
pub struct InflightTable {
    cells: Mutex<HashMap<u128, Vec<Subscriber>>>,
}

/// How a submit's cell probe resolved, under the table lock.
pub enum Disposition {
    /// Already cached: the row, immediately.
    Cached(CachedRow),
    /// Another submission's computation is in flight (probe only; call
    /// [`InflightGuard::subscribe`] to join it).
    Inflight,
    /// Nobody has it: the caller owns scheduling (probe only; call
    /// [`InflightGuard::register`] before enqueueing).
    Absent,
}

/// The locked table — the submit path's critical section.
pub struct InflightGuard<'a> {
    cells: MutexGuard<'a, HashMap<u128, Vec<Subscriber>>>,
}

impl InflightTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the table for a submit's classify-and-schedule section.
    pub fn lock(&self) -> InflightGuard<'_> {
        InflightGuard {
            cells: self.cells.lock(),
        }
    }

    /// Cells currently registered (queued or computing).
    pub fn len(&self) -> usize {
        self.cells.lock().len()
    }

    /// Whether no cell is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Completion: removes `key`'s record and returns its subscribers for
    /// fan-out. The caller must have made the outcome durable (cache insert
    /// for verified rows) **before** calling, so a concurrent submitter
    /// observing the key's absence finds the cache populated instead.
    pub fn complete(&self, key: &ContentKey) -> Vec<Subscriber> {
        self.cells.lock().remove(&key.hash()).unwrap_or_default()
    }
}

impl<'a> InflightGuard<'a> {
    /// Probes `key` without mutating: cache first (under this lock, so a
    /// completion cannot slip between the probe and a later
    /// [`subscribe`](Self::subscribe)/[`register`](Self::register)), then
    /// the in-flight map.
    pub fn probe(&self, cache: &ResultCache, key: &ContentKey) -> Disposition {
        if let Some(row) = cache.lookup(key) {
            return Disposition::Cached(row);
        }
        if self.cells.contains_key(&key.hash()) {
            Disposition::Inflight
        } else {
            Disposition::Absent
        }
    }

    /// Joins the in-flight computation of `key`. Panics if none exists —
    /// callers subscribe only after a [`probe`](Self::probe) returned
    /// [`Disposition::Inflight`] under this same lock.
    pub fn subscribe(&mut self, key: &ContentKey, subscriber: Subscriber) {
        self.cells
            .get_mut(&key.hash())
            .expect("subscribe requires an in-flight record")
            .push(subscriber);
    }

    /// Registers `key` as in flight with its first subscriber. The caller
    /// enqueues the one job; failures must be unwound with
    /// [`InflightTable::complete`].
    pub fn register(&mut self, key: &ContentKey, subscriber: Subscriber) {
        let prior = self.cells.insert(key.hash(), vec![subscriber]);
        debug_assert!(prior.is_none(), "register over an in-flight record");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: &str) -> ContentKey {
        ContentKey::of(format!("spec-{tag}"))
    }

    fn subscriber(index: usize) -> (Subscriber, mpsc::Receiver<CellOutcome>) {
        let (tx, rx) = mpsc::channel();
        (Subscriber { index, reply: tx }, rx)
    }

    #[test]
    fn second_requester_coalesces_instead_of_scheduling() {
        let cache = ResultCache::in_memory();
        let table = InflightTable::new();
        let k = key("a");

        let (sub1, rx1) = subscriber(0);
        {
            let mut g = table.lock();
            assert!(matches!(g.probe(&cache, &k), Disposition::Absent));
            g.register(&k, sub1);
        }
        let (sub2, rx2) = subscriber(3);
        {
            let mut g = table.lock();
            assert!(matches!(g.probe(&cache, &k), Disposition::Inflight));
            g.subscribe(&k, sub2);
        }
        assert_eq!(table.len(), 1, "one cell in flight, two subscribers");

        // Worker completes: cache first, then drain.
        let row = cache.insert(&k, "row-a".into());
        let subs = table.complete(&k);
        assert_eq!(subs.len(), 2);
        for s in subs {
            s.reply.send((s.index, Ok(row.clone()))).unwrap();
        }
        assert_eq!(rx1.recv().unwrap().0, 0);
        assert_eq!(rx2.recv().unwrap().0, 3);
        assert!(table.is_empty());

        // A third requester now sees the cache.
        let g = table.lock();
        assert!(matches!(g.probe(&cache, &k), Disposition::Cached(_)));
    }

    #[test]
    fn same_submission_can_subscribe_to_its_own_cell() {
        // A matrix listing the same cell twice: first occurrence registers,
        // second subscribes to itself — both indexes get the row.
        let cache = ResultCache::in_memory();
        let table = InflightTable::new();
        let k = key("dup");
        let (tx, rx) = mpsc::channel();
        {
            let mut g = table.lock();
            g.register(
                &k,
                Subscriber {
                    index: 0,
                    reply: tx.clone(),
                },
            );
            g.subscribe(
                &k,
                Subscriber {
                    index: 1,
                    reply: tx,
                },
            );
        }
        let row = cache.insert(&k, "row".into());
        for s in table.complete(&k) {
            s.reply.send((s.index, Ok(row.clone()))).unwrap();
        }
        let mut seen: Vec<usize> = (0..2).map(|_| rx.recv().unwrap().0).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn complete_with_no_subscribers_is_empty_not_panic() {
        let table = InflightTable::new();
        assert!(table.complete(&key("never-registered")).is_empty());
    }
}
