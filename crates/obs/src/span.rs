//! Span-based tracing: per-thread span stacks feeding a bounded event ring.
//!
//! A [`SpanGuard`] is opened via [`crate::Registry::span`] and closed by
//! `Drop` — normally or during unwinding — so the per-thread stack can
//! never be corrupted by a panicking job (the panic-safety test pins this).
//! Closed spans become [`SpanEvent`]s in a bounded ring buffer (oldest
//! dropped first) and feed the `span.{name}.ns` histogram, whose
//! snapshot is what crosses the wire.

use crate::registry::{thread_index, Registry};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Mutex;

thread_local! {
    /// Depth of the calling thread's span stack. The stack itself is the
    /// chain of live `SpanGuard`s on that thread's (Rust) stack — RAII
    /// keeps entry/exit strictly LIFO, so depth is the only shared state.
    static SPAN_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Current thread's span-stack depth.
pub(crate) fn stack_depth() -> usize {
    SPAN_DEPTH.with(|d| d.get())
}

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name as passed to [`crate::Registry::span`].
    pub name: String,
    /// Dense id of the thread the span ran on.
    pub thread: usize,
    /// Nesting depth at open (0 = top-level).
    pub depth: usize,
    /// Open time, registry time-source nanoseconds.
    pub start_ns: u64,
    /// Close time, registry time-source nanoseconds.
    pub end_ns: u64,
}

/// A bounded ring of closed spans; oldest events are dropped first.
#[derive(Debug)]
pub(crate) struct EventLog {
    ring: Mutex<VecDeque<SpanEvent>>,
    capacity: usize,
}

impl EventLog {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity,
        }
    }

    pub(crate) fn push(&self, event: SpanEvent) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    pub(crate) fn to_vec(&self) -> Vec<SpanEvent> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

/// RAII span handle. Closing (dropping) records the event and duration.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    registry: &'a Registry,
    name: String,
    depth: usize,
    start_ns: u64,
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn open(registry: &'a Registry, name: &str) -> Self {
        let depth = SPAN_DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        Self {
            registry,
            name: name.to_string(),
            depth,
            start_ns: registry.now_ns(),
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let end_ns = self.registry.now_ns();
        self.registry
            .histogram(&format!("span.{}.ns", self.name))
            .record(end_ns.saturating_sub(self.start_ns));
        self.registry.events.push(SpanEvent {
            name: std::mem::take(&mut self.name),
            thread: thread_index(),
            depth: self.depth,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ManualClock, TimeSource};
    use std::sync::Arc;

    #[test]
    fn nested_spans_record_depth_and_order() {
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
        let events = reg.events();
        assert_eq!(events.len(), 2);
        // Inner closes first.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[0].end_ns - events[0].start_ns, 5);
        assert_eq!(events[1].name, "outer");
        assert_eq!(events[1].depth, 0);
        assert_eq!(events[1].end_ns - events[1].start_ns, 25);
        assert_eq!(reg.span_depth(), 0);
    }

    #[test]
    fn ring_is_bounded_and_drops_oldest() {
        let log = EventLog::new(3);
        for i in 0..5u64 {
            log.push(SpanEvent {
                name: format!("s{i}"),
                thread: 0,
                depth: 0,
                start_ns: i,
                end_ns: i,
            });
        }
        let names: Vec<_> = log.to_vec().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["s2", "s3", "s4"]);
    }
}
