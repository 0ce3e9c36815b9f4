//! Span timing: an RAII guard that times a scope into a histogram.
//!
//! A [`SpanGuard`] is opened via [`crate::Registry::span`] and closed by
//! `Drop` — normally or during unwinding — so a panicking job still records
//! the time it spent (the panic-safety test pins this). Closing feeds the
//! `span.{name}.ns` histogram, whose snapshot is what crosses the wire.

use crate::registry::Registry;

/// RAII span handle. Closing (dropping) records the duration.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    registry: &'a Registry,
    name: String,
    start_ns: u64,
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn open(registry: &'a Registry, name: &str) -> Self {
        Self {
            registry,
            name: name.to_string(),
            start_ns: registry.now_ns(),
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let elapsed = self.registry.now_ns().saturating_sub(self.start_ns);
        self.registry
            .histogram(&format!("span.{}.ns", self.name))
            .record(elapsed);
    }
}
