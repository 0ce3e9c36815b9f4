//! Spans recorded by the harness around its calls into each layer. They are
//! kept in memory while a traced window runs and folded into the layer table
//! when it ends; the untraced run that produces the end-to-end metrics
//! records none.

use std::time::Instant;

/// One timed interval: `name`, the op it belongs to (spans of one op share
/// the id), the span that caused it, and its bounds in nanoseconds since
/// the log's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An append-only span log with one epoch, so spans recorded by different
/// threads share a time base.
#[derive(Debug, Clone)]
pub struct TraceLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl TraceLog {
    pub fn new(epoch: Instant) -> Self {
        TraceLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index (a later span's
    /// `parent`).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        });
        self.spans.len() - 1
    }

    /// Appends another thread's spans (same epoch), fixing up parent links.
    pub fn absorb(&mut self, other: TraceLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Total duration (ms) of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Total self time (ms) of every span called `name`: its duration minus
    /// the part its direct children cover.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64 / 1e6)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut log = TraceLog::new(epoch);
        let op = log.record("op", 7, None, at(0), at(100));
        log.record("generate", 7, Some(op), at(0), at(30));
        log.record("sweep", 7, Some(op), at(30), at(95));
        assert_eq!(log.total_ms("op"), 100.0);
        assert_eq!(log.total_ms("sweep"), 65.0);
        assert_eq!(log.self_ms("op"), 5.0);
        assert_eq!(log.self_ms("sweep"), 65.0);

        // Another thread's log keeps its parent links when absorbed.
        let mut other = TraceLog::new(epoch);
        let op2 = other.record("op", 8, None, at(10), at(20));
        other.record("generate", 8, Some(op2), at(10), at(14));
        log.absorb(other);
        assert_eq!(log.spans[4].parent, Some(3));
        assert_eq!(log.self_ms("op"), 11.0);
        assert_eq!(log.durations_ms("generate"), vec![30.0, 4.0]);
    }
}
