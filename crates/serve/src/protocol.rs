//! The line-delimited JSON wire protocol of the campaign service.
//!
//! Every request is one JSON object on one line; every reply is one or more
//! JSON lines. See `PROTOCOL.md` at the repository root for the normative
//! reference with transcripts. The shapes:
//!
//! ```text
//! {"verb":"submit","preset":"smoke","priority":2}
//! {"verb":"submit","matrix":{...ScenarioMatrix...}}
//! {"verb":"fetch","preset":"smoke"}
//! {"verb":"status"}
//! {"verb":"trace","request":17}
//! {"verb":"shutdown"}
//! ```
//!
//! `submit`/`fetch` replies are framed as **header → rows → footer**: a
//! [`SubmitHeader`] line, then exactly `cells` scenario-row lines (each one
//! byte-identical to the offline `repro scenarios` table row), then a
//! [`SubmitFooter`] line. Errors are a single [`ErrorReply`] line. The
//! request's `verb` dispatches; unknown verbs and malformed JSON produce
//! error replies rather than dropped connections.
//!
//! [`Request`]'s serde impls are written by hand (not derived) so the wire
//! shape — lowercase verbs, `matrix`-or-`preset` alternation, defaulted
//! `priority` — is explicit and pinned by tests.

use serde::value::get_field;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::scenario::ScenarioMatrix;

/// Where a submitted matrix comes from: a named built-in preset or an inline
/// [`ScenarioMatrix`] object.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixSource {
    /// A built-in preset name (see
    /// `scenario::PRESET_NAMES`).
    Preset(String),
    /// A full matrix supplied inline.
    Inline(ScenarioMatrix),
}

impl MatrixSource {
    /// Materializes the matrix this source names.
    ///
    /// # Errors
    /// An unknown preset name, verbatim from [`ScenarioMatrix::preset`] —
    /// the one canonical message every caller reports.
    pub fn matrix(&self) -> Result<ScenarioMatrix, String> {
        match self {
            MatrixSource::Preset(name) => ScenarioMatrix::preset(name),
            MatrixSource::Inline(m) => Ok(m.clone()),
        }
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Price a matrix: stream one row per cell, cache-hitting where possible.
    Submit {
        /// The matrix to price.
        matrix: MatrixSource,
        /// Queue priority (higher runs sooner; default 0).
        priority: i64,
    },
    /// Return a matrix's rows only if every cell is already cached.
    Fetch {
        /// The matrix to look up.
        matrix: MatrixSource,
    },
    /// Report queue/cache/service counters.
    Status,
    /// Report the full metric snapshot: counters, gauges, histogram buckets
    /// and quantile estimates.
    Metrics,
    /// Report one recent submit's record: its cells' provenance and when
    /// each of its layers ended.
    Trace {
        /// The submit's request id, as its footer carries it.
        request: u64,
    },
    /// Drain in-flight work, flush the cache, and stop the server.
    Shutdown,
}

impl Serialize for Request {
    fn write_json(&self, out: &mut String) {
        let (verb, source) = match self {
            Request::Submit { matrix, .. } => ("submit", Some(matrix)),
            Request::Fetch { matrix } => ("fetch", Some(matrix)),
            Request::Status => ("status", None),
            Request::Metrics => ("metrics", None),
            Request::Trace { .. } => ("trace", None),
            Request::Shutdown => ("shutdown", None),
        };
        out.push_str("{\"verb\":");
        verb.write_json(out);
        match source {
            Some(MatrixSource::Preset(name)) => {
                out.push_str(",\"preset\":");
                name.write_json(out);
            }
            Some(MatrixSource::Inline(m)) => {
                out.push_str(",\"matrix\":");
                m.write_json(out);
            }
            None => {}
        }
        match self {
            Request::Submit { priority, .. } => {
                out.push_str(",\"priority\":");
                priority.write_json(out);
            }
            Request::Trace { request } => {
                out.push_str(",\"request\":");
                request.write_json(out);
            }
            _ => {}
        }
        out.push('}');
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = v.as_object().ok_or_else(|| {
            DeError::custom(format!("expected request object, found {}", v.kind()))
        })?;
        let verb = get_field(entries, "verb")
            .map_err(|_| DeError::custom("request has no `verb` field"))?
            .as_str()
            .ok_or_else(|| DeError::custom("`verb` must be a string"))?;
        let source = || -> Result<MatrixSource, DeError> {
            if let Ok(m) = get_field(entries, "matrix") {
                return Ok(MatrixSource::Inline(ScenarioMatrix::from_value(m)?));
            }
            if let Ok(p) = get_field(entries, "preset") {
                let name = p
                    .as_str()
                    .ok_or_else(|| DeError::custom("`preset` must be a string"))?;
                return Ok(MatrixSource::Preset(name.to_string()));
            }
            Err(DeError::custom(
                "request needs a `matrix` object or a `preset` name",
            ))
        };
        match verb {
            "submit" => Ok(Request::Submit {
                matrix: source()?,
                priority: match get_field(entries, "priority") {
                    Ok(p) => i64::from_value(p)?,
                    Err(_) => 0,
                },
            }),
            "fetch" => Ok(Request::Fetch { matrix: source()? }),
            "status" => Ok(Request::Status),
            "metrics" => Ok(Request::Metrics),
            "trace" => Ok(Request::Trace {
                request: get_field(entries, "request")
                    .map_err(|_| DeError::custom("`trace` needs a `request` id"))
                    .and_then(u64::from_value)?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(DeError::custom(format!(
                "unknown verb `{other}` (expected submit, fetch, status, metrics, trace or shutdown)"
            ))),
        }
    }
}

/// First reply line of a `submit`/`fetch`: how many rows follow and how the
/// work splits between cache, coalesced in-flight computations, and fresh
/// compute.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubmitHeader {
    /// Always `true` (errors use [`ErrorReply`] instead).
    pub ok: bool,
    /// Row lines that will follow, in matrix order.
    pub cells: usize,
    /// Cells answered from the cache.
    pub cached: usize,
    /// Cells joined to another submission's in-flight computation
    /// (single-flight coalescing; 0 for `fetch`).
    #[serde(default)]
    pub coalesced: usize,
    /// Cells scheduled on the job queue by this request (0 for `fetch`).
    pub scheduled: usize,
}

/// Final reply line of a `submit`/`fetch`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubmitFooter {
    /// Always `true`; marks the end of the row stream.
    pub done: bool,
    /// Total rows streamed.
    pub cells: usize,
    /// Cells this request scheduled and waited to compute.
    pub computed: usize,
    /// Cells whose in-flight computation this request subscribed to.
    #[serde(default)]
    pub coalesced: usize,
    /// Cells served from the cache.
    pub cached: usize,
    /// The submit's request id, which `trace` takes (`0` for a `fetch`,
    /// which is not traced, and in replies from servers that mint none).
    #[serde(default)]
    pub request: u64,
}

/// Reply to `trace`: the record of one recent submit, kept in the server's
/// ring of the last [`TRACE_RING`] submits it admitted. Every time is in
/// nanoseconds after the server began handling the submit (its request line
/// already parsed), so the four read as one timeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceReply {
    /// Always `true`.
    pub ok: bool,
    /// The submit's request id, as its footer carries it.
    pub request: u64,
    /// Cells of the submitted matrix.
    pub cells: usize,
    /// Cells answered from the cache.
    pub cached: usize,
    /// Cells joined to another submission's in-flight computation.
    pub coalesced: usize,
    /// Cells this submit scheduled.
    pub computed: usize,
    /// Cell outcomes that arrived as errors. The stream ends with an error
    /// line at the first, so a failed submit reads 1.
    pub failed: usize,
    /// Row lines written; below `cells` when the stream ended early (a cell
    /// failed, or the client went away).
    pub rows: usize,
    /// When the matrix was resolved into cells.
    pub resolved_ns: u64,
    /// When the cells were classified, admitted and their jobs queued (the
    /// `serve.submit.classify_ns` histogram records this figure).
    pub classified_ns: u64,
    /// When the first row line was written (`0`: none was).
    pub first_row_ns: u64,
    /// When the last row line was written (`0`: none was).
    pub last_row_ns: u64,
}

/// Submits the server keeps a [`TraceReply`] for: the most recent ones it
/// admitted, older records leaving as newer ones arrive.
pub const TRACE_RING: usize = 256;

/// Reply to a `submit` refused by admission control: the job queue is
/// saturated, so the server sheds the request instead of accepting
/// unbounded work. The client should retry after `retry_after_ms`
/// (the built-in client does, with exponential backoff and jitter).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadedReply {
    /// Always `false` — an overload is a refusal, framed like an error.
    pub ok: bool,
    /// Always `true` — what distinguishes this from a terminal
    /// [`ErrorReply`]: the request was valid and is worth retrying.
    pub overloaded: bool,
    /// Suggested client back-off before retrying, in milliseconds.
    pub retry_after_ms: u64,
    /// Cells queued at refusal time (the saturation evidence).
    pub queued: usize,
    /// Human-readable summary.
    pub error: String,
}

/// Reply to `status`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusReply {
    /// Always `true`.
    pub ok: bool,
    /// Cells waiting in the priority queue (summed over its jobs).
    pub queued: usize,
    /// The queue's admission bound, in cells (`0` = unbounded).
    #[serde(default)]
    pub queue_bound: usize,
    /// Cells of jobs popped by a worker and not yet finished.
    pub inflight: usize,
    /// Distinct cells queued or computing (the single-flight table size).
    #[serde(default)]
    pub inflight_cells: usize,
    /// Entries resident in the hot cache tier.
    pub hot_entries: usize,
    /// Bytes charged against the hot-tier budget: each resident entry's
    /// spec and row plus a fixed 64 bytes.
    #[serde(default)]
    pub hot_bytes: u64,
    /// Heap bytes the hot tier holds: its pages, the index and the ghost
    /// set, at their capacity (compare with `hot_bytes`).
    #[serde(default)]
    pub hot_resident_bytes: u64,
    /// Hot-tier byte budget (`0` = unbounded).
    #[serde(default)]
    pub hot_budget_bytes: u64,
    /// Cumulative cache hits (either tier).
    pub hits: u64,
    /// Cumulative cache misses.
    pub misses: u64,
    /// Hot-tier entries evicted under the byte budget.
    #[serde(default)]
    pub evictions: u64,
    /// Evicted-then-wanted-again keys re-admitted via the ghost queue.
    #[serde(default)]
    pub ghost_hits: u64,
    /// Hot-tier misses answered by a cold-tier point read.
    #[serde(default)]
    pub cold_hits: u64,
    /// Cells actually computed by workers since start (duplicate-compute
    /// telltale: equals distinct cells priced when coalescing works).
    #[serde(default)]
    pub computed: u64,
    /// Cells that subscribed to an in-flight computation since start.
    #[serde(default)]
    pub coalesced: u64,
    /// Submits refused with an [`OverloadedReply`] since start.
    #[serde(default)]
    pub overloaded: u64,
    /// Pricing panics a worker caught since start: each failed its job's
    /// cells with an error line, and the worker went on to the next job.
    #[serde(default)]
    pub recovered: u64,
    /// Submit requests served since start.
    pub submits: u64,
    /// Worker-pool size.
    pub threads: usize,
}

/// One counter in a [`MetricsReply`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Metric name (e.g. `serve.requests.submit`).
    pub name: String,
    /// Cumulative count since server start.
    pub value: u64,
}

/// One gauge in a [`MetricsReply`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeEntry {
    /// Metric name (e.g. `serve.queue.depth`).
    pub name: String,
    /// Current value.
    pub value: i64,
}

/// One non-empty log2 histogram bucket in a [`HistogramEntry`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketEntry {
    /// Inclusive upper edge of the bucket, in the histogram's unit (ns).
    pub le: u64,
    /// Observations in the bucket.
    pub count: u64,
}

/// One latency histogram in a [`MetricsReply`]: quantile estimates plus the
/// non-empty log2 buckets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramEntry {
    /// Metric name (e.g. `serve.request.submit.ns`).
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, ns.
    pub total_ns: u64,
    /// Median estimate (log2-bucket midpoint; the true median provably
    /// lies within the containing bucket's edges).
    pub p50_ns: u64,
    /// 95th-percentile estimate, same bounds guarantee.
    pub p95_ns: u64,
    /// 99th-percentile estimate, same bounds guarantee.
    pub p99_ns: u64,
    /// Non-empty buckets in value order.
    pub buckets: Vec<BucketEntry>,
}

impl HistogramEntry {
    /// Renders an `ebird-obs` snapshot under `name`.
    fn from_snapshot(name: &str, snap: &ebird_obs::HistogramSnapshot) -> Self {
        HistogramEntry {
            name: name.to_string(),
            count: snap.count(),
            total_ns: snap.total(),
            p50_ns: snap.quantile_estimate(0.50),
            p95_ns: snap.quantile_estimate(0.95),
            p99_ns: snap.quantile_estimate(0.99),
            buckets: snap
                .nonzero_buckets()
                .into_iter()
                .map(|(le, count)| BucketEntry { le, count })
                .collect(),
        }
    }
}

/// Reply to `metrics`: the server's full metric snapshot, deterministically
/// name-ordered (counters, gauges and histograms each sorted by name).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsReply {
    /// Always `true`.
    pub ok: bool,
    /// Nanoseconds since the server's registry was created.
    pub uptime_ns: u64,
    /// All counters, name-ordered.
    pub counters: Vec<CounterEntry>,
    /// All gauges, name-ordered.
    pub gauges: Vec<GaugeEntry>,
    /// All histograms, name-ordered.
    pub histograms: Vec<HistogramEntry>,
}

impl MetricsReply {
    /// Renders a registry snapshot as the wire reply.
    pub fn from_snapshot(snap: &ebird_obs::Snapshot) -> Self {
        MetricsReply {
            ok: true,
            uptime_ns: snap.uptime_ns,
            counters: snap
                .counters
                .iter()
                .map(|(name, &value)| CounterEntry {
                    name: name.clone(),
                    value,
                })
                .collect(),
            gauges: snap
                .gauges
                .iter()
                .map(|(name, &value)| GaugeEntry {
                    name: name.clone(),
                    value,
                })
                .collect(),
            histograms: snap
                .histograms
                .iter()
                .map(|(name, h)| HistogramEntry::from_snapshot(name, h))
                .collect(),
        }
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Histogram entry by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramEntry> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Reply to `shutdown`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShutdownReply {
    /// Always `true`.
    pub ok: bool,
    /// Always `true`: the server stops accepting work and drains.
    pub stopping: bool,
}

/// Any request-level failure, as a single reply line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// Always `false`.
    pub ok: bool,
    /// What went wrong.
    pub error: String,
}

impl ErrorReply {
    /// Wraps a message.
    pub fn new(error: impl Into<String>) -> Self {
        ErrorReply {
            ok: false,
            error: error.into(),
        }
    }
}

/// Parses one request line.
///
/// # Errors
/// A human-readable description of the JSON or shape failure — the text the
/// server echoes back in an [`ErrorReply`].
pub fn parse_request(line: &str) -> Result<Request, String> {
    serde_json::from_str(line).map_err(|e| format!("bad request: {e}"))
}

/// Serializes any reply to its wire line (no trailing newline).
pub fn reply_line<T: Serialize>(reply: &T) -> String {
    serde_json::to_string(reply).expect("reply serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One request of every verb and matrix source.
    fn sample_requests() -> [Request; 7] {
        [
            Request::Submit {
                matrix: MatrixSource::Preset("smoke".into()),
                priority: 3,
            },
            Request::Submit {
                matrix: MatrixSource::Inline(ScenarioMatrix::smoke()),
                priority: 0,
            },
            Request::Fetch {
                matrix: MatrixSource::Preset("full".into()),
            },
            Request::Status,
            Request::Metrics,
            Request::Trace { request: 17 },
            Request::Shutdown,
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for req in sample_requests() {
            let line = reply_line(&req);
            assert!(!line.contains('\n'));
            let back = parse_request(&line).unwrap();
            assert_eq!(back, req);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_request_never_panics(
            noise in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..256),
            at in 0.0f64..1.0,
            mask in 1u16..256,
            depth in 0usize..20_001,
            kinds in 0u64..u64::MAX,
        ) {
            // Arbitrary bytes, as a connection would hand them over.
            let mut lines = vec![String::from_utf8_lossy(&noise).into_owned()];
            // Each frame cut short, and with one byte flipped, at the same
            // relative offset.
            for frame in sample_requests().iter().map(reply_line) {
                let cut = (at * frame.len() as f64) as usize;
                lines.push(String::from_utf8_lossy(&frame.as_bytes()[..cut]).into_owned());
                let mut flipped = frame.into_bytes();
                flipped[cut] ^= mask as u8;
                lines.push(String::from_utf8_lossy(&flipped).into_owned());
            }
            // A run of `[` / `{"k":` levels — far past the parser's recursion
            // limit — bare and as a submit's matrix.
            let nest: String = (0..depth)
                .map(|d| if (kinds >> (d % 64)) & 1 == 0 { "[" } else { "{\"k\":" })
                .collect();
            lines.push(format!("{{\"verb\":\"submit\",\"matrix\":{nest}"));
            lines.push(nest);
            for line in &lines {
                if let Err(e) = parse_request(line) {
                    prop_assert!(e.starts_with("bad request: "), "{}", e);
                }
            }
        }
    }

    #[test]
    fn wire_shape_is_pinned() {
        let line = reply_line(&Request::Submit {
            matrix: MatrixSource::Preset("smoke".into()),
            priority: 2,
        });
        assert_eq!(
            line,
            "{\"verb\":\"submit\",\"preset\":\"smoke\",\"priority\":2}"
        );
        assert_eq!(reply_line(&Request::Status), "{\"verb\":\"status\"}");
        assert_eq!(reply_line(&Request::Metrics), "{\"verb\":\"metrics\"}");
        assert_eq!(
            reply_line(&Request::Trace { request: 17 }),
            "{\"verb\":\"trace\",\"request\":17}"
        );
    }

    #[test]
    fn priority_defaults_to_zero() {
        let req = parse_request("{\"verb\":\"submit\",\"preset\":\"smoke\"}").unwrap();
        assert_eq!(
            req,
            Request::Submit {
                matrix: MatrixSource::Preset("smoke".into()),
                priority: 0
            }
        );
    }

    #[test]
    fn malformed_and_unknown_requests_error() {
        assert!(parse_request("not json")
            .unwrap_err()
            .contains("bad request"));
        assert!(parse_request("[1,2]").unwrap_err().contains("object"));
        assert!(parse_request("{\"priority\":1}")
            .unwrap_err()
            .contains("verb"));
        let e = parse_request("{\"verb\":\"warmup\"}").unwrap_err();
        assert!(e.contains("unknown verb `warmup`"), "{e}");
        let e = parse_request("{\"verb\":\"submit\"}").unwrap_err();
        assert!(e.contains("`matrix` object or a `preset`"), "{e}");
        let e = parse_request("{\"verb\":\"trace\"}").unwrap_err();
        assert!(e.contains("`request` id"), "{e}");
        let e = parse_request("{\"verb\":\"trace\",\"request\":-1}").unwrap_err();
        assert!(e.starts_with("bad request: "), "{e}");
        let e = parse_request("{\"verb\":\"fetch\",\"preset\":\"nope\"}");
        // Unknown preset is a semantic error surfaced at dispatch, not parse.
        assert!(e.is_ok());
    }

    #[test]
    fn unknown_preset_surfaces_at_materialization() {
        let src = MatrixSource::Preset("nope".into());
        let err = src.matrix().unwrap_err();
        assert!(err.contains("unknown preset `nope`"), "{err}");
        assert!(err.contains("topology-smoke"), "{err}");
        assert_eq!(
            MatrixSource::Preset("smoke".into()).matrix().unwrap(),
            ScenarioMatrix::smoke()
        );
        assert_eq!(
            MatrixSource::Preset("topology".into()).matrix().unwrap(),
            ScenarioMatrix::topology()
        );
    }

    #[test]
    fn replies_serialize_with_fixed_field_order() {
        let h = SubmitHeader {
            ok: true,
            cells: 48,
            cached: 12,
            coalesced: 4,
            scheduled: 32,
        };
        assert_eq!(
            reply_line(&h),
            "{\"ok\":true,\"cells\":48,\"cached\":12,\"coalesced\":4,\"scheduled\":32}"
        );
        let f = SubmitFooter {
            done: true,
            cells: 48,
            computed: 32,
            coalesced: 4,
            cached: 12,
            request: 7,
        };
        assert_eq!(
            reply_line(&f),
            "{\"done\":true,\"cells\":48,\"computed\":32,\"coalesced\":4,\"cached\":12,\"request\":7}"
        );
        assert_eq!(
            reply_line(&ErrorReply::new("boom")),
            "{\"ok\":false,\"error\":\"boom\"}"
        );
        let o = OverloadedReply {
            ok: false,
            overloaded: true,
            retry_after_ms: 150,
            queued: 1024,
            error: "server overloaded".into(),
        };
        assert_eq!(
            reply_line(&o),
            "{\"ok\":false,\"overloaded\":true,\"retry_after_ms\":150,\"queued\":1024,\"error\":\"server overloaded\"}"
        );
    }

    #[test]
    fn pre_coalescing_frames_still_parse() {
        // Headers/footers written before the `coalesced` field existed must
        // keep loading (serde default 0) — old transcripts and clients.
        let h: SubmitHeader =
            serde_json::from_str("{\"ok\":true,\"cells\":4,\"cached\":1,\"scheduled\":3}").unwrap();
        assert_eq!(h.coalesced, 0);
        let f: SubmitFooter =
            serde_json::from_str("{\"done\":true,\"cells\":4,\"computed\":3,\"cached\":1}")
                .unwrap();
        assert_eq!((f.coalesced, f.request), (0, 0));
    }

    #[test]
    fn metrics_reply_roundtrips_and_rebuilds_histograms() {
        let recorder = ebird_obs::Histogram::new();
        for v in [80, 120, 4_000, 4_000, 65_000] {
            recorder.record(v);
        }
        let hist = recorder.snapshot();
        let reply = MetricsReply {
            ok: true,
            uptime_ns: 5_000_000,
            counters: vec![CounterEntry {
                name: "serve.requests.total".into(),
                value: 7,
            }],
            gauges: vec![GaugeEntry {
                name: "serve.queue.depth".into(),
                value: 0,
            }],
            histograms: vec![HistogramEntry::from_snapshot(
                "serve.request.submit.ns",
                &hist,
            )],
        };
        let line = reply_line(&reply);
        let back: MetricsReply = serde_json::from_str(&line).unwrap();
        assert_eq!(back, reply);
        assert_eq!(back.counter("serve.requests.total"), 7);
        assert_eq!(back.counter("missing"), 0);
        let entry = back.histogram("serve.request.submit.ns").unwrap();
        assert_eq!(entry.count, 5);
        // The wire carries the snapshot's exact buckets and sum.
        let buckets: Vec<(u64, u64)> = entry.buckets.iter().map(|b| (b.le, b.count)).collect();
        assert_eq!(buckets, hist.nonzero_buckets());
        assert_eq!(entry.total_ns, hist.total());
        // Quantile estimates stay inside the proven bucket bounds.
        let (lo, hi) = hist.quantile_bounds(0.5);
        assert!(lo <= entry.p50_ns && entry.p50_ns <= hi);
    }

    #[test]
    fn overloaded_reply_roundtrips() {
        let o = OverloadedReply {
            ok: false,
            overloaded: true,
            retry_after_ms: 75,
            queued: 9,
            error: "server overloaded: 9 cells queued (bound 8)".into(),
        };
        let line = reply_line(&o);
        let back: OverloadedReply = serde_json::from_str(&line).unwrap();
        assert_eq!(back, o);
    }
}
