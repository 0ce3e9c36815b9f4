//! Client side of the campaign-service protocol — what `repro submit`,
//! `repro fetch`, `repro status`, `repro trace` and `repro shutdown` call.
//!
//! Every helper opens one connection, writes one request line, and reads the
//! framed reply. Row lines are returned as raw strings, untouched, so a
//! client printing them reproduces the server's bytes exactly (the property
//! the CI serve-smoke diff checks).
//!
//! A `submit` refused by the server's admission control (the structured
//! `overloaded` reply) is retried under a bounded [`RetryPolicy`]:
//! exponential backoff with jitter, floored at the server's own
//! `retry_after_ms` hint. Only `submit` retries — `fetch` never schedules
//! work and cannot be refused for load.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use serde::value::get_field;
use serde::{Deserialize, Value};

use crate::protocol::{
    reply_line, MatrixSource, MetricsReply, OverloadedReply, Request, ShutdownReply, StatusReply,
    SubmitFooter, SubmitHeader, TraceReply,
};

/// A complete `submit`/`fetch` exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// The framing header (row count, cache split).
    pub header: SubmitHeader,
    /// One raw JSON line per cell, matrix order, server bytes verbatim.
    pub rows: Vec<String>,
    /// The framing footer (computed/cached totals).
    pub footer: SubmitFooter,
}

/// How `submit` responds to an `overloaded` refusal: bounded retries with
/// exponential backoff and jitter, never sleeping less than the server's
/// `retry_after_ms` hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`1` = never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds; doubles per retry.
    pub base_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub cap_ms: u64,
}

impl Default for RetryPolicy {
    /// 8 attempts, 25 ms base, 2 s cap: worst-case ~6 s of cumulative
    /// backoff before giving up — long enough to ride out a queue drain,
    /// short enough that a genuinely wedged server surfaces promptly.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_ms: 25,
            cap_ms: 2_000,
        }
    }
}

impl RetryPolicy {
    /// Fail on the first `overloaded` refusal (for probes that want the
    /// refusal itself, like the sustained-load tests).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Backoff before retry number `retry` (0-based), floored at the
    /// server's hint, with up to +50% jitter so synchronized refused
    /// clients do not re-stampede in lockstep.
    fn delay(&self, retry: u32, server_hint_ms: u64, jitter_seed: u64) -> Duration {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << retry.min(20))
            .min(self.cap_ms);
        let floor = exp.max(server_hint_ms);
        Duration::from_millis(floor + jitter(jitter_seed.wrapping_add(retry as u64), floor / 2))
    }
}

/// Cheap xorshift jitter in `[0, bound)`; not statistical, just enough to
/// de-synchronize retry stampedes.
fn jitter(seed: u64, bound: u64) -> u64 {
    if bound == 0 {
        return 0;
    }
    let mut x = seed | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x % bound
}

/// Parses a reply line as `T` after checking it is not an [`ErrorReply`]
/// (`{"ok":false,...}`), whose message becomes the `Err`.
///
/// [`ErrorReply`]: crate::protocol::ErrorReply
fn checked<T: Deserialize>(line: &str) -> Result<T, String> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| format!("malformed reply `{line}`: {e}"))?;
    if let Some(entries) = value.as_object() {
        if let Ok(Value::Bool(false)) = get_field(entries, "ok") {
            let msg = get_field(entries, "error")
                .ok()
                .and_then(|v| v.as_str())
                .unwrap_or("unspecified server error");
            return Err(format!("server error: {msg}"));
        }
    }
    T::from_value(&value).map_err(|e| format!("unexpected reply `{line}`: {e}"))
}

struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cloning stream: {e}"))?,
        );
        Ok(Connection {
            reader,
            writer: stream,
        })
    }

    fn send(&mut self, request: &Request) -> Result<(), String> {
        self.send_line(reply_line(request))
    }

    /// Writes `line` and its terminator in **one** `write`: the socket is
    /// `TCP_NODELAY`, so two writes would be two segments and wake the
    /// server's `read_line` on a partial line.
    fn send_line(&mut self, mut line: String) -> Result<(), String> {
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("sending request: {e}"))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("reading reply: {e}"))?;
        if n == 0 {
            return Err("server closed the connection mid-reply".into());
        }
        Ok(line.trim_end_matches('\n').to_string())
    }
}

/// One attempt's resolution: the stream completed, or the server refused it
/// for load and the caller may retry.
enum Attempt {
    Done(SubmitOutcome),
    Overloaded(OverloadedReply),
}

/// Recognizes the structured `overloaded` refusal (distinct from a terminal
/// [`ErrorReply`](crate::protocol::ErrorReply) by its `overloaded` marker).
fn parse_overloaded(line: &str) -> Option<OverloadedReply> {
    let value: Value = serde_json::from_str(line).ok()?;
    let entries = value.as_object()?;
    match get_field(entries, "overloaded") {
        Ok(Value::Bool(true)) => OverloadedReply::from_value(&value).ok(),
        _ => None,
    }
}

/// Runs one header → rows → footer exchange, handing each row line to
/// `on_row` the moment it arrives (rows are also collected in the outcome).
/// An `overloaded` refusal arrives before any row, so a retried attempt
/// never re-delivers rows to `on_row`.
fn streamed_once(
    addr: &str,
    request: &Request,
    on_row: &mut impl FnMut(&str),
) -> Result<Attempt, String> {
    let mut conn = Connection::open(addr)?;
    conn.send(request)?;
    let first = conn.read_line()?;
    if let Some(refusal) = parse_overloaded(&first) {
        return Ok(Attempt::Overloaded(refusal));
    }
    let header: SubmitHeader = checked(&first)?;
    // `resolve` admits no larger matrix, so a bigger advertisement cannot
    // be honest; refusing it bounds what the rows below may grow to.
    if header.cells > crate::scenario::MAX_MATRIX_CELLS {
        return Err(format!(
            "server advertised {} cells, more than the {}-cell matrix cap",
            header.cells,
            crate::scenario::MAX_MATRIX_CELLS
        ));
    }
    let mut rows = Vec::with_capacity(header.cells);
    for _ in 0..header.cells {
        let line = conn.read_line()?;
        // The server may abort a stream mid-flight (e.g. shutdown raced the
        // submission) with a single error line where a row was due; surface
        // it instead of recording it as data and waiting for rows that will
        // never come. Row objects always start with their `app` field, so
        // the fixed error prefix cannot collide.
        if line.starts_with("{\"ok\":false") {
            return Err(checked::<Value>(&line)
                .err()
                .unwrap_or_else(|| "server aborted the row stream".into()));
        }
        on_row(&line);
        rows.push(line);
    }
    let footer: SubmitFooter = checked(&conn.read_line()?)?;
    if footer.cells != header.cells {
        return Err(format!(
            "framing mismatch: header advertised {} cells, footer reports {}",
            header.cells, footer.cells
        ));
    }
    Ok(Attempt::Done(SubmitOutcome {
        header,
        rows,
        footer,
    }))
}

/// Runs [`streamed_once`] under `policy`, sleeping between `overloaded`
/// refusals. A non-overload error is terminal on any attempt.
fn streamed_with_retry(
    addr: &str,
    request: &Request,
    policy: &RetryPolicy,
    mut on_row: impl FnMut(&str),
) -> Result<SubmitOutcome, String> {
    let attempts = policy.max_attempts.max(1);
    let seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0x9e37_79b9, |d| u64::from(d.subsec_nanos()));
    for attempt in 0..attempts {
        match streamed_once(addr, request, &mut on_row)? {
            Attempt::Done(outcome) => return Ok(outcome),
            Attempt::Overloaded(refusal) => {
                if attempt + 1 < attempts {
                    std::thread::sleep(policy.delay(attempt, refusal.retry_after_ms, seed));
                } else {
                    return Err(format!(
                        "server overloaded after {attempts} attempt(s): {} ({} cell(s) queued; last retry_after_ms {})",
                        refusal.error, refusal.queued, refusal.retry_after_ms
                    ));
                }
            }
        }
    }
    Err("server overloaded: retry policy allowed no attempts".to_string())
}

/// Submits a matrix, retrying `overloaded` refusals under the default
/// [`RetryPolicy`], and hands each row to `on_row` as it arrives — the hook
/// `repro submit` uses to print rows live while a slow matrix computes.
/// Rows are also collected in the outcome. (An `overloaded` refusal
/// precedes the first row, so retries never hand `on_row` a duplicate.)
///
/// # Errors
/// Connection failures, server error replies, framing violations, and
/// overload refusals that outlast the retry budget.
pub fn submit_streaming(
    addr: &str,
    matrix: &MatrixSource,
    priority: i64,
    on_row: impl FnMut(&str),
) -> Result<SubmitOutcome, String> {
    submit_with_retry(addr, matrix, priority, &RetryPolicy::default(), on_row)
}

/// [`submit_streaming`] under an explicit [`RetryPolicy`] — pass
/// [`RetryPolicy::none`] to surface the first `overloaded` refusal as an
/// error instead of sleeping on it.
///
/// # Errors
/// See [`submit_streaming`].
pub fn submit_with_retry(
    addr: &str,
    matrix: &MatrixSource,
    priority: i64,
    policy: &RetryPolicy,
    on_row: impl FnMut(&str),
) -> Result<SubmitOutcome, String> {
    streamed_with_retry(
        addr,
        &Request::Submit {
            matrix: matrix.clone(),
            priority,
        },
        policy,
        on_row,
    )
}

/// Fetches a matrix's rows from the cache only (errors if incomplete),
/// handing each row to `on_row` as it arrives.
///
/// # Errors
/// See [`submit_streaming`]; additionally the server's `incomplete` error.
pub fn fetch_streaming(
    addr: &str,
    matrix: &MatrixSource,
    mut on_row: impl FnMut(&str),
) -> Result<SubmitOutcome, String> {
    match streamed_once(
        addr,
        &Request::Fetch {
            matrix: matrix.clone(),
        },
        &mut on_row,
    )? {
        Attempt::Done(outcome) => Ok(outcome),
        // `fetch` never schedules work; a refusal here would be a protocol
        // violation. Refuse to loop on it.
        Attempt::Overloaded(refusal) => Err(format!(
            "server refused a fetch as overloaded (protocol violation): {}",
            refusal.error
        )),
    }
}

/// Asks for the service counters.
///
/// # Errors
/// Connection failures and server error replies.
pub fn status(addr: &str) -> Result<StatusReply, String> {
    let mut conn = Connection::open(addr)?;
    conn.send(&Request::Status)?;
    checked(&conn.read_line()?)
}

/// Asks for the server's full metrics snapshot (counters, gauges, latency
/// histograms with p50/p95/p99) — what `repro metrics --addr` renders.
///
/// # Errors
/// Connection failures and server error replies.
pub fn metrics(addr: &str) -> Result<MetricsReply, String> {
    let mut conn = Connection::open(addr)?;
    conn.send(&Request::Metrics)?;
    checked(&conn.read_line()?)
}

/// Renders a [`StatusReply`] as the human-readable block `repro status`
/// prints. Centralized here (with a field-coverage test) so a counter
/// added to the wire struct cannot silently go missing from the rendering.
pub fn render_status(addr: &str, s: &StatusReply) -> String {
    let bound = |n: usize| {
        if n == 0 {
            "unbounded".to_string()
        } else {
            n.to_string()
        }
    };
    let mut out = String::new();
    out.push_str(&format!(
        "server {}: {} queued (bound {}), {} in flight ({} cell(s) single-flight), {} submit(s), {} worker thread(s)\n",
        addr,
        s.queued,
        bound(s.queue_bound),
        s.inflight,
        s.inflight_cells,
        s.submits,
        s.threads
    ));
    out.push_str(&format!(
        "  cache: {} hot entr{} / {} B charged (budget {}), {} B resident, {} hit(s) / {} miss(es), {} eviction(s), {} ghost hit(s), {} cold hit(s)\n",
        s.hot_entries,
        if s.hot_entries == 1 { "y" } else { "ies" },
        s.hot_bytes,
        bound(s.hot_budget_bytes as usize),
        s.hot_resident_bytes,
        s.hits,
        s.misses,
        s.evictions,
        s.ghost_hits,
        s.cold_hits
    ));
    out.push_str(&format!(
        "  cells: {} computed, {} coalesced; {} submit(s) refused overloaded; {} pricing panic(s) recovered\n",
        s.computed, s.coalesced, s.overloaded, s.recovered
    ));
    out
}

/// Asks for the record of submit `request` (the id its footer carried).
///
/// # Errors
/// Connection failures and server error replies — among them a request id
/// the server keeps no record of.
pub fn trace(addr: &str, request: u64) -> Result<TraceReply, String> {
    let mut conn = Connection::open(addr)?;
    conn.send(&Request::Trace { request })?;
    checked(&conn.read_line()?)
}

/// Renders a [`TraceReply`] as the block `repro trace` prints: the cells'
/// provenance, then the submit's timeline in milliseconds. Kept beside the
/// wire struct, with a field-coverage test, as [`render_status`] is.
pub fn render_trace(addr: &str, t: &TraceReply) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    let row = |ns: u64| {
        if ns == 0 {
            "-".to_string()
        } else {
            format!("{:.3}", ms(ns))
        }
    };
    format!(
        "request {} on {}: {} cell(s), {} row(s) written\n  \
         cells: {} cached, {} coalesced, {} computed, {} failed\n  \
         ms after start: resolved {:.3}, classified {:.3}, first row {}, last row {}\n",
        t.request,
        addr,
        t.cells,
        t.rows,
        t.cached,
        t.coalesced,
        t.computed,
        t.failed,
        ms(t.resolved_ns),
        ms(t.classified_ns),
        row(t.first_row_ns),
        row(t.last_row_ns),
    )
}

/// Requests a graceful shutdown and waits for the acknowledgement.
///
/// # Errors
/// Connection failures and server error replies.
pub fn shutdown(addr: &str) -> Result<ShutdownReply, String> {
    let mut conn = Connection::open(addr)?;
    conn.send(&Request::Shutdown)?;
    checked(&conn.read_line()?)
}

/// Sends one raw line (not necessarily valid JSON) and returns the server's
/// single-line reply — the hook protocol tests use to probe error handling.
///
/// # Errors
/// Connection failures.
pub fn raw_exchange(addr: &str, line: &str) -> Result<String, String> {
    let mut conn = Connection::open(addr)?;
    conn.send_line(line.to_string())?;
    conn.read_line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    /// A header advertising more cells than any matrix may hold is refused
    /// before any row is read or any memory reserved for rows.
    #[test]
    fn a_hostile_header_is_an_error_not_an_abort() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            BufReader::new(conn.try_clone().unwrap())
                .read_line(&mut String::new())
                .unwrap();
            let header = SubmitHeader {
                ok: true,
                cells: 1_000_000_000_000_000,
                cached: 0,
                coalesced: 0,
                scheduled: 0,
            };
            conn.write_all(format!("{}\n", reply_line(&header)).as_bytes())
                .unwrap();
        });
        let source = MatrixSource::Preset("smoke".into());
        let err = fetch_streaming(&addr, &source, |_| {}).unwrap_err();
        server.join().unwrap();
        assert_eq!(
            err,
            "server advertised 1000000000000000 cells, more than the 65536-cell matrix cap"
        );
    }

    /// Recovery from admission control, against a scripted server: two
    /// `overloaded` refusals carrying a back-off hint, then a real
    /// header/rows/footer. Every attempt is a fresh connection carrying the
    /// same request; the rows arrive once; each sleep honours the hint and
    /// stays inside what the policy allows.
    #[test]
    fn submit_with_retry_rides_out_scripted_refusals() {
        const HINT_MS: u64 = 30;
        let policy = RetryPolicy {
            max_attempts: 5,
            base_ms: 1,
            cap_ms: 4,
        };
        let rows = [
            "{\"app\":\"MiniFE\",\"n\":0}",
            "{\"app\":\"MiniMD\",\"n\":1}",
        ];
        let refusal = reply_line(&OverloadedReply {
            ok: false,
            overloaded: true,
            retry_after_ms: HINT_MS,
            queued: 16,
            error: "queue saturated".into(),
        });
        let mut stream = vec![reply_line(&SubmitHeader {
            ok: true,
            cells: rows.len(),
            cached: 0,
            coalesced: 0,
            scheduled: rows.len(),
        })];
        stream.extend(rows.map(str::to_string));
        stream.push(reply_line(&SubmitFooter {
            done: true,
            cells: rows.len(),
            computed: rows.len(),
            coalesced: 0,
            cached: 0,
            request: 1,
        }));
        let script = [refusal.clone(), refusal, stream.join("\n")];

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Answers one connection per script entry; returns each request
        // line with the time it arrived.
        let server = std::thread::spawn(move || {
            script.map(|reply| {
                let (mut conn, _) = listener.accept().unwrap();
                let mut request = String::new();
                BufReader::new(conn.try_clone().unwrap())
                    .read_line(&mut request)
                    .unwrap();
                let arrived = Instant::now();
                conn.write_all(format!("{reply}\n").as_bytes()).unwrap();
                (request, arrived)
            })
        });

        let mut seen = Vec::new();
        let source = MatrixSource::Preset("smoke".into());
        let outcome = submit_with_retry(&addr, &source, 0, &policy, |row| {
            seen.push(row.to_string());
        })
        .expect("the third attempt is admitted");
        let attempts = server.join().unwrap();

        assert_eq!(outcome.rows, rows, "rows returned");
        assert_eq!(
            seen, rows,
            "refused attempts deliver no row, the last each once"
        );
        assert_eq!(outcome.footer.computed, rows.len());
        // Three attempts (the listener is gone: a fourth would have failed
        // to connect), each the same request.
        assert!(attempts
            .iter()
            .all(|(request, _)| *request == attempts[0].0));
        for pair in attempts.windows(2) {
            let slept = pair[1].1.duration_since(pair[0].1);
            assert!(slept >= Duration::from_millis(HINT_MS), "{slept:?}");
        }
        // What the policy allows: the larger of its own (capped) backoff
        // and the server's hint, plus at most half of that as jitter.
        for retry in 0..4 {
            for seed in [0, 1, 0x9e37_79b9, u64::MAX] {
                let own = (1u64 << retry).min(policy.cap_ms);
                let hinted = policy.delay(retry, HINT_MS, seed).as_millis() as u64;
                assert!(
                    (HINT_MS..HINT_MS + HINT_MS / 2).contains(&hinted),
                    "{hinted}"
                );
                let unhinted = policy.delay(retry, 0, seed).as_millis() as u64;
                assert!((own..=own + own / 2).contains(&unhinted), "{unhinted}");
            }
        }
    }

    /// Every counter the server reports must appear in the rendered status
    /// block. Sentinel values are pairwise substring-free, so a match can
    /// only come from the right field being printed.
    #[test]
    fn render_status_covers_every_counter() {
        let s = StatusReply {
            ok: true,
            queued: 101,
            queue_bound: 102,
            inflight: 103,
            inflight_cells: 104,
            hot_entries: 105,
            hot_bytes: 106,
            hot_resident_bytes: 119,
            hot_budget_bytes: 107,
            hits: 108,
            misses: 109,
            evictions: 110,
            ghost_hits: 111,
            cold_hits: 112,
            computed: 113,
            coalesced: 114,
            overloaded: 115,
            recovered: 118,
            submits: 116,
            threads: 117,
        };
        let rendered = render_status("127.0.0.1:4750", &s);
        for sentinel in 101..=119 {
            assert!(
                rendered.contains(&sentinel.to_string()),
                "field with sentinel value {sentinel} missing from rendered status:\n{rendered}"
            );
        }
        assert!(rendered.contains("127.0.0.1:4750"));
    }

    /// Every field of a trace record appears in the rendered block, and a
    /// row time of `0` (no row written) renders as `-`.
    #[test]
    fn render_trace_covers_every_field() {
        let mut t = TraceReply {
            ok: true,
            request: 208,
            cells: 201,
            cached: 202,
            coalesced: 203,
            computed: 204,
            failed: 205,
            rows: 206,
            resolved_ns: 1_101_000,
            classified_ns: 2_102_000,
            first_row_ns: 3_103_000,
            last_row_ns: 4_104_000,
        };
        let rendered = render_trace("127.0.0.1:4750", &t);
        for sentinel in ["208", "201", "202", "203", "204", "205", "206"] {
            assert!(
                rendered.contains(sentinel),
                "{sentinel} missing:\n{rendered}"
            );
        }
        for ms in ["1.101", "2.102", "3.103", "4.104", "127.0.0.1:4750"] {
            assert!(rendered.contains(ms), "{ms} missing:\n{rendered}");
        }
        (t.first_row_ns, t.last_row_ns) = (0, 0);
        let rendered = render_trace("127.0.0.1:4750", &t);
        assert!(rendered.contains("first row -, last row -"), "{rendered}");
    }

    /// The wire sentinel `0` must render as "unbounded", not as a number.
    #[test]
    fn render_status_spells_out_unbounded_limits() {
        let s = StatusReply {
            ok: true,
            queued: 0,
            queue_bound: 0,
            inflight: 0,
            inflight_cells: 0,
            hot_entries: 0,
            hot_bytes: 0,
            hot_resident_bytes: 0,
            hot_budget_bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            ghost_hits: 0,
            cold_hits: 0,
            computed: 0,
            coalesced: 0,
            overloaded: 0,
            recovered: 0,
            submits: 0,
            threads: 1,
        };
        let rendered = render_status("127.0.0.1:4750", &s);
        assert_eq!(rendered.matches("unbounded").count(), 2);
    }
}
