//! The multi-threaded campaign server.
//!
//! One `std::net::TcpListener`, one connection-handler thread per client,
//! and one scheduler thread servicing the shared priority
//! [`JobQueue`](ebird_runtime::JobQueue) with a full workspace
//! [`Pool`] team. A `submit` splits its matrix into cells, answers cached
//! cells from the [`ResultCache`] immediately, **subscribes** to cells
//! another submission is already computing (single-flight coalescing via
//! the [`InflightTable`] — each distinct cell is enqueued exactly once no
//! matter how many clients race it), schedules the rest, and streams one
//! row line per cell **in matrix order** as results become available (a
//! reorder buffer holds out-of-order completions), so a served table is
//! byte-identical to the offline `repro scenarios` table.
//!
//! The unit of scheduled work is the **group**, not the cell: the
//! to-be-computed cells of one submission that share a pricing group
//! ([`ResolvedCell::same_group`]) travel as one [`Job`], so a worker builds
//! the group's arrivals once ([`price_group`]) instead of once per
//! (model × strategy) sibling — a cold `full` matrix is 36 jobs of 8
//! cells, not 288 jobs that each redo their group's work. Pricing is a pure
//! function of the cells (no thread, channel or clock behind it), so every
//! priced row is content and every one is cached. Everything a client or
//! another submission can observe stays per cell: cache keys, single-flight
//! records, the `cached + coalesced + computed` accounting, and matrix-order
//! streaming; siblings that were cached or joined are simply not in the
//! job. The stated trade: a group is priced by one worker, so a submission
//! that is one huge group does not spread over the team.
//!
//! The hand-off is as coarse as the work. A worker publishes a job's rows
//! in one burst after caching and metering them, and the connection's
//! reply writer is buffered and flushed only when the handler would
//! otherwise wait — its result channel is empty, or the reply is complete
//! — so a burst costs one `write`, a fully cached table a handful, and no
//! ready row is ever held back across a wait.
//!
//! Under sustained load the server degrades to *refusals*, not to unbounded
//! queueing: the job queue is bounded in cells ([`ServerConfig::queue_bound`];
//! a job weighs its cell count), and a
//! `submit` whose uncached cells would not all fit is refused whole with a
//! structured `overloaded` reply carrying a retry-after hint (the built-in
//! client retries with exponential backoff). The hot cache tier runs under
//! an S3-FIFO byte budget ([`ServerConfig::hot_bytes`]); evicted rows stay
//! reachable through the cold tier's point-read index.
//!
//! Shutdown is graceful by construction: the `shutdown` verb stops the
//! acceptor, every open connection finishes its current request, the queue
//! closes and drains (in-flight jobs complete; their submissions stream to
//! the end), the worker team joins, and the cache's cold tier is flushed.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use ebird_analysis::report;
use ebird_obs::{Counter, Gauge, Histogram, Registry};
use ebird_runtime::{JobQueue, Pool, PushError, QueueMetrics};
use parking_lot::Mutex;

use crate::cache::{CacheConfig, CacheMetrics, CachedRow, ContentKey, ResultCache};
use crate::coalesce::{CellOutcome, Disposition, InflightTable, Subscriber};
use crate::protocol::{
    parse_request, reply_line, ErrorReply, MetricsReply, OverloadedReply, Request, ShutdownReply,
    StatusReply, SubmitFooter, SubmitHeader, TraceReply, TRACE_RING,
};
use crate::scenario::{price_group, ResolvedCell, ScenarioRow};

/// How long a connection read blocks before re-checking the stop flag, so
/// idle keep-alive clients cannot stall a graceful shutdown.
const READ_POLL: Duration = Duration::from_millis(200);

/// How long a reply write may block before the client is considered stalled
/// and its connection dropped — a reader that stops draining its row stream
/// must not pin a connection thread (and with it, graceful shutdown)
/// forever.
const WRITE_STALL_LIMIT: Duration = Duration::from_secs(30);

/// The longest request line a connection accepts, newline included. The
/// read itself is bounded, so a client that streams bytes without a newline
/// cannot grow a connection thread's buffer until allocation aborts the
/// server. Far above any real frame: the largest preset sent inline
/// (`workload`) is a 1 523-byte line.
const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// Default job-queue admission bound, in cells: deep enough that a healthy server
/// never refuses, shallow enough that backlog (and client-observed latency)
/// stays bounded when submitters outrun the workers.
pub const DEFAULT_QUEUE_BOUND: usize = 1024;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker-pool size for cell pricing.
    pub threads: usize,
    /// Directory for the cache's cold tier; `None` keeps results in memory
    /// only.
    pub cache_dir: Option<PathBuf>,
    /// Hot-tier byte budget for the result cache (`None` = unbounded).
    /// Rows evicted under the budget remain reachable through the cold
    /// tier when one is configured.
    pub hot_bytes: Option<usize>,
    /// Job-queue admission bound, in cells ([`usize::MAX`] = unbounded). A
    /// `submit` whose uncached, un-coalesced cells would push the queue past
    /// this depth is refused whole with an `overloaded` reply.
    pub queue_bound: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cache_dir: None,
            hot_bytes: None,
            queue_bound: DEFAULT_QUEUE_BOUND,
        }
    }
}

/// The scheduled cells of one pricing group of one submission. Who wants
/// the results lives in the single-flight table, not here: by the time a
/// worker completes this job, submissions that arrived after it was
/// enqueued may have subscribed too.
struct Job {
    /// Content address each finished row is cached under, `cells` order
    /// (shared: the submitter registers the same keys after the push).
    keys: Arc<[ContentKey]>,
    /// Cells of one group ([`ResolvedCell::same_group`]), matrix order.
    cells: Vec<ResolvedCell>,
}

/// The request verbs, as the per-verb metrics name them; `Error` stands for
/// lines that failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Submit,
    Fetch,
    Status,
    Metrics,
    Trace,
    Shutdown,
    Error,
}

/// Metric-name segment of each [`Verb`], discriminant order.
const VERB_NAMES: [&str; 7] = [
    "submit", "fetch", "status", "metrics", "trace", "shutdown", "error",
];

/// The prefix of the cache's lookup histograms ([`CacheMetrics`]), whose
/// counts are `status`'s hits, misses and cold hits.
const CACHE_METRICS: &str = "serve.cache";

/// Pre-resolved handles into the server's [`Registry`], so the request
/// hot path never takes the registry's name-map lock.
struct ServeMetrics {
    registry: Arc<Registry>,
    /// All requests served, any verb (`serve.requests.total`).
    requests_total: Arc<Counter>,
    /// Per-verb request counts (`serve.requests.{verb}`), [`Verb`] order.
    requests: [Arc<Counter>; 7],
    /// Per-verb reply latency (`serve.request.{verb}.ns`), [`Verb`] order.
    request_ns: [Arc<Histogram>; 7],
    /// Request bytes consumed off client sockets (`serve.bytes.read`).
    bytes_read: Arc<Counter>,
    /// Reply bytes written to client sockets (`serve.bytes.written`).
    bytes_written: Arc<Counter>,
    /// Wall time a worker spends on one job — pricing, encoding and caching
    /// its group's cells (`serve.job.run_ns`, one entry per job).
    job_run_ns: Arc<Histogram>,
    /// Total busy nanoseconds across the worker team
    /// (`serve.worker.busy_ns`) — utilization is this over uptime × team
    /// size, since service workers otherwise block on the queue.
    worker_busy_ns: Arc<Counter>,
    /// Submit-side cell accounting: `serve.cells.total` is exactly
    /// `cached + coalesced + computed` because all four are bumped at the
    /// same header-write point (refused submits add nothing).
    cells_total: Arc<Counter>,
    cells_cached: Arc<Counter>,
    cells_coalesced: Arc<Counter>,
    cells_computed: Arc<Counter>,
    /// Cells whose job settled with an error — a pricing failure or a
    /// caught panic (`serve.cells.failed`), booked as the job settles.
    /// `computed` books the same cells at admission, before any outcome
    /// exists, so `failed ≤ computed` and the identity above is unchanged.
    cells_failed: Arc<Counter>,
    /// Pricing panics `run_job` caught (`serve.worker.recovered`; `status`
    /// reports it as `recovered`).
    recovered: Arc<Counter>,
    /// Submits refused whole by admission control
    /// (`serve.submits.overloaded`) — these never reach the queue, so the
    /// queue's own refusal counters do not see them.
    submits_overloaded: Arc<Counter>,
    /// Submits whose matrix resolved (`serve.submits.resolved`; `status`'s
    /// `submits`) — `serve.requests.submit` counts at dispatch, so it also
    /// counts those answered with an error reply.
    submits_resolved: Arc<Counter>,
    /// The handler's serial layer of one resolved submit: resolve → classify
    /// → admit → schedule, up to the header (`serve.submit.classify_ns`, one
    /// entry per resolved submit, refused ones too; the submit's jobs
    /// reach the queue only in its last step).
    classify_ns: Arc<Histogram>,
    /// Cells priced by workers, booked as each job finishes
    /// (`serve.cells.priced`; `status`'s `computed`): the duplicate-compute
    /// telltale, equal to the *distinct* cells priced when coalescing
    /// works, and the retry hint's pace. `serve.cells.computed` counts the
    /// same cells when their submit is admitted, before any is priced.
    cells_priced: Arc<Counter>,
    /// Cells of the jobs workers are pricing right now
    /// (`serve.worker.inflight_cells`; `status`'s `inflight`) — the queue's
    /// depth gauge (`serve.queue.depth`) is the cells still *waiting*.
    inflight_cells: Arc<Gauge>,
}

impl ServeMetrics {
    fn new(registry: &Arc<Registry>) -> ServeMetrics {
        ServeMetrics {
            registry: Arc::clone(registry),
            requests_total: registry.counter("serve.requests.total"),
            requests: VERB_NAMES.map(|v| registry.counter(&format!("serve.requests.{v}"))),
            request_ns: VERB_NAMES.map(|v| registry.histogram(&format!("serve.request.{v}.ns"))),
            bytes_read: registry.counter("serve.bytes.read"),
            bytes_written: registry.counter("serve.bytes.written"),
            job_run_ns: registry.histogram("serve.job.run_ns"),
            worker_busy_ns: registry.counter("serve.worker.busy_ns"),
            cells_total: registry.counter("serve.cells.total"),
            cells_cached: registry.counter("serve.cells.cached"),
            cells_coalesced: registry.counter("serve.cells.coalesced"),
            cells_computed: registry.counter("serve.cells.computed"),
            cells_failed: registry.counter("serve.cells.failed"),
            recovered: registry.counter("serve.worker.recovered"),
            submits_overloaded: registry.counter("serve.submits.overloaded"),
            submits_resolved: registry.counter("serve.submits.resolved"),
            classify_ns: registry.histogram("serve.submit.classify_ns"),
            cells_priced: registry.counter("serve.cells.priced"),
            inflight_cells: registry.gauge("serve.worker.inflight_cells"),
        }
    }

    /// Bumps the total and per-verb request counters. Called at dispatch
    /// time, *before* the reply is written, so any reply a client has in
    /// hand is already counted in the next snapshot it scrapes — including
    /// a `metrics` reply, which therefore counts itself.
    fn count_request(&self, verb: Verb) {
        self.requests_total.incr();
        self.requests[verb as usize].incr();
    }

    /// Records the per-verb latency histogram once the reply (including a
    /// submit's full row stream) has been written.
    fn record_request_latency(&self, verb: Verb, start_ns: u64) {
        let elapsed = self.registry.now_ns().saturating_sub(start_ns);
        self.request_ns[verb as usize].record(elapsed);
    }
}

/// A [`Write`] adapter that feeds every written byte into a counter, so
/// handlers keep their plain `&mut impl Write` signatures while
/// `serve.bytes.written` stays exact.
struct CountingWriter<'a, W: Write> {
    inner: W,
    written: &'a Counter,
}

impl<W: Write> Write for CountingWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written.add(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// State shared by the acceptor, every connection thread, and the scheduler.
struct Shared {
    metrics: ServeMetrics,
    queue: JobQueue<Job>,
    cache: ResultCache,
    single_flight: InflightTable,
    /// The last request id minted; a submit's id is the next one.
    last_request: AtomicU64,
    /// The records of the last [`TRACE_RING`] admitted submits, oldest
    /// first, as `trace` answers them.
    traces: Mutex<VecDeque<TraceReply>>,
    threads: usize,
    addr: SocketAddr,
    stop: AtomicBool,
}

impl Shared {
    /// The state of a server answering on `addr`, loading the cache's cold
    /// tier if configured.
    fn new(config: &ServerConfig, addr: SocketAddr) -> Result<Shared, String> {
        let registry = Arc::new(Registry::wall());
        let mut cache = ResultCache::new(CacheConfig {
            cold_dir: config.cache_dir.clone(),
            hot_budget_bytes: config.hot_bytes,
        })?;
        cache.observe(CacheMetrics::new(&registry, CACHE_METRICS));
        Ok(Shared {
            metrics: ServeMetrics::new(&registry),
            queue: JobQueue::bounded(config.queue_bound)
                .observed(QueueMetrics::new(&registry, "serve.queue")),
            cache,
            single_flight: InflightTable::new(),
            last_request: AtomicU64::new(0),
            traces: Mutex::new(VecDeque::new()),
            threads: config.threads,
            addr,
            stop: AtomicBool::new(false),
        })
    }
}

/// A bound, not-yet-running campaign server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:4750`, or `127.0.0.1:0` for an
    /// ephemeral port) and prepares the shared state, loading the cache's
    /// cold tier if configured.
    ///
    /// # Errors
    /// Rendered bind/cache failures.
    pub fn bind(addr: &str, config: ServerConfig) -> Result<Server, String> {
        if config.threads == 0 {
            return Err("server needs at least one worker thread".into());
        }
        if config.queue_bound == 0 {
            return Err("queue bound must be at least 1 (use usize::MAX for unbounded)".into());
        }
        let listener = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("resolving local addr: {e}"))?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared::new(&config, local)?),
        })
    }

    /// The bound address (port resolved if `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Runs the accept loop until a `shutdown` request arrives, then drains:
    /// joins every connection thread, closes and drains the job queue, joins
    /// the worker team, and flushes the cache.
    ///
    /// # Errors
    /// Rendered accept-loop or cache-flush failures.
    pub fn run(self) -> Result<(), String> {
        let Server { listener, shared } = self;
        let scheduler = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ebird-serve-workers".into())
                .spawn(move || {
                    let pool = Pool::new(shared.threads);
                    pool.service(&shared.queue, |job: Job, _ctx| run_job(&shared, job));
                })
                .map_err(|e| format!("spawning worker team: {e}"))?
        };

        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in listener.incoming() {
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    let shared = Arc::clone(&shared);
                    // A spawn failure (thread exhaustion under load) refuses
                    // this one client; aborting the accept loop would skip
                    // the drain below and leak the scheduler.
                    match std::thread::Builder::new()
                        .name("ebird-serve-conn".into())
                        .spawn(move || handle_connection(stream, &shared))
                    {
                        Ok(handle) => connections.push(handle),
                        Err(e) => eprintln!("ebird-serve: refusing connection: {e}"),
                    }
                    connections.retain(|h| !h.is_finished());
                }
                Err(e) => {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    eprintln!("ebird-serve: accept failed: {e}");
                }
            }
        }
        for handle in connections {
            let _ = handle.join();
        }
        shared.queue.close();
        let _ = scheduler.join();
        shared.cache.flush()?;
        Ok(())
    }
}

/// Encodes a priced group's rows and makes them durable: one outcome per
/// key, in order (a pricing failure is every cell's outcome and caches
/// nothing). Every priced row is a pure function of its spec, so every one
/// is cached.
fn settle(
    cache: &ResultCache,
    keys: &[ContentKey],
    priced: Result<Vec<ScenarioRow>, String>,
) -> Vec<Result<CachedRow, String>> {
    let rows = match priced {
        Ok(rows) => rows,
        Err(e) => return vec![Err(e); keys.len()],
    };
    keys.iter()
        .zip(&rows)
        .map(|(key, row)| {
            let line =
                report::json_line(row).map_err(|e| format!("serializing scenario row: {e}"))?;
            Ok(cache.insert(key, line))
        })
        .collect()
}

#[cfg(test)]
thread_local! {
    /// Test-only fault hook: once set, the next pricing on this thread
    /// panics (and clears it).
    static PANIC_NEXT_PRICING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// One worker's turn: price the job's group once, cache and meter, then
/// publish every row in one burst. A panic while pricing or encoding is
/// every key's outcome — an error, nothing cached — so the job's
/// subscribers are answered and the worker lives on to take the next job.
fn run_job(shared: &Shared, job: Job) {
    // Service workers block on the queue between jobs, so utilization is
    // metered per job here rather than via a PoolObserver around the
    // (never-returning) region.
    let job_start = shared.metrics.registry.now_ns();
    let cells = job.cells.len();
    shared.metrics.inflight_cells.add(cells as i64);
    let outcomes = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        #[cfg(test)]
        if PANIC_NEXT_PRICING.take() {
            panic!("injected pricing fault");
        }
        settle(&shared.cache, &job.keys, price_group(&job.cells))
    }))
    .unwrap_or_else(|panic| {
        shared.metrics.recovered.incr();
        let message = panic
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("no message");
        settle(
            &shared.cache,
            &job.keys,
            Err(format!("pricing panicked: {message}")),
        )
    });
    shared.metrics.cells_priced.add(cells as u64);
    // Decrement before reporting: once a submission has streamed its last
    // row, no job of its can still be counted in flight. The registry's
    // updates are relaxed; the channel sends below publish them to the
    // subscriber that receives this job's rows.
    shared.metrics.inflight_cells.add(-(cells as i64));
    // Meter the job before fanning the results out: once a subscriber has
    // its last row it may scrape `metrics`, and this job must already be
    // visible.
    let busy = shared.metrics.registry.now_ns().saturating_sub(job_start);
    shared.metrics.job_run_ns.record(busy);
    shared.metrics.worker_busy_ns.add(busy);
    let failed = outcomes.iter().filter(|o| o.is_err()).count();
    shared.metrics.cells_failed.add(failed as u64);
    // Fan each result out to every subscribed submission, all rows back to
    // back so a waiting handler wakes to the whole burst. The cache inserts
    // above happened first, so a submitter observing a key's absence from
    // the table finds the cache populated instead. A dropped receiver
    // (client vanished mid-submit) is not an error: the row is cached for
    // the next ask.
    for (key, outcome) in job.keys.iter().zip(outcomes) {
        for sub in shared.single_flight.complete(key) {
            let _ = sub.reply.send((sub.index, outcome.clone()));
        }
    }
}

/// Binds and runs in one call — the `repro serve` entry point.
///
/// # Errors
/// See [`Server::bind`] and [`Server::run`].
pub fn serve(addr: &str, config: ServerConfig) -> Result<(), String> {
    let server = Server::bind(addr, config)?;
    let budget = server.shared.cache.hot_budget();
    eprintln!(
        "# ebird-serve listening on {} ({} worker thread(s), cache {}, hot budget {}, queue bound {})",
        server.local_addr(),
        server.shared.threads,
        if server.shared.cache.is_empty() {
            "empty".to_string()
        } else {
            format!("{} entries", server.shared.cache.len())
        },
        if budget == usize::MAX {
            "unbounded".to_string()
        } else {
            format!("{budget} B")
        },
        if server.shared.queue.capacity() == usize::MAX {
            "unbounded".to_string()
        } else {
            server.shared.queue.capacity().to_string()
        },
    );
    server.run()
}

/// One line off a connection, as [`read_request_line`] frames it.
enum RequestLine {
    /// A non-blank request, trimmed.
    Text(String),
    /// A line that is not UTF-8, with the bytes it took off the wire: it
    /// gets an error reply, and its newline still frames the next request.
    NotUtf8(usize),
    /// A line past [`MAX_REQUEST_LINE_BYTES`]: one error reply, then the
    /// connection ends.
    Overlong,
}

impl RequestLine {
    /// Frames one received line, or `None` for a blank one.
    fn frame(bytes: Vec<u8>) -> Option<RequestLine> {
        let len = bytes.len();
        match String::from_utf8(bytes) {
            Ok(text) => {
                let text = text.trim();
                (!text.is_empty()).then(|| RequestLine::Text(text.to_string()))
            }
            Err(_) => Some(RequestLine::NotUtf8(len)),
        }
    }
}

/// Reads one line, polling the stop flag between read timeouts. Returns
/// `None` on EOF / connection error / server stop with nothing buffered, and
/// [`RequestLine::Overlong`] for a line past [`MAX_REQUEST_LINE_BYTES`]: each
/// read is capped at the room left (`Read::take`), because one `read_until`
/// keeps appending for as long as bytes keep arriving.
fn read_request_line(reader: &mut impl BufRead, shared: &Shared) -> Option<RequestLine> {
    let mut line = Vec::new();
    loop {
        let room = MAX_REQUEST_LINE_BYTES - line.len();
        match (&mut *reader)
            .take(room as u64)
            .read_until(b'\n', &mut line)
        {
            Ok(0) if room == 0 => return Some(RequestLine::Overlong),
            // EOF; serve a final unterminated line if one accumulated.
            Ok(0) => return RequestLine::frame(line),
            Ok(_) if line.ends_with(b"\n") => {
                if let Some(request) = RequestLine::frame(std::mem::take(&mut line)) {
                    return Some(request);
                }
            }
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Abandon even a partially received request once the server
                // is stopping — a client holding an unterminated line open
                // must not stall the drain.
                if shared.stop.load(Ordering::SeqCst) {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
}

fn write_line(writer: &mut impl Write, line: &str) -> Result<(), String> {
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .map_err(|e| format!("client write failed: {e}"))
}

/// Hands the client everything written so far.
fn flush(writer: &mut impl Write) -> Result<(), String> {
    writer
        .flush()
        .map_err(|e| format!("client write failed: {e}"))
}

/// The connection's reply writer: buffered, so a reply reaches the socket in
/// as few `write`s as it has waits — [`serve_request`] flushes at the end
/// of each reply and [`handle_submit`] whenever it is about to block. The
/// counting wrapper keeps `serve.bytes.written` exact without touching any
/// handler signature.
fn reply_writer<W: Write>(inner: W, written: &Counter) -> BufWriter<CountingWriter<'_, W>> {
    BufWriter::new(CountingWriter { inner, written })
}

/// One connection: serve requests until EOF, connection error, or shutdown.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_POLL)).ok();
    stream.set_write_timeout(Some(WRITE_STALL_LIMIT)).ok();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = reply_writer(stream, &shared.metrics.bytes_written);
    serve_lines(&mut BufReader::new(read_half), &mut writer, shared);
}

/// Serves the request lines of one connection until EOF, a write failure,
/// an oversized line or shutdown. A line that is not UTF-8 gets an error
/// reply and the next line is served. An oversized line gets one error reply
/// and ends the connection: its unread rest leaves nothing to frame the next
/// request by.
fn serve_lines(reader: &mut impl BufRead, writer: &mut impl Write, shared: &Shared) {
    while let Some(line) = read_request_line(reader, shared) {
        let served = match line {
            RequestLine::Text(line) => serve_request(&line, shared, writer),
            RequestLine::NotUtf8(len) => {
                shared.metrics.bytes_read.add(len as u64);
                refuse("bad request: request line is not UTF-8", shared, writer)
            }
            RequestLine::Overlong => {
                let refusal = format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes");
                let _ = refuse(&refusal, shared, writer);
                return;
            }
        };
        // Bound the drain: after a stop, finish the request just served but
        // accept no further ones on this connection.
        if served.is_err() || shared.stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Answers a line no request could be parsed from with one error reply,
/// counted as an `error` request.
fn refuse(msg: &str, shared: &Shared, writer: &mut impl Write) -> Result<(), String> {
    shared.metrics.count_request(Verb::Error);
    write_line(writer, &reply_line(&ErrorReply::new(msg))).and_then(|()| flush(writer))
}

/// One request line in, one complete reply out — written and flushed. An
/// `Err` means the client is gone (a write failed), not that the request
/// was bad: bad requests get an error *reply*.
fn serve_request(line: &str, shared: &Shared, writer: &mut impl Write) -> Result<(), String> {
    // The request line plus the newline `read_request_line` trimmed.
    shared.metrics.bytes_read.add(line.len() as u64 + 1);
    let start_ns = shared.metrics.registry.now_ns();
    let request = parse_request(line);
    let verb = match &request {
        Err(_) => Verb::Error,
        Ok(Request::Status) => Verb::Status,
        Ok(Request::Metrics) => Verb::Metrics,
        Ok(Request::Trace { .. }) => Verb::Trace,
        Ok(Request::Shutdown) => Verb::Shutdown,
        Ok(Request::Submit { .. }) => Verb::Submit,
        Ok(Request::Fetch { .. }) => Verb::Fetch,
    };
    shared.metrics.count_request(verb);
    let outcome = match request {
        Err(msg) => write_line(writer, &reply_line(&ErrorReply::new(msg))),
        Ok(Request::Status) => write_line(writer, &reply_line(&status_reply(shared))),
        Ok(Request::Metrics) => {
            let snapshot = shared.metrics.registry.snapshot();
            write_line(writer, &reply_line(&MetricsReply::from_snapshot(&snapshot)))
        }
        Ok(Request::Trace { request }) => write_line(writer, &trace_reply(shared, request)),
        Ok(Request::Shutdown) => write_line(
            writer,
            &reply_line(&ShutdownReply {
                ok: true,
                stopping: true,
            }),
        ),
        Ok(Request::Submit { matrix, priority }) => {
            handle_submit(&matrix, priority, shared, writer)
        }
        Ok(Request::Fetch { matrix }) => handle_fetch(&matrix, shared, writer),
    }
    .and_then(|()| flush(writer));
    if verb == Verb::Shutdown {
        // Acknowledged (or the client is gone) — either way, stop.
        begin_shutdown(shared);
    }
    shared.metrics.record_request_latency(verb, start_ns);
    outcome
}

/// Keeps `trace` as submit `trace.request`'s record, retiring the oldest
/// once [`TRACE_RING`] are kept.
fn record_trace(shared: &Shared, trace: TraceReply) {
    let mut traces = shared.traces.lock();
    if traces.len() == TRACE_RING {
        traces.pop_front();
    }
    traces.push_back(trace);
}

/// `trace`: the kept record of submit `request` as a reply line, or an
/// error line when none is kept.
fn trace_reply(shared: &Shared, request: u64) -> String {
    let traces = shared.traces.lock();
    match traces.iter().rev().find(|trace| trace.request == request) {
        Some(trace) => reply_line(trace),
        None => reply_line(&ErrorReply::new(format!(
            "no trace of request {request}: the server keeps the last {TRACE_RING} admitted submits"
        ))),
    }
}

/// `usize::MAX` sentinels (unbounded) travel as `0` on the wire.
fn wire_bound(bound: usize) -> usize {
    if bound == usize::MAX {
        0
    } else {
        bound
    }
}

/// `status`: every tally read from one registry snapshot (so it is what a
/// `metrics` scrape shows), and live state from its owner — the queue, the
/// single-flight table and the hot tier.
fn status_reply(shared: &Shared) -> StatusReply {
    let snap = shared.metrics.registry.snapshot();
    let lookups = |outcome: &str| {
        snap.histogram(&format!("{CACHE_METRICS}.{outcome}"))
            .count()
    };
    let cold_hits = lookups("cold_read_ns");
    StatusReply {
        ok: true,
        queued: shared.queue.len(),
        queue_bound: wire_bound(shared.queue.capacity()),
        inflight: snap
            .gauges
            .get("serve.worker.inflight_cells")
            .map_or(0, |&cells| cells as usize),
        inflight_cells: shared.single_flight.len(),
        hot_entries: shared.cache.len(),
        hot_bytes: shared.cache.hot_bytes() as u64,
        hot_resident_bytes: shared.cache.hot_resident_bytes() as u64,
        hot_budget_bytes: wire_bound(shared.cache.hot_budget()) as u64,
        hits: lookups("hit_ns") + cold_hits,
        misses: lookups("miss_ns"),
        evictions: shared.cache.evictions(),
        ghost_hits: shared.cache.ghost_hits(),
        cold_hits,
        computed: snap.counter("serve.cells.priced"),
        coalesced: snap.counter("serve.cells.coalesced"),
        overloaded: snap.counter("serve.submits.overloaded"),
        recovered: snap.counter("serve.worker.recovered"),
        submits: snap.counter("serve.submits.resolved"),
        threads: shared.threads,
    }
}

/// Flags the stop and wakes the blocked acceptor with a throwaway
/// connection so `run` can proceed to the drain phase.
fn begin_shutdown(shared: &Shared) {
    shared.stop.store(true, Ordering::SeqCst);
    // A wildcard bind (0.0.0.0 / ::) is not a connectable destination on
    // every platform; wake through the matching loopback instead.
    let mut wake = shared.addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake.ip() {
            std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
}

/// Resolves a submitted matrix into cells, or writes the error reply.
fn resolve_cells(
    matrix: &crate::protocol::MatrixSource,
    writer: &mut impl Write,
) -> Result<Option<Vec<ResolvedCell>>, String> {
    let materialized = match matrix.matrix() {
        Ok(m) => m,
        Err(e) => {
            write_line(writer, &reply_line(&ErrorReply::new(e)))?;
            return Ok(None);
        }
    };
    match materialized.resolve() {
        Ok(resolved) => Ok(Some(resolved.cells())),
        Err(e) => {
            write_line(
                writer,
                &reply_line(&ErrorReply::new(format!("invalid matrix: {e}"))),
            )?;
            Ok(None)
        }
    }
}

/// Suggested back-off (ms) for a refused submit: how long the team needs to
/// drain the `queued` cells at the pace it has measured on itself so far
/// (`busy_ns` of worker time over `computed` cells), clamped to a sane
/// window. Before the first job completes there is no pace; the floor
/// applies and the client's own backoff takes over.
fn retry_after_hint(busy_ns: u64, computed: u64, queued: usize, threads: usize) -> u64 {
    let per_cell_ns = busy_ns / computed.max(1);
    let drain_ns = per_cell_ns.saturating_mul(queued as u64) / threads.max(1) as u64;
    (drain_ns / 1_000_000).clamp(50, 2_000)
}

/// The `overloaded` refusal: counted, then written in place of the frame.
fn refuse_overloaded(
    shared: &Shared,
    queued: usize,
    error: String,
    writer: &mut impl Write,
) -> Result<(), String> {
    shared.metrics.submits_overloaded.incr();
    write_line(
        writer,
        &reply_line(&OverloadedReply {
            ok: false,
            overloaded: true,
            retry_after_ms: retry_after_hint(
                shared.metrics.worker_busy_ns.get(),
                shared.metrics.cells_priced.get(),
                queued,
                shared.threads,
            ),
            queued,
            error,
        }),
    )
}

/// A job the classify pass is assembling: the cells it will carry, their
/// keys, and where each sits in the submitter's matrix.
#[derive(Default)]
struct JobPlan {
    indices: Vec<usize>,
    keys: Vec<ContentKey>,
    cells: Vec<ResolvedCell>,
}

impl JobPlan {
    /// Whether `cell` belongs to the group this job prices.
    fn takes(&self, cell: &ResolvedCell) -> bool {
        self.cells.last().is_some_and(|last| last.same_group(cell))
    }

    fn push(&mut self, index: usize, key: ContentKey, cell: ResolvedCell) {
        self.indices.push(index);
        self.keys.push(key);
        self.cells.push(cell);
    }
}

/// How a submit's classify → admit → schedule pass ended.
enum Admission {
    /// Every cell is cached, joined or queued.
    Admitted { scheduled: usize, coalesced: usize },
    /// Refused whole: its new cells would not all fit the queue.
    Overloaded { queued: usize, error: String },
    /// The queue closed under the submit.
    ShuttingDown,
}

/// Classifies `cells` against the cache and the single-flight table,
/// admits the submit or refuses it whole, and schedules its jobs: answered
/// cells land in `ready`, and every scheduled or joined cell will report on
/// a clone of `reply`.
fn admit(
    cells: Vec<ResolvedCell>,
    priority: i64,
    shared: &Shared,
    ready: &mut [Option<CachedRow>],
    reply: mpsc::Sender<CellOutcome>,
) -> Admission {
    // Keys are pure functions of the resolved matrix, so they are written
    // before the lock: it covers the probes and pushes only.
    let keys: Vec<ContentKey> = cells.iter().map(ResolvedCell::content_key).collect();
    // The probe → plan → push → register sequence runs under the
    // single-flight table lock: completions cannot retire an in-flight
    // record mid-classify (the worker's `complete` blocks here), and no
    // other submitter can grow the queue between the admission check and
    // our pushes — workers only ever shrink it. That makes "enqueue each
    // distinct cell exactly once" and "never push past the bound" plain
    // invariants instead of races.
    let mut guard = shared.single_flight.lock();

    // Pass 1 — classify every cell without mutating anything, so an
    // overloaded refusal leaves no trace to unwind. Cells to compute fold
    // into one job per pricing group (groups are contiguous in matrix
    // order; cached or joined siblings are simply not in it).
    let mut joins: Vec<(usize, ContentKey)> = Vec::new();
    let mut jobs: Vec<JobPlan> = Vec::new();
    let mut planned: std::collections::HashSet<u128> = std::collections::HashSet::new();
    for (index, (cell, key)) in cells.into_iter().zip(keys).enumerate() {
        match guard.probe(&shared.cache, &key) {
            Disposition::Cached(row) => ready[index] = Some(row),
            Disposition::Inflight => joins.push((index, key)),
            Disposition::Absent => {
                if !planned.insert(key.hash()) {
                    // Same cell listed twice in this matrix: the first
                    // occurrence schedules, this one subscribes to it.
                    joins.push((index, key));
                } else if let Some(job) = jobs.last_mut().filter(|job| job.takes(&cell)) {
                    job.push(index, key, cell);
                } else {
                    let mut job = JobPlan::default();
                    job.push(index, key, cell);
                    jobs.push(job);
                }
            }
        }
    }
    let scheduled = planned.len();
    let coalesced = joins.len();

    // Admission: refuse the submit whole if its new cells would not all
    // fit. Partial admission would stream a torn table.
    let queued = shared.queue.len();
    if queued + scheduled > shared.queue.capacity() {
        drop(guard);
        let error = format!(
            "queue saturated: {queued} queued + {scheduled} new > bound {}",
            shared.queue.capacity()
        );
        return Admission::Overloaded { queued, error };
    }

    // Pass 2 — mutate: enqueue each job and register its cells, then
    // subscribe the joins (after, so a matrix-internal duplicate finds its
    // first occurrence registered).
    for JobPlan {
        indices,
        keys,
        cells,
    } in jobs
    {
        let keys: Arc<[ContentKey]> = keys.into();
        let job = Job {
            keys: Arc::clone(&keys),
            cells,
        };
        match shared.queue.push_weighted(priority, indices.len(), job) {
            Ok(()) => {
                for (index, key) in indices.into_iter().zip(keys.iter()) {
                    let reply = reply.clone();
                    guard.register(key, Subscriber { index, reply });
                }
            }
            // Cells already registered keep their queued jobs; workers
            // drain them into the cache, and `complete` clears their table
            // records. The submit's receiver drops with the refusal,
            // harmlessly.
            Err(PushError::Closed) => return Admission::ShuttingDown,
            Err(PushError::Full) => {
                // Unreachable while the admission check above shares this
                // lock with every pusher, but refuse rather than panic if
                // the invariant ever bends.
                drop(guard);
                let queued = shared.queue.len();
                let error = "queue saturated mid-schedule".into();
                return Admission::Overloaded { queued, error };
            }
        }
    }
    for (index, key) in joins {
        let reply = reply.clone();
        guard.subscribe(&key, Subscriber { index, reply });
    }
    Admission::Admitted {
        scheduled,
        coalesced,
    }
}

fn handle_submit(
    matrix: &crate::protocol::MatrixSource,
    priority: i64,
    shared: &Shared,
    writer: &mut impl Write,
) -> Result<(), String> {
    let clock = &shared.metrics.registry;
    let start_ns = clock.now_ns();
    let Some(cells) = resolve_cells(matrix, writer)? else {
        return Ok(());
    };
    let resolved_ns = clock.now_ns().saturating_sub(start_ns);
    shared.metrics.submits_resolved.incr();
    let total = cells.len();
    let (tx, rx) = mpsc::channel::<CellOutcome>();
    let mut ready: Vec<Option<CachedRow>> = vec![None; total];
    let admission = admit(cells, priority, shared, &mut ready, tx);
    let classified_ns = clock.now_ns().saturating_sub(start_ns);
    shared.metrics.classify_ns.record(classified_ns);
    let (scheduled, coalesced) = match admission {
        Admission::Admitted {
            scheduled,
            coalesced,
        } => (scheduled, coalesced),
        Admission::Overloaded { queued, error } => {
            return refuse_overloaded(shared, queued, error, writer)
        }
        Admission::ShuttingDown => {
            return write_line(
                writer,
                &reply_line(&ErrorReply::new("server is shutting down")),
            )
        }
    };
    let cached = total - scheduled - coalesced;
    // All four cell counters move together at this one point, so the
    // snapshot identity `total == cached + coalesced + computed` holds
    // exactly — refused submits never reach here and add nothing.
    shared.metrics.cells_total.add(total as u64);
    shared.metrics.cells_cached.add(cached as u64);
    shared.metrics.cells_coalesced.add(coalesced as u64);
    shared.metrics.cells_computed.add(scheduled as u64);
    let mut trace = TraceReply {
        ok: true,
        request: shared.last_request.fetch_add(1, Ordering::Relaxed) + 1,
        cells: total,
        cached,
        coalesced,
        computed: scheduled,
        failed: 0,
        rows: 0,
        resolved_ns,
        classified_ns,
        first_row_ns: 0,
        last_row_ns: 0,
    };
    let streamed = stream_frame(shared, &mut ready, &rx, &mut trace, start_ns, writer);
    // Kept however the stream ended: complete, failed or cut off.
    record_trace(shared, trace);
    streamed
}

/// Writes an admitted submit's frame: the header, every row in matrix order
/// as it becomes ready, then the footer carrying the submit's request id.
/// `trace` books the rows written, a failed cell, and when the first and
/// the last row were written (ns after `start_ns`).
fn stream_frame(
    shared: &Shared,
    ready: &mut [Option<CachedRow>],
    rx: &mpsc::Receiver<CellOutcome>,
    trace: &mut TraceReply,
    start_ns: u64,
    writer: &mut impl Write,
) -> Result<(), String> {
    let since_start = || shared.metrics.registry.now_ns().saturating_sub(start_ns);
    write_line(
        writer,
        &reply_line(&SubmitHeader {
            ok: true,
            cells: trace.cells,
            cached: trace.cached,
            coalesced: trace.coalesced,
            scheduled: trace.computed,
        }),
    )?;
    // Stream rows in matrix order; an out-of-order completion waits in its
    // own `ready` slot.
    for index in 0..ready.len() {
        let entry = loop {
            if let Some(e) = ready[index].take() {
                break e;
            }
            let message = match rx.try_recv() {
                // About to wait: the client gets every row written so far.
                Err(mpsc::TryRecvError::Empty) => {
                    flush(writer)?;
                    rx.recv().ok()
                }
                received => received.ok(),
            };
            match message {
                Some((done, Ok(e))) => ready[done] = Some(e),
                Some((_done, Err(msg))) => {
                    // A pricing failure ends the stream with the protocol's
                    // error line (same shape as the shutdown-mid-submit
                    // path); the client reports it verbatim.
                    trace.failed += 1;
                    return write_line(
                        writer,
                        &reply_line(&ErrorReply::new(format!("cell failed: {msg}"))),
                    );
                }
                None => {
                    // Every sender dropped with rows outstanding: only
                    // possible if the queue refused or lost jobs mid-drain.
                    return write_line(
                        writer,
                        &reply_line(&ErrorReply::new(
                            "server shut down before completing the submission",
                        )),
                    );
                }
            }
        };
        write_line(writer, entry.row())?;
        trace.rows += 1;
        if index == 0 {
            trace.first_row_ns = since_start();
        }
    }
    if trace.rows > 0 {
        trace.last_row_ns = since_start();
    }
    write_line(
        writer,
        &reply_line(&SubmitFooter {
            done: true,
            cells: trace.cells,
            computed: trace.computed,
            coalesced: trace.coalesced,
            cached: trace.cached,
            request: trace.request,
        }),
    )
}

fn handle_fetch(
    matrix: &crate::protocol::MatrixSource,
    shared: &Shared,
    writer: &mut impl Write,
) -> Result<(), String> {
    let Some(cells) = resolve_cells(matrix, writer)? else {
        return Ok(());
    };
    let total = cells.len();
    let mut rows = Vec::with_capacity(total);
    let mut missing = 0usize;
    for cell in &cells {
        match shared.cache.lookup(&cell.content_key()) {
            Some(entry) => rows.push(entry),
            None => missing += 1,
        }
    }
    if missing > 0 {
        return write_line(
            writer,
            &reply_line(&ErrorReply::new(format!(
                "incomplete: {missing} of {total} cells not cached (submit the matrix first)"
            ))),
        );
    }
    write_line(
        writer,
        &reply_line(&SubmitHeader {
            ok: true,
            cells: total,
            cached: total,
            coalesced: 0,
            scheduled: 0,
        }),
    )?;
    for entry in &rows {
        write_line(writer, entry.row())?;
    }
    write_line(
        writer,
        &reply_line(&SubmitFooter {
            done: true,
            cells: total,
            computed: 0,
            coalesced: 0,
            cached: total,
            request: 0,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MatrixSource;
    use crate::scenario::ScenarioMatrix;
    use std::sync::{Condvar, Mutex};
    use std::time::Instant;

    /// What reached the "socket", and in how many flushes.
    #[derive(Default)]
    struct Wire {
        bytes: Vec<u8>,
        flushes: usize,
    }

    #[derive(Default)]
    struct Tap {
        wire: Mutex<Wire>,
        flushed: Condvar,
    }

    /// A [`Write`] double standing in for the client socket behind
    /// [`reply_writer`]: the reply buffer is far larger than any reply
    /// here, so bytes arrive only when a handler flushes.
    #[derive(Clone, Default)]
    struct WireTap(Arc<Tap>);

    impl Write for WireTap {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.wire.lock().unwrap().bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.0.wire.lock().unwrap().flushes += 1;
            self.0.flushed.notify_all();
            Ok(())
        }
    }

    impl WireTap {
        fn flushes(&self) -> usize {
            self.0.wire.lock().unwrap().flushes
        }

        fn lines(&self) -> Vec<String> {
            let wire = self.0.wire.lock().unwrap();
            assert!(
                wire.bytes.is_empty() || wire.bytes.ends_with(b"\n"),
                "a flush delivered a torn line"
            );
            String::from_utf8(wire.bytes.clone())
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect()
        }

        /// Blocks until exactly `count` lines have been flushed — the
        /// handler is then waiting for rows nobody has produced yet — and
        /// fails if they never arrive: a row held back across a wait.
        fn wait_for_lines(&self, count: usize) {
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut wire = self.0.wire.lock().unwrap();
            loop {
                let flushed = wire.bytes.iter().filter(|&&b| b == b'\n').count();
                assert!(
                    flushed <= count,
                    "{flushed} lines flushed, expected {count}"
                );
                if flushed == count && wire.flushes > 0 {
                    return;
                }
                let left = deadline.saturating_duration_since(Instant::now());
                assert!(
                    !left.is_zero(),
                    "only {flushed} of {count} lines reached the client while the handler waited"
                );
                wire = self.0.flushed.wait_timeout(wire, left).unwrap().0;
            }
        }
    }

    fn shared() -> Shared {
        let config = ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        };
        Shared::new(&config, "127.0.0.1:0".parse().unwrap()).unwrap()
    }

    /// 3 groups (one per rank count) × 4 strategies = 12 cells.
    fn three_group_matrix() -> ScenarioMatrix {
        let mut matrix = ScenarioMatrix {
            noise: vec!["baseline".into()],
            ranks: vec![1, 2, 4],
            ..ScenarioMatrix::smoke()
        };
        matrix.workloads.truncate(1); // MiniFE
        matrix
    }

    fn submit_line(matrix: &ScenarioMatrix) -> String {
        reply_line(&Request::Submit {
            matrix: MatrixSource::Inline(matrix.clone()),
            priority: 0,
        })
    }

    /// The matrix's offline table, encoded as the server encodes rows.
    fn offline_lines(matrix: &ScenarioMatrix) -> Vec<String> {
        crate::scenario::run_matrix(matrix, &Pool::new(1))
            .unwrap()
            .iter()
            .map(|row| report::json_line(row).unwrap())
            .collect()
    }

    #[test]
    fn replies_that_never_wait_flush_exactly_once() {
        let shared = shared();
        let matrix = three_group_matrix();
        let cells = matrix.resolve().unwrap().cells();
        for group in cells.chunk_by(ResolvedCell::same_group) {
            let keys: Vec<ContentKey> = group.iter().map(ResolvedCell::content_key).collect();
            settle(&shared.cache, &keys, price_group(group));
        }
        let fetch = reply_line(&Request::Fetch {
            matrix: MatrixSource::Inline(matrix.clone()),
        });
        let status = reply_line(&Request::Status);
        for (line, replied) in [
            (submit_line(&matrix), 14),
            (fetch, 14),
            (status, 1),
            ("not json".to_string(), 1),
        ] {
            let tap = WireTap::default();
            let mut writer = reply_writer(tap.clone(), &shared.metrics.bytes_written);
            serve_request(&line, &shared, &mut writer).unwrap();
            assert_eq!(tap.flushes(), 1, "{line}");
            let lines = tap.lines();
            assert_eq!(lines.len(), replied, "{line}");
            if replied == 14 {
                assert_eq!(lines[1..13], offline_lines(&matrix)[..]);
                assert!(lines[13].contains("\"computed\":0,"), "{}", lines[13]);
            }
        }
        assert!(shared.queue.is_empty(), "nothing was scheduled");
    }

    #[test]
    fn a_hostile_rank_count_is_refused_and_the_next_request_served() {
        // 2⁴⁰ ranks would abort the process on allocation while pricing;
        // resolve refuses the matrix first, so nothing is queued and the
        // connection's next request is answered as usual.
        let shared = shared();
        let mut hostile = three_group_matrix();
        hostile.ranks = vec![1 << 40];
        for (line, reply) in [
            (
                submit_line(&hostile),
                "\"error\":\"invalid matrix: ranks 1099511627776 ",
            ),
            (reply_line(&Request::Status), "\"ok\":true,\"queued\":0,"),
        ] {
            let tap = WireTap::default();
            let mut writer = reply_writer(tap.clone(), &shared.metrics.bytes_written);
            serve_request(&line, &shared, &mut writer).unwrap();
            let lines = tap.lines();
            assert_eq!(lines.len(), 1, "{lines:?}");
            assert!(lines[0].contains(reply), "{}", lines[0]);
        }
        assert!(shared.queue.is_empty());
    }

    #[test]
    fn a_matrix_past_the_cell_cap_is_refused_and_the_next_request_served() {
        // 4 strategies × 16 385 distinct rank counts = 65 540 distinct
        // cells, four past the cap, each within the per-cell sample cap at
        // 6 threads. Resolve refuses the matrix before a cell is built.
        let shared = shared();
        let mut hostile = three_group_matrix();
        hostile.threads = 6;
        hostile.ranks = (1..=crate::scenario::MAX_MATRIX_CELLS / 4 + 1).collect();
        for (line, reply) in [
            (
                submit_line(&hostile),
                "\"error\":\"invalid matrix: 1 workloads × 4 strategies × 1 models × \
                 1 noise regimes × 16385 rank counts span more than the 65536-cell cap\"",
            ),
            (reply_line(&Request::Status), "\"ok\":true,\"queued\":0,"),
        ] {
            let tap = WireTap::default();
            let mut writer = reply_writer(tap.clone(), &shared.metrics.bytes_written);
            serve_request(&line, &shared, &mut writer).unwrap();
            let lines = tap.lines();
            assert_eq!(lines.len(), 1, "{lines:?}");
            assert!(lines[0].contains(reply), "{}", lines[0]);
        }
        assert!(shared.queue.is_empty());
    }

    #[test]
    fn an_overlong_request_line_is_refused_and_the_server_still_answers() {
        // A client streaming bytes with no newline once grew a connection
        // thread's line buffer until allocation aborted the server. The read
        // stops at the bound, one error line answers, and the connection
        // closes: the status request queued behind the line is not served
        // on it, but a fresh connection's is.
        let shared = shared();
        let status = reply_line(&Request::Status);
        let mut flood = vec![b' '; MAX_REQUEST_LINE_BYTES];
        flood.extend(format!("x\n{status}\n").bytes());
        let fits = format!(
            "{}{status}\n",
            " ".repeat(MAX_REQUEST_LINE_BYTES - status.len() - 1)
        );
        for (input, reply) in [
            (
                flood,
                "{\"ok\":false,\"error\":\"request line exceeds 1048576 bytes\"}",
            ),
            (status.clone().into_bytes(), "{\"ok\":true,\"queued\":0,"),
            (fits.into_bytes(), "{\"ok\":true,\"queued\":0,"),
        ] {
            let tap = WireTap::default();
            let mut writer = reply_writer(tap.clone(), &shared.metrics.bytes_written);
            serve_lines(&mut input.as_slice(), &mut writer, &shared);
            let lines = tap.lines();
            assert_eq!(lines.len(), 1, "{lines:?}");
            assert!(lines[0].starts_with(reply), "{}", lines[0]);
        }
        assert!(shared.queue.is_empty());
    }

    #[test]
    fn a_non_utf8_request_line_is_answered_and_the_next_request_served() {
        // A line that is not UTF-8 used to close the connection with no
        // reply, dropping the request queued behind it uncounted.
        let shared = shared();
        let status = reply_line(&Request::Status);
        let mut input = b"{\"verb\":\"st\xffatus\"}\n".to_vec();
        input.extend(format!("{status}\n").bytes());
        let tap = WireTap::default();
        let mut writer = reply_writer(tap.clone(), &shared.metrics.bytes_written);
        serve_lines(&mut input.as_slice(), &mut writer, &shared);
        let lines = tap.lines();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(
            lines[0],
            "{\"ok\":false,\"error\":\"bad request: request line is not UTF-8\"}"
        );
        assert!(
            lines[1].starts_with("{\"ok\":true,\"queued\":0,"),
            "{}",
            lines[1]
        );
        assert_eq!(shared.metrics.requests[Verb::Error as usize].get(), 1);
        assert_eq!(shared.metrics.bytes_read.get(), input.len() as u64);
    }

    #[test]
    fn a_deeply_nested_line_is_refused_and_the_next_request_served() {
        // The JSON parser recurses once per bracket: past its nesting limit
        // it must refuse the line, or 10 000 brackets overflow this
        // thread's stack and abort the whole server. A matrix carrying a
        // key no field reads is refused by name the same way.
        let shared = shared();
        let hostile = format!("{{\"verb\":\"submit\",\"matrix\":{}", "[".repeat(10_000));
        let submit = submit_line(&three_group_matrix());
        let retired = submit.replacen("matrix\":{", "matrix\":{\"links\":[\"omni-path\"],", 1);
        for (line, reply) in [
            (
                hostile,
                "\"error\":\"bad request: recursion limit exceeded at byte ",
            ),
            (retired, "\"error\":\"bad request: unknown field `links` "),
            (reply_line(&Request::Status), "\"ok\":true,\"queued\":0,"),
        ] {
            let tap = WireTap::default();
            let mut writer = reply_writer(tap.clone(), &shared.metrics.bytes_written);
            serve_request(&line, &shared, &mut writer).unwrap();
            let lines = tap.lines();
            assert_eq!(lines.len(), 1, "{lines:?}");
            assert!(lines[0].contains(reply), "{}", lines[0]);
        }
        assert!(shared.queue.is_empty());
    }

    #[test]
    fn cold_stream_flushes_before_every_wait_and_holds_no_ready_row() {
        let shared = shared();
        let matrix = three_group_matrix();
        let tap = WireTap::default();
        std::thread::scope(|scope| {
            let handler = scope.spawn(|| {
                let mut writer = reply_writer(tap.clone(), &shared.metrics.bytes_written);
                serve_request(&submit_line(&matrix), &shared, &mut writer)
            });
            // This thread is the worker team, one job at a time: the
            // handler must have flushed all it had (the header, then each
            // earlier burst) before it waits for the job not yet run.
            for group in 0..3 {
                let job = shared.queue.pop().expect("three jobs, one per group");
                assert_eq!(job.cells.len(), 4);
                tap.wait_for_lines(1 + 4 * group);
                run_job(&shared, job);
            }
            handler.join().unwrap().unwrap();
        });
        let lines = tap.lines();
        assert_eq!(lines.len(), 14);
        assert_eq!(lines[1..13], offline_lines(&matrix)[..]);
        assert!(lines[13].contains("\"computed\":12,"), "{}", lines[13]);
        // Header, one per burst the handler waited after, the reply's end;
        // a handler that wakes mid-burst may add some, never one per line
        // written.
        assert!((4..=13).contains(&tap.flushes()), "{}", tap.flushes());
        assert_eq!(
            shared.metrics.bytes_written.get() as usize,
            lines.iter().map(|l| l.len() + 1).sum::<usize>()
        );
    }

    #[test]
    fn jobs_finishing_out_of_order_still_stream_in_matrix_order() {
        let shared = shared();
        let matrix = three_group_matrix();
        let tap = WireTap::default();
        std::thread::scope(|scope| {
            let handler = scope.spawn(|| {
                let mut writer = reply_writer(tap.clone(), &shared.metrics.bytes_written);
                serve_request(&submit_line(&matrix), &shared, &mut writer)
            });
            let mut jobs: Vec<Job> = (0..3).map(|_| shared.queue.pop().unwrap()).collect();
            // Last two groups first: their rows wait in the reorder buffer
            // behind the header.
            run_job(&shared, jobs.pop().unwrap());
            run_job(&shared, jobs.pop().unwrap());
            tap.wait_for_lines(1);
            run_job(&shared, jobs.pop().unwrap());
            handler.join().unwrap().unwrap();
        });
        assert_eq!(tap.lines()[1..13], offline_lines(&matrix)[..]);
    }

    /// 2 apps × 2 rank counts = 4 groups × 4 strategies = 16 cells; a
    /// different `bytes_per_rank` makes a disjoint set of cells.
    fn four_group_matrix(bytes_per_rank: usize) -> ScenarioMatrix {
        let mut matrix = ScenarioMatrix {
            noise: vec!["baseline".into()],
            ranks: vec![1, 2],
            bytes_per_rank,
            ..ScenarioMatrix::smoke()
        };
        matrix.workloads.truncate(2); // MiniFE, MiniMD
        matrix
    }

    #[test]
    fn a_saturated_queue_refuses_a_submit_whole_and_loses_or_doubles_no_work() {
        // The bound is exactly one matrix deep and this thread is the only
        // worker: A's jobs stay queued until it runs them, so B meets a
        // full queue in every interleaving.
        let config = ServerConfig {
            threads: 1,
            queue_bound: 16,
            ..ServerConfig::default()
        };
        let shared = Shared::new(&config, "127.0.0.1:0".parse().unwrap()).unwrap();
        let (a, b) = (four_group_matrix(1_000_000), four_group_matrix(2_000_000));
        let submit = |matrix: &ScenarioMatrix, tap: &WireTap| {
            let mut writer = reply_writer(tap.clone(), &shared.metrics.bytes_written);
            serve_request(&submit_line(matrix), &shared, &mut writer)
        };
        // Waits for the submission's header, then works its four jobs off.
        let run_queued_jobs = |tap: &WireTap| {
            tap.wait_for_lines(1);
            assert_eq!(shared.queue.len(), 16, "{:?}", tap.lines());
            while !shared.queue.is_empty() {
                run_job(&shared, shared.queue.pop().expect("a job is queued"));
            }
        };
        let (tap_a, tap_b, tap_retry) =
            (WireTap::default(), WireTap::default(), WireTap::default());
        std::thread::scope(|scope| {
            let a_handler = scope.spawn(|| submit(&a, &tap_a));
            tap_a.wait_for_lines(1);

            // B cannot fit behind A: refused whole, with the evidence, and
            // without a single-flight record or a queued job of its own.
            submit(&b, &tap_b).unwrap();
            let refused = tap_b.lines();
            assert_eq!(refused.len(), 1, "{refused:?}");
            let refusal: OverloadedReply = serde_json::from_str(&refused[0]).unwrap();
            assert!(refusal.overloaded && !refusal.ok);
            assert_eq!(refusal.queued, 16);
            let status = status_reply(&shared);
            assert_eq!(
                (status.overloaded, status.queued, status.inflight_cells),
                (1, 16, 16),
                "the refused submit left a trace"
            );

            run_queued_jobs(&tap_a);
            a_handler.join().unwrap().unwrap();
            assert_eq!(tap_a.lines()[1..17], offline_lines(&a)[..]);

            // The drained queue admits B's second attempt.
            let b_handler = scope.spawn(|| submit(&b, &tap_retry));
            run_queued_jobs(&tap_retry);
            b_handler.join().unwrap().unwrap();
            assert_eq!(tap_retry.lines()[1..17], offline_lines(&b)[..]);
        });
        let status = status_reply(&shared);
        assert_eq!(status.computed, 32, "refusals must not lose or double work");
        assert_eq!(
            (status.overloaded, status.queued, status.inflight_cells),
            (1, 0, 0)
        );
        // The serial layer is timed once per resolved submit, the refused
        // one included.
        let snap = shared.metrics.registry.snapshot();
        let classify = snap.histogram("serve.submit.classify_ns").count();
        assert_eq!((classify, status.submits), (3, 3));
    }

    #[test]
    fn a_pricing_failure_is_every_cells_outcome_and_caches_nothing() {
        let cache = ResultCache::in_memory();
        let cells = three_group_matrix().resolve().unwrap().cells();
        let group = &cells[..4];
        let keys: Vec<ContentKey> = group.iter().map(ResolvedCell::content_key).collect();
        let failed = settle(&cache, &keys, Err("workload `x`: boom".into()));
        assert!(failed
            .iter()
            .all(|o| o.as_ref().unwrap_err().contains("boom")));
        assert_eq!(failed.len(), 4);
        assert!(cache.is_empty());

        // Every priced row lands: one insert route.
        let outcomes = settle(&cache, &keys, price_group(group));
        assert!(outcomes.iter().all(Result::is_ok));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn a_pricing_panic_answers_its_subscribers_and_the_worker_prices_on() {
        // This thread is the worker. The fault hook makes its next pricing
        // panic: the submit waiting on that job gets the error line instead
        // of blocking forever, nothing of the job stays cached or in flight,
        // and the same worker then prices a resubmit into the offline table.
        let shared = shared();
        let matrix = three_group_matrix();
        let submit = |tap: &WireTap| {
            let mut writer = reply_writer(tap.clone(), &shared.metrics.bytes_written);
            serve_request(&submit_line(&matrix), &shared, &mut writer)
        };
        let (faulted, retried) = (WireTap::default(), WireTap::default());
        std::thread::scope(|scope| {
            let handler = scope.spawn(|| submit(&faulted));
            faulted.wait_for_lines(1);
            PANIC_NEXT_PRICING.set(true);
            run_job(&shared, shared.queue.pop().expect("three jobs queued"));
            handler.join().unwrap().unwrap();
            // The other two groups price as usual; nobody is subscribed.
            while !shared.queue.is_empty() {
                run_job(&shared, shared.queue.pop().expect("a job is queued"));
            }
        });
        let lines = faulted.lines();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(
            lines[1],
            "{\"ok\":false,\"error\":\"cell failed: pricing panicked: injected pricing fault\"}"
        );
        let status = status_reply(&shared);
        assert_eq!((status.inflight, status.inflight_cells), (0, 0));
        assert_eq!(status.recovered, 1);
        assert_eq!(shared.metrics.cells_failed.get(), 4);
        // The failed submit's record: no row written, one failure seen.
        let trace: TraceReply = serde_json::from_str(&trace_reply(&shared, 1)).unwrap();
        assert_eq!(
            (
                trace.rows,
                trace.failed,
                trace.first_row_ns,
                trace.last_row_ns
            ),
            (0, 1, 0, 0)
        );
        assert_eq!(shared.cache.len(), 8, "the panicked group cached nothing");

        std::thread::scope(|scope| {
            let handler = scope.spawn(|| submit(&retried));
            let job = shared.queue.pop().expect("the failed group, rescheduled");
            assert_eq!(job.cells.len(), 4);
            run_job(&shared, job);
            handler.join().unwrap().unwrap();
        });
        let lines = retried.lines();
        assert_eq!(lines.len(), 14, "{lines:?}");
        assert_eq!(lines[1..13], offline_lines(&matrix)[..]);
        assert!(
            lines[13].contains("\"computed\":4,\"coalesced\":0,\"cached\":8"),
            "{}",
            lines[13]
        );
        assert!(shared.queue.is_empty());
    }

    #[test]
    fn every_admitted_submit_is_traced_under_the_id_its_footer_carries() {
        // This thread is the worker; the cold submit's handler streams on
        // another, the warm one and the fetch answer without waiting.
        let shared = shared();
        let matrix = three_group_matrix();
        let serve = |line: &str, tap: &WireTap| {
            let mut writer = reply_writer(tap.clone(), &shared.metrics.bytes_written);
            serve_request(line, &shared, &mut writer)
        };
        let (cold, warm, fetched) = (WireTap::default(), WireTap::default(), WireTap::default());
        std::thread::scope(|scope| {
            let handler = scope.spawn(|| serve(&submit_line(&matrix), &cold));
            cold.wait_for_lines(1);
            while !shared.queue.is_empty() {
                run_job(&shared, shared.queue.pop().expect("a job is queued"));
            }
            handler.join().unwrap().unwrap();
        });
        serve(&submit_line(&matrix), &warm).unwrap();
        let fetch = reply_line(&Request::Fetch {
            matrix: MatrixSource::Inline(matrix.clone()),
        });
        serve(&fetch, &fetched).unwrap();
        let footer = |tap: &WireTap| -> SubmitFooter {
            serde_json::from_str(tap.lines().last().unwrap()).unwrap()
        };
        assert_eq!(
            [&cold, &warm, &fetched].map(|tap| footer(tap).request),
            [1, 2, 0],
            "a fetch is not traced"
        );
        // `trace` is a verb like any other: one line, rows untouched.
        let trace_of = |request: u64| -> Vec<String> {
            let tap = WireTap::default();
            serve(&reply_line(&Request::Trace { request }), &tap).unwrap();
            tap.lines()
        };
        let record = |request: u64| -> TraceReply {
            let lines = trace_of(request);
            assert_eq!(lines.len(), 1, "{lines:?}");
            serde_json::from_str(&lines[0]).unwrap()
        };
        let (first, second) = (record(1), record(2));
        assert_eq!(
            (
                first.cells,
                first.cached,
                first.coalesced,
                first.computed,
                first.failed,
                first.rows
            ),
            (12, 0, 0, 12, 0, 12)
        );
        assert_eq!(
            (second.cached, second.computed, second.rows, second.request),
            (12, 0, 12, 2)
        );
        for t in [&first, &second] {
            assert!(
                0 < t.resolved_ns
                    && t.resolved_ns <= t.classified_ns
                    && t.classified_ns <= t.first_row_ns
                    && t.first_row_ns <= t.last_row_ns,
                "{t:?}"
            );
        }
        assert_eq!(cold.lines()[1..13], offline_lines(&matrix)[..]);
        assert_eq!(warm.lines()[1..13], offline_lines(&matrix)[..]);
        assert_eq!(
            trace_of(3),
            ["{\"ok\":false,\"error\":\"no trace of request 3: the server keeps the last 256 admitted submits\"}"]
        );
        let snap = shared.metrics.registry.snapshot();
        assert_eq!(snap.counter("serve.requests.trace"), 3);

        // The ring keeps the newest `TRACE_RING` records.
        for request in 3..=TRACE_RING as u64 + 2 {
            record_trace(
                &shared,
                TraceReply {
                    request,
                    ..second.clone()
                },
            );
        }
        assert_eq!(shared.traces.lock().len(), TRACE_RING);
        assert!(trace_of(1)[0].starts_with("{\"ok\":false"));
        assert!(trace_of(2)[0].starts_with("{\"ok\":false"));
        assert_eq!(record(3).request, 3);
        assert_eq!(record(TRACE_RING as u64 + 2).request, TRACE_RING as u64 + 2);
    }

    #[test]
    fn retry_hint_follows_the_measured_drain_rate() {
        // 1 024 queued cells at a measured 15 µs each drain in ≈ 15 ms: the
        // floor, not the 2 s a fixed 20 ms per cell used to advertise.
        assert_eq!(retry_after_hint(15_000 * 4_096, 4_096, 1_024, 1), 50);
        // 1 ms cells: 300 queued over 2 workers ≈ 150 ms.
        assert_eq!(retry_after_hint(1_000_000 * 64, 64, 300, 2), 150);
        // Genuinely slow cells clamp at the ceiling.
        assert_eq!(retry_after_hint(20_000_000 * 10, 10, 1_024, 2), 2_000);
        // Nothing measured yet: the floor.
        assert_eq!(retry_after_hint(0, 0, 1_024, 1), 50);
    }
}
