//! End-to-end tests of the campaign service over real TCP on an ephemeral
//! port: protocol error replies, concurrent clients, the cache-hit
//! bit-identity property, fetch semantics, offline-equality of streamed
//! rows, and graceful shutdown (including cold-tier persistence across a
//! server restart).

use std::net::TcpStream;
use std::thread::JoinHandle;

use ebird_cluster::WorkloadSpec;
use ebird_runtime::Pool;
use ebird_serve::scenario::{run_matrix, ScenarioMatrix};
use ebird_serve::{client, MatrixSource, Server, ServerConfig};

/// A 16-cell matrix small enough for test wall-clocks:
/// 2 apps × 4 strategies × 1 link × 1 noise × 2 rank counts.
fn tiny_matrix() -> ScenarioMatrix {
    let mut m = ScenarioMatrix::smoke();
    m.workloads.truncate(2); // MiniFE, MiniMD
    m.noise = vec!["baseline".into()];
    m.ranks = vec![1, 2];
    m.threads = 4;
    // Re-bin to fit the 4-thread ranks (smoke's 6 bins would be invalid).
    for s in &mut m.strategies {
        if let ebird_partcomm::Strategy::Binned { bins } = s {
            *bins = 3;
        }
    }
    m.bytes_per_rank = 100_000;
    m
}

/// Binds an ephemeral port, runs the server on a background thread, and
/// returns its address plus the join handle for shutdown verification.
fn start_server(config: ServerConfig) -> (String, JoinHandle<Result<(), String>>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// One submit under the default retry policy, rows collected.
fn submit(
    addr: &str,
    source: &MatrixSource,
    priority: i64,
) -> Result<client::SubmitOutcome, String> {
    client::submit_streaming(addr, source, priority, |_| {})
}

fn shutdown_and_join(addr: &str, handle: JoinHandle<Result<(), String>>) {
    let ack = client::shutdown(addr).expect("shutdown acknowledged");
    assert!(ack.ok && ack.stopping);
    handle
        .join()
        .expect("server thread joins")
        .expect("server run() returns Ok");
}

#[test]
fn malformed_and_unknown_requests_get_error_replies() {
    let (addr, handle) = start_server(ServerConfig {
        threads: 1,
        cache_dir: None,
        ..ServerConfig::default()
    });

    let reply = client::raw_exchange(&addr, "this is not json").unwrap();
    assert!(reply.starts_with("{\"ok\":false,"), "{reply}");
    assert!(reply.contains("bad request"), "{reply}");

    let reply = client::raw_exchange(&addr, "{\"verb\":\"warmup\"}").unwrap();
    assert!(reply.contains("unknown verb `warmup`"), "{reply}");

    let reply = client::raw_exchange(&addr, "{\"verb\":\"submit\"}").unwrap();
    assert!(reply.contains("`matrix` object or a `preset`"), "{reply}");

    let reply = client::raw_exchange(&addr, "{\"verb\":\"submit\",\"preset\":\"nope\"}").unwrap();
    assert!(reply.contains("unknown preset `nope`"), "{reply}");

    // An invalid inline matrix fails resolution, not the connection.
    let mut bad = tiny_matrix();
    bad.workloads = vec![WorkloadSpec::Named {
        name: "hpcg".into(),
    }];
    let err = submit(&addr, &MatrixSource::Inline(bad), 0).unwrap_err();
    assert!(err.contains("invalid matrix"), "{err}");
    assert!(err.contains("hpcg"), "{err}");

    // The connection-level errors above must not have wedged the server.
    let status = client::status(&addr).unwrap();
    assert!(status.ok);
    shutdown_and_join(&addr, handle);
}

#[test]
fn streamed_rows_match_offline_run_matrix_bytes() {
    let matrix = tiny_matrix();
    let offline = run_matrix(&matrix, &Pool::new(2)).unwrap();
    let offline_lines: Vec<String> = offline
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();

    let (addr, handle) = start_server(ServerConfig {
        threads: 2,
        cache_dir: None,
        ..ServerConfig::default()
    });
    let outcome = submit(&addr, &MatrixSource::Inline(matrix), 0).unwrap();
    assert_eq!(outcome.header.cells, offline_lines.len());
    assert_eq!(outcome.header.cached, 0);
    assert_eq!(outcome.footer.computed, offline_lines.len());
    assert_eq!(
        outcome.rows, offline_lines,
        "served rows must be offline bytes"
    );
    shutdown_and_join(&addr, handle);
}

#[test]
fn resubmission_is_bit_identical_with_zero_recomputation() {
    let (addr, handle) = start_server(ServerConfig {
        threads: 2,
        cache_dir: None,
        ..ServerConfig::default()
    });
    let source = MatrixSource::Inline(tiny_matrix());

    let first = submit(&addr, &source, 0).unwrap();
    assert_eq!(first.footer.computed, first.header.cells);
    assert_eq!(first.footer.cached, 0);

    let second = submit(&addr, &source, 0).unwrap();
    assert_eq!(
        second.footer.computed, 0,
        "second submit must recompute nothing"
    );
    assert_eq!(second.footer.cached, second.header.cells);
    assert_eq!(
        second.rows, first.rows,
        "cache hits must replay identical bytes"
    );

    // An *overlapping* matrix reuses the shared cells: drop one rank count,
    // so every remaining cell is already cached.
    let mut overlap = tiny_matrix();
    overlap.ranks = vec![2];
    let third = submit(&addr, &MatrixSource::Inline(overlap), 0).unwrap();
    assert_eq!(third.footer.computed, 0, "shared cells must hit the cache");
    assert_eq!(third.header.cells, first.header.cells / 2);

    shutdown_and_join(&addr, handle);
}

#[test]
fn real_kernel_cell_round_trips_through_the_service_cache() {
    // The workload axis through the service: a single RealKernel cell
    // streams byte-identically to the offline table (possible only because
    // metered real-kernel timing is deterministic), and a resubmit is one
    // cache hit with zero recomputation.
    use ebird_cluster::{RealKernelParams, WorkloadSpec};
    let mut matrix = ScenarioMatrix::workload_smoke();
    matrix.workloads = vec![WorkloadSpec::RealKernel {
        app: "MiniMD".into(),
        params: RealKernelParams::default(),
    }];
    matrix.strategies = vec![ebird_partcomm::Strategy::EarlyBird];
    matrix.threads = 4;
    let offline = run_matrix(&matrix, &Pool::new(2)).unwrap();
    assert_eq!(offline.len(), 1);

    let (addr, handle) = start_server(ServerConfig {
        threads: 2,
        cache_dir: None,
        ..ServerConfig::default()
    });
    let source = MatrixSource::Inline(matrix);
    let first = submit(&addr, &source, 0).unwrap();
    assert_eq!(first.footer.computed, 1);
    let offline_lines: Vec<String> = offline
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    assert_eq!(first.rows, offline_lines, "served ≠ offline bytes");
    let second = submit(&addr, &source, 0).unwrap();
    assert_eq!((second.footer.cached, second.footer.computed), (1, 0));
    assert_eq!(second.rows, first.rows);
    shutdown_and_join(&addr, handle);
}

/// A submission that overlaps the cache inside every group: the
/// `omni-path` half of each group is prefilled, so each job carries only
/// the group's `high-latency` cells — and the table is still the offline
/// table, byte for byte.
#[test]
fn partially_cached_groups_compute_exactly_the_missing_cells() {
    let (addr, handle) = start_server(ServerConfig {
        threads: 2,
        cache_dir: None,
        ..ServerConfig::default()
    });
    let half = tiny_matrix();
    let mut whole = tiny_matrix();
    whole.models = ScenarioMatrix::full().models; // omni-path + high-latency
    let offline: Vec<String> = run_matrix(&whole, &Pool::new(2))
        .unwrap()
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    assert_eq!(offline.len(), 32);

    let prefill = submit(&addr, &MatrixSource::Inline(half), 0).unwrap();
    assert_eq!(prefill.footer.computed, 16);
    let outcome = submit(&addr, &MatrixSource::Inline(whole), 0).unwrap();
    assert_eq!(outcome.rows, offline);
    assert_eq!(outcome.footer.computed, 16, "exactly the missing cells");
    assert_eq!(outcome.footer.cached, 16, "the prefilled half");
    assert_eq!(outcome.footer.coalesced, 0);

    // Four groups either way: 4 whole-group jobs, then 4 half-group jobs.
    let m = client::metrics(&addr).unwrap();
    assert_eq!(m.counter("serve.queue.pushed"), 8);
    assert_eq!(m.counter("serve.cells.computed"), 32);
    assert_eq!(client::status(&addr).unwrap().computed, 32);
    shutdown_and_join(&addr, handle);
}

/// The unit of scheduled work is the group: a cold `full` campaign is 36
/// jobs (3 apps × 4 noise regimes × 3 rank counts) carrying 288 cells.
#[test]
fn cold_full_submit_is_one_job_per_group() {
    let (addr, handle) = start_server(ServerConfig {
        threads: 2,
        cache_dir: None,
        ..ServerConfig::default()
    });
    let outcome = submit(&addr, &MatrixSource::Preset("full".into()), 0).unwrap();
    assert_eq!(outcome.rows.len(), 288);
    assert_eq!(outcome.footer.computed, 288);
    let m = client::metrics(&addr).unwrap();
    assert_eq!(m.counter("serve.queue.pushed"), 36);
    assert_eq!(m.histogram("serve.queue.wait_ns").unwrap().count, 36);
    assert_eq!(m.histogram("serve.job.run_ns").unwrap().count, 36);
    assert_eq!(m.counter("serve.cells.computed"), 288);
    let status = client::status(&addr).unwrap();
    assert_eq!(status.computed, 288);
    assert_eq!((status.queued, status.inflight), (0, 0));
    shutdown_and_join(&addr, handle);
}

#[test]
fn fetch_is_cache_only() {
    let (addr, handle) = start_server(ServerConfig {
        threads: 2,
        cache_dir: None,
        ..ServerConfig::default()
    });
    let source = MatrixSource::Inline(tiny_matrix());

    let err = client::fetch_streaming(&addr, &source, |_| {}).unwrap_err();
    assert!(err.contains("incomplete"), "{err}");
    assert!(err.contains("16 of 16"), "{err}");

    let submitted = submit(&addr, &source, 0).unwrap();
    let fetched = client::fetch_streaming(&addr, &source, |_| {}).unwrap();
    assert_eq!(fetched.footer.computed, 0);
    assert_eq!(fetched.rows, submitted.rows);

    shutdown_and_join(&addr, handle);
}

#[test]
fn four_concurrent_clients_all_get_correct_streams() {
    let (addr, handle) = start_server(ServerConfig {
        threads: 3,
        cache_dir: None,
        ..ServerConfig::default()
    });
    let expected: Vec<String> = run_matrix(&tiny_matrix(), &Pool::new(2))
        .unwrap()
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();

    // 5 clients race the same matrix at different priorities; every stream
    // must come back complete, ordered, and byte-identical to offline.
    let clients: Vec<_> = (0..5)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                submit(&addr, &MatrixSource::Inline(tiny_matrix()), i as i64 % 3)
            })
        })
        .collect();
    let mut computed_total = 0usize;
    let mut coalesced_total = 0usize;
    for c in clients {
        let outcome = c.join().unwrap().expect("concurrent submit succeeds");
        assert_eq!(outcome.rows, expected);
        computed_total += outcome.footer.computed;
        coalesced_total += outcome.footer.coalesced;
        assert_eq!(
            outcome.footer.computed + outcome.footer.coalesced + outcome.footer.cached,
            16,
            "every cell is computed, coalesced, or cached"
        );
    }
    // Single-flight coalescing: the 16 distinct cells are scheduled exactly
    // once across all 5 racing clients — every overlapping request either
    // hits the cache or subscribes to the one in-flight compute.
    assert_eq!(
        computed_total, 16,
        "racers scheduled duplicate computes (coalescing failed)"
    );

    let status = client::status(&addr).unwrap();
    assert_eq!(status.submits, 5);
    assert_eq!(status.hot_entries, 16);
    assert_eq!(status.queued, 0);
    assert_eq!(status.inflight, 0);
    assert_eq!(status.inflight_cells, 0);
    assert_eq!(status.threads, 3);
    assert_eq!(
        status.computed, 16,
        "workers priced each distinct cell exactly once"
    );
    assert_eq!(status.coalesced as usize, coalesced_total);
    assert_eq!(status.overloaded, 0);
    assert!(status.hits + status.misses >= 16);

    shutdown_and_join(&addr, handle);
}

#[test]
fn cold_tier_survives_server_restart() {
    let dir = std::env::temp_dir().join(format!("ebird_serve_restart_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let source = MatrixSource::Inline(tiny_matrix());

    let (addr, handle) = start_server(ServerConfig {
        threads: 2,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let first = submit(&addr, &source, 0).unwrap();
    assert_eq!(first.footer.computed, 16);
    shutdown_and_join(&addr, handle);

    // A fresh server over the same cache dir serves the matrix without
    // computing anything — fetch works immediately.
    let (addr, handle) = start_server(ServerConfig {
        threads: 2,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let fetched = client::fetch_streaming(&addr, &source, |_| {}).unwrap();
    assert_eq!(fetched.footer.computed, 0);
    assert_eq!(fetched.rows, first.rows);
    shutdown_and_join(&addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_is_not_stalled_by_a_partial_request_line() {
    use std::io::Write as _;
    let (addr, handle) = start_server(ServerConfig {
        threads: 1,
        cache_dir: None,
        ..ServerConfig::default()
    });
    // Hold a connection open with an unterminated request line: the drain
    // must abandon it rather than wait for the newline forever.
    let mut holder = TcpStream::connect(&addr).unwrap();
    holder.write_all(b"{\"verb\":\"status\"").unwrap();
    std::thread::sleep(std::time::Duration::from_millis(100));
    let ack = client::shutdown(&addr).expect("shutdown acknowledged");
    assert!(ack.stopping);
    // Watchdog join, so a regression fails the test instead of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        tx.send(handle.join()).ok();
    });
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .expect("server exited despite the held-open partial line")
        .expect("server thread joins")
        .expect("server run() returns Ok");
    drop(holder);
}

#[test]
fn status_output_is_byte_identical_across_fresh_servers() {
    // Two fresh servers given the same submission sequence must render
    // byte-for-byte identical status lines: every counter is a pure
    // function of the request history, and no map-iteration order or clock
    // value may leak into the serialized reply.
    let run = || {
        let (addr, handle) = start_server(ServerConfig {
            threads: 2,
            cache_dir: None,
            ..ServerConfig::default()
        });
        let cold = submit(&addr, &MatrixSource::Inline(tiny_matrix()), 0).expect("cold submit");
        assert_eq!(cold.footer.computed, 16);
        let warm = submit(&addr, &MatrixSource::Inline(tiny_matrix()), 0).expect("warm submit");
        assert_eq!(warm.footer.cached, 16);
        let status_line =
            client::raw_exchange(&addr, "{\"verb\":\"status\"}").expect("status line");
        shutdown_and_join(&addr, handle);
        status_line
    };
    let first = run();
    let second = run();
    assert_eq!(
        first.as_bytes(),
        second.as_bytes(),
        "status rendering must be deterministic:\n  {first}\n  {second}"
    );
}

#[test]
fn metrics_verb_reconciles_with_the_request_history() {
    let (addr, handle) = start_server(ServerConfig {
        threads: 2,
        cache_dir: None,
        ..ServerConfig::default()
    });
    let source = MatrixSource::Inline(tiny_matrix());
    let cold = submit(&addr, &source, 0).unwrap();
    assert_eq!(cold.footer.computed, 16);
    let warm = submit(&addr, &source, 0).unwrap();
    assert_eq!(warm.footer.cached, 16);
    let _ = client::status(&addr).unwrap();

    let m = client::metrics(&addr).unwrap();
    assert!(m.ok);
    assert!(m.uptime_ns > 0);

    // Per-verb request accounting. Requests are counted at dispatch, before
    // the reply is written, so a scrape counts itself and everything whose
    // reply the client already holds — and the per-verb counters sum to the
    // total.
    assert_eq!(m.counter("serve.requests.submit"), 2);
    assert_eq!(m.counter("serve.requests.status"), 1);
    assert_eq!(m.counter("serve.requests.metrics"), 1);
    let per_verb: u64 = m
        .counters
        .iter()
        .filter(|c| c.name.starts_with("serve.requests.") && c.name != "serve.requests.total")
        .map(|c| c.value)
        .sum();
    assert_eq!(per_verb, m.counter("serve.requests.total"));

    // Submit-side cell accounting: every submitted cell is exactly one of
    // cached, coalesced, or computed.
    assert_eq!(m.counter("serve.cells.total"), 32);
    assert_eq!(m.counter("serve.cells.computed"), 16);
    assert_eq!(
        m.counter("serve.cells.cached")
            + m.counter("serve.cells.coalesced")
            + m.counter("serve.cells.computed"),
        m.counter("serve.cells.total")
    );

    // Every scheduled job waited in the bounded queue, then ran on a worker
    // — one job per pricing group (2 apps × 1 noise × 2 rank counts), each
    // carrying its group's 4 cells.
    let wait = m.histogram("serve.queue.wait_ns").expect("queue wait");
    assert_eq!(wait.count, 4);
    let run = m.histogram("serve.job.run_ns").expect("job run");
    assert_eq!(run.count, 4);
    assert!(m.counter("serve.worker.busy_ns") > 0);
    assert_eq!(m.counter("serve.queue.pushed"), 4);

    // The warm submit answered all 16 cells from the hot tier, timed.
    let hits = m.histogram("serve.cache.hit_ns").expect("cache hit");
    assert!(hits.count >= 16, "warm submit must record hot-tier hits");
    let misses = m.histogram("serve.cache.miss_ns").expect("cache miss");
    assert!(misses.count >= 16, "cold submit must record misses");

    // Byte meters moved in both directions.
    assert!(m.counter("serve.bytes.read") > 0);
    assert!(m.counter("serve.bytes.written") > 0);

    // Per-verb latency is recorded only after the full reply has streamed,
    // so a scrape can race the last submit's bookkeeping: poll until it
    // lands, then check the quantiles are ordered.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let submit_h = loop {
        let again = client::metrics(&addr).unwrap();
        if let Some(h) = again.histogram("serve.request.submit.ns") {
            if h.count == 2 {
                break h.clone();
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "submit latency histogram never reached 2 samples"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    assert!(submit_h.p50_ns <= submit_h.p95_ns && submit_h.p95_ns <= submit_h.p99_ns);
    shutdown_and_join(&addr, handle);
}

#[test]
fn status_is_a_view_of_the_metrics_registry() {
    // A cold tier under a hot budget too small for the 16 rows, so the
    // warm passes answer from both tiers and every lookup outcome occurs.
    let dir = std::env::temp_dir().join(format!("ebird_serve_status_view_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (addr, handle) = start_server(ServerConfig {
        threads: 2,
        cache_dir: Some(dir.clone()),
        hot_bytes: Some(4_000),
        ..ServerConfig::default()
    });
    let source = MatrixSource::Inline(tiny_matrix());
    assert_eq!(submit(&addr, &source, 0).unwrap().footer.computed, 16);
    assert_eq!(submit(&addr, &source, 0).unwrap().footer.cached, 16);
    assert_eq!(
        client::fetch_streaming(&addr, &source, |_| {})
            .unwrap()
            .footer
            .cached,
        16
    );

    // Quiescent: every job has settled before its last row was streamed.
    let status = client::status(&addr).unwrap();
    let m = client::metrics(&addr).unwrap();
    let lookups = |outcome: &str| {
        m.histogram(&format!("serve.cache.{outcome}"))
            .map_or(0, |h| h.count)
    };
    assert_eq!(status.hits, lookups("hit_ns") + lookups("cold_read_ns"));
    assert_eq!(status.misses, lookups("miss_ns"));
    assert_eq!(status.cold_hits, lookups("cold_read_ns"));
    assert_eq!(status.computed, m.counter("serve.cells.priced"));
    assert_eq!(status.submits, m.counter("serve.submits.resolved"));
    assert_eq!(status.coalesced, m.counter("serve.cells.coalesced"));
    assert_eq!(status.overloaded, m.counter("serve.submits.overloaded"));
    assert_eq!(status.recovered, m.counter("serve.worker.recovered"));
    let inflight_gauge = m
        .gauges
        .iter()
        .find(|g| g.name == "serve.worker.inflight_cells")
        .map(|g| g.value);
    assert_eq!((status.inflight, inflight_gauge), (0, Some(0)));

    // And the history itself: one miss per cold cell, one hit per warm or
    // fetched cell (some from disk), each cell priced once, and a fetch is
    // not a submit.
    assert_eq!((status.hits, status.misses), (32, 16));
    assert!(status.cold_hits > 0 && status.evictions > 0, "{status:?}");
    assert_eq!((status.computed, status.submits), (16, 2));
    assert_eq!(
        (status.coalesced, status.overloaded, status.recovered),
        (0, 0, 0)
    );
    shutdown_and_join(&addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_closes_the_listener() {
    let (addr, handle) = start_server(ServerConfig {
        threads: 1,
        cache_dir: None,
        ..ServerConfig::default()
    });
    assert!(TcpStream::connect(&addr).is_ok());
    shutdown_and_join(&addr, handle);
    // After a graceful shutdown nothing listens on the port any more.
    assert!(client::status(&addr).is_err());
}
