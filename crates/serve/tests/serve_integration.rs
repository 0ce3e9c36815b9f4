//! End-to-end tests of the campaign service over real TCP on an ephemeral
//! port: protocol error replies, concurrent clients, the cache-hit
//! bit-identity property, fetch semantics, offline-equality of streamed
//! rows, graceful shutdown (including cold-tier persistence across a
//! server restart), and the connection cap and idle limit.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ebird_cluster::{RealKernelParams, WorkloadSpec};
use ebird_runtime::Pool;
use ebird_serve::scenario::{run_matrix, ScenarioMatrix};
use ebird_serve::{client, MatrixSource, RetryPolicy, Server, ServerConfig};

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

/// [`tiny_matrix`] over metered real kernels (MiniFE, MiniMD): 16 cells
/// the server persists to its cold tier.
fn persisted_matrix() -> ScenarioMatrix {
    let mut m = tiny_matrix();
    m.workloads = ["MiniFE", "MiniMD"]
        .map(|app| WorkloadSpec::RealKernel {
            app: app.into(),
            params: RealKernelParams::default(),
        })
        .to_vec();
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
    client::submit_with_retry(addr, source, priority, &RetryPolicy::default(), |_| {})
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

#[test]
fn an_over_ceiling_metered_cell_is_a_typed_error_line_never_a_row() {
    // At a second per metered op, every MiniMD sample is past the ≈ 4.29 s
    // a sample holds: the campaign refuses it, so the cell fails and
    // nothing of it is cached.
    use ebird_cluster::{RealKernelParams, WorkloadSpec};
    let mut matrix = ScenarioMatrix::workload_smoke();
    matrix.workloads = vec![WorkloadSpec::RealKernel {
        app: "MiniMD".into(),
        params: RealKernelParams {
            ns_per_op: 1.0e9,
            ..RealKernelParams::default()
        },
    }];
    matrix.strategies = vec![ebird_partcomm::Strategy::EarlyBird];
    matrix.threads = 4;
    let offline = run_matrix(&matrix, &Pool::new(1)).unwrap_err();
    assert!(offline.contains("ceiling"), "{offline}");

    let (addr, handle) = start_server(ServerConfig {
        threads: 1,
        cache_dir: None,
        ..ServerConfig::default()
    });
    let source = MatrixSource::Inline(matrix);
    let mut rows = 0;
    let err = client::submit_with_retry(&addr, &source, 0, &RetryPolicy::none(), |_| rows += 1)
        .unwrap_err();
    assert_eq!(rows, 0);
    assert!(err.starts_with("server error: cell failed: "), "{err}");
    assert!(
        err.contains("sample at (trial, rank, iteration, thread) = (0, 0, 0, 0)"),
        "{err}"
    );
    assert!(err.contains("4294967295 ns ceiling"), "{err}");
    let fetched = client::fetch_streaming(&addr, &source, |_| {}).unwrap_err();
    assert!(fetched.contains("incomplete: 1 of 1"), "{fetched}");
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

/// `fetch` answers from the cache only, and its reply is pinned byte for
/// byte: before the submit, the one `incomplete` error line; after it, a
/// header line, the submit's rows in its order, a footer carrying request
/// id 0, and nothing more — which the client reads as the submit's rows.
#[test]
fn fetch_is_cache_only() {
    use std::io::{Read, Write};

    let (addr, handle) = start_server(ServerConfig {
        threads: 2,
        cache_dir: None,
        ..ServerConfig::default()
    });
    let source = MatrixSource::Inline(tiny_matrix());
    let fetch_reply = || {
        let request = ebird_serve::protocol::reply_line(&ebird_serve::Request::Fetch {
            matrix: source.clone(),
        });
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(format!("{request}\n").as_bytes()).unwrap();
        // A half-close ends the connection after this one reply, so the
        // text read back is the whole reply.
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        reply
    };

    assert_eq!(
        fetch_reply(),
        "{\"ok\":false,\"error\":\"incomplete: 16 of 16 cells not cached (submit the matrix first)\"}\n"
    );
    let submitted = submit(&addr, &source, 0).unwrap();
    let reply = fetch_reply();
    let lines: Vec<&str> = reply.lines().collect();
    assert!(reply.ends_with('\n'));
    assert_eq!(lines.len(), 18, "{reply}");
    assert_eq!(
        lines[0],
        "{\"ok\":true,\"cells\":16,\"cached\":16,\"coalesced\":0,\"scheduled\":0}"
    );
    assert_eq!(lines[1..17], submitted.rows[..]);
    assert_eq!(
        lines[17],
        "{\"done\":true,\"cells\":16,\"computed\":0,\"coalesced\":0,\"cached\":16,\"request\":0}"
    );
    let fetched = client::fetch_streaming(&addr, &source, |_| {}).unwrap();
    assert_eq!(fetched.footer.computed, 0);
    assert_eq!(fetched.rows, submitted.rows);

    shutdown_and_join(&addr, handle);
}

/// The most a submit's reply may take beyond its trace's last row: the
/// request line's parse before the trace starts, plus the footer and the
/// final flush after its last row. Measured at 52–191 µs per submit in six
/// release runs and 57–476 µs in sixteen debug runs (alone and beside the
/// rest of this suite, 2-vCPU host); the bound leaves room for a preempted
/// thread on a shared runner.
const RECONCILE_SLACK_NS_PER_SUBMIT: u64 = 2_000_000;

/// The reconciliation identity over the trace records: on a fresh server
/// whose submits are all admitted and resolve, the traced times
/// (start → last row) of every submit sum to at most the submit latency
/// histogram's total, and the rest — parse, footer and flush — stays under
/// [`RECONCILE_SLACK_NS_PER_SUBMIT`] per submit.
#[test]
fn submit_traces_reconcile_with_the_submit_latency_total() {
    let (addr, handle) = start_server(ServerConfig {
        threads: 2,
        cache_dir: None,
        ..ServerConfig::default()
    });
    let ranks = |ranks: &[usize]| {
        let mut m = tiny_matrix();
        m.ranks = ranks.to_vec();
        MatrixSource::Inline(m)
    };
    // Computed, cached, partly cached and mixed submits.
    let plan: [&[usize]; 8] = [
        &[1, 2],
        &[1, 2],
        &[2, 3],
        &[1, 3],
        &[1, 2, 3],
        &[4],
        &[4, 1],
        &[3],
    ];
    let mut ids = Vec::new();
    let (mut cached, mut computed) = (0, 0);
    for r in plan {
        let outcome = submit(&addr, &ranks(r), 0).unwrap();
        cached += outcome.footer.cached;
        computed += outcome.footer.computed;
        ids.push(outcome.footer.request);
    }
    assert_eq!(ids, (1..=8).collect::<Vec<u64>>());
    assert!(
        cached > 0 && computed > 0,
        "{cached} cached, {computed} computed"
    );

    // The latency is booked once the reply is flushed, which can trail the
    // client's read of the footer: wait for all eight.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let submit_ns = loop {
        let m = client::metrics(&addr).unwrap();
        if let Some(h) = m
            .histogram("serve.request.submit.ns")
            .filter(|h| h.count == 8)
        {
            break h.total_ns;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "submit latency never reached 8"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    let mut traced_ns = 0;
    for id in ids {
        let t = client::trace(&addr, id).unwrap();
        assert_eq!((t.rows, t.failed), (t.cells, 0), "{t:?}");
        assert!(
            t.last_row_ns >= t.first_row_ns && t.first_row_ns > 0,
            "{t:?}"
        );
        traced_ns += t.last_row_ns;
    }
    assert!(
        traced_ns <= submit_ns,
        "traced {traced_ns} ns > submit latency total {submit_ns} ns"
    );
    let slack = submit_ns - traced_ns;
    assert!(
        slack <= 8 * RECONCILE_SLACK_NS_PER_SUBMIT,
        "parse + footer + flush took {slack} ns over 8 submits"
    );
    eprintln!("reconciliation: traced {traced_ns} ns of {submit_ns} ns, slack {slack} ns");
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
    let source = MatrixSource::Inline(persisted_matrix());

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

/// Cells that run no metered kernel are cheaper to recompute than to read
/// back, so a cold-dir server keeps them hot only: the directory stays
/// empty, no lookup reads from disk, and after an eviction or a restart
/// the cells recompute to the offline table's bytes.
#[test]
fn a_cheap_matrix_never_reaches_the_cold_tier_and_recomputes_the_same_bytes() {
    let dir = std::env::temp_dir().join(format!("ebird_serve_cheap_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let source = MatrixSource::Inline(tiny_matrix());
    let offline = offline_lines(&tiny_matrix());
    let config = |hot_bytes| ServerConfig {
        threads: 2,
        cache_dir: Some(dir.clone()),
        hot_bytes,
        ..ServerConfig::default()
    };

    // A one-byte hot tier evicts every row as it lands.
    let (addr, handle) = start_server(config(Some(1)));
    for _ in 0..2 {
        let outcome = submit(&addr, &source, 0).unwrap();
        assert_eq!(outcome.footer.computed, 16);
        assert_eq!(outcome.rows, offline);
    }
    let status = client::status(&addr).unwrap();
    assert!(status.evictions > 0, "{status:?}");
    let cold_reads = |addr: &str| {
        let metrics = client::metrics(addr).unwrap();
        metrics
            .histogram("serve.cache.cold_read_ns")
            .map_or(0, |h| h.count)
    };
    assert_eq!((status.cold_hits, cold_reads(&addr)), (0, 0));
    shutdown_and_join(&addr, handle);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);

    let (addr, handle) = start_server(config(None));
    let err = client::fetch_streaming(&addr, &source, |_| {}).unwrap_err();
    assert!(err.contains("incomplete: 16 of 16"), "{err}");
    let outcome = submit(&addr, &source, 0).unwrap();
    assert_eq!((outcome.footer.cached, outcome.footer.computed), (0, 16));
    assert_eq!(outcome.rows, offline);
    assert_eq!(cold_reads(&addr), 0);
    shutdown_and_join(&addr, handle);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// `matrix`'s offline table, one JSON line a row.
fn offline_lines(matrix: &ScenarioMatrix) -> Vec<String> {
    run_matrix(matrix, &Pool::new(2))
        .unwrap()
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect()
}

/// Serves [`persisted_matrix`] once from a fresh server over `dir`, then
/// changes one digit of the `completion_ms` in its first cell's record in
/// place.
fn persist_and_change_the_first_record(dir: &std::path::Path, config: impl Fn() -> ServerConfig) {
    let (addr, handle) = start_server(config());
    let persisted = MatrixSource::Inline(persisted_matrix());
    assert_eq!(submit(&addr, &persisted, 0).unwrap().footer.computed, 16);
    shutdown_and_join(&addr, handle);

    let first = persisted_matrix().resolve().unwrap().cells()[0].content_key();
    let path = dir.join(first.hex());
    let mut bytes = std::fs::read(&path).unwrap();
    let field = b"completion_ms\\\":";
    let at = bytes
        .windows(field.len())
        .position(|w| w == field)
        .expect("the first row has a completion time")
        + field.len();
    assert!(bytes[at].is_ascii_digit());
    bytes[at] = if bytes[at] == b'9' {
        b'0'
    } else {
        bytes[at] + 1
    };
    std::fs::write(&path, bytes).unwrap();
}

/// A cold record whose row changed on disk is never served: after a
/// restart its cell is missing (`fetch` is incomplete by one), the record
/// is counted in `serve.cache.quarantined`, and a resubmit recomputes
/// exactly that cell, so every row again equals the offline table's.
#[test]
fn a_cold_row_changed_on_disk_is_quarantined_and_recomputed() {
    let dir = std::env::temp_dir().join(format!("ebird_serve_flipped_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let persisted = MatrixSource::Inline(persisted_matrix());
    let config = || ServerConfig {
        threads: 2,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    persist_and_change_the_first_record(&dir, config);

    let (addr, handle) = start_server(config());
    let err = client::fetch_streaming(&addr, &persisted, |_| {}).unwrap_err();
    assert!(err.contains("incomplete: 1 of 16"), "{err}");
    let metrics = client::metrics(&addr).unwrap();
    assert_eq!(metrics.counter("serve.cache.quarantined"), 1);
    let resubmit = submit(&addr, &persisted, 0).unwrap();
    assert_eq!((resubmit.footer.cached, resubmit.footer.computed), (15, 1));
    assert_eq!(
        resubmit.rows,
        offline_lines(&persisted_matrix()),
        "the changed row is never served"
    );
    shutdown_and_join(&addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}

/// The recomputed row of a quarantined record replaces the record on disk,
/// so the restart after it reads every record back and counts none.
#[test]
fn a_quarantined_record_is_overwritten_so_the_next_restart_counts_none() {
    let dir = std::env::temp_dir().join(format!("ebird_serve_overwritten_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let persisted = MatrixSource::Inline(persisted_matrix());
    let config = || ServerConfig {
        threads: 2,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    persist_and_change_the_first_record(&dir, config);
    let (addr, handle) = start_server(config());
    assert_eq!(submit(&addr, &persisted, 0).unwrap().footer.computed, 1);
    shutdown_and_join(&addr, handle);

    let (addr, handle) = start_server(config());
    let fetched = client::fetch_streaming(&addr, &persisted, |_| {}).unwrap();
    assert_eq!(fetched.rows, offline_lines(&persisted_matrix()));
    let metrics = client::metrics(&addr).unwrap();
    assert_eq!(metrics.counter("serve.cache.quarantined"), 0);
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
    // The handler's serial layer (resolve → classify → schedule) is timed
    // once per resolved submit, never per cell.
    let classify = m
        .histogram("serve.submit.classify_ns")
        .expect("classify layer");
    assert_eq!(classify.count, m.counter("serve.submits.resolved"));
    assert_eq!(classify.count, 2);

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
    // A cold tier of persisted rows under a hot budget too small for the 16
    // of them, so the warm passes answer from both tiers and every lookup
    // outcome occurs.
    let dir = std::env::temp_dir().join(format!("ebird_serve_status_view_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (addr, handle) = start_server(ServerConfig {
        threads: 2,
        cache_dir: Some(dir.clone()),
        hot_bytes: Some(4_000),
        ..ServerConfig::default()
    });
    let source = MatrixSource::Inline(persisted_matrix());
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

/// The serve slice of the work ledger, as exact counts: a reply that
/// never waits — a fully cached submit, a fetch, a `metrics` scrape —
/// reaches the socket in one `write`, and a hot hit copies its row twice
/// (decoded out of the tier's page, then into the handle the reply
/// streams).
#[test]
fn the_serve_ledger_counts_one_write_per_unwaiting_reply_and_two_copies_per_hot_hit() {
    let (addr, handle) = start_server(ServerConfig {
        threads: 2,
        cache_dir: None,
        ..ServerConfig::default()
    });
    let source = MatrixSource::Inline(tiny_matrix());
    assert_eq!(submit(&addr, &source, 0).unwrap().footer.computed, 16);
    let before = client::metrics(&addr).unwrap();
    assert_eq!(submit(&addr, &source, 0).unwrap().footer.cached, 16);
    assert_eq!(
        client::fetch_streaming(&addr, &source, |_| {})
            .unwrap()
            .footer
            .cached,
        16
    );
    let after = client::metrics(&addr).unwrap();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    // Counted at dispatch: the resubmit, the fetch and the second scrape;
    // written since the first snapshot: the first scrape's own reply, the
    // resubmit's and the fetch's, each under 8 KiB and one write.
    assert_eq!(delta("serve.requests.total"), 3);
    assert_eq!(delta("serve.writes"), 3);
    let hot_hits = |m: &ebird_serve::protocol::MetricsReply| {
        m.histogram("serve.cache.hit_ns").map_or(0, |h| h.count)
    };
    assert_eq!(hot_hits(&after) - hot_hits(&before), 32);
    assert_eq!(delta("serve.cache.row_copies"), 64);
    let status = client::status(&addr).unwrap();
    assert_eq!(status.row_copies, after.counter("serve.cache.row_copies"));
    shutdown_and_join(&addr, handle);
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

/// A client that connects and sends nothing.
fn idle_client(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Blocks until the server closes `stream` (EOF), returning what it sent.
fn read_to_close(stream: TcpStream) -> String {
    let mut text = String::new();
    BufReader::new(stream)
        .read_to_string(&mut text)
        .expect("the server closes the connection");
    text
}

#[test]
fn connections_past_the_cap_get_one_overloaded_line_and_the_drain_joins_the_rest() {
    let (addr, handle) = start_server(ServerConfig {
        threads: 1,
        max_connections: 4,
        ..ServerConfig::default()
    });
    let mut idle: Vec<TcpStream> = (0..4).map(|_| idle_client(&addr)).collect();
    // Every slot is held by a client that never sends: the next one is
    // answered with the typed refusal and closed, without a request.
    let mut refused = String::new();
    let mut reader = BufReader::new(idle_client(&addr));
    reader.read_line(&mut refused).unwrap();
    let reply: ebird_serve::protocol::OverloadedReply =
        serde_json::from_str(refused.trim_end()).unwrap();
    assert!(!reply.ok && reply.overloaded, "{refused}");
    assert!((50..=2_000).contains(&reply.retry_after_ms), "{refused}");
    assert_eq!(reply.error, "connection limit: 4 connections open");
    assert_eq!(read_to_close(reader.into_inner()), "");
    // A request sent into a full server is refused the same way.
    let line = client::raw_exchange(&addr, "{\"verb\":\"status\"}").unwrap();
    assert!(
        line.starts_with("{\"ok\":false,\"overloaded\":true,"),
        "{line}"
    );

    // Once one client leaves, a fresh one is served: the built-in client
    // retries a refusal until its slot is free (the server may not have
    // seen the close yet, so the count can grow past the two above).
    drop(idle.pop());
    let status = client::status(&addr).unwrap();
    assert_eq!(status.max_connections, 4);
    assert!(status.connections_refused >= 2, "{status:?}");
    assert_eq!(status.idle_closed, 0);
    let m = client::metrics(&addr).unwrap();
    assert!(m.counter("serve.connections.refused") >= status.connections_refused);

    // Shutdown with three idle clients still connected: the drain joins
    // their threads, and each of them sees its connection closed.
    shutdown_and_join(&addr, handle);
    for stream in idle {
        assert_eq!(read_to_close(stream), "");
    }
}

#[test]
fn a_client_that_sends_nothing_is_closed_at_the_idle_limit() {
    let limit = Duration::from_millis(300);
    let (addr, handle) = start_server(ServerConfig {
        threads: 1,
        max_connections: 4,
        idle_limit: limit,
        ..ServerConfig::default()
    });
    let opened = Instant::now();
    assert_eq!(read_to_close(idle_client(&addr)), "");
    let waited = opened.elapsed();
    assert!(waited >= limit, "closed after {waited:?}");
    assert!(
        waited < limit + Duration::from_secs(5),
        "closed after {waited:?}"
    );
    // A client that keeps asking is not idle: the limit runs between
    // requests, not over a connection's life.
    let mut conn = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    for _ in 0..3 {
        std::io::Write::write_all(&mut conn, b"{\"verb\":\"status\"}\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("{\"ok\":true"), "{line}");
        std::thread::sleep(limit / 2);
    }
    drop((conn, reader));
    let status = client::status(&addr).unwrap();
    assert_eq!((status.idle_closed, status.connections_refused), (1, 0));
    shutdown_and_join(&addr, handle);
}
