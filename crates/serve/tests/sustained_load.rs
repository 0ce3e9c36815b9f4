//! Hardening tests: the service under racing clients, sustained load, and
//! damaged persistence.
//!
//! What "hardened" means here, each pinned by a test below:
//!
//! * **Single-flight**: overlapping concurrent submissions never compute a
//!   cell twice — the server's `computed` counter equals distinct cells.
//! * **Bounded memory**: the hot cache tier never exceeds its byte budget,
//!   even mid-burst, and evictions don't change a single served byte
//!   (evicted rows of persisted cells come back from the cold tier).
//! * **Admission control**: a submit that cannot fit the job queue is
//!   refused with a structured `overloaded` reply instead of queueing
//!   without bound. (What needs a *held* worker — refusal behind another
//!   submission's queued jobs, no lost or doubled work — is pinned without
//!   a socket in `server.rs`'s tests, and the client's backoff against a
//!   scripted listener in `client.rs`'s.)
//! * **Crash-tolerant persistence**: a temporary record a crash left
//!   between write and rename is never served and never stops a restart.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

use ebird_cluster::{RealKernelParams, WorkloadSpec};
use ebird_runtime::Pool;
use ebird_serve::client::{self, RetryPolicy};
use ebird_serve::scenario::{run_matrix, ScenarioMatrix};
use ebird_serve::{MatrixSource, Server, ServerConfig};

/// A 16-cell matrix small enough for test wall-clocks:
/// 2 apps × 4 strategies × 1 link × 1 noise × 2 rank counts.
fn tiny_matrix() -> ScenarioMatrix {
    let mut m = ScenarioMatrix::smoke();
    m.workloads.truncate(2); // MiniFE, MiniMD
    m.noise = vec!["baseline".into()];
    m.ranks = vec![1, 2];
    m.threads = 4;
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

/// A single-cell matrix — the minimal duplicate-compute bait.
fn one_cell_matrix() -> ScenarioMatrix {
    let mut m = tiny_matrix();
    m.workloads.truncate(1); // MiniFE
    m.ranks = vec![2];
    m.strategies = vec![ebird_partcomm::Strategy::EarlyBird];
    m
}

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

/// The original duplicate-compute window, at its narrowest: two clients
/// release the *same single-cell* submit at a barrier. Before coalescing,
/// whichever client probed the cache while the other's compute was still in
/// flight enqueued a second job for the identical cell. Now exactly one
/// compute happens in every interleaving — the other submit either hits the
/// cache (it arrived after completion) or coalesces (it arrived during).
#[test]
fn two_racing_clients_compute_a_shared_cell_exactly_once() {
    let (addr, handle) = start_server(ServerConfig {
        threads: 2,
        cache_dir: None,
        ..ServerConfig::default()
    });
    let barrier = Arc::new(Barrier::new(2));
    let racers: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                submit(&addr, &MatrixSource::Inline(one_cell_matrix()), 0)
            })
        })
        .collect();
    let outcomes: Vec<_> = racers
        .into_iter()
        .map(|r| r.join().unwrap().expect("racing submit succeeds"))
        .collect();

    assert_eq!(outcomes[0].rows, outcomes[1].rows, "both saw the same row");
    let status = client::status(&addr).unwrap();
    assert_eq!(
        status.computed, 1,
        "the shared cell must be priced exactly once, in every interleaving"
    );
    // The two submissions' own accounting agrees: one scheduled the compute,
    // the other either coalesced onto it or arrived after caching.
    let computed_total: usize = outcomes.iter().map(|o| o.footer.computed).sum();
    assert_eq!(computed_total, 1);
    shutdown_and_join(&addr, handle);
}

/// The tentpole acceptance scenario: concurrent clients with overlapping
/// matrices of persisted cells against a server with a deliberately tiny
/// hot tier and a cold tier behind it. Coalescing must hold computes to the distinct-cell
/// count, the hot tier must respect its byte budget at every observation
/// (including mid-burst), and every streamed row must be byte-identical to
/// the offline `repro scenarios` table even when it was evicted hot and
/// re-read cold.
#[test]
fn sustained_overlapping_load_is_coalesced_bounded_and_bit_identical() {
    let dir = std::env::temp_dir().join(format!("ebird_sustained_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // ~4 rows' worth of budget for a 16-row matrix: evictions guaranteed.
    let budget: usize = 8 * 1024;
    let (addr, handle) = start_server(ServerConfig {
        threads: 3,
        cache_dir: Some(dir.clone()),
        hot_bytes: Some(budget),
        ..ServerConfig::default()
    });

    let full = persisted_matrix();
    let mut half = persisted_matrix();
    half.ranks = vec![2]; // 8 of the 16 cells — a strict subset
    let expected_full: Vec<String> = run_matrix(&full, &Pool::new(2))
        .unwrap()
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    let expected_half: Vec<String> = run_matrix(&half, &Pool::new(2))
        .unwrap()
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();

    // A watcher polls the hot-tier fill while the burst runs: the budget
    // must hold *throughout*, not just at rest.
    let stop_watch = Arc::new(AtomicBool::new(false));
    let watcher = {
        let addr = addr.clone();
        let stop = Arc::clone(&stop_watch);
        std::thread::spawn(move || {
            let mut peak: u64 = 0;
            while !stop.load(Ordering::SeqCst) {
                if let Ok(s) = client::status(&addr) {
                    peak = peak.max(s.hot_bytes);
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            peak
        })
    };

    // 6 clients, two waves each, alternating full/half matrices.
    let barrier = Arc::new(Barrier::new(6));
    let clients: Vec<_> = (0..6)
        .map(|i| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            let (matrix, expected) = if i % 2 == 0 {
                (full.clone(), expected_full.clone())
            } else {
                (half.clone(), expected_half.clone())
            };
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..2 {
                    let outcome = submit(&addr, &MatrixSource::Inline(matrix.clone()), 0)
                        .expect("sustained submit succeeds");
                    assert_eq!(
                        outcome.rows, expected,
                        "served rows must stay byte-identical to offline under load"
                    );
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread panicked");
    }
    stop_watch.store(true, Ordering::SeqCst);
    let peak_hot_bytes = watcher.join().unwrap();

    let status = client::status(&addr).unwrap();
    assert_eq!(
        status.computed, 16,
        "12 overlapping submissions must price exactly the 16 distinct cells"
    );
    assert!(
        status.evictions > 0,
        "a {budget}-byte budget must evict under a 16-row matrix"
    );
    assert!(
        status.hot_bytes <= budget as u64,
        "hot tier at rest over budget: {} > {budget}",
        status.hot_bytes
    );
    assert!(
        peak_hot_bytes <= budget as u64,
        "hot tier exceeded its budget mid-burst: {peak_hot_bytes} > {budget}"
    );
    assert_eq!(status.queue_bound, ebird_serve::DEFAULT_QUEUE_BOUND);
    assert_eq!(
        status.overloaded, 0,
        "default bound must not refuse 6 clients"
    );

    shutdown_and_join(&addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}

/// The refusal itself, unretried: `RetryPolicy::none` surfaces the
/// structured overload as an error naming the evidence.
#[test]
fn overloaded_reply_reaches_an_unretrying_client_as_a_typed_error() {
    let (addr, handle) = start_server(ServerConfig {
        threads: 1,
        cache_dir: None,
        queue_bound: 4, // any tiny_matrix submit is 16 > 4: refused instantly
        ..ServerConfig::default()
    });
    let err = client::submit_with_retry(
        &addr,
        &MatrixSource::Inline(tiny_matrix()),
        0,
        &RetryPolicy::none(),
        |_| {},
    )
    .expect_err("a 16-cell submit cannot fit a 4-deep queue");
    assert!(err.contains("overloaded"), "{err}");
    assert!(err.contains("retry_after_ms"), "{err}");

    let status = client::status(&addr).unwrap();
    assert_eq!(status.overloaded, 1);
    assert_eq!(status.computed, 0, "a refused submit schedules nothing");
    assert_eq!(
        status.inflight_cells, 0,
        "a refused submit registers nothing"
    );
    shutdown_and_join(&addr, handle);
}

/// Crash tolerance end-to-end: a record a crash left under its temporary
/// name (killed between write and rename) must not fail the next startup
/// and is never served — its cell recomputes, and the record written then
/// serves the restart after it.
#[test]
fn a_leftover_temporary_record_is_never_served_and_startup_survives_it() {
    let dir = std::env::temp_dir().join(format!("ebird_leftover_tmp_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let half_source = {
        let mut m = persisted_matrix();
        m.ranks = vec![2];
        MatrixSource::Inline(m)
    };
    let full_source = MatrixSource::Inline(persisted_matrix());
    let config = || ServerConfig {
        threads: 2,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    let (addr, handle) = start_server(config());
    let first = submit(&addr, &half_source, 0).unwrap();
    assert_eq!(first.footer.computed, 8);
    shutdown_and_join(&addr, handle);

    // Simulate a kill between write and rename: a whole record of a cell
    // not yet stored (rank count 1), left under its temporary name.
    let cells = persisted_matrix().resolve().unwrap().cells();
    let (stored, missing) = (cells[4].content_key(), cells[0].content_key());
    let record = std::fs::read_to_string(dir.join(stored.hex())).unwrap();
    std::fs::write(dir.join(format!("{}.tmp", missing.hex())), record).unwrap();

    // Startup must survive, the 8 stored rows must still be cached, the
    // leftover must not answer for its cell, and only the 8 genuinely new
    // cells are computed.
    let (addr, handle) = start_server(config());
    let fetched = client::fetch_streaming(&addr, &half_source, |_| {}).unwrap();
    assert_eq!(fetched.footer.computed, 0, "stored rows survive the crash");
    assert_eq!(fetched.rows, first.rows);
    let err = client::fetch_streaming(&addr, &full_source, |_| {}).unwrap_err();
    assert!(err.contains("incomplete: 8 of 16"), "{err}");
    let second = submit(&addr, &full_source, 0).unwrap();
    assert_eq!(
        second.footer.computed, 8,
        "only the 8 genuinely new cells are computed"
    );
    let expected: Vec<String> = run_matrix(&persisted_matrix(), &Pool::new(2))
        .unwrap()
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    assert_eq!(second.rows, expected);
    let metrics = client::metrics(&addr).unwrap();
    assert_eq!(metrics.counter("serve.cache.quarantined"), 0);
    shutdown_and_join(&addr, handle);

    // The third startup reads every record back, the one written over the
    // leftover's name included.
    let (addr, handle) = start_server(config());
    let replayed = client::fetch_streaming(&addr, &full_source, |_| {}).unwrap();
    assert_eq!(replayed.footer.computed, 0);
    assert_eq!(replayed.rows, second.rows);
    shutdown_and_join(&addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}
