//! The two serve workloads: two closed-loop clients against an in-process
//! server, each op one `client::submit` of a 288-cell matrix and the wait
//! for its rows. `serve_cold` submits never-seen seeds (every cell computes),
//! `serve_warm` cycles over the matrices prefilled in set-up (none does).
//!
//! Closed loop, stated: callers of `ebird-serve` submit a matrix and wait
//! for its rows. Two clients, not one, keep both cores busy and take the
//! idle wake-up latency out of the round trip.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::layers::{self, Matrix, Metrics, Scrape, ServerHandle, Submitted, SERVE_THREADS};
use crate::stats::{self, BLOCKS};
use crate::sys::process_cpu_ns;
use crate::trace::TraceLog;
use crate::window::{Op, Window, Workload};
use crate::Opts;

/// Closed-loop clients (a constant, not `nproc`).
const CLIENTS: usize = 2;
/// Matrices prefilled in set-up: `serve_warm`'s working set (≈ 9 MB of
/// rows, inside the 32 MiB hot tier) and `serve_cold`'s warm-up.
const PREFILL: usize = 32;
/// The same in quick mode.
const QUICK_PREFILL: usize = 4;
/// First seed index of the never-seen matrices, far above the prefilled.
const COLD_BASE: u64 = 1 << 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Cold,
    Warm,
}

/// The `index`-th matrix seed derived from the run's seed: a bijection of
/// `index` (odd multiplier, then the splitmix64 finaliser), so two indices
/// never share a matrix.
fn matrix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a submit must look like, beyond having `cells` rows.
enum Expect<'a> {
    /// Every cell computed.
    Cold,
    /// Nothing computed, and the rows are these bytes.
    Warm(&'a [String]),
}

/// The per-op output check.
fn check(s: &Submitted, cells: usize, expect: Expect<'_>) -> Result<(), String> {
    if s.rows.len() != cells {
        return Err(format!("{} rows for {cells} cells", s.rows.len()));
    }
    if s.cached + s.coalesced + s.computed != cells {
        return Err(format!(
            "footer {} cached + {} coalesced + {} computed != {cells} cells",
            s.cached, s.coalesced, s.computed
        ));
    }
    if let Some(i) = s
        .rows
        .iter()
        .position(|r| !r.contains("\"transport_verified\":true"))
    {
        return Err(format!("row {i} is not transport_verified"));
    }
    match expect {
        Expect::Cold if s.computed != cells => Err(format!(
            "cold submit computed {} of {cells} cells",
            s.computed
        )),
        Expect::Warm(_) if s.computed != 0 => {
            Err(format!("warm submit recomputed {} cells", s.computed))
        }
        Expect::Warm(rows) => match s.rows.iter().zip(rows).position(|(a, b)| a != b) {
            Some(i) => Err(format!("row {i} differs from its prefilled bytes")),
            None => Ok(()),
        },
        Expect::Cold => Ok(()),
    }
}

pub struct Setup {
    server: ServerHandle,
    /// The prefilled matrices and the rows their cold submit returned.
    warm: Vec<(Matrix, Vec<String>)>,
    /// Never-seen matrices handed out so far.
    cold_issued: AtomicU64,
    seed: u64,
    quick: bool,
}

/// One client's share of a window.
struct ClientLog {
    ops: Vec<Op>,
    attempted: u64,
    failures: Vec<String>,
    /// The first cold op of each block, kept for the offline comparison.
    kept: Vec<(Matrix, Vec<String>)>,
    trace: Option<TraceLog>,
}

/// What the clients of one window share.
struct Round<'a> {
    mode: Mode,
    setup: &'a Setup,
    opened: Instant,
    seconds: f64,
    /// Ops completed so far, by every client.
    completed: AtomicU64,
    traced: bool,
}

fn client(id: usize, round: &Round<'_>) -> ClientLog {
    let Round {
        mode,
        setup,
        opened,
        seconds,
        ref completed,
        traced,
    } = *round;
    let mut log = ClientLog {
        ops: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        kept: Vec::new(),
        trace: traced.then(|| TraceLog::new(opened)),
    };
    let mut kept_blocks = [false; BLOCKS];
    for turn in 0.. {
        let fresh;
        let (matrix, expect) = match mode {
            Mode::Warm => {
                let (matrix, rows) = &setup.warm[(turn * CLIENTS + id) % setup.warm.len()];
                (matrix, Expect::Warm(rows))
            }
            Mode::Cold => {
                let index = COLD_BASE + setup.cold_issued.fetch_add(1, Ordering::Relaxed);
                fresh = Matrix::new(matrix_seed(setup.seed, index), setup.quick);
                (&fresh, Expect::Cold)
            }
        };
        let start = Instant::now();
        let start_s = start.duration_since(opened).as_secs_f64();
        if start_s >= seconds {
            break;
        }
        let result = layers::submit(setup.server.addr(), matrix);
        let end = Instant::now();
        completed.fetch_add(1, Ordering::Relaxed);
        log.attempted += 1;
        if let Some(trace) = &mut log.trace {
            trace.record("submit", (id as u64) << 32 | turn as u64, None, start, end);
        }
        match result.and_then(|s| check(&s, matrix.cells(), expect).map(|()| s)) {
            Ok(s) => {
                log.ops.push(Op {
                    start_s,
                    wall_ms: end.duration_since(start).as_secs_f64() * 1e3,
                });
                let block = stats::block_of(start_s, seconds, BLOCKS);
                if mode == Mode::Cold && id == 0 && !kept_blocks[block] {
                    kept_blocks[block] = true;
                    log.kept.push((matrix.clone(), s.rows));
                }
            }
            Err(e) => log.failures.push(format!("client {id} op {turn}: {e}")),
        }
    }
    log
}

/// Runs `CLIENTS` closed-loop clients for `seconds`. This thread sleeps to
/// each block boundary and reads the process CPU clock and the completed-op
/// counter there: CPU per op covers client and server, one process.
fn window(mode: Mode, setup: &Setup, seconds: f64, trace: Option<&mut TraceLog>) -> Window {
    let round = Round {
        mode,
        setup,
        opened: Instant::now(),
        seconds,
        completed: AtomicU64::new(0),
        traced: trace.is_some(),
    };
    let (opened, completed) = (round.opened, &round.completed);
    let (logs, block_cpu_ms_per_op) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let round = &round;
                scope.spawn(move || client(id, round))
            })
            .collect();
        let mut cpu = Vec::with_capacity(BLOCKS);
        let mut last = (process_cpu_ns(), 0u64);
        for block in 1..=BLOCKS {
            let boundary = opened + Duration::from_secs_f64(seconds * block as f64 / BLOCKS as f64);
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            let now = (process_cpu_ns(), completed.load(Ordering::Relaxed));
            if now.1 > last.1 {
                cpu.push((now.0 - last.0) as f64 / 1e6 / (now.1 - last.1) as f64);
            }
            last = now;
        }
        let logs: Vec<ClientLog> = clients
            .into_iter()
            .map(|c| c.join().expect("a client thread panicked"))
            .collect();
        (logs, cpu)
    });

    let mut w = Window {
        window_s: seconds,
        elapsed_s: opened.elapsed().as_secs_f64(),
        ops: Vec::new(),
        block_cpu_ms_per_op,
        attempted: 0,
        failures: Vec::new(),
    };
    let mut spans = trace;
    for log in logs {
        w.ops.extend(log.ops);
        w.attempted += log.attempted;
        w.failures.extend(log.failures);
        if let (Some(all), Some(part)) = (spans.as_deref_mut(), log.trace) {
            all.absorb(part);
        }
        // One cold op per block, byte-compared with the offline table.
        for (matrix, rows) in log.kept {
            match matrix.offline_rows() {
                Ok(offline) if offline == rows => {}
                Ok(_) => w
                    .failures
                    .push("a cold op's rows differ from offline run_matrix".into()),
                Err(e) => w.failures.push(format!("offline run_matrix: {e}")),
            }
        }
    }
    w
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Workload for Mode {
    type Setup = Setup;
    const SETUPS: usize = 9;

    /// Bind, then `PREFILL` sequential cold submits.
    fn set_up(&self, opts: &Opts) -> Result<Setup, String> {
        let server = ServerHandle::start()?;
        let prefill = || -> Result<Vec<(Matrix, Vec<String>)>, String> {
            (0..if opts.quick { QUICK_PREFILL } else { PREFILL })
                .map(|i| {
                    let matrix = Matrix::new(matrix_seed(opts.seed, i as u64), opts.quick);
                    let s = layers::submit(server.addr(), &matrix)?;
                    check(&s, matrix.cells(), Expect::Cold)
                        .map_err(|e| format!("prefill {i}: {e}"))?;
                    Ok((matrix, s.rows))
                })
                .collect()
        };
        match prefill() {
            Ok(warm) => Ok(Setup {
                server,
                warm,
                cold_issued: AtomicU64::new(0),
                seed: opts.seed,
                quick: opts.quick,
            }),
            Err(e) => {
                // Never leave a server thread behind an early return.
                let _ = server.stop();
                Err(e)
            }
        }
    }

    fn tear_down(&self, setup: Setup) -> Result<(), String> {
        setup.server.stop()
    }

    fn window(&self, setup: &mut Setup, seconds: f64) -> Window {
        window(*self, setup, seconds, None)
    }

    /// A traced window with the server scraped before and after it, then
    /// the probes of each step of a submit.
    fn traced(&self, setup: &mut Setup, seconds: f64, out: &mut Metrics) -> Result<Window, String> {
        let addr = setup.server.addr();
        let before = Scrape::read(addr)?;
        let mut log = TraceLog::new(Instant::now());
        let traced = window(*self, setup, seconds, Some(&mut log));
        let main = Scrape::read(addr)?.since(&before);

        let server_mean_ms = ratio(main.submit_ns, main.submits) / 1e6;
        out.insert(
            "serve.queue.wait_mean_us",
            ratio(main.queue_wait_ns, main.queue_waits) / 1e3,
        );
        out.insert("serve.job.run_mean_us", ratio(main.job_ns, main.jobs) / 1e3);
        out.insert(
            "serve.worker.utilization",
            ratio(main.worker_busy_ns, main.uptime_ns * SERVE_THREADS as u64),
        );
        out.insert("serve.request.server_mean_ms", server_mean_ms);
        out.insert(
            "serve.bytes_written_per_op",
            ratio(main.bytes_written, main.submits),
        );
        out.insert(
            "serve.bytes_read_per_op",
            ratio(main.bytes_read, main.submits),
        );
        out.insert("serve.cells_per_op", ratio(main.cells_total, main.submits));
        out.insert(
            "serve.cells.identity_ok",
            f64::from(
                main.cells_total > 0
                    && main.cells_total
                        == main.cells_cached + main.cells_coalesced + main.cells_computed,
            ),
        );
        out.insert(
            "serve.cache.hit_ratio",
            ratio(main.cache_hits, main.cache_hits + main.cache_misses),
        );
        out.insert(
            "serve.cache.evictions_per_op",
            ratio(main.evictions, main.submits),
        );

        let submits = log.durations_ms("submit");
        out.insert(
            "serve.client.residual_ms",
            stats::mean(&submits).unwrap_or(0.0) - server_mean_ms,
        );
        out.insert(
            "serve.client.submit_p99_ms",
            stats::percentile(&submits, 99.0).unwrap_or(0.0),
        );

        layers::serve_probes(&setup.warm[0].0, out)?;
        if *self == Mode::Warm {
            // What a warm request holds beyond the steps the probes price is
            // the per-row flush path.
            let probe = |name: &str| out.get(name).copied().unwrap_or(0.0);
            let per_cell_ns =
                probe("serve.scenario.key_ns_per_cell") + probe("serve.coalesce.probe_ns_per_cell");
            let priced_us = probe("serve.protocol.parse_us")
                + probe("serve.scenario.resolve_us")
                + self.work_per_op(setup) * per_cell_ns / 1e3;
            out.insert(
                "serve.warm.stream_residual_us",
                server_mean_ms * 1e3 - priced_us,
            );
        }
        Ok(traced)
    }

    fn work_per_op(&self, setup: &Setup) -> f64 {
        setup.warm[0].0.cells() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submitted(rows: &[String], cached: usize, computed: usize) -> Submitted {
        Submitted {
            rows: rows.to_vec(),
            cached,
            coalesced: 0,
            computed,
        }
    }

    #[test]
    fn checker_rejects_a_corrupted_row() {
        let rows: Vec<String> = (0..4)
            .map(|i| format!("{{\"app\":\"MiniFE\",\"ranks\":{i},\"transport_verified\":true}}"))
            .collect();
        assert_eq!(
            check(&submitted(&rows, 4, 0), 4, Expect::Warm(&rows)),
            Ok(())
        );
        assert_eq!(check(&submitted(&rows, 0, 4), 4, Expect::Cold), Ok(()));

        // One byte of one row changed: caught against the prefilled bytes.
        let mut corrupted = rows.clone();
        corrupted[2] = corrupted[2].replace("\"ranks\":2", "\"ranks\":3");
        let err = check(&submitted(&corrupted, 4, 0), 4, Expect::Warm(&rows)).unwrap_err();
        assert!(err.contains("row 2 differs"), "{err}");
        // A row that missed its delivery deadline is not a correct row.
        corrupted[2] = rows[2].replace("verified\":true", "verified\":false");
        let err = check(&submitted(&corrupted, 0, 4), 4, Expect::Cold).unwrap_err();
        assert!(err.contains("row 2 is not transport_verified"), "{err}");
        // A short stream, a footer that does not add up, and the wrong
        // compute count for the workload.
        assert!(check(&submitted(&rows[..3], 3, 0), 4, Expect::Warm(&rows)).is_err());
        assert!(check(&submitted(&rows, 3, 0), 4, Expect::Warm(&rows)).is_err());
        assert!(check(&submitted(&rows, 3, 1), 4, Expect::Warm(&rows)).is_err());
        assert!(check(&submitted(&rows, 1, 3), 4, Expect::Cold).is_err());
    }

    #[test]
    fn matrix_seeds_never_repeat() {
        let mut seen = std::collections::BTreeSet::new();
        for index in (0..64).chain(COLD_BASE..COLD_BASE + 4096) {
            assert!(seen.insert(matrix_seed(20230421, index)));
        }
        assert_ne!(matrix_seed(1, 0), matrix_seed(2, 0));
    }
}
