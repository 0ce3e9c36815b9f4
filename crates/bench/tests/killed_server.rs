//! A server killed mid-submit loses nothing it persisted and leaves nothing
//! behind: `repro serve` over a cold directory is sent SIGKILL after its
//! client has read k rows of CI's `load_matrix.json` (48 metered real-kernel
//! cells, every one persisted). The client ends with an error after a
//! prefix of the offline table; a server restarted over the same directory
//! removes what a killed write left, quarantines nothing, and its resubmit
//! is the offline table byte for byte, answering the persisted cells from
//! the directory.
//!
//! Rows, not time, decide the kill. The server runs one worker, so it
//! writes a pricing group's rows only once the group is priced, and the
//! kill lands while a later group is still being priced: after row 23 a
//! release build has ≈ 20 ms of pricing left (a debug build far more). A
//! client held off the CPU for longer sees the whole stream instead; that
//! try is discarded and the kill repeated over a fresh directory.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

use ebird_analysis::report::json_lines;
use ebird_runtime::Pool;
use ebird_serve::scenario::{run_matrix, ScenarioMatrix};
use ebird_serve::{client, MatrixSource, RetryPolicy};

/// CI's `load_matrix.json` (the sustained-load smoke's matrix).
const LOAD_MATRIX: &str = r#"{"workloads":[{"RealKernel":{"app":"MiniFE"}},{"RealKernel":{"app":"MiniMD"}},{"RealKernel":{"app":"MiniQMC"}}],"strategies":["Bulk","EarlyBird",{"TimeoutFlush":{"timeout_ms":1.0}},{"Binned":{"bins":4}}],"models":[{"Fabric":{"link":"omni-path","contention":0.5}},{"Fabric":{"link":"high-latency","contention":0.5}}],"noise":["baseline"],"ranks":[1,4],"threads":8,"bytes_per_rank":1000000,"contention":0.5,"iteration":25,"seed":20230421}"#;

/// The rows after which the client kills the server: inside the first
/// pricing group, at its end, and inside a later one.
const KILL_AFTER_ROWS: [usize; 3] = [1, 7, 23];

/// A temporary name a killed write leaves (`<key>.<process>-<write>.tmp`),
/// planted before each restart so its removal is seen whether or not the
/// kill itself landed between a write and its rename.
const PLANTED_LEFTOVER: &str = "0123456789abcdef0123456789abcdef.4242-0.tmp";

/// A running `repro serve`. Dropping it kills and reaps the server and
/// joins the thread draining its stderr, so a failed assertion leaves no
/// server behind.
struct Server {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<std::io::Result<u64>>>,
}

impl Server {
    /// Starts `repro serve` on an ephemeral port over `dir` and reads the
    /// address it announces.
    fn start(dir: &Path) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "1",
                "--cache-dir",
            ])
            .arg(dir)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("repro serve starts");
        let mut stderr = BufReader::new(child.stderr.take().unwrap());
        let mut line = String::new();
        stderr.read_line(&mut line).unwrap();
        let addr = line
            .strip_prefix("# ebird-serve listening on ")
            .and_then(|rest| rest.split_once(' '))
            .unwrap_or_else(|| panic!("no listening line: {line:?}"))
            .0
            .to_string();
        // Keep draining, so a chatty server never blocks on a full pipe.
        let drain = std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));
        Server {
            child,
            addr,
            drain: Some(drain),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Starts a server over a fresh `dir`, submits `source` and kills the
/// server once `k` rows are read. Returns the rows read and the client's
/// error, or `None` if the whole stream arrived before the kill did.
fn submit_and_kill(dir: &Path, source: &MatrixSource, k: usize) -> Option<(Vec<String>, String)> {
    std::fs::remove_dir_all(dir).ok();
    let mut server = Server::start(dir);
    let mut rows = Vec::new();
    let streamed =
        client::submit_with_retry(&server.addr, source, 0, &RetryPolicy::none(), |row| {
            rows.push(row.to_string());
            if rows.len() == k {
                server.child.kill().expect("SIGKILL delivered");
            }
        });
    drop(server);
    streamed.err().map(|err| (rows, err))
}

fn names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

fn is_key(name: &str) -> bool {
    name.len() == 32 && name.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

#[test]
fn a_killed_server_restarts_to_the_offline_table_and_leaves_no_temporary_file() {
    let matrix: ScenarioMatrix = serde_json::from_str(LOAD_MATRIX).unwrap();
    let offline = json_lines(&run_matrix(&matrix, &Pool::new(1)).unwrap()).unwrap();
    let offline: Vec<&str> = offline.lines().collect();
    assert_eq!(offline.len(), 48);
    let source = MatrixSource::Inline(matrix);

    for k in KILL_AFTER_ROWS {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("ebird_killed_server_{}_{k}", std::process::id()));
        let (rows, err) = (0..3)
            .find_map(|_| submit_and_kill(&dir, &source, k))
            .unwrap_or_else(|| panic!("k = {k}: the stream outran the kill in 3 tries"));
        assert!(
            err == "server closed the connection mid-reply" || err.starts_with("reading reply: "),
            "k = {k}: {err}"
        );
        assert!(
            rows.len() >= k && rows.len() < offline.len(),
            "k = {k}: {} rows",
            rows.len()
        );
        assert_eq!(
            rows,
            offline[..rows.len()],
            "k = {k}: not a prefix of the offline table"
        );

        // What the kill left: whole records, and at most the temporary file
        // of a write it cut short.
        let left = names(&dir);
        assert!(
            left.iter().all(|n| is_key(n) || n.ends_with(".tmp")),
            "k = {k}: {left:?}"
        );
        let persisted = left.iter().filter(|n| is_key(n)).count();
        std::fs::write(dir.join(PLANTED_LEFTOVER), "{}").unwrap();

        let mut server = Server::start(&dir);
        let addr = server.addr.clone();
        assert!(
            names(&dir).iter().all(|n| is_key(n)),
            "k = {k}: a temporary file survived the restart: {:?}",
            names(&dir)
        );
        let resubmit = client::submit_with_retry(&addr, &source, 0, &RetryPolicy::none(), |_| {})
            .expect("the restarted server answers");
        assert_eq!(
            resubmit.rows, offline,
            "k = {k}: resubmit differs from offline"
        );
        assert_eq!(
            (resubmit.footer.cached, resubmit.footer.computed),
            (persisted, offline.len() - persisted),
            "k = {k}"
        );
        let metrics = client::metrics(&addr).unwrap();
        assert_eq!(metrics.counter("serve.cache.quarantined"), 0, "k = {k}");
        client::shutdown(&addr).unwrap();
        assert!(server.child.wait().unwrap().success(), "k = {k}");
        drop(server);

        let after = names(&dir);
        assert_eq!(after.len(), offline.len(), "k = {k}: {after:?}");
        assert!(after.iter().all(|n| is_key(n)), "k = {k}: {after:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
