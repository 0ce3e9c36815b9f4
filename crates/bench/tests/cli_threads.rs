//! `repro --threads` is bounded: a count no host can run is a usage error,
//! not a process abort while the pool spawns.

use std::process::Command;

#[test]
fn a_thread_count_outside_the_cap_is_a_usage_error() {
    for count in ["100000", "1025", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--scale", "ci", "--threads", count, "table1"])
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "--threads {count}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("--threads must be in 1..=1024, got {count}")),
            "{stderr}"
        );
        assert!(stderr.contains("usage: repro"), "{stderr}");
        assert!(out.stdout.is_empty(), "--threads {count}");
    }
}
