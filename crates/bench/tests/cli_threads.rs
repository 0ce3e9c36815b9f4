//! `repro`'s command line: `--threads` is bounded — a count no host can run
//! is a usage error, not a process abort while the pool spawns —, a scale is
//! named in any case, and `--help` is an answer, not an error.

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

#[test]
fn help_prints_the_usage_to_stdout_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(flag)
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: repro "), "{stdout}");
        assert!(stdout.contains("\nexperiments: table1 "), "{stdout}");
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

#[test]
fn a_scale_is_named_in_any_case_and_an_unknown_one_is_a_usage_error() {
    let run = |scale: &str| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--scale", scale, "--threads", "1", "table1"])
            .output()
            .expect("repro runs")
    };
    assert!(run("CI").status.success());
    let out = run("huge");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scale `huge`"));
}
