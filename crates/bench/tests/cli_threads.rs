//! `repro`'s command line: `--threads` is bounded — a count no host can run
//! is a usage error, not a process abort while the pool spawns —, a scale is
//! named in any case, `--help` is an answer, not an error, and only a
//! command line `repro` cannot read is answered with the usage text.

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

/// A command line `repro` cannot read exits 2 with the usage text; a run
/// that fails — here a server's `incomplete` refusal — exits 1 with its
/// error alone.
#[test]
fn usage_errors_exit_2_with_the_usage_and_run_errors_exit_1_without_it() {
    for args in [&["--scale", "ci", "tabel1"][..], &["table1", "extra"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{stderr}");
        assert!(stderr.contains("\nusage: repro "), "{stderr}");
    }

    let server = ebird_serve::Server::bind(
        "127.0.0.1:0",
        ebird_serve::ServerConfig {
            threads: 1,
            ..ebird_serve::ServerConfig::default()
        },
    )
    .expect("bind an ephemeral port");
    let addr = server.local_addr().to_string();
    let running = std::thread::spawn(move || server.run());
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fetch", "--preset", "smoke", "--addr", &addr])
        .output()
        .expect("repro runs");
    ebird_serve::client::shutdown(&addr).expect("shutdown acknowledged");
    running.join().unwrap().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr
            .lines()
            .filter(|line| line.starts_with("error: "))
            .count(),
        1,
        "{stderr}"
    );
    assert!(
        stderr.contains("error: server error: incomplete: 48 of 48"),
        "{stderr}"
    );
    assert!(!stderr.contains("usage:"), "{stderr}");
    assert!(out.stdout.is_empty());
}
