//! Driver-level tests: each known-bad fixture fires its rule exactly once
//! (in memory and through the real binary with a real exit code), the
//! exempt fixtures fire nothing, the cross-file `no-test-only-pub` cases
//! count only the referrers they should, and the workspace itself lints
//! clean with the shipped `lint.toml`.

use ebird_lint::config::Config;
use ebird_lint::{lint_sources, lint_workspace};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const HASH_ITERATION: &str = include_str!("fixtures/hash_iteration.rs");
const WALL_CLOCK: &str = include_str!("fixtures/wall_clock.rs");
const RAW_SPAWN: &str = include_str!("fixtures/raw_spawn.rs");
const PANIC_UNWRAP: &str = include_str!("fixtures/panic_unwrap.rs");
const PANIC_EXPECT: &str = include_str!("fixtures/panic_expect.rs");
const SERDE_MISSING_DEFAULT: &str = include_str!("fixtures/serde_missing_default.rs");
const SPAN_WALL_CLOCK: &str = include_str!("fixtures/span_wall_clock.rs");
const EXEMPT_TEST_MOD: &str = include_str!("fixtures/exempt_test_mod.rs");
const EXEMPT_PROSE: &str = include_str!("fixtures/exempt_prose.rs");
const CLEAN: &str = include_str!("fixtures/clean.rs");
const TEST_ONLY_PUB: &str = include_str!("fixtures/test_only_pub.rs");
const PUB_USER: &str = include_str!("fixtures/pub_user.rs");
const PUB_REEXPORT: &str = include_str!("fixtures/pub_reexport.rs");
const SIGNATURE_TYPE: &str = include_str!("fixtures/signature_type.rs");
const SIGNATURE_USER: &str = include_str!("fixtures/signature_user.rs");
const METHOD_NAMES: &str = include_str!("fixtures/method_names.rs");
const METHOD_NAMES_OTHER: &str = include_str!("fixtures/method_names_other.rs");

/// (crate dir, repo-relative path, fixture, rule expected to fire once).
fn bad_fixtures() -> Vec<(&'static str, &'static str, &'static str, &'static str)> {
    vec![
        (
            "core",
            "crates/core/src/fixture.rs",
            HASH_ITERATION,
            "no-hash-iteration",
        ),
        (
            "stats",
            "crates/stats/src/fixture.rs",
            WALL_CLOCK,
            "no-wall-clock",
        ),
        // The obs crate's clock.rs waiver must not shelter span-style
        // timing that reads the wall clock from any other crate.
        (
            "stats",
            "crates/stats/src/span_fixture.rs",
            SPAN_WALL_CLOCK,
            "no-wall-clock",
        ),
        (
            "bench",
            "crates/bench/src/fixture.rs",
            RAW_SPAWN,
            "no-raw-spawn",
        ),
        (
            "serve",
            "crates/serve/src/fixture.rs",
            PANIC_UNWRAP,
            "no-panic-path",
        ),
        (
            "serve",
            "crates/serve/src/fixture.rs",
            PANIC_EXPECT,
            "no-panic-path",
        ),
        (
            "serve",
            "crates/serve/src/protocol.rs",
            SERDE_MISSING_DEFAULT,
            "serde-default",
        ),
        (
            "core",
            "crates/core/src/fixture.rs",
            TEST_ONLY_PUB,
            "no-test-only-pub",
        ),
    ]
}

type Tree = Vec<(&'static str, &'static str, &'static str)>;

/// `no-test-only-pub` across files: (case, tree, violations, benchmark-only).
fn cross_file_cases() -> Vec<(&'static str, Tree, usize, usize)> {
    let defining = ("core", "crates/core/src/fixture.rs", TEST_ONLY_PUB);
    vec![
        (
            "a use from another file",
            vec![defining, ("bench", "crates/bench/src/user.rs", PUB_USER)],
            0,
            0,
        ),
        (
            "a re-export alone",
            vec![defining, ("core", "crates/core/src/lib.rs", PUB_REEXPORT)],
            1,
            0,
        ),
        (
            "a type named only in a pub fn's signature",
            vec![
                ("stats", "crates/stats/src/fixture.rs", SIGNATURE_TYPE),
                ("", "examples/user.rs", SIGNATURE_USER),
            ],
            0,
            0,
        ),
        (
            "a referrer only in benchmark/src",
            vec![defining, ("", "benchmark/src/user.rs", PUB_USER)],
            0,
            1,
        ),
    ]
}

#[test]
fn each_bad_fixture_fires_its_rule_exactly_once() {
    for (crate_name, rel, content, rule) in bad_fixtures() {
        let report = lint_sources(&[(crate_name, rel, content)], &Config::default());
        assert_eq!(
            report.violations.len(),
            1,
            "fixture for `{rule}` must yield exactly one violation, got {:?}",
            report.violations
        );
        assert_eq!(report.violations[0].rule, rule);
    }
}

#[test]
fn test_only_pub_counts_live_uses_in_other_files_only() {
    for (case, tree, violations, benchmark_only) in cross_file_cases() {
        let report = lint_sources(&tree, &Config::default());
        assert_eq!(report.violations.len(), violations, "{case}: {report:?}");
        assert!(report.violations.iter().all(|v| v.item == "doubled"));
        assert_eq!(report.benchmark_only.len(), benchmark_only, "{case}");
    }
}

#[test]
fn a_method_defined_twice_is_not_checked_and_a_definition_is_not_a_use() {
    let report = lint_sources(
        &[
            ("core", "crates/core/src/a.rs", METHOD_NAMES),
            ("core", "crates/core/src/b.rs", METHOD_NAMES_OTHER),
        ],
        &Config::default(),
    );
    let items: Vec<&str> = report.violations.iter().map(|v| v.item.as_str()).collect();
    assert_eq!(items, ["probe", "helper"], "{:?}", report.violations);
}

#[test]
fn expect_fixture_item_carries_the_message() {
    let report = lint_sources(
        &[("serve", "crates/serve/src/fixture.rs", PANIC_EXPECT)],
        &Config::default(),
    );
    assert_eq!(report.violations[0].item, "expect(\"fixture invariant\")");
}

#[test]
fn serde_fixture_flags_the_undefaulted_field_only() {
    let report = lint_sources(
        &[(
            "serve",
            "crates/serve/src/protocol.rs",
            SERDE_MISSING_DEFAULT,
        )],
        &Config::default(),
    );
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert_eq!(report.violations[0].item, "Wire.seed_field");
}

#[test]
fn exempt_fixtures_fire_nothing() {
    // Test-gated code, and prose in comments/strings, across the crates
    // where each rule would otherwise apply.
    let report = lint_sources(
        &[
            ("serve", "crates/serve/src/fixture.rs", EXEMPT_TEST_MOD),
            ("core", "crates/core/src/fixture.rs", EXEMPT_PROSE),
            ("serve", "crates/serve/src/fixture2.rs", EXEMPT_PROSE),
            ("serve", "crates/serve/src/fixture3.rs", CLEAN),
        ],
        &Config::default(),
    );
    assert!(
        report.violations.is_empty(),
        "exempt fixtures must be silent: {:?}",
        report.violations
    );
}

#[test]
fn workspace_lints_clean_with_shipped_waivers() {
    let root = workspace_root();
    let config_text = std::fs::read_to_string(root.join("lint.toml"))
        .expect("lint.toml must exist at the workspace root");
    let config = Config::parse(&config_text).expect("shipped lint.toml must parse");
    let report = lint_workspace(&root, &config).expect("workspace scan succeeds");
    assert!(
        report.is_clean(),
        "workspace must lint clean; violations: {:?}; stale: {:?}",
        report.violations,
        report.stale
    );
    assert!(report.files_scanned > 50, "sanity: the scan saw the tree");
}

// ── binary-level checks: real process, real exit codes ───────────────────

#[test]
fn binary_exits_nonzero_on_each_fixture_violation() {
    for (crate_name, rel, content, rule) in bad_fixtures() {
        let (code, stdout) = run_binary_on(&[(crate_name, rel, content)], None);
        assert_eq!(code, Some(1), "fixture for `{rule}` must exit 1:\n{stdout}");
        let hits = stdout.matches(&format!("[{rule}]")).count();
        assert_eq!(hits, 1, "`{rule}` must appear exactly once:\n{stdout}");
    }
}

#[test]
fn binary_lists_benchmark_only_items_and_refuses_test_only_ones() {
    for (case, tree, violations, benchmark_only) in cross_file_cases() {
        let (code, stdout) = run_binary_on(&tree, None);
        let expected = if violations == 0 { 0 } else { 1 };
        assert_eq!(code, Some(expected), "{case}:\n{stdout}");
        assert_eq!(
            stdout.matches("[no-test-only-pub]").count(),
            violations,
            "{case}:\n{stdout}"
        );
        assert_eq!(
            stdout.matches("benchmark-only").count(),
            benchmark_only,
            "{case}:\n{stdout}"
        );
    }
}

#[test]
fn binary_exits_zero_on_clean_tree() {
    let (code, stdout) = run_binary_on(&[("serve", "crates/serve/src/lib.rs", CLEAN)], None);
    assert_eq!(code, Some(0), "clean tree must exit 0:\n{stdout}");
}

#[test]
fn binary_flags_stale_waivers() {
    let stale_config = "[[waiver]]\nfile = \"crates/serve/src/gone.rs\"\nrule = \"no-panic-path\"\nreason = \"file was deleted\"\n";
    let (code, stdout) = run_binary_on(
        &[("serve", "crates/serve/src/lib.rs", CLEAN)],
        Some(stale_config),
    );
    assert_eq!(code, Some(1), "stale waivers must fail the run:\n{stdout}");
    assert!(stdout.contains("stale"), "{stdout}");
}

#[test]
fn binary_exits_zero_on_this_workspace() {
    let root = workspace_root();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_ebird-lint"))
        .arg("--root")
        .arg(&root)
        .output()
        .expect("run ebird-lint");
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(
        output.status.success(),
        "ebird-lint must pass on the shipped tree:\n{stdout}"
    );
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the root")
        .to_path_buf()
}

/// Materializes sources into a throwaway workspace, runs the real binary on
/// it, and returns (exit code, stdout).
fn run_binary_on(sources: &[(&str, &str, &str)], lint_toml: Option<&str>) -> (Option<i32>, String) {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let unique = format!(
        "ebird-lint-fixture-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    );
    let root = std::env::temp_dir().join(unique);
    for (_, rel, content) in sources {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("fixture path has a parent"))
            .expect("create fixture dirs");
        std::fs::write(&path, content).expect("write fixture");
    }
    if let Some(toml) = lint_toml {
        std::fs::write(root.join("lint.toml"), toml).expect("write lint.toml");
    }
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_ebird-lint"))
        .arg("--root")
        .arg(&root)
        .output()
        .expect("run ebird-lint");
    let stdout = String::from_utf8_lossy(&output.stdout).to_string()
        + &String::from_utf8_lossy(&output.stderr);
    std::fs::remove_dir_all(&root).ok();
    (output.status.code(), stdout)
}
