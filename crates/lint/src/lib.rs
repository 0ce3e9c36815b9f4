//! `ebird-lint`: offline, dependency-free static analysis for the ebird
//! workspace. Scans every `crates/*/src` file and enforces the repo's
//! determinism and robustness rules (see [`rules`]), honoring the waiver
//! file `lint.toml` at the workspace root (see [`config`]). `src/`,
//! `examples/` and `benchmark/src` are read too, only as referrers of the
//! crates' `pub` items.
//!
//! The driver is deliberately a line-walker over cleaned source — not a
//! full parser — in the spirit of the vendored `serde_derive`: precise
//! enough for this codebase's style, zero dependencies, and fast enough to
//! run on every CI push.

pub mod cleaner;
pub mod config;
pub mod rules;

use config::{Config, Waiver};
use rules::{SourceFile, Violation};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The outcome of linting a tree: surviving violations plus waiver-hygiene
/// errors (stale entries that no longer match anything).
#[derive(Debug, Default)]
pub struct Report {
    /// Violations not covered by any waiver, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Waivers (or waiver items) that matched nothing — stale entries that
    /// must be deleted so the waiver file stays an honest census.
    pub stale: Vec<String>,
    /// Total findings before waiving, for the summary line.
    pub total_findings: usize,
    /// Files scanned.
    pub files_scanned: usize,
    /// `no-test-only-pub` findings named only by `benchmark/src`: listed,
    /// not violations.
    pub benchmark_only: Vec<Violation>,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale.is_empty()
    }
}

/// The roots whose files are read only as referrers of `crates/*/src`'s
/// `pub` items (see [`rules::no_test_only_pub`]); no rule lints them.
const REFERRER_ROOTS: &[&str] = &["src", "examples", "benchmark/src"];

/// Lints all `crates/*/src/**/*.rs` under `root`, applying `config`, with
/// `src/`, `examples/` and `benchmark/src` read as referrers.
pub fn lint_workspace(root: &Path, config: &Config) -> Result<Report, String> {
    let crates_dir = root.join("crates");
    let mut files: Vec<(String, String, PathBuf)> = Vec::new(); // (crate, rel, abs)
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
    let mut crate_dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let roots = crate_dirs.iter().map(|dir| {
        let crate_name = dir.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        (crate_name.to_string(), dir.join("src"))
    });
    let referrers = REFERRER_ROOTS.iter().map(|r| (String::new(), root.join(r)));
    for (crate_name, src) in roots.chain(referrers) {
        if !src.is_dir() {
            continue;
        }
        collect_rs_files(&src, &mut |path| {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push((crate_name.clone(), rel, path.to_path_buf()));
        })?;
    }
    files.sort_by(|a, b| a.1.cmp(&b.1));

    let mut sources = Vec::new();
    for (crate_name, rel, abs) in &files {
        let content = std::fs::read_to_string(abs).map_err(|e| format!("reading {rel}: {e}"))?;
        sources.push(SourceFile::new(rel, crate_name, &content));
    }
    Ok(lint_files(&sources, config))
}

/// Lints in-memory sources (used by the fixture tests). Each entry is
/// `(crate_name, repo_relative_path, content)`; a path outside `crates/` is
/// read only as a referrer.
pub fn lint_sources(sources: &[(&str, &str, &str)], config: &Config) -> Report {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(crate_name, rel, content)| SourceFile::new(rel, crate_name, content))
        .collect();
    lint_files(&files, config)
}

/// The per-file rules over every `crates/` file, then the cross-file one.
fn lint_files(files: &[SourceFile], config: &Config) -> Report {
    let linted: Vec<&SourceFile> = files
        .iter()
        .filter(|f| f.rel_path.starts_with("crates/"))
        .collect();
    let mut all: Vec<Violation> = linted.iter().flat_map(|f| rules::check_file(f)).collect();
    let (test_only, benchmark_only) = rules::no_test_only_pub(files);
    all.extend(test_only);
    Report {
        benchmark_only,
        ..apply_waivers(all, config, linted.len())
    }
}

fn collect_rs_files(dir: &Path, sink: &mut dyn FnMut(&Path)) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, sink)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            sink(&path);
        }
    }
    Ok(())
}

/// Filters `findings` through the waivers, tracking which waivers (and which
/// per-item entries) were actually used so stale ones can be reported.
fn apply_waivers(findings: Vec<Violation>, config: &Config, files_scanned: usize) -> Report {
    let total = findings.len();
    // Per waiver: overall hit flag plus per-item hit flags.
    let mut used: Vec<(bool, Vec<bool>)> = config
        .waivers
        .iter()
        .map(|w| (false, vec![false; w.items.len()]))
        .collect();

    let mut surviving = Vec::new();
    for v in findings {
        let mut waived = false;
        for (wi, w) in config.waivers.iter().enumerate() {
            if !waiver_applies(w, &v) {
                continue;
            }
            used[wi].0 = true;
            if let Some(ii) = w.items.iter().position(|item| item == &v.item) {
                used[wi].1[ii] = true;
            }
            waived = true;
            // Keep scanning: other waivers listing the same item must also
            // be marked used? No — first match wins; additional identical
            // entries would be stale, which is what we want surfaced.
            break;
        }
        if !waived {
            surviving.push(v);
        }
    }
    surviving.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.item).cmp(&(&b.file, b.line, b.rule, &b.item))
    });

    let mut stale = Vec::new();
    for (w, (hit, item_hits)) in config.waivers.iter().zip(&used) {
        if !rules::RULE_IDS.contains(&w.rule.as_str()) {
            stale.push(format!(
                "lint.toml:{}: unknown rule `{}` (known: {})",
                w.defined_at,
                w.rule,
                rules::RULE_IDS.join(", ")
            ));
            continue;
        }
        if !hit {
            stale.push(format!(
                "lint.toml:{}: stale waiver — no `{}` finding in {}",
                w.defined_at, w.rule, w.file
            ));
            continue;
        }
        for (item, item_hit) in w.items.iter().zip(item_hits) {
            if !item_hit {
                stale.push(format!(
                    "lint.toml:{}: stale waiver item `{}` for `{}` in {}",
                    w.defined_at, item, w.rule, w.file
                ));
            }
        }
    }

    Report {
        violations: surviving,
        stale,
        total_findings: total,
        files_scanned,
        benchmark_only: Vec::new(),
    }
}

fn waiver_applies(w: &Waiver, v: &Violation) -> bool {
    if w.file != v.file || w.rule != v.rule {
        return false;
    }
    w.items.is_empty() || w.items.iter().any(|item| item == &v.item)
}

/// Renders the report the way the CLI prints it.
pub fn render(report: &Report) -> String {
    let mut out = String::new();
    for v in &report.violations {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            v.file, v.line, v.rule, v.message
        ));
    }
    for s in &report.stale {
        out.push_str(&format!("{s}\n"));
    }
    for v in &report.benchmark_only {
        out.push_str(&format!(
            "{}:{}: benchmark-only: {}\n",
            v.file, v.line, v.message
        ));
    }
    let waived = report.total_findings - report.violations.len();
    let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for v in &report.violations {
        *by_rule.entry(v.rule).or_default() += 1;
    }
    let breakdown = if by_rule.is_empty() {
        String::new()
    } else {
        format!(
            " ({})",
            by_rule
                .iter()
                .map(|(rule, n)| format!("{rule}: {n}"))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    out.push_str(&format!(
        "ebird-lint: {} file(s), {} finding(s), {} waived, {} violation(s){}{}\n",
        report.files_scanned,
        report.total_findings,
        waived,
        report.violations.len(),
        breakdown,
        if report.stale.is_empty() {
            String::new()
        } else {
            format!(", {} stale waiver(s)", report.stale.len())
        },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waived_findings_drop_and_stale_waivers_surface() {
        let cfg = Config::parse(
            "[[waiver]]\nfile = \"crates/core/src/a.rs\"\nrule = \"no-hash-iteration\"\nreason = \"keyed lookups only\"\n\
             [[waiver]]\nfile = \"crates/core/src/gone.rs\"\nrule = \"no-hash-iteration\"\nreason = \"stale\"\n",
        )
        .expect("valid config");
        let report = lint_sources(
            &[(
                "core",
                "crates/core/src/a.rs",
                "use std::collections::HashMap;\n",
            )],
            &cfg,
        );
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.stale.len(), 1, "{:?}", report.stale);
        assert!(report.stale[0].contains("gone.rs"));
        assert!(!report.is_clean());
    }

    #[test]
    fn item_level_waivers_track_usage_per_item() {
        let cfg = Config::parse(
            "[[waiver]]\nfile = \"crates/serve/src/a.rs\"\nrule = \"no-panic-path\"\nitems = [\"expect(\\\"live\\\")\", \"expect(\\\"gone\\\")\"]\nreason = \"invariants\"\n",
        )
        .expect("valid config");
        let report = lint_sources(
            &[(
                "serve",
                "crates/serve/src/a.rs",
                "fn f(x: Option<u8>) -> u8 { x.expect(\"live\") }\n",
            )],
            &cfg,
        );
        assert!(report.violations.is_empty());
        assert_eq!(report.stale.len(), 1);
        assert!(
            report.stale[0].contains("expect(\"gone\")"),
            "{:?}",
            report.stale
        );
    }
}
