//! `repro all` is the experiment table walked in paper order: its stdout is
//! each experiment's stdout, run alone, concatenated in that order.

use std::process::Command;

/// The paper experiments in the order `all` runs them.
const PAPER_ORDER: [&str; 15] = [
    "table1",
    "app-normality",
    "iter-normality",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "metrics",
    "earlybird",
    "answer",
    "battery",
    "fit",
];

fn repro(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "repro {args:?}: {out:?}");
    out.stdout
}

#[test]
fn all_is_every_experiment_alone_in_paper_order() {
    let all = repro(&["--scale", "ci", "--threads", "2", "all"]);
    let singles: Vec<u8> = PAPER_ORDER
        .iter()
        .flat_map(|name| repro(&["--scale", "ci", "--threads", "2", name]))
        .collect();
    assert!(!all.is_empty());
    assert!(
        all == singles,
        "`all` is not the experiments in paper order"
    );
}

#[test]
fn the_smoke_preset_prints_48_rows() {
    let rows = repro(&["--preset", "smoke", "scenarios"]);
    let rows = String::from_utf8(rows).unwrap();
    assert_eq!(rows.lines().count(), 48);
    assert!(rows.lines().all(|r| r.starts_with('{') && r.ends_with('}')));
}
