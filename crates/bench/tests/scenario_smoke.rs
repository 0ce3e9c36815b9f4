//! End-to-end smoke of the multi-rank scenario campaign: the CI matrix runs,
//! every cell is transport-verified, rows are well-formed JSON lines, and
//! 1-rank fabric cells are bit-identical to the single-sender `SerialLink`
//! simulation.

use ebird_analysis::report::json_lines;
use ebird_cluster::{NoiseRegime, SyntheticApp};
use ebird_partcomm::{
    link_by_name, run_delivery, DeliveryOutcome, LinkModel, SerialLink, SimScratch, Strategy,
};
use ebird_runtime::Pool;
use ebird_serve::scenario::{run_matrix, ScenarioMatrix};

/// One strategy for one sender over a fresh link.
fn simulate(
    arrivals_ms: &[f64],
    bytes_total: usize,
    link: &LinkModel,
    strategy: Strategy,
) -> DeliveryOutcome {
    run_delivery(
        &mut SerialLink::new(*link),
        &[arrivals_ms],
        bytes_total,
        strategy,
        &mut SimScratch::new(),
    )
}

#[test]
fn smoke_matrix_runs_and_verifies_every_cell() {
    let matrix = ScenarioMatrix::smoke();
    let pool = Pool::new(2);
    let rows = run_matrix(&matrix, &pool).unwrap();
    assert_eq!(rows.len(), matrix.len());
    assert!(rows.len() >= 24, "campaign must span ≥ 24 scenarios");

    // Every (app, strategy, link, noise, ranks) tuple is distinct.
    let mut keys: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{}|{}|{}|{}|{}",
                r.app, r.strategy, r.link, r.noise, r.ranks
            )
        })
        .collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), rows.len(), "duplicate scenario cells");

    for r in &rows {
        assert!(
            r.transport_verified,
            "{}/{}/{} ranks",
            r.app, r.noise, r.ranks
        );
        assert!(
            r.completion_ms >= r.last_arrival_ms,
            "{}: completion {} < last arrival {}",
            r.strategy,
            r.completion_ms,
            r.last_arrival_ms
        );
        assert!(r.exposed_ms >= 0.0 && r.wire_ms > 0.0 && r.messages >= 1);
        if r.strategy == "bulk" {
            assert_eq!(r.messages, r.ranks, "bulk sends one message per rank");
            assert_eq!(r.speedup_vs_bulk, 1.0);
        }
    }

    // One JSON object per row, independently parseable fields.
    let json = json_lines(&rows).unwrap();
    let lines: Vec<&str> = json.lines().collect();
    assert_eq!(lines.len(), rows.len());
    for line in lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"transport_verified\":true"), "{line}");
    }
}

#[test]
fn one_rank_scenarios_are_bit_identical_to_serial_link_simulation() {
    let matrix = ScenarioMatrix::smoke();
    let pool = Pool::new(2);
    let rows = run_matrix(&matrix, &pool).unwrap();
    let strategies = [
        Strategy::Bulk,
        Strategy::EarlyBird,
        Strategy::TimeoutFlush { timeout_ms: 1.0 },
        Strategy::Binned { bins: 6 },
    ];
    let mut checked = 0usize;
    for row in rows.iter().filter(|r| r.ranks == 1) {
        let app = SyntheticApp::by_name(&row.app)
            .unwrap()
            .with_noise_regime(NoiseRegime::parse(&row.noise).unwrap());
        let arrivals =
            app.process_iteration_ms(matrix.seed, 0, 0, matrix.iteration, matrix.threads);
        let strategy = *strategies
            .iter()
            .find(|s| s.label() == row.strategy)
            .expect("known strategy label");
        let link = link_by_name(&row.link).unwrap();
        let solo = simulate(&arrivals, matrix.bytes_per_rank, &link, strategy);
        assert_eq!(row.completion_ms, solo.completion_ms, "{}", row.strategy);
        assert_eq!(row.last_arrival_ms, solo.last_arrival_ms);
        assert_eq!(row.wire_ms, solo.wire_ms);
        assert_eq!(row.messages, solo.messages);
        assert_eq!(row.exposed_ms, solo.exposed_ms());
        checked += 1;
    }
    // smoke: 3 apps × 4 strategies × 1 link × 2 noise regimes at 1 rank.
    assert_eq!(checked, 24);
}

#[test]
fn workload_smoke_real_kernel_row_matches_direct_simulation() {
    // Every workload kind feeds the same delivery kernel as the named apps:
    // a 1-rank RealKernel cell must price bit-identically to the
    // single-sender SerialLink simulation over the workload's own metered
    // arrivals — and those arrivals must be reproducible out-of-band.
    use ebird_cluster::{RealKernelParams, Workload, WorkloadSpec};
    let mut m = ScenarioMatrix::workload_smoke();
    m.ranks = vec![1];
    m.strategies = vec![Strategy::EarlyBird];
    let rows = run_matrix(&m, &Pool::new(2)).unwrap();
    let row = rows
        .iter()
        .find(|r| r.app == "real(MiniFE)")
        .expect("real-kernel row present");
    assert!(row.transport_verified);
    let workload = WorkloadSpec::RealKernel {
        app: "MiniFE".into(),
        params: RealKernelParams::default(),
    }
    .resolve()
    .unwrap();
    let arrivals = workload
        .rank_arrivals_ms(m.seed, 1, m.iteration, m.threads)
        .unwrap();
    let link = link_by_name("omni-path").unwrap();
    let solo = simulate(&arrivals[0], m.bytes_per_rank, &link, Strategy::EarlyBird);
    assert_eq!(row.completion_ms, solo.completion_ms);
    assert_eq!(row.last_arrival_ms, solo.last_arrival_ms);
    assert_eq!(row.exposed_ms, solo.exposed_ms());
    assert_eq!(row.messages, solo.messages);
}

#[test]
fn custom_matrix_round_trips_through_json() {
    let mut m = ScenarioMatrix::smoke();
    m.ranks = vec![1, 2];
    m.noise = vec!["turbulent".into()];
    m.strategies = vec![Strategy::Bulk, Strategy::EarlyBird];
    let encoded = serde_json::to_string(&m).unwrap();
    let decoded: ScenarioMatrix = serde_json::from_str(&encoded).unwrap();
    assert_eq!(m, decoded);
    let rows = run_matrix(&decoded, &Pool::new(1)).unwrap();
    // 3 apps × 2 strategies × 1 link × 1 noise regime × 2 rank counts.
    assert_eq!(rows.len(), 12);
}
