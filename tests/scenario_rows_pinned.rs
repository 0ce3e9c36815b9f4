//! Scenario rows cannot move across versions.
//!
//! The campaign service caches every row under its cell's content key
//! forever, and CI only diffs served output against the *same* binary's
//! offline output — a change to the pricing arithmetic would move both and
//! pass. These hashes were recorded from `repro scenarios` JSON Lines output
//! of the commit before the network models became one `Fabric` (every preset,
//! a LogGP matrix whose gap binds, a hierarchy with a partial last node); a
//! row that moves by one bit changes its matrix's hash.

use early_bird::analysis::report::json_lines;
use early_bird::runtime::Pool;
use early_bird::serve::scenario::{run_matrix, ScenarioMatrix};
use early_bird::serve::ContentKey;

/// 3 apps × 4 strategies × 2 noise regimes × ranks 1 and 3, over LogGP
/// channels whose 0.25 ms gap throttles 16 partitions per rank.
const LOGGP_GAP: &str = r#"{"workloads":[{"Named":{"name":"MiniFE"}},{"Named":{"name":"MiniMD"}},{"Named":{"name":"MiniQMC"}}],"strategies":["Bulk","EarlyBird",{"TimeoutFlush":{"timeout_ms":0.5}},{"Binned":{"bins":4}}],"models":[{"LogGP":{"latency_ms":0.05,"gap_ms":0.25,"gap_per_byte_ms":1e-6,"contention":0.75}}],"noise":["baseline","laggard"],"ranks":[1,3],"threads":16,"bytes_per_rank":2000000,"contention":0.5,"iteration":25,"seed":20230421}"#;

/// The same axes over a two-per-node hierarchy at 3 and 5 ranks: the last
/// node holds one rank.
const HIER_PARTIAL: &str = r#"{"workloads":[{"Named":{"name":"MiniFE"}},{"Named":{"name":"MiniMD"}},{"Named":{"name":"MiniQMC"}}],"strategies":["Bulk","EarlyBird",{"TimeoutFlush":{"timeout_ms":0.5}},{"Binned":{"bins":4}}],"models":[{"Hierarchical":{"link":"high-latency","uplink":"omni-path","ranks_per_node":2,"nic_contention":0.75,"uplink_contention":0.25}}],"noise":["baseline","laggard"],"ranks":[3,5],"threads":16,"bytes_per_rank":2000000,"contention":0.5,"iteration":25,"seed":20230421}"#;

/// `ContentKey` hex of each matrix's JSON Lines table.
const PINNED: [(&str, &str); 8] = [
    ("full", "4ec25624ad290df58344ee49dd0469f4"),
    ("smoke", "9e21d0a7aa536064cfb997e6ea3ca400"),
    ("topology", "f6b668384baa86eb27c50cd0e84b9fa1"),
    ("topology-smoke", "2f0d3e9534e2805dea7189d1f7b643d7"),
    ("workload", "1709104946ffb34c7a85f20824267938"),
    ("workload-smoke", "b8a899d2ebc3f5a68cd952324509078b"),
    ("loggp-gap", "8f40d91bfd76a9e7a9017c4559876a27"),
    ("hier-partial", "592800a6a6ed432a78b04864323dcefd"),
];

#[test]
fn every_preset_and_topology_prices_the_rows_it_always_did() {
    let pool = Pool::new(1);
    for (name, hex) in PINNED {
        let matrix = match name {
            "loggp-gap" => serde_json::from_str(LOGGP_GAP).unwrap(),
            "hier-partial" => serde_json::from_str(HIER_PARTIAL).unwrap(),
            preset => ScenarioMatrix::preset(preset).unwrap(),
        };
        let rows = run_matrix(&matrix, &pool).unwrap();
        let table = json_lines(&rows).unwrap();
        assert_eq!(ContentKey::of(table).hex(), hex, "{name}");
    }
}
