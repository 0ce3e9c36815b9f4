//! JSON text cannot move across versions, and it reads back exactly.
//!
//! Content keys hash a cell spec's JSON text, the cold tier stores rows as
//! JSON text, and clients parse reply lines, so a serializer change that
//! moves one byte orphans every cached row. The constants below were
//! recorded from the serializer that built a value tree and rendered it;
//! the direct writer must reproduce them exactly. The property checks the
//! other direction: whatever the writer prints parses back to the same
//! value, every float bit for bit.

use early_bird::analysis::report::json_line;
use early_bird::cluster::WorkloadSpec;
use early_bird::partcomm::{NetModelSpec, Strategy};
use early_bird::runtime::Pool;
use early_bird::serve::protocol::{reply_line, MatrixSource, Request};
use early_bird::serve::scenario::{run_matrix, CellSpec, ScenarioMatrix, ScenarioRow};
use early_bird::serve::{CacheConfig, ContentKey, ResultCache};
use proptest::prelude::*;

fn digest(text: &str) -> String {
    ContentKey::of(text).hex()
}

/// Every character class the writer treats differently.
const ODD_TEXT: &str = "q\"b\\s n\n r\r t\t c\u{1} é ∞";

#[test]
fn json_text_is_pinned() {
    // Every content key and row line of the `full` and `smoke` presets, and
    // the cold-tier file `smoke` leaves behind.
    let dir = std::env::temp_dir().join(format!("json-text-pinned-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::new(CacheConfig {
        cold_dir: Some(dir.clone()),
        hot_budget_bytes: None,
    })
    .unwrap();
    let mut keys_and_rows = String::new();
    for matrix in [ScenarioMatrix::full(), ScenarioMatrix::smoke()] {
        let cells = matrix.resolve().unwrap().cells();
        let rows = run_matrix(&matrix, &Pool::new(1)).unwrap();
        assert_eq!(cells.len(), rows.len());
        for (cell, row) in cells.iter().zip(&rows) {
            let key = cell.content_key();
            let line = json_line(row).unwrap();
            keys_and_rows += &serde_json::to_string(&cell.spec).unwrap();
            keys_and_rows += &format!("\n{}\n{line}\n", key.hex());
            if matrix == ScenarioMatrix::smoke() {
                cache.insert(&key, line);
            }
        }
    }
    cache.flush().unwrap();
    let cold = std::fs::read_to_string(dir.join("results.jsonl")).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(digest(&keys_and_rows), "958a3f3ddbdd7cfd9af76f121477d294");
    assert_eq!(digest(&cold), "1dde7135bc197bac90d28e7dd834259f");

    // One reply line per request shape.
    let preset = |name: &str| MatrixSource::Preset(name.into());
    let requests = [
        (
            Request::Submit {
                matrix: preset("smoke"),
                priority: -3,
            },
            r#"{"verb":"submit","preset":"smoke","priority":-3}"#,
        ),
        (
            Request::Fetch {
                matrix: preset("full"),
            },
            r#"{"verb":"fetch","preset":"full"}"#,
        ),
        (Request::Status, r#"{"verb":"status"}"#),
        (Request::Metrics, r#"{"verb":"metrics"}"#),
        (Request::Shutdown, r#"{"verb":"shutdown"}"#),
    ];
    for (request, line) in requests {
        assert_eq!(reply_line(&request), line);
    }
    let inline = reply_line(&Request::Submit {
        matrix: MatrixSource::Inline(ScenarioMatrix::workload()),
        priority: 7,
    }) + &reply_line(&Request::Fetch {
        matrix: MatrixSource::Inline(ScenarioMatrix::preset("topology").unwrap()),
    });
    assert_eq!(digest(&inline), "24b2020283719352d3ed70bc78729560");

    // The edge values of the number and string rules.
    let f64_max = format!("17976931348623157{}", "0".repeat(292));
    let numbers: [(f64, &str); 8] = [
        (-0.0, "-0.0"),
        (1e15, "1000000000000000"),
        (-1e15, "-1000000000000000"),
        (123456789012345.0, "123456789012345.0"),
        (0.1, "0.1"),
        (1e-7, "0.0000001"),
        (f64::MAX, &f64_max),
        (f64::NAN, "null"),
    ];
    for (x, text) in numbers {
        assert_eq!(serde_json::to_string(&x).unwrap(), text, "{x:e}");
    }
    assert_eq!(serde_json::to_string(&f64::INFINITY).unwrap(), "null");
    assert_eq!(
        serde_json::to_string(&u64::MAX).unwrap(),
        "18446744073709551615"
    );
    assert_eq!(
        serde_json::to_string(&i64::MIN).unwrap(),
        "-9223372036854775808"
    );
    assert_eq!(
        serde_json::to_string(&ODD_TEXT).unwrap(),
        r#""q\"b\\s n\n r\r t\t c\u0001 é ∞""#
    );
}

/// A finite double from a raw bit pattern: one draw in eight is integral
/// within ±2e15 (so on both sides of the 1e15 where the writer stops
/// printing `.0`), one subnormal or zero of either sign, one `-0.0`, and
/// the rest any finite pattern (a NaN or infinity loses its top exponent
/// bit).
fn finite(bits: u64) -> f64 {
    match bits % 8 {
        0 => ((bits >> 3) % 4_000_000_000_000_000) as f64 - 2e15,
        1 => f64::from_bits((bits >> 12) | (bits << 63)),
        2 => -0.0,
        _ => {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                x
            } else {
                f64::from_bits(bits & !(1 << 62))
            }
        }
    }
}

fn model_floats(model: &NetModelSpec) -> Vec<f64> {
    match *model {
        NetModelSpec::Fabric { contention, .. } => vec![contention],
        NetModelSpec::Hierarchical {
            nic_contention,
            uplink_contention,
            ..
        } => vec![nic_contention, uplink_contention],
        NetModelSpec::LogGP {
            latency_ms,
            gap_ms,
            gap_per_byte_ms,
            contention,
        } => vec![latency_ms, gap_ms, gap_per_byte_ms, contention],
    }
}

fn strategy_floats(strategy: &Strategy) -> Vec<f64> {
    match *strategy {
        Strategy::TimeoutFlush { timeout_ms } => vec![timeout_ms],
        _ => Vec::new(),
    }
}

fn spec_floats(s: &CellSpec) -> Vec<f64> {
    let mut out = vec![s.contention, s.deadline_ms];
    out.extend(model_floats(&s.model));
    out.extend(strategy_floats(&s.strategy));
    out
}

fn matrix_floats(m: &ScenarioMatrix) -> Vec<f64> {
    let mut out = vec![m.contention, m.deadline_ms];
    out.extend(m.models.iter().flat_map(model_floats));
    out.extend(m.strategies.iter().flat_map(strategy_floats));
    out
}

fn row_floats(r: &ScenarioRow) -> Vec<f64> {
    vec![
        r.contention,
        r.completion_ms,
        r.last_arrival_ms,
        r.exposed_ms,
        r.wire_ms,
        r.bulk_exposed_ms,
        r.speedup_vs_bulk,
    ]
}

fn bits(xs: Vec<f64>) -> Vec<u64> {
    xs.into_iter().map(f64::to_bits).collect()
}

/// Serializes `$x`, parses the text back as `$ty`, and requires equality
/// with every float compared by its bits.
macro_rules! assert_round_trip {
    ($ty:ty, $x:expr, $floats:expr) => {{
        let text = serde_json::to_string(&$x).unwrap();
        let back: $ty = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        prop_assert_eq!(&back, &$x, "{}", text);
        prop_assert_eq!(bits($floats(&back)), bits($floats(&$x)), "{}", text);
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_text_round_trips_bit_for_bit(
        raw in proptest::collection::vec(0u64..u64::MAX, 12..13),
        ints in proptest::collection::vec(0usize..usize::MAX, 4..5),
        seed in 0u64..u64::MAX,
    ) {
        let f: Vec<f64> = raw.iter().map(|&b| finite(b)).collect();
        let model = NetModelSpec::LogGP {
            latency_ms: f[0],
            gap_ms: f[1],
            gap_per_byte_ms: f[2],
            contention: f[3],
        };
        let strategy = Strategy::TimeoutFlush { timeout_ms: f[4] };
        let spec = CellSpec {
            app: ODD_TEXT.into(),
            workload: WorkloadSpec::Named { name: ODD_TEXT.into() },
            strategy,
            link: ODD_TEXT.into(),
            model: model.clone(),
            noise: "laggard".into(),
            ranks: ints[0],
            threads: ints[1],
            bytes_per_rank: ints[2],
            contention: f[5],
            iteration: ints[3],
            seed,
            deadline_ms: f[6],
        };
        assert_round_trip!(CellSpec, spec, spec_floats);

        let matrix = ScenarioMatrix {
            strategies: vec![Strategy::Bulk, strategy],
            models: vec![
                model,
                NetModelSpec::Fabric { link: ODD_TEXT.into(), contention: f[7] },
            ],
            contention: f[5],
            deadline_ms: f[6],
            seed,
            ..ScenarioMatrix::smoke()
        };
        assert_round_trip!(ScenarioMatrix, matrix, matrix_floats);

        let row = ScenarioRow {
            app: ODD_TEXT.into(),
            strategy: "timeout".into(),
            link: ODD_TEXT.into(),
            noise: "baseline".into(),
            ranks: ints[0],
            threads: ints[1],
            bytes_per_rank: ints[2],
            contention: f[5],
            completion_ms: f[8],
            last_arrival_ms: f[9],
            exposed_ms: f[10],
            messages: ints[3],
            wire_ms: f[11],
            bulk_exposed_ms: f[0],
            speedup_vs_bulk: f[1],
            transport_verified: seed % 2 == 0,
        };
        assert_round_trip!(ScenarioRow, row, row_floats);
    }
}
