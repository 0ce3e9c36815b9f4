//! Fixture: a wire struct with one field missing `#[serde(default)]`.
//! Scanned as `crates/serve/src/protocol.rs`; must fire `serde-default`
//! exactly once (on `Wire.seed_field`, not the defaulted field).

use serde::Deserialize;

#[derive(Debug, Deserialize)]
struct Wire {
    pub seed_field: u64,
    #[serde(default)]
    pub added_field: u32,
}
