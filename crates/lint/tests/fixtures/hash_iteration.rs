//! Fixture: exactly one `HashMap` mention in a determinism-critical crate.
//! Scanned as `crates/core/src/fixture.rs`; must fire `no-hash-iteration`
//! exactly once.

type Index = std::collections::HashMap<u32, u32>;
