//! Fixture: exactly one `.expect(...)` on a serve path.
//! Must fire `no-panic-path` exactly once, with the message as the item.

fn must(x: Option<u32>) -> u32 {
    x.expect("fixture invariant")
}
