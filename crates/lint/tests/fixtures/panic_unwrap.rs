//! Fixture: exactly one `.unwrap()` on a serve path.
//! Must fire `no-panic-path` exactly once.

fn first(xs: &[u32]) -> u32 {
    xs.first().copied().unwrap()
}
