//! Fixture: exactly one `Instant::now` call outside the allowlist.
//! Must fire `no-wall-clock` exactly once.

fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}
