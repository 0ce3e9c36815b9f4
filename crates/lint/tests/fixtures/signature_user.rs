//! Fixture: live code in another file that calls `boiling`.

fn sea_level() {
    let _ = ebird_stats::fixture::boiling(0.0);
}
