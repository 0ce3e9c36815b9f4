//! Fixture: a hand-rolled span guard reading the wall clock directly
//! instead of taking its nanoseconds from an injected
//! `ebird_obs::TimeSource`. The obs wall-clock waiver is pinned to
//! `crates/obs/src/clock.rs`, so span-style timing anywhere else must
//! still fire `no-wall-clock` exactly once.

struct Span {
    start: std::time::Instant,
}

impl Span {
    fn open() -> Span {
        Span {
            start: std::time::Instant::now(),
        }
    }

    fn elapsed_ns(&self) -> u128 {
        self.start.elapsed().as_nanos()
    }
}
