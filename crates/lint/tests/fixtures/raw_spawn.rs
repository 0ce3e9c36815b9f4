//! Fixture: exactly one raw `thread::spawn` outside `crates/runtime`.
//! Must fire `no-raw-spawn` exactly once.

fn fire() {
    std::thread::spawn(|| {}).join().ok();
}
