//! Fixture: violations inside a `#[cfg(test)]` module must NOT fire.
//! Expected finding count: zero.

fn live() -> u32 {
    1
}

#[cfg(test)]
mod tests {
    #[test]
    fn free_to_panic_and_time() {
        Some(1).unwrap();
        let _ = std::time::Instant::now();
        let _h = std::thread::spawn(|| {});
    }
}
