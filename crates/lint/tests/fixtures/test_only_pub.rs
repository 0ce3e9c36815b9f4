//! Fixture: a `pub fn` that only its own unit test calls.
//! Must fire `no-test-only-pub` exactly once.

pub fn doubled(x: u32) -> u32 {
    x * 2
}

#[cfg(test)]
mod tests {
    #[test]
    fn doubles() {
        assert_eq!(super::doubled(2), 4);
    }
}
