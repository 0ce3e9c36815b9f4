//! Fixture: banned tokens in comments and string literals must NOT fire.
//! A `HashMap` here is prose, as is `Instant::now` or `.unwrap()`.
//! Expected finding count: zero.

fn describe() -> &'static str {
    // thread::spawn in a comment is also fine.
    "uses HashMap and Instant::now and thread::spawn and .unwrap() and .expect(\"x\")"
}
