//! Fixture: a `pub use` re-export of `doubled` — not a use of it.

pub use crate::fixture::doubled;
