//! Fixture: live code in another file that names `doubled`, which makes
//! it a use.

fn quadrupled(x: u32) -> u32 {
    ebird_core::fixture::doubled(ebird_core::fixture::doubled(x))
}
