//! Fixture: `new` is defined again in `method_names_other.rs`, and that
//! definition does not use it; `probe` is defined once and only tests could
//! call it; `helper` is a free function, which another file's definition
//! does not use either. Must fire `no-test-only-pub` on `new`, `probe` and
//! `helper`.

pub struct A;

impl A {
    pub fn new() -> A {
        A
    }

    pub fn probe(&self) {}
}

pub fn helper() {}
