//! Fixture: names `A`, and defines a second `new` and a second `helper`.

struct B;

impl B {
    fn new() -> B {
        let _ = crate::a::A;
        B
    }
}

fn helper() {}
