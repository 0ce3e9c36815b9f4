//! Fixture: `Celsius` is named outside its file only through `boiling`'s
//! signature; narrowing it would trip `private_interfaces`, so neither
//! fires once another file calls `boiling`.

pub struct Celsius(f64);

pub fn boiling(
    altitude_m: f64,
) -> Celsius {
    Celsius(100.0 - altitude_m / 300.0)
}
