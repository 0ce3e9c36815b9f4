//! Fixture: ordinary deterministic code; no rule may fire.

use std::collections::BTreeMap;

fn histogram(values: &[u32]) -> BTreeMap<u32, usize> {
    let mut out = BTreeMap::new();
    for &v in values {
        *out.entry(v).or_insert(0) += 1;
    }
    out
}
