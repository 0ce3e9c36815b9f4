//! The oracle bound on aggregation over one serial link
//! ([`oracle_exposed_ms`]), in exposed cost:
//!
//! * its O(n²) table finds the best of all 2ⁿ⁻¹ groupings contiguous in
//!   arrival order, priced by the link itself;
//! * no canonical strategy delivers earlier: not `Bulk`, `EarlyBird` or
//!   `TimeoutFlush`, nor `Binned` when the bytes split evenly;
//! * with free messages (α = 0) it is early-bird, and with free bytes
//!   (β = 0) it is bulk.

use ebird_partcomm::{
    arrival_order, oracle_exposed_ms, run_delivery, LinkModel, SerialLink, SimScratch, Strategy,
};
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

/// One strategy's exposed cost for one sender over a fresh link.
fn simulate(arrivals_ms: &[f64], bytes_total: usize, link: LinkModel, s: Strategy) -> f64 {
    run_delivery(
        &mut SerialLink::new(link),
        &[arrivals_ms],
        bytes_total,
        s,
        &mut SimScratch::new(),
    )
    .exposed_ms()
}

fn oracle(arrivals_ms: &[f64], bytes_total: usize, link: LinkModel) -> f64 {
    oracle_exposed_ms(arrivals_ms, bytes_total, link, &mut SimScratch::new())
}

/// The least exposed cost over every grouping contiguous in arrival order:
/// bit `k` of a mask cuts the order after its `k`-th partition.
fn brute_force(arrivals_ms: &[f64], bytes_total: usize, link: LinkModel) -> f64 {
    let n = arrivals_ms.len();
    let mut order = Vec::new();
    arrival_order(arrivals_ms, &mut order);
    let part_bytes = |i: usize| bytes_total / n + usize::from(i < bytes_total % n);
    let mut best = f64::INFINITY;
    for mask in 0u32..1 << (n - 1) {
        let mut channel = SerialLink::new(link);
        let (mut bytes, mut completion_ms) = (0, 0.0);
        for (k, &i) in order.iter().enumerate() {
            bytes += part_bytes(i);
            if k == n - 1 || mask >> k & 1 == 1 {
                completion_ms = channel.inject(arrivals_ms[i], bytes);
                bytes = 0;
            }
        }
        best = best.min(completion_ms);
    }
    best - arrivals_ms[order[n - 1]]
}

/// α up to 0.1 ms, β up to 1 µs per byte, drawn independently.
fn arb_link() -> impl proptest::strategy::Strategy<Value = LinkModel> {
    proptest::collection::vec(0.0f64..1.0, 2..3)
        .prop_map(|u| LinkModel::new(0.1 * u[0], 1e-6 * u[1]))
}

proptest! {
    #[test]
    fn the_table_is_the_best_contiguous_grouping(
        arrivals in proptest::collection::vec(0.0f64..2.0, 1..13),
        bytes in 12usize..2_000_000,
        link in arb_link(),
    ) {
        prop_assert_eq!(oracle(&arrivals, bytes, link), brute_force(&arrivals, bytes, link));
    }

    #[test]
    fn no_canonical_strategy_beats_the_oracle(
        arrivals in proptest::collection::vec(0.0f64..5.0, 1..64),
        per_partition in 1usize..200_000,
        uneven in 0usize..2,
        timeout_ms in 0.01f64..3.0,
        link in arb_link(),
    ) {
        let n = arrivals.len();
        let bytes = n * per_partition + uneven;
        let bound = oracle(&arrivals, bytes, link);
        let mut strategies = vec![
            Strategy::Bulk,
            Strategy::EarlyBird,
            Strategy::TimeoutFlush { timeout_ms },
        ];
        if bytes % n == 0 {
            strategies.extend((1..=n).map(|bins| Strategy::Binned { bins }));
        }
        for s in strategies {
            let priced = simulate(&arrivals, bytes, link, s);
            prop_assert!(bound <= priced, "{s:?}: {bound} above {priced}");
        }
    }

    #[test]
    fn free_messages_make_it_early_bird_and_free_bytes_bulk(
        arrivals in proptest::collection::vec(0.0f64..5.0, 1..64),
        bytes in 64usize..2_000_000,
        cost in 1.0e-4f64..0.1,
    ) {
        for (link, s) in [
            (LinkModel::new(0.0, cost * 1.0e-5), Strategy::EarlyBird),
            (LinkModel::new(cost, 0.0), Strategy::Bulk),
        ] {
            let bound = oracle(&arrivals, bytes, link);
            let priced = simulate(&arrivals, bytes, link, s);
            prop_assert!((bound - priced).abs() <= 1e-9, "{s:?}: {bound} vs {priced}");
        }
    }
}
