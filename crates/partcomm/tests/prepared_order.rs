//! One order per arrival set, any number of strategies.
//!
//! `run_deliveries` validates and orders its arrival sets once and prices
//! every strategy of the call against that order; these proptests pin
//!
//! * a k-strategy call on a shared model and a dirty, reused scratch against
//!   k one-strategy `run_delivery` calls, each on a fresh model and a fresh
//!   scratch — bit for bit, for every network model;
//! * `arrival_order` against the comparator sort it replaced
//!   (`partial_cmp().then(index)`, stable),
//!
//! on arrival sets built to hit the order's edge cases: heavy ties, both
//! zeros, single-partition ranks, ranks of unequal length — and, since the
//! order packs `(arrival bits, partition)` into one word when the set's bit
//! range leaves the index room and sorts pairs when it does not, on sets of
//! either kind, up to a range sitting exactly on the packing limit.

use ebird_partcomm::{
    arrival_order, run_deliveries, run_delivery, DeliveryOutcome, Fabric, LinkModel, NetModel,
    NetModelSpec, SerialLink, SimScratch, Strategy,
};
use proptest::prelude::*;

/// Deterministic `u64` stream (xorshift64*): the cases below need more
/// values than the strategy combinators conveniently give.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// `ranks` arrival sets of unequal length (1..=`max_len` partitions): values
/// on a coarse grid (most arrivals tied with another), a few off-grid, and
/// both zeros stamped into the first rank.
fn rank_arrivals(ranks: usize, max_len: usize, next: &mut impl FnMut() -> u64) -> Vec<Vec<f64>> {
    let mut sets: Vec<Vec<f64>> = (0..ranks)
        .map(|_| {
            let len = 1 + (next() as usize) % max_len;
            (0..len)
                .map(|_| match next() % 4 {
                    0 => (next() % 1_000_000) as f64 / 1.0e4,
                    _ => (next() % 12) as f64 * 0.5,
                })
                .collect()
        })
        .collect();
    let first = &mut sets[0];
    let len = first.len();
    let at = (next() as usize) % len;
    first[at] = -0.0;
    if len > 1 {
        first[(at + 1) % len] = 0.0;
    }
    sets
}

/// The order `arrival_order` must produce: the stable comparator sort it
/// replaced.
fn comparator_order(arrivals: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..arrivals.len()).collect();
    order.sort_by(|&a, &b| {
        arrivals[a]
            .partial_cmp(&arrivals[b])
            .expect("finite")
            .then(a.cmp(&b))
    });
    order
}

/// Partition counts around the index-width steps (0, 1, 6, 6 | 7, 9 bits).
const SIZES: [usize; 8] = [1, 2, 47, 48, 63, 64, 65, 300];

/// Five `n`-partition arrival sets, one per way the order's key can come out:
/// (a) a µs grid around 25 ms, heavily tied — what a measured set looks like,
/// a few thousand ulps wide; (b) both zeros, the smallest subnormal and 1.0
/// mixed — 2⁶² bit patterns wide, packable only while `n ≤ 2`; (c) values
/// over `0.0 … 1e300`; (d) two sets whose bit range is exactly the widest
/// that still packs beside `n`'s index, and one pattern wider.
fn route_sets(n: usize, next: &mut impl FnMut() -> u64) -> [Vec<f64>; 5] {
    let grid = (0..n)
        .map(|_| 25.0 + (next() % 40) as f64 * 1.0e-3)
        .collect();
    let zeros = (0..n)
        .map(|_| [0.0, -0.0, 5e-324, 1.0][(next() % 4) as usize])
        .collect();
    let mut wide: Vec<f64> = (0..n)
        .map(|_| f64::from_bits(next() % 1.0e300f64.to_bits()))
        .collect();
    wide[(next() as usize) % n] = 0.0;
    wide[(next() as usize) % n] = 1.0e300;
    // The index takes the bits of `n − 1`; the range gets the rest of the
    // word. No finite range reaches the limit while `n ≤ 2` (the limit is
    // then past the largest finite pattern), so those sets stay narrow.
    let index_bits = usize::BITS - (n - 1).leading_zeros();
    let low = next() % 1000;
    let [at_limit, past_limit] = [0, 1].map(|past| {
        let mut edge: Vec<f64> = (0..n).map(|_| f64::from_bits(low + next() % 8)).collect();
        if index_bits >= 2 {
            // The set's smallest and largest pattern, side by side somewhere.
            let at = (next() as usize) % (n - 1);
            edge[at] = f64::from_bits(low);
            edge[at + 1] = f64::from_bits(low + (u64::MAX >> index_bits) + past);
        }
        edge
    });
    [grid, zeros, wide, at_limit, past_limit]
}

/// Every float of an outcome as bits (`PartialEq` alone would let `-0.0`
/// pass for `0.0`), plus its count.
fn bits(o: &DeliveryOutcome) -> [u64; 4] {
    [
        o.completion_ms.to_bits(),
        o.last_arrival_ms.to_bits(),
        o.wire_ms.to_bits(),
        o.messages as u64,
    ]
}

/// Builds a fresh (idle) model.
type MakeModel = Box<dyn Fn() -> Box<dyn NetModel>>;

/// The network model's four settings over `ranks` ranks (`SerialLink` is
/// single-rank by definition, so it is offered for one rank only).
fn models(ranks: usize) -> Vec<(&'static str, MakeModel)> {
    let link = LinkModel::new(0.013, 1.0e-7);
    let hierarchical = NetModelSpec::Hierarchical {
        link: "omni-path".into(),
        uplink: "high-latency".into(),
        ranks_per_node: 2,
        nic_contention: 0.5,
        uplink_contention: 0.25,
    };
    let loggp = NetModelSpec::LogGP {
        latency_ms: 0.013,
        gap_ms: 0.002,
        gap_per_byte_ms: 1.0e-7,
        contention: 0.5,
    };
    let [hierarchical, loggp] = [hierarchical, loggp].map(|spec| spec.resolve().unwrap());
    let mut all: Vec<(&'static str, MakeModel)> = vec![
        (
            "fabric",
            Box::new(move || Box::new(Fabric::new(ranks, link, 0.5))),
        ),
        (
            "hierarchical",
            Box::new(move || Box::new(hierarchical.build(ranks))),
        ),
        ("loggp", Box::new(move || Box::new(loggp.build(ranks)))),
    ];
    if ranks == 1 {
        all.push(("serial", Box::new(move || Box::new(SerialLink::new(link)))));
    }
    all
}

/// One call pricing `strategies` on a shared model and `scratch` must equal
/// one fresh-model, fresh-scratch `run_delivery` per strategy.
fn assert_shared_order_prices_like_separate_calls<const K: usize>(
    make: &dyn Fn() -> Box<dyn NetModel>,
    sets: &[Vec<f64>],
    bytes: usize,
    strategies: [Strategy; K],
    scratch: &mut SimScratch,
    what: &str,
) {
    let together = run_deliveries(&mut *make(), sets, bytes, strategies, scratch);
    for (got, s) in together.iter().zip(strategies) {
        let alone = run_delivery(&mut *make(), sets, bytes, s, &mut SimScratch::new());
        assert_eq!(got, &alone, "{what}: {}", s.label());
        assert_eq!(bits(got), bits(&alone), "{what}: {}", s.label());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn many_strategies_on_one_order_equal_one_call_each(seed in 0u64..u64::MAX) {
        let mut next = xorshift(seed);
        // One scratch for the whole case: sets of different rank counts and
        // sizes, larger and smaller alternating, leave it dirty in every way
        // a sweep can.
        let mut scratch = SimScratch::new();
        for (ranks, max_len) in [(3, 40), (1, 5), (4, 64), (1, 48), (2, 1)] {
            let sets = rank_arrivals(ranks, max_len, &mut next);
            let shortest = sets.iter().map(Vec::len).min().unwrap_or(1);
            let bytes = max_len + (next() % 1_000_000) as usize;
            let timeout_ms = 0.05 + (next() % 400) as f64 / 100.0;
            let bins = 1 + (next() as usize) % shortest;
            for (name, make) in models(ranks) {
                let what = format!("{name}, {ranks} rank(s) ≤ {max_len}");
                // All four kinds, arrival-following ones neither first nor
                // adjacent; then a call that follows no arrivals (nothing is
                // ordered) and one that prices the same strategy twice.
                assert_shared_order_prices_like_separate_calls(
                    &*make,
                    &sets,
                    bytes,
                    [
                        Strategy::Binned { bins },
                        Strategy::TimeoutFlush { timeout_ms },
                        Strategy::Bulk,
                        Strategy::EarlyBird,
                    ],
                    &mut scratch,
                    &what,
                );
                assert_shared_order_prices_like_separate_calls(
                    &*make,
                    &sets,
                    bytes,
                    [Strategy::Bulk, Strategy::Binned { bins }],
                    &mut scratch,
                    &what,
                );
                assert_shared_order_prices_like_separate_calls(
                    &*make,
                    &sets,
                    bytes,
                    [Strategy::EarlyBird, Strategy::Bulk, Strategy::EarlyBird],
                    &mut scratch,
                    &what,
                );
            }
        }
    }

    #[test]
    fn arrival_order_equals_the_comparator_sort(seed in 0u64..u64::MAX) {
        let mut next = xorshift(seed);
        let mut order = Vec::new();
        for max_len in [1, 2, 3, 48, 200] {
            for arrivals in rank_arrivals(3, max_len, &mut next) {
                let want = comparator_order(&arrivals);
                // `order` arrives dirty from the previous set.
                arrival_order(&arrivals, &mut order);
                prop_assert_eq!(&order, &want, "{:?}", arrivals);
            }
        }
    }

    #[test]
    fn packed_and_pair_orders_are_the_comparator_order(seed in 0u64..u64::MAX) {
        let mut next = xorshift(seed);
        let link = LinkModel::new(0.013, 1.0e-7);
        // One order buffer and one scratch across every size and route: a
        // pair-sorted set leaves keys behind that a packed one must ignore.
        let mut order = Vec::new();
        let mut scratch = SimScratch::new();
        for n in SIZES {
            for arrivals in route_sets(n, &mut next) {
                let want = comparator_order(&arrivals);
                arrival_order(&arrivals, &mut order);
                prop_assert_eq!(&order, &want, "{:?}", arrivals);

                let bytes = n + (next() % 1_000_000) as usize;
                let sets = [arrivals];
                for (name, make) in models(1) {
                    assert_shared_order_prices_like_separate_calls(
                        &*make,
                        &sets,
                        bytes,
                        [
                            Strategy::TimeoutFlush { timeout_ms: 0.75 },
                            Strategy::Bulk,
                            Strategy::EarlyBird,
                            Strategy::Binned { bins: 1 + n / 7 },
                        ],
                        &mut scratch,
                        &format!("{name}, {n} partitions"),
                    );
                }
                // The kernel injects in that order: early-bird over a
                // serial link is the comparator order walked by hand.
                let [arrivals] = sets;
                let mut by_hand = SerialLink::new(link);
                let mut done = 0.0f64;
                for &i in &want {
                    let part = bytes / n + usize::from(i < bytes % n);
                    done = done.max(by_hand.inject(arrivals[i], part));
                }
                let early = run_delivery(
                    &mut SerialLink::new(link),
                    &[&arrivals],
                    bytes,
                    Strategy::EarlyBird,
                    &mut scratch,
                );
                prop_assert_eq!(early.completion_ms.to_bits(), done.to_bits());
                prop_assert_eq!(early.wire_ms.to_bits(), by_hand.busy_ms().to_bits());
            }
        }
    }
}

#[test]
#[should_panic(expected = "finite and non-negative")]
fn arrival_order_rejects_what_its_integer_keys_cannot_order() {
    arrival_order(&[1.0, -1.0], &mut Vec::new());
}
