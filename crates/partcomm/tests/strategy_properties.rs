//! Property-based invariants of the delivery strategies and the fabric.
//!
//! Whatever the arrival set, buffer size, or link model:
//!
//! * no strategy completes before the last arrival;
//! * `Binned { bins: 1 }` is bulk and `Binned { bins: n }` is early-bird
//!   (bit-identical, modulo the shared tie-break order);
//! * `TimeoutFlush` with a timeout past the last arrival is bulk (one flush
//!   carries everything);
//! * a 1-rank fabric is the single-sender `SerialLink` simulation, bit for
//!   bit, at any contention;
//! * the boundary-jumping `TimeoutFlush` equals the exhaustive per-tick scan.

use ebird_partcomm::{
    run_delivery, DeliveryOutcome, Fabric, LinkModel, SerialLink, SimScratch, Strategy,
};
// The partcomm `Strategy` enum shadows the prelude's generator trait of the
// same name; pull the trait in anonymously for method syntax and name it
// fully in return positions.
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

/// One strategy for one sender over a fresh link.
fn simulate(
    arrivals_ms: &[f64],
    bytes_total: usize,
    link: &LinkModel,
    strategy: Strategy,
) -> DeliveryOutcome {
    run_delivery(
        &mut SerialLink::new(*link),
        &[arrivals_ms],
        bytes_total,
        strategy,
        &mut SimScratch::new(),
    )
}

fn arb_arrivals() -> impl proptest::strategy::Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..100.0, 1..64)
}

fn arb_link() -> impl proptest::strategy::Strategy<Value = LinkModel> {
    (0.0f64..0.1).prop_map(|alpha| LinkModel::new(alpha, 1.0e-7))
}

/// Exhaustive per-tick reference scan with drift-free `k·timeout` ticks —
/// the oracle the production boundary-jumping implementation must match
/// bit-for-bit for arbitrary timeouts.
fn timeout_flush_full_scan(
    arrivals_ms: &[f64],
    bytes_total: usize,
    link: &LinkModel,
    timeout_ms: f64,
) -> (f64, usize) {
    let n = arrivals_ms.len();
    let last_arrival = arrivals_ms
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let part_bytes = |i: usize| -> usize {
        let q = bytes_total / n;
        let r = bytes_total % n;
        if i < r {
            q + 1
        } else {
            q
        }
    };
    let mut free_at = 0.0f64;
    let mut sent = vec![false; n];
    let mut done = 0.0f64;
    let mut messages = 0usize;
    let mut k = 1.0f64;
    loop {
        let flush_time = (k * timeout_ms).min(last_arrival);
        let group: Vec<usize> = (0..n)
            .filter(|&i| !sent[i] && arrivals_ms[i] <= flush_time)
            .collect();
        if !group.is_empty() {
            let bytes: usize = group.iter().map(|&i| part_bytes(i)).sum();
            let start = flush_time.max(free_at);
            free_at = start + link.transfer_ms(bytes);
            done = free_at;
            messages += 1;
            for &i in group.iter() {
                sent[i] = true;
            }
        }
        if sent.iter().all(|&s| s) {
            break;
        }
        k += 1.0;
    }
    (done, messages)
}

fn outcomes_bit_identical(a: &DeliveryOutcome, b: &DeliveryOutcome) -> bool {
    a.completion_ms == b.completion_ms
        && a.last_arrival_ms == b.last_arrival_ms
        && a.messages == b.messages
        && a.wire_ms == b.wire_ms
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn completion_never_precedes_last_arrival(
        arrivals in arb_arrivals(),
        link in arb_link(),
        timeout in 0.01f64..50.0,
        extra_bytes in 0usize..1_000_000,
    ) {
        let n = arrivals.len();
        let bytes = n + extra_bytes;
        let strategies = [
            Strategy::Bulk,
            Strategy::EarlyBird,
            Strategy::TimeoutFlush { timeout_ms: timeout },
            Strategy::Binned { bins: 1 + n / 2 },
        ];
        for s in strategies {
            let o = simulate(&arrivals, bytes, &link, s);
            prop_assert!(
                o.completion_ms >= o.last_arrival_ms,
                "{}: {} < {}",
                s.label(),
                o.completion_ms,
                o.last_arrival_ms
            );
            prop_assert!(o.messages >= 1);
        }
    }

    #[test]
    fn binned_one_is_bulk(arrivals in arb_arrivals(), link in arb_link()) {
        let bytes = arrivals.len() + 4096;
        let bulk = simulate(&arrivals, bytes, &link, Strategy::Bulk);
        let b1 = simulate(&arrivals, bytes, &link, Strategy::Binned { bins: 1 });
        prop_assert!(outcomes_bit_identical(&bulk, &b1));
    }

    #[test]
    fn binned_n_is_early_bird(arrivals in arb_arrivals(), link in arb_link()) {
        let bytes = arrivals.len() + 4096;
        let eb = simulate(&arrivals, bytes, &link, Strategy::EarlyBird);
        let bn = simulate(
            &arrivals,
            bytes,
            &link,
            Strategy::Binned { bins: arrivals.len() },
        );
        prop_assert!(outcomes_bit_identical(&eb, &bn));
    }

    #[test]
    fn late_timeout_is_bulk(arrivals in arb_arrivals(), link in arb_link()) {
        let bytes = arrivals.len() + 4096;
        let last = arrivals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // First flush boundary lands past every arrival: one message at
        // `min(timeout, last) = last` carrying the full buffer — bulk.
        let timeout = last + 1.0;
        let bulk = simulate(&arrivals, bytes, &link, Strategy::Bulk);
        let tf = simulate(
            &arrivals,
            bytes,
            &link,
            Strategy::TimeoutFlush { timeout_ms: timeout },
        );
        prop_assert!(outcomes_bit_identical(&bulk, &tf));
    }

    #[test]
    fn timeout_flush_matches_exhaustive_scan(
        arrivals in arb_arrivals(),
        link in arb_link(),
        timeout in 0.05f64..120.0,
    ) {
        let bytes = arrivals.len() + 65_536;
        let (done, messages) = timeout_flush_full_scan(&arrivals, bytes, &link, timeout);
        let o = simulate(
            &arrivals,
            bytes,
            &link,
            Strategy::TimeoutFlush { timeout_ms: timeout },
        );
        prop_assert_eq!(o.messages, messages);
        prop_assert_eq!(o.completion_ms, done);
    }

    #[test]
    fn one_rank_fabric_reduces_to_serial_link(
        arrivals in arb_arrivals(),
        link in arb_link(),
        contention in 0.0f64..1.0,
        timeout in 0.05f64..50.0,
    ) {
        let bytes = arrivals.len() + 32_768;
        let strategies = [
            Strategy::Bulk,
            Strategy::EarlyBird,
            Strategy::TimeoutFlush { timeout_ms: timeout },
            Strategy::Binned { bins: arrivals.len() },
        ];
        let mut scratch = SimScratch::new();
        for s in strategies {
            let solo = simulate(&arrivals, bytes, &link, s);
            let whole = run_delivery(
                &mut Fabric::new(1, link, contention),
                std::slice::from_ref(&arrivals),
                bytes,
                s,
                &mut scratch,
            );
            prop_assert_eq!(&whole, &solo, "{}", s.label());
        }
    }

    #[test]
    fn fabric_contention_never_speeds_the_job_up(
        arrivals in arb_arrivals(),
        link in arb_link(),
        ranks in 2usize..6,
    ) {
        let bytes = arrivals.len() + 32_768;
        let per_rank: Vec<Vec<f64>> = (0..ranks).map(|_| arrivals.clone()).collect();
        let mut prev = f64::NEG_INFINITY;
        let mut scratch = SimScratch::new();
        for contention in [0.0, 0.5, 1.0] {
            let o = run_delivery(
                &mut Fabric::new(ranks, link, contention),
                &per_rank,
                bytes,
                Strategy::EarlyBird,
                &mut scratch,
            );
            prop_assert!(o.completion_ms >= prev);
            prop_assert!(o.completion_ms >= o.last_arrival_ms);
            prev = o.completion_ms;
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_strategy_mix(
        arrivals in arb_arrivals(),
        link in arb_link(),
        timeout in 0.05f64..50.0,
    ) {
        let bytes = arrivals.len() + 8_192;
        let mut scratch = SimScratch::new();
        for s in [
            Strategy::EarlyBird,
            Strategy::TimeoutFlush { timeout_ms: timeout },
            Strategy::Binned { bins: 1 + arrivals.len() / 3 },
            Strategy::Bulk,
        ] {
            let fresh = simulate(&arrivals, bytes, &link, s);
            let reused =
                run_delivery(&mut SerialLink::new(link), &[&arrivals], bytes, s, &mut scratch);
            prop_assert_eq!(fresh, reused);
        }
    }
}
