//! The equivalence lattice of the unified delivery kernel.
//!
//! `run_delivery` replaced two closed-form simulators (`simulate` over a
//! `SerialLink`, `simulate_fabric` over a `Fabric`); these proptests pin the
//! kernel against independent closed-form oracles reproducing the deleted
//! bodies, and pin the one fabric's degenerate parameter settings onto the
//! settings they coincide with — all **bit-identical**, never approximate:
//!
//! * `run_delivery::<SerialLink>` ≡ the old single-sender `simulate`;
//! * `run_delivery::<Fabric>` ≡ the old `simulate_fabric` (per-rank NICs at
//!   the contention-tapered β);
//! * a zero-contention `Fabric` of R ranks ≡ R independent `SerialLink`s
//!   folded at job level;
//! * a one-switch `Hierarchical` spec with a zero-cost uplink ≡ the flat
//!   `Fabric`;
//! * a `LogGP` spec with `g = 0` ≡ `LinkModel` transfer times (and, message
//!   by message, a `SerialLink` over the same α/β).

use ebird_partcomm::{
    link_by_name, run_delivery, Fabric, LinkModel, NetModel, NetModelSpec, SerialLink, SimScratch,
    Strategy,
};
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

fn arb_arrivals() -> impl proptest::strategy::Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..100.0, 1..48)
}

fn arb_rank_arrivals() -> impl proptest::strategy::Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0.0f64..100.0, 1..24), 1..5)
}

fn arb_link() -> impl proptest::strategy::Strategy<Value = LinkModel> {
    (0.0f64..0.1).prop_map(|alpha| LinkModel::new(alpha, 1.0e-7))
}

/// A named link: the `Hierarchical` spelling takes link names, not values.
fn arb_link_name() -> impl proptest::strategy::Strategy<Value = &'static str> {
    (0usize..3).prop_map(|i| ["omni-path", "high-latency", "zero"][i])
}

/// The `Hierarchical` spelling, built for `ranks` ranks.
fn hierarchy(
    ranks: usize,
    link: &str,
    uplink: &str,
    ranks_per_node: usize,
    nic_contention: f64,
    uplink_contention: f64,
) -> Fabric {
    let spec = NetModelSpec::Hierarchical {
        link: link.into(),
        uplink: uplink.into(),
        ranks_per_node,
        nic_contention,
        uplink_contention,
    };
    spec.resolve().unwrap().build(ranks)
}

/// The `LogGP` spelling over `link`'s α/β with per-message gap `gap_ms`,
/// built for one rank.
fn loggp(link: &LinkModel, gap_ms: f64) -> Fabric {
    let spec = NetModelSpec::LogGP {
        latency_ms: link.alpha_ms,
        gap_ms,
        gap_per_byte_ms: link.beta_ms_per_byte,
        contention: 0.0,
    };
    spec.resolve().unwrap().build(1)
}

fn arb_strategies(max_partitions: usize) -> [Strategy; 4] {
    [
        Strategy::Bulk,
        Strategy::EarlyBird,
        Strategy::TimeoutFlush { timeout_ms: 1.7 },
        Strategy::Binned {
            bins: 1 + max_partitions / 3,
        },
    ]
}

/// Sorted partition indices by (arrival, index) — the shared tie-break.
fn arrival_order(arrivals: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..arrivals.len()).collect();
    order.sort_by(|&a, &b| {
        arrivals[a]
            .partial_cmp(&arrivals[b])
            .expect("finite")
            .then(a.cmp(&b))
    });
    order
}

/// Closed-form oracle reproducing the deleted `simulate` body for the
/// strategies whose plans are order-only (bulk / early-bird / binned are
/// exercised here; the timeout strategy has its own dedicated oracles in
/// `earlybird`'s unit tests and `strategy_properties`): builds the message
/// plan and prices it with manual `free_at` arithmetic — no `SerialLink`
/// involved, so a kernel bug cannot hide in shared code.
fn closed_form_single(
    arrivals: &[f64],
    bytes_total: usize,
    link: &LinkModel,
    strategy: Strategy,
) -> (f64, f64, usize, f64) {
    let n = arrivals.len();
    let last_arrival = arrivals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let part_bytes = |i: usize| -> usize {
        let q = bytes_total / n;
        let r = bytes_total % n;
        if i < r {
            q + 1
        } else {
            q
        }
    };
    let plan: Vec<(f64, usize)> = match strategy {
        Strategy::Bulk => vec![(last_arrival, bytes_total)],
        Strategy::EarlyBird => arrival_order(arrivals)
            .into_iter()
            .map(|i| (arrivals[i], part_bytes(i)))
            .collect(),
        Strategy::Binned { bins } => {
            let mut events: Vec<(f64, usize)> = (0..bins)
                .map(|b| {
                    let q = n / bins;
                    let r = n % bins;
                    let (start, len) = if b < r {
                        (b * (q + 1), q + 1)
                    } else {
                        (r * (q + 1) + (b - r) * q, q)
                    };
                    let ready = arrivals[start..start + len]
                        .iter()
                        .copied()
                        .fold(f64::NEG_INFINITY, f64::max);
                    let bytes: usize = (start..start + len).map(part_bytes).sum();
                    (ready, bytes)
                })
                .collect();
            events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            events
        }
        Strategy::TimeoutFlush { .. } => unreachable!("not exercised by this oracle"),
    };
    let mut free_at = 0.0f64;
    let mut busy = 0.0f64;
    let mut completion = 0.0f64;
    for (inject_ms, bytes) in plan.iter().copied() {
        let transfer = link.alpha_ms + link.beta_ms_per_byte * bytes as f64;
        let start = inject_ms.max(free_at);
        free_at = start + transfer;
        busy += transfer;
        completion = free_at;
    }
    (completion, last_arrival, plan.len(), busy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn serial_link_kernel_matches_the_old_simulate_closed_form(
        arrivals in arb_arrivals(),
        link in arb_link(),
    ) {
        let bytes = arrivals.len() + 50_000;
        let mut scratch = SimScratch::new();
        for s in [
            Strategy::Bulk,
            Strategy::EarlyBird,
            Strategy::Binned { bins: 1 + arrivals.len() / 3 },
        ] {
            let (completion, last, messages, wire) =
                closed_form_single(&arrivals, bytes, &link, s);
            let o = run_delivery(
                &mut SerialLink::new(link),
                &[arrivals.as_slice()],
                bytes,
                s,
                &mut scratch,
            );
            prop_assert_eq!(o.completion_ms, completion, "{}", s.label());
            prop_assert_eq!(o.last_arrival_ms, last);
            prop_assert_eq!(o.messages, messages);
            prop_assert_eq!(o.wire_ms, wire);
        }
    }

    #[test]
    fn fabric_kernel_matches_the_old_simulate_fabric_closed_form(
        rank_arrivals in arb_rank_arrivals(),
        link in arb_link(),
        contention in 0.0f64..1.0,
    ) {
        let ranks = rank_arrivals.len();
        let max_parts = rank_arrivals.iter().map(Vec::len).max().unwrap();
        let min_parts = rank_arrivals.iter().map(Vec::len).min().unwrap();
        let bytes = max_parts + 50_000;
        // The old simulate_fabric: β tapered once for the whole job, then
        // each rank priced like an independent single sender.
        let taper = 1.0 + contention * (ranks - 1) as f64;
        let effective = LinkModel::new(link.alpha_ms, link.beta_ms_per_byte * taper);
        let mut scratch = SimScratch::new();
        for s in arb_strategies(min_parts) {
            if matches!(s, Strategy::TimeoutFlush { .. }) {
                continue; // covered by the dedicated timeout oracles
            }
            let mut job_last = f64::NEG_INFINITY;
            let mut job_completion = 0.0f64;
            let mut job_messages = 0usize;
            let mut job_wire = 0.0f64;
            for arrivals in &rank_arrivals {
                let (completion, last, messages, wire) =
                    closed_form_single(arrivals, bytes, &effective, s);
                job_last = job_last.max(last);
                job_completion = job_completion.max(completion);
                job_messages += messages;
                job_wire += wire;
            }
            let o = run_delivery(
                &mut Fabric::new(ranks, link, contention),
                &rank_arrivals,
                bytes,
                s,
                &mut scratch,
            );
            prop_assert_eq!(o.completion_ms, job_completion, "{}", s.label());
            prop_assert_eq!(o.last_arrival_ms, job_last);
            prop_assert_eq!(o.messages, job_messages);
            // Both sides sum per-rank wire in rank order from 0.0 — the
            // identical float-addition sequence, so bits must match.
            prop_assert_eq!(o.wire_ms, job_wire);
        }
    }

    #[test]
    fn zero_contention_fabric_is_independent_links_folded_at_job_level(
        rank_arrivals in proptest::collection::vec(
            proptest::collection::vec(0.0f64..100.0, 1..24),
            2..6,
        ),
        link in arb_link(),
    ) {
        // Full bisection bandwidth: no rank slows another, so the job is R
        // single senders, each on its own `SerialLink`, folded at job level —
        // completion and last arrival the maximum over ranks, messages the
        // sum, wire the rank-order sum from 0.0 — bit for bit, for all four
        // strategies (timeout flush included: both sides plan their messages
        // in the same kernel).
        let ranks = rank_arrivals.len();
        let min_parts = rank_arrivals.iter().map(Vec::len).min().unwrap();
        let bytes = rank_arrivals.iter().map(Vec::len).max().unwrap() + 50_000;
        let mut scratch = SimScratch::new();
        for s in arb_strategies(min_parts) {
            let (mut completion, mut last, mut messages, mut wire) =
                (f64::NEG_INFINITY, f64::NEG_INFINITY, 0usize, 0.0f64);
            for arrivals in &rank_arrivals {
                let solo = run_delivery(
                    &mut SerialLink::new(link),
                    &[arrivals.as_slice()],
                    bytes,
                    s,
                    &mut scratch,
                );
                completion = completion.max(solo.completion_ms);
                last = last.max(solo.last_arrival_ms);
                messages += solo.messages;
                wire += solo.wire_ms;
            }
            let job = run_delivery(
                &mut Fabric::new(ranks, link, 0.0),
                &rank_arrivals,
                bytes,
                s,
                &mut scratch,
            );
            prop_assert_eq!(job.completion_ms.to_bits(), completion.to_bits(), "{}", s.label());
            prop_assert_eq!(job.last_arrival_ms.to_bits(), last.to_bits(), "{}", s.label());
            prop_assert_eq!(job.messages, messages, "{}", s.label());
            prop_assert_eq!(job.wire_ms.to_bits(), wire.to_bits(), "{}", s.label());
        }
    }

    #[test]
    fn one_switch_zero_uplink_hierarchy_is_the_flat_fabric(
        rank_arrivals in arb_rank_arrivals(),
        link in arb_link_name(),
        nic_contention in 0.0f64..1.0,
        uplink_contention in 0.0f64..1.0,
    ) {
        let ranks = rank_arrivals.len();
        let min_parts = rank_arrivals.iter().map(Vec::len).min().unwrap();
        let bytes = rank_arrivals.iter().map(Vec::len).max().unwrap() + 50_000;
        let mut scratch = SimScratch::new();
        for s in arb_strategies(min_parts) {
            let flat = run_delivery(
                &mut Fabric::new(ranks, link_by_name(link).unwrap(), nic_contention),
                &rank_arrivals,
                bytes,
                s,
                &mut scratch,
            );
            // All ranks on one node (one switch uplink), uplink free: the
            // hierarchy collapses onto the flat fabric bit-for-bit whatever
            // the uplink contention.
            let mut hier = hierarchy(ranks, link, "zero", ranks, nic_contention, uplink_contention);
            let layered = run_delivery(&mut hier, &rank_arrivals, bytes, s, &mut scratch);
            prop_assert_eq!(&layered, &flat, "{}", s.label());
        }
    }

    #[test]
    fn zero_gap_loggp_is_the_alpha_beta_link(
        arrivals in arb_arrivals(),
        link in arb_link(),
    ) {
        let bytes = arrivals.len() + 50_000;
        // Transfer-time identity: L + G·n computed with LinkModel's exact
        // arithmetic.
        let mut idle = loggp(&link, 0.0);
        for n in [0usize, 1, 4096, bytes] {
            idle.reset();
            prop_assert_eq!(idle.inject(0, 0.0, n), link.transfer_ms(n));
        }
        // Whole-plan identity: with g = 0 the gap constraint is inert, so
        // every strategy prices bit-identically to the SerialLink.
        let mut scratch = SimScratch::new();
        for s in arb_strategies(arrivals.len()) {
            let serial = run_delivery(
                &mut SerialLink::new(link),
                &[arrivals.as_slice()],
                bytes,
                s,
                &mut scratch,
            );
            let gapless = run_delivery(
                &mut loggp(&link, 0.0),
                &[arrivals.as_slice()],
                bytes,
                s,
                &mut scratch,
            );
            prop_assert_eq!(&gapless, &serial, "{}", s.label());
        }
    }

    #[test]
    fn positive_gap_never_speeds_delivery_up(
        arrivals in arb_arrivals(),
        link in arb_link(),
        gap in 0.0f64..0.5,
    ) {
        let bytes = arrivals.len() + 50_000;
        let mut scratch = SimScratch::new();
        for s in arb_strategies(arrivals.len()) {
            let gapless = run_delivery(
                &mut loggp(&link, 0.0),
                &[arrivals.as_slice()],
                bytes,
                s,
                &mut scratch,
            );
            let gapped = run_delivery(
                &mut loggp(&link, gap),
                &[arrivals.as_slice()],
                bytes,
                s,
                &mut scratch,
            );
            prop_assert!(gapped.completion_ms >= gapless.completion_ms, "{}", s.label());
            prop_assert!(gapped.completion_ms >= gapped.last_arrival_ms);
        }
    }

    #[test]
    fn hierarchy_uplink_and_spine_never_speed_the_job_up(
        rank_arrivals in arb_rank_arrivals(),
        link in arb_link_name(),
        ranks_per_node in 1usize..4,
    ) {
        let ranks = rank_arrivals.len();
        let bytes = rank_arrivals.iter().map(Vec::len).max().unwrap() + 50_000;
        let mut scratch = SimScratch::new();
        let mut prev = f64::NEG_INFINITY;
        for (uplink, spine) in [("zero", 0.0), ("omni-path", 0.0), ("omni-path", 1.0)] {
            let o = run_delivery(
                &mut hierarchy(ranks, link, uplink, ranks_per_node, 0.5, spine),
                &rank_arrivals,
                bytes,
                Strategy::EarlyBird,
                &mut scratch,
            );
            prop_assert!(o.completion_ms >= prev);
            prop_assert!(o.completion_ms >= o.last_arrival_ms);
            prev = o.completion_ms;
        }
    }
}
