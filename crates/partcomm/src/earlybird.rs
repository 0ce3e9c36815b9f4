//! The early-bird delivery simulator: one kernel, any network model.
//!
//! Takes per-thread arrival times (measured traces or synthetic models),
//! assigns each thread one buffer partition, and simulates when the complete
//! buffer is delivered under four strategies:
//!
//! * [`Strategy::Bulk`] — the BSP baseline: one message of all bytes,
//!   injected when the *last* thread arrives (the fork/join path).
//! * [`Strategy::EarlyBird`] — each partition injected the moment its thread
//!   arrives (fine-grained partitioned communication, Figure 1).
//! * [`Strategy::TimeoutFlush`] — the Discussion's proposal for MiniFE-like
//!   apps: at every `timeout` tick, all ready-but-unsent partitions are
//!   aggregated into one message (α paid once per flush).
//! * [`Strategy::Binned`] — the Discussion's aggregation model for
//!   MiniQMC-like apps: contiguous partition groups; a bin is injected when
//!   its slowest member arrives.
//!
//! The trade-off the paper hypothesizes falls out of the α/β model: with
//! tight arrivals, early-bird pays `P·α` against bulk's single `α` and
//! *loses*; with spread arrivals or laggards, early-bird overlaps transfers
//! with the laggard's compute and wins. `repro earlybird` quantifies this
//! over every process-iteration of all three applications' campaigns.
//!
//! Every strategy reduces to a *message plan* — `(inject_ms, bytes)` pairs in
//! nondecreasing injection order per rank — and **one** kernel,
//! [`run_deliveries`], prices those plans against a
//! [`NetModel`](crate::netmodel::NetModel): a single sender's
//! [`SerialLink`](crate::netmodel::SerialLink) or the whole-job
//! [`Fabric`](crate::netmodel::Fabric) the paper's §2 argues about (flat,
//! hierarchical or LogGP-gapped — one type, see
//! [`NetModelSpec`](crate::netmodel::NetModelSpec)). [`run_delivery`] is its
//! one-strategy case.
//!
//! The model injects partitions *in arrival order*, and that order has one
//! definition, [`arrival_order`]: an integer sort of one word per partition,
//! `(arrival bits − the set's smallest) << index bits | partition` (a set
//! whose bit range leaves the index no room sorts `(arrival bits, partition)`
//! pairs instead). The kernel validates and orders an arrival set once per
//! call, however many strategies it then prices against it.
//!
//! What a call allocates: with a warm [`SimScratch`], nothing, whatever the
//! rank count — an outcome is four job-level numbers.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::netmodel::{LinkModel, NetModel};

/// A delivery strategy for one partitioned buffer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// One message after the last arrival.
    Bulk,
    /// One message per partition, injected at its thread's arrival.
    EarlyBird,
    /// Aggregate ready partitions at every `timeout_ms` tick.
    TimeoutFlush {
        /// Flush period (ms). Must be positive.
        timeout_ms: f64,
    },
    /// `bins` contiguous partition groups, each sent when complete.
    Binned {
        /// Number of bins (1 = bulk-like, = partitions ⇒ early-bird-like).
        bins: usize,
    },
}

impl Strategy {
    /// Label for reports and benches. Non-parameterized variants return a
    /// borrowed `&'static str` — no allocation in hot sweep loops; only the
    /// parameterized variants format an owned string.
    pub fn label(&self) -> Cow<'static, str> {
        match self {
            Strategy::Bulk => Cow::Borrowed("bulk"),
            Strategy::EarlyBird => Cow::Borrowed("early-bird"),
            Strategy::TimeoutFlush { timeout_ms } => {
                Cow::Owned(format!("timeout({timeout_ms:.3}ms)"))
            }
            Strategy::Binned { bins } => Cow::Owned(format!("binned({bins})")),
        }
    }

    /// Whether the plan injects partitions in arrival order. These
    /// strategies read the call's prepared order; `Bulk` and `Binned` need
    /// only maxima, so a call pricing nothing else orders nothing.
    fn follows_arrivals(self) -> bool {
        matches!(self, Strategy::EarlyBird | Strategy::TimeoutFlush { .. })
    }
}

/// Result of pricing one strategy on one job's arrival sets: the job-level
/// view — when the slowest rank's buffer was delivered, the latest arrival,
/// totals across ranks — and nothing else. A single-sender simulation is the
/// one-rank case.
///
/// Four numbers, 32 bytes, no heap cell: a trace-wide sweep keeps them by
/// the hundred thousand. The caller owns the strategy it priced
/// ([`run_deliveries`] returns outcomes in strategy order).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DeliveryOutcome {
    /// When the complete buffer (every rank's) has been delivered (ms).
    pub completion_ms: f64,
    /// The latest thread arrival across all ranks (the earliest any strategy
    /// could finish sending the final partition).
    pub last_arrival_ms: f64,
    /// Total messages injected across all ranks (α count).
    pub messages: usize,
    /// Total wire-busy time across the whole model (ms).
    pub wire_ms: f64,
}

impl DeliveryOutcome {
    /// Time past the last arrival spent finishing delivery — the exposed
    /// (non-overlapped) communication cost. Bulk exposes the entire
    /// transfer; a perfect early-bird run exposes only the final partition.
    ///
    /// This is THE one definition: job-level for multi-rank runs (the
    /// paper's whole-job view), and identical to the single sender's own
    /// exposure in the 1-rank case.
    pub fn exposed_ms(&self) -> f64 {
        self.completion_ms - self.last_arrival_ms
    }
}

/// Reusable buffers for the delivery kernel: the prepared arrival order of
/// the set being priced and the per-strategy working sets (bin events,
/// message plan) that a pricing call would otherwise allocate fresh. One
/// scratch per worker lets a trace-wide strategy sweep (thousands of
/// process-iterations × strategies) run allocation-free after warm-up, at
/// any rank count.
///
/// Nothing in it outlives a call: [`run_deliveries`] re-validates and
/// re-orders its arrival sets on entry, so a scratch reused across sets of
/// any size — or left dirty by a panicking call — prices exactly like a
/// fresh one.
#[derive(Debug, Clone, Default)]
pub struct SimScratch {
    /// `(arrival bits, partition)` sort keys of a rank whose bit range does
    /// not pack into one word (see [`push_arrival_order`]); unused otherwise.
    keys: Vec<(u64, usize)>,
    /// Every rank's partitions in arrival order, rank after rank — filled
    /// when a strategy of the call follows arrivals.
    order: Vec<usize>,
    /// Every rank's last arrival.
    last_arrivals: Vec<f64>,
    events: Vec<(f64, usize)>,
    plan: Vec<(f64, usize)>,
    /// [`oracle_exposed_ms`]'s best completion of each arrival-order prefix.
    best: Vec<f64>,
}

impl SimScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// What one pass over an arrival set yields: its last arrival and the range
/// of its bit patterns (`-0.0` read as `+0.0`, the two compare equal).
#[derive(Clone, Copy)]
struct ArrivalSpan {
    last_ms: f64,
    min_bits: u64,
    max_bits: u64,
}

/// Scans one arrival set, panicking unless every arrival is finite and
/// non-negative — the contract of every entry, and what makes the integer
/// keys of [`push_arrival_order`] order like the values.
fn arrival_span(arrivals_ms: &[f64]) -> ArrivalSpan {
    let mut valid = true;
    let mut span = ArrivalSpan {
        last_ms: f64::NEG_INFINITY,
        min_bits: u64::MAX,
        max_bits: 0,
    };
    for a in arrivals_ms {
        valid &= a.is_finite() && *a >= 0.0;
        let bits = a.abs().to_bits();
        span.last_ms = span.last_ms.max(*a);
        span.min_bits = span.min_bits.min(bits);
        span.max_bits = span.max_bits.max(bits);
    }
    assert!(valid, "arrivals must be finite and non-negative");
    span
}

/// Validates one arrival set and returns its span.
fn check_arrivals(arrivals_ms: &[f64], bytes_total: usize) -> ArrivalSpan {
    assert!(!arrivals_ms.is_empty(), "need at least one arrival");
    let span = arrival_span(arrivals_ms);
    assert!(
        bytes_total >= arrivals_ms.len(),
        "need ≥ 1 byte per partition"
    );
    span
}

/// Appends the partitions of one validated arrival set to `order`, earliest
/// arrival first, ties by partition index.
///
/// Finite non-negative doubles order exactly like their bit patterns, so the
/// keys are integers, and the `(bits, partition)` pairs are distinct: any
/// correct sort of them yields the one order `partial_cmp().then(index)`
/// defines. When the set's bit range leaves room for the index — arrivals
/// within a few orders of magnitude of each other, as every measured set is
/// — a pair packs into one word, `(bits − min) << index_bits | partition`,
/// built and sorted in `order` itself and masked down to the partition. A
/// wider range (an arrival of exactly `0.0` beside a millisecond-scale one
/// is enough) sorts the pairs themselves through `keys`; the choice reads
/// the observed range and nothing else.
fn push_arrival_order(
    arrivals_ms: &[f64],
    span: ArrivalSpan,
    keys: &mut Vec<(u64, usize)>,
    order: &mut Vec<usize>,
) {
    let n = arrivals_ms.len();
    // Bits of the largest index, `n − 1`: none for a 1-partition set.
    let index_bits = usize::BITS - n.saturating_sub(1).leading_zeros();
    // An empty set has no range.
    let range = span.max_bits.saturating_sub(span.min_bits);
    let start = order.len();
    if usize::try_from(range).is_ok_and(|r| r.leading_zeros() >= index_bits) {
        order.extend(
            arrivals_ms
                .iter()
                .enumerate()
                .map(|(i, a)| ((a.abs().to_bits() - span.min_bits) as usize) << index_bits | i),
        );
        let packed = &mut order[start..];
        packed.sort_unstable();
        for key in packed {
            *key &= (1 << index_bits) - 1;
        }
    } else {
        keys.clear();
        keys.extend(
            arrivals_ms
                .iter()
                .enumerate()
                .map(|(i, a)| (a.abs().to_bits(), i)),
        );
        keys.sort_unstable();
        order.extend(keys.iter().map(|&(_, i)| i));
    }
}

/// Arrival order — the workspace's one definition of it: writes the indices
/// of `arrivals_ms` into `order` (cleared first), earliest arrival first,
/// ties by index. This is the order the delivery kernel injects early-bird
/// partitions in, so anything that must agree with it calls this instead
/// of sorting on its own.
///
/// # Panics
/// On a non-finite or negative arrival.
pub fn arrival_order(arrivals_ms: &[f64], order: &mut Vec<usize>) {
    let span = arrival_span(arrivals_ms);
    order.clear();
    push_arrival_order(arrivals_ms, span, &mut Vec::new(), order);
}

/// Builds the message plan of one sender under `strategy` into `plan`:
/// `(inject_ms, bytes)` pairs in nondecreasing injection order. Every
/// strategy reduces to such a plan, which is what lets the one kernel price
/// a plan against any [`NetModel`] channel interchangeably.
///
/// `order` is the sender's [arrival order](arrival_order), prepared once per
/// arrival set by [`run_deliveries`] for the strategies that
/// [follow arrivals](Strategy::follows_arrivals) (the others get an empty
/// slice): those plans read it, none sorts partitions.
fn plan_messages(
    arrivals_ms: &[f64],
    order: &[usize],
    last_arrival: f64,
    bytes_total: usize,
    strategy: Strategy,
    events: &mut Vec<(f64, usize)>,
    plan: &mut Vec<(f64, usize)>,
) {
    let n = arrivals_ms.len();
    // Equal split, remainder on the leading partitions.
    let (q, r) = (bytes_total / n, bytes_total % n);
    let part_bytes = |i: usize| q + usize::from(i < r);
    plan.clear();
    match strategy {
        Strategy::Bulk => {
            plan.push((last_arrival, bytes_total));
        }
        Strategy::EarlyBird => {
            // One message per partition at its thread's arrival, in arrival
            // order (ties broken by partition index).
            plan.extend(order.iter().map(|&i| (arrivals_ms[i], part_bytes(i))));
        }
        Strategy::TimeoutFlush { timeout_ms } => {
            assert!(timeout_ms > 0.0, "timeout must be positive");
            // Walk partitions in arrival order and jump the tick straight to
            // the next unsent arrival's flush boundary. The naive scan
            // visited *every* `timeout_ms` tick and rescanned all `n`
            // partitions at each — O((last_arrival/timeout)·n), a busy loop
            // for tiny timeouts against a late last arrival. This pass is
            // O(n) over the prepared order regardless of the
            // timeout/arrival-span ratio and produces the same flush
            // groups: a flush at boundary `k` consumes exactly the
            // not-yet-sent partitions with
            // `arrival ≤ min(k·timeout, last_arrival)`.
            //
            // Largest f64 whose neighbours are still 1 apart: tick counts
            // past 2⁵³ cannot step by ±1, so boundary correction would spin.
            const MAX_EXACT_TICK: f64 = 9_007_199_254_740_992.0;
            let mut idx = 0usize;
            while idx < n {
                let next = arrivals_ms[order[idx]];
                // Smallest tick count k ≥ 1 with k·timeout ≥ next. For
                // representable tick counts the ±1 correction loops pin down
                // quotient rounding at the boundary; the quotient is off by
                // at most a few ulps, so they run at most a couple of steps.
                let mut k = (next / timeout_ms).ceil().max(1.0);
                let boundary = if k <= MAX_EXACT_TICK {
                    while k > 1.0 && (k - 1.0) * timeout_ms >= next {
                        k -= 1.0;
                    }
                    while k * timeout_ms < next {
                        k += 1.0;
                    }
                    k * timeout_ms
                } else {
                    // Degenerate ratio (next/timeout > 2⁵³, or infinite for
                    // subnormal timeouts): the tick grid is finer than one
                    // ulp of the arrival, so the flush boundary *is* the
                    // arrival.
                    next
                };
                let flush_ms = boundary.min(last_arrival);
                let mut bytes = 0usize;
                while idx < n && arrivals_ms[order[idx]] <= flush_ms {
                    bytes += part_bytes(order[idx]);
                    idx += 1;
                }
                plan.push((flush_ms, bytes));
            }
        }
        Strategy::Binned { bins } => {
            assert!(bins >= 1 && bins <= n, "bins must be in 1..=partitions");
            // Contiguous partition groups, the leading `n % bins` one
            // partition longer; a bin is ready when its slowest member is.
            let (len, longer) = (n / bins, n % bins);
            events.clear();
            events.extend((0..bins).map(|b| {
                let start = b * len + b.min(longer);
                let end = start + len + usize::from(b < longer);
                let ready = arrivals_ms[start..end]
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max);
                // Σ part_bytes over start..end: `q` each, one more for the
                // partitions below `r`.
                (ready, (end - start) * q + r.clamp(start, end) - start)
            }));
            events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            plan.extend(events.iter().copied());
        }
    }
}

/// Prices one strategy against arrival sets [`run_deliveries`] has already
/// validated and ordered into `scratch.order` — the one pricing body.
fn price<M, A>(
    model: &mut M,
    rank_arrivals_ms: &[A],
    bytes_per_rank: usize,
    strategy: Strategy,
    scratch: &mut SimScratch,
) -> DeliveryOutcome
where
    M: NetModel + ?Sized,
    A: AsRef<[f64]>,
{
    let SimScratch {
        order,
        last_arrivals,
        events,
        plan,
        ..
    } = scratch;
    model.reset();
    let mut last_arrival_ms = f64::NEG_INFINITY;
    let mut messages = 0;
    let mut ordered = 0;
    for (rank, arrivals_ms) in rank_arrivals_ms.iter().enumerate() {
        let arrivals_ms = arrivals_ms.as_ref();
        let last_arrival = last_arrivals[rank];
        last_arrival_ms = last_arrival_ms.max(last_arrival);
        let order: &[usize] = if strategy.follows_arrivals() {
            &order[ordered..ordered + arrivals_ms.len()]
        } else {
            &[]
        };
        ordered += arrivals_ms.len();
        plan_messages(
            arrivals_ms,
            order,
            last_arrival,
            bytes_per_rank,
            strategy,
            events,
            plan,
        );
        for &(inject_ms, bytes) in plan.iter() {
            model.inject(rank, inject_ms, bytes);
        }
        messages += plan.len();
    }
    // The model's completion is its latest arrival, which need not be the
    // last injection's: a fabric's store-and-forward hop can deliver a small
    // late message before a large earlier one.
    DeliveryOutcome {
        completion_ms: model.completion_ms(),
        last_arrival_ms,
        messages,
        wire_ms: model.busy_ms(),
    }
}

/// THE delivery kernel: prices every rank's message plan under each of
/// `strategies` against `model` and returns the job-level outcomes, in
/// strategy order.
///
/// `rank_arrivals_ms[r][i]` is the compute-completion time of rank `r`'s
/// thread `i`, which owns partition `i` of that rank's
/// `bytes_per_rank`-byte buffer — precisely the paper's early-bird model
/// (§2), scaled to a whole job. The arrival sets are validated **once** and
/// — when a strategy injects in arrival order — put in
/// [arrival order](arrival_order) once, whatever the number of strategies;
/// every strategy is then priced against that by the same body, on a model
/// [`reset`](NetModel::reset) first — so one model instance can be reused
/// across strategies and arrival sets, and each outcome equals its own
/// [`run_delivery`] call's, bit for bit.
///
/// Every previous closed-form simulator is this kernel with a model plugged
/// in: the old single-sender `simulate` is one strategy over a
/// [`SerialLink`](crate::netmodel::SerialLink), the old
/// `simulate_fabric` one strategy over a
/// [`Fabric`](crate::netmodel::Fabric) — bit-identical in both cases, which
/// the `netmodel_equivalence` proptests pin against closed-form oracles.
///
/// # Panics
/// On empty rank lists or arrivals, a model whose
/// [`ranks`](NetModel::ranks) differs from `rank_arrivals_ms.len()`,
/// non-finite or negative times, fewer than one byte per partition,
/// non-positive timeout, or zero bins.
pub fn run_deliveries<M, A, const K: usize>(
    model: &mut M,
    rank_arrivals_ms: &[A],
    bytes_per_rank: usize,
    strategies: [Strategy; K],
    scratch: &mut SimScratch,
) -> [DeliveryOutcome; K]
where
    M: NetModel + ?Sized,
    A: AsRef<[f64]>,
{
    assert!(!rank_arrivals_ms.is_empty(), "need at least one rank");
    assert_eq!(
        model.ranks(),
        rank_arrivals_ms.len(),
        "model rank count must match the arrival sets"
    );
    let in_order = strategies.iter().any(|s| s.follows_arrivals());
    scratch.order.clear();
    scratch.last_arrivals.clear();
    for arrivals_ms in rank_arrivals_ms {
        let arrivals_ms = arrivals_ms.as_ref();
        let span = check_arrivals(arrivals_ms, bytes_per_rank);
        scratch.last_arrivals.push(span.last_ms);
        if in_order {
            push_arrival_order(arrivals_ms, span, &mut scratch.keys, &mut scratch.order);
        }
    }
    strategies.map(|strategy| price(model, rank_arrivals_ms, bytes_per_rank, strategy, scratch))
}

/// One strategy through the kernel — [`run_deliveries`] with a one-element
/// strategy list, same contract and panics.
pub fn run_delivery<M, A>(
    model: &mut M,
    rank_arrivals_ms: &[A],
    bytes_per_rank: usize,
    strategy: Strategy,
    scratch: &mut SimScratch,
) -> DeliveryOutcome
where
    M: NetModel + ?Sized,
    A: AsRef<[f64]>,
{
    let [outcome] = run_deliveries(model, rank_arrivals_ms, bytes_per_rank, [strategy], scratch);
    outcome
}

/// The oracle bound on aggregation: the least exposed cost (see
/// [`DeliveryOutcome::exposed_ms`]) of one sender's buffer over a gapless
/// serial `link` that *any* grouping of its partitions into messages
/// reaches, each message injected when its last partition arrives. Bytes
/// split as every strategy splits them.
///
/// Some best grouping is contiguous in [arrival order](arrival_order) — an
/// exchange argument, exact when every partition carries the same bytes —
/// so an O(n²) table over arrival-order prefixes finds it:
/// `f(j) = min_{i<j} max(f(i), a_j) + α + β·bytes(i..j]`, in the channel's
/// own arithmetic. So the bound is never above `Bulk`, `EarlyBird` or
/// `TimeoutFlush` priced on the same link, nor above `Binned` when the
/// bytes split evenly.
///
/// # Panics
/// As [`run_delivery`] on the same arrivals and bytes.
pub fn oracle_exposed_ms(
    arrivals_ms: &[f64],
    bytes_total: usize,
    link: LinkModel,
    scratch: &mut SimScratch,
) -> f64 {
    let span = check_arrivals(arrivals_ms, bytes_total);
    let SimScratch {
        keys, order, best, ..
    } = scratch;
    order.clear();
    push_arrival_order(arrivals_ms, span, keys, order);
    let (q, r) = (bytes_total / order.len(), bytes_total % order.len());
    best.clear();
    best.push(0.0);
    for j in 1..=order.len() {
        let (inject_ms, mut bytes) = (arrivals_ms[order[j - 1]], 0);
        // The last message carries partitions i..j of the order.
        let completion_ms = (0..j).rev().map(|i| {
            bytes += q + usize::from(order[i] < r);
            inject_ms.max(best[i]) + link.transfer_ms(bytes)
        });
        best.push(completion_ms.fold(f64::INFINITY, f64::min));
    }
    best[order.len()] - span.last_ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netmodel::{Fabric, LinkModel, NetModelSpec, SerialLink};

    const MB: usize = 1_000_000;

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

    fn spread_arrivals() -> Vec<f64> {
        // MiniQMC-like: wide spread 30..70 ms.
        (0..48).map(|i| 30.0 + 40.0 * i as f64 / 47.0).collect()
    }

    fn tight_arrivals() -> Vec<f64> {
        // MiniMD-steady-like: all within 0.2 ms of 25 ms.
        (0..48).map(|i| 25.0 + 0.2 * i as f64 / 47.0).collect()
    }

    fn laggard_arrivals() -> Vec<f64> {
        let mut v = tight_arrivals();
        v[13] = 32.0; // one laggard 7 ms late
        v
    }

    #[test]
    fn arrival_order_is_by_value_then_index() {
        let mut order = vec![7, 7, 7, 7, 7];
        arrival_order(&[3.0, 1.0, 2.0, 1.0], &mut order);
        assert_eq!(order, [1, 3, 2, 0]);
        // The two zeros compare equal, so they tie and the index decides —
        // whichever comes first (`total_cmp` would put -0.0 first).
        arrival_order(&[0.0, -0.0], &mut order);
        assert_eq!(order, [0, 1]);
        arrival_order(&[-0.0, 0.0, 5e-324], &mut order);
        assert_eq!(order, [0, 1, 2]);
    }

    #[test]
    fn a_one_partition_set_has_no_index_bits_to_shift_by() {
        // `n − 1 = 0` takes zero index bits: a key derived as `word bits −
        // index bits` shifts would shift by 64 here, which debug builds
        // panic on. Widest possible values on both routes' inputs.
        let mut order = Vec::new();
        for a in [0.0, 25.0, f64::MAX] {
            arrival_order(&[a], &mut order);
            assert_eq!(order, [0]);
        }
        let o = simulate(&[f64::MAX], 1, &LinkModel::omni_path(), Strategy::EarlyBird);
        assert_eq!(o.messages, 1);
    }

    #[test]
    fn the_key_is_chosen_from_the_observed_bit_range_alone() {
        // 48 partitions take 6 index bits, leaving the range 58: one
        // pattern past that and the set sorts pairs — seen here by the pair
        // buffer, which only that route touches.
        let widest = u64::MAX >> 6;
        let set = |range: u64| -> Vec<f64> {
            let mut v: Vec<f64> = (0..48).map(|i| f64::from_bits(18 + (i * 5) % 7)).collect();
            (v[3], v[40]) = (f64::from_bits(17 + range), f64::from_bits(17));
            v
        };
        let mut link = SerialLink::new(LinkModel::omni_path());
        for (range, pairs) in [(widest, 0), (widest + 1, 48)] {
            let mut scratch = SimScratch::new();
            let arrivals = set(range);
            run_delivery(
                &mut link,
                &[&arrivals],
                MB,
                Strategy::EarlyBird,
                &mut scratch,
            );
            assert_eq!(scratch.keys.len(), pairs, "range {range:#x}");
            assert_eq!(scratch.order[0], 40);
            assert_eq!(scratch.order[47], 3);
        }
        // What the campaigns produce — milliseconds on a ns grid — packs.
        let mut scratch = SimScratch::new();
        for arrivals in [spread_arrivals(), tight_arrivals(), laggard_arrivals()] {
            run_delivery(
                &mut link,
                &[&arrivals],
                MB,
                Strategy::EarlyBird,
                &mut scratch,
            );
        }
        assert!(scratch.keys.is_empty());
    }

    #[test]
    fn an_outcome_is_four_numbers_in_32_bytes_with_a_derived_wire_form() {
        // The dyadic plan of `exposed_ms_is_pinned_on_a_known_plan`: every
        // number is exact, so the JSON is too.
        let link = LinkModel::new(1.0, 0.0009765625);
        let outcome = simulate(&[0.0, 10.0], 2048, &link, Strategy::EarlyBird);
        let wire = r#"{"completion_ms":12.0,"last_arrival_ms":10.0,"messages":2,"wire_ms":4.0}"#;
        assert_eq!(serde_json::to_string(&outcome).unwrap(), wire);
        let back: DeliveryOutcome = serde_json::from_str(wire).unwrap();
        assert_eq!(back, outcome);
        // Four 8-byte fields and nothing else (64-bit targets).
        assert_eq!(std::mem::size_of::<DeliveryOutcome>(), 32);
    }

    #[test]
    fn bulk_injects_once_after_last_arrival() {
        let link = LinkModel::omni_path();
        let o = simulate(&spread_arrivals(), 8 * MB, &link, Strategy::Bulk);
        assert_eq!(o.messages, 1);
        assert_eq!(o.last_arrival_ms, 70.0);
        assert!(o.completion_ms > 70.0);
        // Exposed cost = the whole transfer.
        assert!((o.exposed_ms() - link.transfer_ms(8 * MB)).abs() < 1e-9);
    }

    #[test]
    fn early_bird_wins_with_spread_arrivals() {
        let link = LinkModel::omni_path();
        let bulk = simulate(&spread_arrivals(), 8 * MB, &link, Strategy::Bulk);
        let eb = simulate(&spread_arrivals(), 8 * MB, &link, Strategy::EarlyBird);
        assert!(
            eb.completion_ms < bulk.completion_ms,
            "early-bird {} vs bulk {}",
            eb.completion_ms,
            bulk.completion_ms
        );
        // With a wide spread, only the final partition is exposed.
        assert!(eb.exposed_ms() < 0.05, "exposed {}", eb.exposed_ms());
        assert_eq!(eb.messages, 48);
    }

    #[test]
    fn early_bird_loses_with_tight_arrivals_and_high_alpha() {
        // The paper's §2 caveat: "if the thread arrival times are too
        // similar, we expect a negative performance impact".
        let link = LinkModel::high_latency();
        let bulk = simulate(&tight_arrivals(), MB, &link, Strategy::Bulk);
        let eb = simulate(&tight_arrivals(), MB, &link, Strategy::EarlyBird);
        assert!(
            eb.completion_ms > bulk.completion_ms,
            "48·α must hurt: eb {} vs bulk {}",
            eb.completion_ms,
            bulk.completion_ms
        );
    }

    #[test]
    fn laggard_lets_early_bird_hide_almost_everything() {
        let link = LinkModel::omni_path();
        let arrivals = laggard_arrivals();
        let bulk = simulate(&arrivals, 8 * MB, &link, Strategy::Bulk);
        let eb = simulate(&arrivals, 8 * MB, &link, Strategy::EarlyBird);
        // 47/48 partitions transfer while the laggard computes; exposed cost
        // is ~1 partition vs the full buffer for bulk.
        assert!(eb.exposed_ms() < bulk.exposed_ms() / 10.0);
    }

    #[test]
    fn timeout_flush_batches_messages() {
        let link = LinkModel::omni_path();
        let o = simulate(
            &spread_arrivals(),
            8 * MB,
            &link,
            Strategy::TimeoutFlush { timeout_ms: 10.0 },
        );
        // Arrivals span 30..70 ⇒ flushes at 30, 40, 50, 60, 70.
        assert!(
            o.messages >= 3 && o.messages <= 6,
            "messages {}",
            o.messages
        );
        let bulk = simulate(&spread_arrivals(), 8 * MB, &link, Strategy::Bulk);
        assert!(o.completion_ms < bulk.completion_ms);
    }

    #[test]
    fn binned_interpolates_between_bulk_and_early_bird() {
        let link = LinkModel::high_latency();
        let arrivals = spread_arrivals();
        let bulk = simulate(&arrivals, 8 * MB, &link, Strategy::Bulk);
        let eb = simulate(&arrivals, 8 * MB, &link, Strategy::EarlyBird);
        let b1 = simulate(&arrivals, 8 * MB, &link, Strategy::Binned { bins: 1 });
        let b48 = simulate(&arrivals, 8 * MB, &link, Strategy::Binned { bins: 48 });
        assert!((b1.completion_ms - bulk.completion_ms).abs() < 1e-9);
        assert!((b48.completion_ms - eb.completion_ms).abs() < 1e-9);
        let b6 = simulate(&arrivals, 8 * MB, &link, Strategy::Binned { bins: 6 });
        assert_eq!(b6.messages, 6);
        assert!(b6.completion_ms <= bulk.completion_ms);
    }

    #[test]
    fn all_strategies_deliver_all_bytes() {
        let link = LinkModel::omni_path();
        for s in [
            Strategy::Bulk,
            Strategy::EarlyBird,
            Strategy::TimeoutFlush { timeout_ms: 0.7 },
            Strategy::Binned { bins: 7 },
        ] {
            let o = simulate(&laggard_arrivals(), 8 * MB, &link, s);
            // Wire time accounts for every byte plus per-message α.
            let payload_ms = 8.0 * MB as f64 * link.beta_ms_per_byte;
            let expected = payload_ms + o.messages as f64 * link.alpha_ms;
            assert!(
                (o.wire_ms - expected).abs() < 1e-6,
                "{}: wire {} vs expected {expected}",
                s.label(),
                o.wire_ms
            );
            // No strategy can complete before the last arrival.
            assert!(o.completion_ms >= o.last_arrival_ms);
        }
    }

    #[test]
    fn completion_never_precedes_last_arrival() {
        let link = LinkModel::omni_path();
        for s in [
            Strategy::Bulk,
            Strategy::EarlyBird,
            Strategy::TimeoutFlush { timeout_ms: 1.0 },
            Strategy::Binned { bins: 4 },
        ] {
            let o = simulate(&tight_arrivals(), MB, &link, s);
            assert!(o.completion_ms >= o.last_arrival_ms, "{}", s.label());
        }
    }

    #[test]
    fn scratch_simulation_matches_fresh_allocation_exactly() {
        let link = LinkModel::omni_path();
        let mut scratch = SimScratch::new();
        // Reuse one scratch across arrival sets of different sizes and all
        // strategies; outcomes must match the allocating path bit-for-bit.
        for arrivals in [
            spread_arrivals(),
            tight_arrivals(),
            laggard_arrivals(),
            vec![5.0; 4],
        ] {
            for s in [
                Strategy::Bulk,
                Strategy::EarlyBird,
                Strategy::TimeoutFlush { timeout_ms: 2.0 },
                Strategy::Binned {
                    bins: arrivals.len().min(5),
                },
            ] {
                let fresh = simulate(&arrivals, 8 * MB, &link, s);
                let reused = run_delivery(
                    &mut SerialLink::new(link),
                    &[&arrivals],
                    8 * MB,
                    s,
                    &mut scratch,
                );
                assert_eq!(fresh, reused, "{} × {} arrivals", s.label(), arrivals.len());
            }
        }
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(Strategy::Bulk.label(), "bulk");
        assert_eq!(Strategy::EarlyBird.label(), "early-bird");
        assert_eq!(
            Strategy::TimeoutFlush { timeout_ms: 2.0 }.label(),
            "timeout(2.000ms)"
        );
        assert_eq!(Strategy::Binned { bins: 7 }.label(), "binned(7)");
        // Non-parameterized labels borrow — no allocation per call.
        assert!(matches!(Strategy::Bulk.label(), Cow::Borrowed("bulk")));
        assert!(matches!(
            Strategy::EarlyBird.label(),
            Cow::Borrowed("early-bird")
        ));
    }

    #[test]
    #[should_panic(expected = "at least one arrival")]
    fn empty_arrivals_rejected() {
        simulate(&[], 10, &LinkModel::omni_path(), Strategy::Bulk);
    }

    #[test]
    #[should_panic(expected = "rank count")]
    fn model_rank_mismatch_rejected() {
        let mut fabric = Fabric::new(3, LinkModel::omni_path(), 0.5);
        run_delivery(
            &mut fabric,
            &[vec![1.0], vec![2.0]],
            10,
            Strategy::Bulk,
            &mut SimScratch::new(),
        );
    }

    #[test]
    fn single_thread_degenerates_to_bulk() {
        let link = LinkModel::omni_path();
        let bulk = simulate(&[5.0], MB, &link, Strategy::Bulk);
        let eb = simulate(&[5.0], MB, &link, Strategy::EarlyBird);
        assert_eq!(bulk.completion_ms, eb.completion_ms);
    }

    #[test]
    fn exposed_ms_is_pinned_on_a_known_plan() {
        // Regression pin for the unified outcome's one exposed_ms()
        // definition, on a plan whose arithmetic is exact in f64:
        // α = 1 ms, β = 2⁻¹⁰ ms/byte, 2048 bytes over two partitions
        // arriving at 0 and 10 ms.
        let link = LinkModel::new(1.0, 0.0009765625);
        let arrivals = [0.0, 10.0];
        let bulk = simulate(&arrivals, 2048, &link, Strategy::Bulk);
        // One 2048-byte message at t = 10: transfer 1 + 2 = 3 ms, all of it
        // exposed past the last arrival.
        assert_eq!(bulk.completion_ms, 13.0);
        assert_eq!(bulk.exposed_ms(), 3.0);
        let eb = simulate(&arrivals, 2048, &link, Strategy::EarlyBird);
        // 1024 bytes at t = 0 (done at 2), 1024 at t = 10 (done at 12): only
        // the final partition's 2 ms transfer is exposed.
        assert_eq!(eb.completion_ms, 12.0);
        assert_eq!(eb.exposed_ms(), 2.0);
        // The same definition covers the multi-rank view: two such ranks on
        // a fully contended fabric double β, so bulk exposes 1 + 4 = 5 ms.
        let mut fabric = Fabric::new(2, link, 1.0);
        let job = run_delivery(
            &mut fabric,
            &[arrivals.to_vec(), arrivals.to_vec()],
            2048,
            Strategy::Bulk,
            &mut SimScratch::new(),
        );
        assert_eq!(job.completion_ms, 15.0);
        assert_eq!(job.exposed_ms(), 5.0);
        // Job totals: one message per rank, 1 + 2·2 ms of wire each.
        assert_eq!(job.messages, 2);
        assert_eq!(job.wire_ms, 10.0);
    }

    /// The pre-fix `TimeoutFlush` simulation, verbatim modulo the
    /// byte-pricing `SerialLink` now does itself: advance `tick` one
    /// `timeout_ms` at a time and rescan every partition at each tick —
    /// O((last_arrival/timeout)·n). Kept here as the regression oracle for
    /// the boundary-jumping implementation.
    fn timeout_flush_prefix_scan(
        arrivals_ms: &[f64],
        bytes_total: usize,
        link: &LinkModel,
        timeout_ms: f64,
    ) -> (f64, usize, f64) {
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
        let mut link_state = SerialLink::new(*link);
        let mut sent = vec![false; n];
        let mut done = 0.0f64;
        let mut messages = 0usize;
        let mut tick = timeout_ms;
        loop {
            let flush_time = tick.min(last_arrival);
            let group: Vec<usize> = (0..n)
                .filter(|&i| !sent[i] && arrivals_ms[i] <= flush_time)
                .collect();
            if !group.is_empty() {
                let bytes: usize = group.iter().map(|&i| part_bytes(i)).sum();
                done = link_state.inject(flush_time, bytes);
                messages += 1;
                for &i in group.iter() {
                    sent[i] = true;
                }
            }
            if sent.iter().all(|&s| s) {
                break;
            }
            tick += timeout_ms;
        }
        (done, messages, link_state.busy_ms())
    }

    #[test]
    fn timeout_flush_matches_prefix_scan_bit_for_bit() {
        // Dyadic timeouts make the oracle's accumulated tick (t, t+t, …) and
        // the fixed implementation's k·t boundaries exactly representable, so
        // the comparison is bit-identical — any grouping or boundary
        // difference between the old scan and the boundary-jumping rewrite
        // would show up as a hard mismatch.
        let link = LinkModel::omni_path();
        let arrival_sets: Vec<Vec<f64>> = vec![
            spread_arrivals(),
            tight_arrivals(),
            laggard_arrivals(),
            vec![0.0, 0.25, 0.5, 1.0, 31.25, 31.5],
            vec![7.0; 5],
            vec![0.0],
            // Arrivals exactly on flush boundaries.
            (0..16).map(|i| i as f64 * 0.5).collect(),
        ];
        for arrivals in &arrival_sets {
            for timeout in [0.25, 0.5, 1.0, 1.5, 2.0, 8.0, 64.0, 1024.0] {
                let (done, messages, wire) =
                    timeout_flush_prefix_scan(arrivals, 8 * MB, &link, timeout);
                let got = simulate(
                    arrivals,
                    8 * MB,
                    &link,
                    Strategy::TimeoutFlush {
                        timeout_ms: timeout,
                    },
                );
                assert_eq!(got.completion_ms, done, "timeout {timeout}");
                assert_eq!(got.messages, messages, "timeout {timeout}");
                assert_eq!(got.wire_ms, wire, "timeout {timeout}");
            }
        }
    }

    /// The pre-fix scan with drift-free ticks: identical structure to
    /// [`timeout_flush_prefix_scan`] but the tick is `k·timeout` instead of
    /// repeated addition. Isolates the *algorithmic* change (jumping over
    /// empty ticks) from the arithmetic one for timeouts whose accumulated
    /// ticks are not exactly representable.
    fn timeout_flush_multiplied_scan(
        arrivals_ms: &[f64],
        bytes_total: usize,
        link: &LinkModel,
        timeout_ms: f64,
    ) -> (f64, usize, f64) {
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
        let mut link_state = SerialLink::new(*link);
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
                done = link_state.inject(flush_time, bytes);
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
        (done, messages, link_state.busy_ms())
    }

    #[test]
    fn timeout_flush_matches_full_scan_for_arbitrary_timeouts() {
        // For non-dyadic timeouts the old accumulated tick drifts by ulps
        // from `k·timeout`, which can flip a partition sitting exactly on a
        // flush boundary between groups — so the fixed implementation defines
        // boundaries drift-free and is compared bit-for-bit against the same
        // exhaustive scan with the same drift-free ticks. (Dyadic timeouts,
        // where the pre-fix arithmetic is exact, are covered verbatim by
        // `timeout_flush_matches_prefix_scan_bit_for_bit`.)
        let link = LinkModel::omni_path();
        for arrivals in [spread_arrivals(), tight_arrivals(), laggard_arrivals()] {
            for timeout in [0.1, 0.3, 0.7, 1.1, 3.3, 9.9, 70.1] {
                let (done, messages, wire) =
                    timeout_flush_multiplied_scan(&arrivals, 8 * MB, &link, timeout);
                let got = simulate(
                    &arrivals,
                    8 * MB,
                    &link,
                    Strategy::TimeoutFlush {
                        timeout_ms: timeout,
                    },
                );
                assert_eq!(got.completion_ms, done, "timeout {timeout}");
                assert_eq!(got.messages, messages, "timeout {timeout}");
                assert_eq!(got.wire_ms, wire, "timeout {timeout}");
            }
        }
    }

    #[test]
    fn timeout_flush_extreme_ratios_terminate() {
        // next/timeout past 2⁵³ (or infinite): tick counts stop being exact
        // integers and ±1 correction cannot make progress — the fallback
        // flushes at the arrival itself instead of spinning forever.
        let link = LinkModel::omni_path();
        for timeout in [1e-300, 1e-18, f64::MIN_POSITIVE] {
            let o = simulate(
                &[1.0, 2.0, 2.0, 70.0],
                100,
                &link,
                Strategy::TimeoutFlush {
                    timeout_ms: timeout,
                },
            );
            assert_eq!(o.messages, 3, "timeout {timeout:e}");
            assert!(o.completion_ms >= o.last_arrival_ms);
        }
    }

    #[test]
    fn timeout_flush_tiny_timeout_is_not_degenerate() {
        // The motivating bug: a 1 ns flush period against a 70 ms last
        // arrival made the old scan walk ~7·10⁷ ticks × 48 partitions. The
        // boundary-jumping pass is O(n log n) and finishes instantly.
        let link = LinkModel::omni_path();
        let o = simulate(
            &spread_arrivals(),
            8 * MB,
            &link,
            Strategy::TimeoutFlush { timeout_ms: 1e-6 },
        );
        // Sub-µs flushing degenerates to early-bird message counts.
        assert_eq!(o.messages, 48);
        assert!(o.completion_ms >= o.last_arrival_ms);
    }

    #[test]
    fn fabric_single_rank_is_bit_identical_to_serial_link() {
        let link = LinkModel::high_latency();
        let mut scratch = SimScratch::new();
        for arrivals in [spread_arrivals(), tight_arrivals(), laggard_arrivals()] {
            for s in [
                Strategy::Bulk,
                Strategy::EarlyBird,
                Strategy::TimeoutFlush { timeout_ms: 2.0 },
                Strategy::Binned { bins: 6 },
            ] {
                let solo = simulate(&arrivals, 8 * MB, &link, s);
                let mut fabric = Fabric::new(1, link, 0.7);
                let whole = run_delivery(
                    &mut fabric,
                    std::slice::from_ref(&arrivals),
                    8 * MB,
                    s,
                    &mut scratch,
                );
                assert_eq!(whole, solo, "{}", s.label());
            }
        }
    }

    #[test]
    fn fabric_contention_slows_the_job() {
        let link = LinkModel::omni_path();
        let per_rank: Vec<Vec<f64>> = (0..8).map(|_| tight_arrivals()).collect();
        let mut scratch = SimScratch::new();
        let free = run_delivery(
            &mut Fabric::new(8, link, 0.0),
            &per_rank,
            8 * MB,
            Strategy::Bulk,
            &mut scratch,
        );
        let shared = run_delivery(
            &mut Fabric::new(8, link, 1.0),
            &per_rank,
            8 * MB,
            Strategy::Bulk,
            &mut scratch,
        );
        assert!(
            shared.completion_ms > free.completion_ms,
            "shared {} vs free {}",
            shared.completion_ms,
            free.completion_ms
        );
        assert!(shared.exposed_ms() > free.exposed_ms());
    }

    #[test]
    fn completion_survives_out_of_order_arrivals() {
        // Store-and-forward uplinks can deliver a small late message before
        // a large earlier one (hops differ per message), so completion is
        // the latest arrival, not the last injection's: a fat-uplink
        // hierarchy, 9 early partitions flushed at t=1 (big message, long
        // hop) and one laggard flushed at its arrival, t=1.2 (tiny message,
        // short hop).
        let mut arrivals = vec![0.0; 9];
        arrivals.push(1.2);
        let spec = NetModelSpec::Hierarchical {
            link: "omni-path".into(),
            uplink: "high-latency".into(),
            ranks_per_node: 1,
            nic_contention: 0.0,
            uplink_contention: 0.0,
        };
        let model = spec.resolve().unwrap();
        let o = run_delivery(
            &mut model.build(1),
            &[arrivals],
            MB,
            Strategy::TimeoutFlush { timeout_ms: 1.0 },
            &mut SimScratch::new(),
        );
        assert_eq!(o.messages, 2);
        // The same two messages by hand: the early one lands last.
        let mut by_hand = model.build(1);
        let early = by_hand.inject(0, 1.0, 9 * MB / 10);
        let late = by_hand.inject(0, 1.2, MB / 10);
        assert!(late < early, "{late} vs {early}");
        assert_eq!(o.completion_ms, early);
        assert!(o.completion_ms >= o.last_arrival_ms);
    }

    #[test]
    fn kernel_reuses_one_model_across_strategies() {
        // run_delivery resets the model, so one instance priced repeatedly
        // must match fresh instances bit-for-bit.
        let link = LinkModel::omni_path();
        let per_rank: Vec<Vec<f64>> = vec![spread_arrivals(), laggard_arrivals()];
        let mut scratch = SimScratch::new();
        let mut reused = Fabric::new(2, link, 0.5);
        for s in [
            Strategy::Bulk,
            Strategy::EarlyBird,
            Strategy::TimeoutFlush { timeout_ms: 2.0 },
            Strategy::Binned { bins: 6 },
            Strategy::Bulk,
        ] {
            let warm = run_delivery(&mut reused, &per_rank, 8 * MB, s, &mut scratch);
            let cold = run_delivery(
                &mut Fabric::new(2, link, 0.5),
                &per_rank,
                8 * MB,
                s,
                &mut scratch,
            );
            assert_eq!(warm, cold, "{}", s.label());
        }
    }
}
