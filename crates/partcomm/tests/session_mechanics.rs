//! What a partitioned session delivers, what it refuses, and what it times
//! out on — the mechanics check, run once here instead of once per priced
//! scenario group.
//!
//! `R ∈ {1, 2, 8}` sender/receiver pairs share **one** `Transport::connect(2R)`
//! mesh (sender `r` → receiver `R + r`) and are driven concurrently: one
//! thread per sender, one per receiver, the receiver polling `parrived`
//! while its sender is still readying partitions. The suite pins
//!
//! * every receiver assembles its own sender's payload byte-exactly, for
//!   partitions readied in [`arrival_order`] of generated arrival sets (ties
//!   and both zeros included), partition counts `{1, 2, 7, 8, 48}` and
//!   payload lengths the partition count does not divide;
//! * an order that skips a partition ends in
//!   `SessionError::Transport(TransportError::Timeout)` on that pair only;
//! * a duplicated `pready` is `PartitionError::AlreadyReady` and leaves the
//!   assembly correct.
//!
//! No test waits on a clock: a receiver's final wait starts after its sender
//! has finished, so everything that will ever arrive is already in its inbox
//! and the deadline is *zero* — `recv_deadline` drains the inbox before it
//! looks at the time, so a complete round returns without reading it and an
//! incomplete one times out on the first look.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ebird_partcomm::partition::PartitionError;
use ebird_partcomm::{
    arrival_order, PrecvSession, PsendSession, SessionError, Transport, TransportError,
};
use proptest::prelude::*;

const RANK_COUNTS: [usize; 3] = [1, 2, 8];
const PARTITION_COUNTS: [usize; 5] = [1, 2, 7, 8, 48];

/// A payload length `partitions` does not divide (for every count above 1),
/// so leading partitions are one byte longer than trailing ones.
fn ragged_len(partitions: usize) -> usize {
    6 * partitions - 1
}

/// Rank `rank`'s payload: distinct per rank, so bytes delivered to the wrong
/// receiver cannot assemble into the right answer.
fn payload_of(rank: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (rank.wrapping_mul(131).wrapping_add(j.wrapping_mul(17)) & 0xFF) as u8)
        .collect()
}

/// One generated arrival: mostly a coarse grid (so most arrivals tie with
/// another), some off-grid values, and both zeros.
fn arrival_of(draw: u32) -> f64 {
    match draw % 8 {
        0 => -0.0,
        1 => 0.0,
        2 => f64::from(draw >> 3) / 1.0e4,
        _ => f64::from((draw >> 3) % 12) * 0.5,
    }
}

/// What one pair's two threads saw.
struct PairRun {
    /// The outcome of each `pready` call, in call order.
    readied: Vec<Result<bool, SessionError>>,
    /// The receiver's assembled payload, or why its wait failed.
    assembled: Result<Vec<u8>, SessionError>,
}

/// Drives `orders.len()` pairs of `partitions`-part sessions over one mesh,
/// all senders and receivers concurrently; sender `r` readies `orders[r]`
/// (every call is made, whatever the previous one returned).
fn drive(partitions: usize, len: usize, orders: &[Vec<usize>]) -> Vec<PairRun> {
    let ranks = orders.len();
    let mut endpoints = Transport::connect(2 * ranks);
    let receivers = endpoints.split_off(ranks);
    let pairs: Vec<(PsendSession, PrecvSession)> = endpoints
        .into_iter()
        .zip(receivers)
        .enumerate()
        .map(|(rank, (send_ep, recv_ep))| {
            (
                PsendSession::init(Arc::new(send_ep), ranks + rank, partitions, len),
                PrecvSession::init(recv_ep, partitions, len),
            )
        })
        .collect();
    std::thread::scope(|scope| {
        let running: Vec<_> = pairs
            .into_iter()
            .zip(orders)
            .enumerate()
            .map(|(rank, ((send, mut recv), order))| {
                let sent = Arc::new(AtomicBool::new(false));
                let sender = {
                    let sent = Arc::clone(&sent);
                    scope.spawn(move || {
                        send.start(&payload_of(rank, len)).unwrap();
                        let readied = order.iter().map(|&p| send.pready(p)).collect();
                        sent.store(true, Ordering::Release);
                        readied
                    })
                };
                let receiver = scope.spawn(move || {
                    recv.start();
                    while !sent.load(Ordering::Acquire) {
                        for p in 0..partitions {
                            recv.parrived(p)?;
                        }
                        std::thread::yield_now();
                    }
                    recv.wait_deadline(Duration::ZERO).map(<[u8]>::to_vec)
                });
                (sender, receiver)
            })
            .collect();
        running
            .into_iter()
            .map(|(sender, receiver)| PairRun {
                readied: sender.join().unwrap(),
                assembled: receiver.join().unwrap(),
            })
            .collect()
    })
}

/// Asserts a run in which every partition was readied exactly once: each
/// call succeeded, only the last completed the round, and the receiver holds
/// the sender's bytes.
fn assert_delivered(rank: usize, len: usize, run: &PairRun, what: &str) {
    let completions: Vec<bool> = run
        .readied
        .iter()
        .map(|r| *r.as_ref().unwrap_or_else(|e| panic!("{what}: {e}")))
        .collect();
    let last = completions.len() - 1;
    for (call, &completed) in completions.iter().enumerate() {
        assert_eq!(completed, call == last, "{what}: call {call}");
    }
    match &run.assembled {
        Ok(bytes) => assert_eq!(bytes, &payload_of(rank, len), "{what}"),
        Err(e) => panic!("{what}: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_arrival_order_assembles_byte_exactly_on_every_pair(
        draws in proptest::collection::vec(0u32..u32::MAX, 8 * 48..8 * 48 + 1),
    ) {
        for ranks in RANK_COUNTS {
            for partitions in PARTITION_COUNTS {
                let len = ragged_len(partitions);
                let orders: Vec<Vec<usize>> = (0..ranks)
                    .map(|rank| {
                        let arrivals: Vec<f64> = draws[rank * 48..rank * 48 + partitions]
                            .iter()
                            .map(|&d| arrival_of(d))
                            .collect();
                        let mut order = Vec::new();
                        arrival_order(&arrivals, &mut order);
                        order
                    })
                    .collect();
                let runs = drive(partitions, len, &orders);
                prop_assert_eq!(runs.len(), ranks);
                for (rank, run) in runs.iter().enumerate() {
                    let what = format!(
                        "{ranks} pairs × {partitions} partitions, rank {rank}, order {:?}",
                        orders[rank]
                    );
                    assert_delivered(rank, len, run, &what);
                }
            }
        }
    }
}

#[test]
fn a_skipped_partition_times_out_on_that_pair_only() {
    for ranks in [2, 8] {
        for partitions in [2, 7, 48] {
            let len = ragged_len(partitions);
            let dropper = ranks - 1;
            let skipped = partitions / 2;
            let orders: Vec<Vec<usize>> = (0..ranks)
                .map(|rank| {
                    let mut order: Vec<usize> = (0..partitions).rev().collect();
                    order.rotate_left(rank % partitions);
                    if rank == dropper {
                        order.retain(|&p| p != skipped);
                    }
                    order
                })
                .collect();
            let runs = drive(partitions, len, &orders);
            for (rank, run) in runs.iter().enumerate() {
                let what = format!("{ranks} pairs × {partitions} partitions, rank {rank}");
                if rank != dropper {
                    assert_delivered(rank, len, run, &what);
                    continue;
                }
                // The sender never completed its round, and the receiver
                // reports a typed timeout — not a hang, not a wrong buffer.
                assert!(run.readied.iter().all(|r| matches!(r, Ok(false))), "{what}");
                match &run.assembled {
                    Err(SessionError::Transport(TransportError::Timeout)) => {}
                    other => panic!("{what}: expected a timeout, got {other:?}"),
                }
            }
        }
    }
}

#[test]
fn a_duplicated_pready_is_refused_and_leaves_the_assembly_correct() {
    for partitions in [2, 8, 48] {
        let len = ragged_len(partitions);
        let repeated = partitions / 2;
        // Pair 0 readies `repeated` twice, back to back and before the round
        // completes; pair 1 is clean and must not notice.
        let mut with_duplicate: Vec<usize> = (0..partitions).collect();
        with_duplicate.rotate_left(repeated);
        with_duplicate.insert(1, repeated);
        let clean: Vec<usize> = (0..partitions).collect();
        let runs = drive(partitions, len, &[with_duplicate, clean]);

        let what = format!("{partitions} partitions");
        assert_delivered(1, len, &runs[1], &what);
        let duplicate = &runs[0];
        for (call, readied) in duplicate.readied.iter().enumerate() {
            match (call, readied) {
                (1, Err(SessionError::Partition(PartitionError::AlreadyReady { index }))) => {
                    assert_eq!(*index, repeated, "{what}");
                }
                (1, other) => panic!("{what}: duplicate was not refused: {other:?}"),
                (_, Ok(completed)) => assert_eq!(*completed, call == partitions, "{what}"),
                (_, Err(e)) => panic!("{what}: call {call}: {e}"),
            }
        }
        assert_eq!(
            duplicate.assembled.as_ref().unwrap(),
            &payload_of(0, len),
            "{what}"
        );
    }
}
