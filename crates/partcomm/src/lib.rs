//! # ebird-partcomm
//!
//! The early-bird delivery model — the downstream system whose feasibility
//! the paper's measurements assess.
//!
//! The paper's model (§2): a communication buffer is divided among compute
//! threads; each thread may initiate transmission of its portion as soon as
//! its computation finishes ("early-bird"), instead of waiting for the full
//! fork/join. Whether that wins depends on the thread-arrival distribution —
//! which is exactly what the measurement pipeline characterizes.
//!
//! * [`netmodel`] — the network cost model behind the
//!   [`NetModel`](netmodel::NetModel) trait: the α + β·bytes (optionally
//!   gap-throttled) [`SerialLink`](netmodel::SerialLink) channel, and the
//!   multi-rank [`Fabric`](netmodel::Fabric) — per-rank channels under
//!   node-local contention behind a spine-contended store-and-forward hop —
//!   plus the serde-able [`NetModelSpec`](netmodel::NetModelSpec) whose flat,
//!   hierarchical and LogGP spellings name its parameter settings in
//!   scenario-matrix JSON.
//! * [`earlybird`] — the delivery simulator: given per-thread arrival times
//!   (measured or synthetic), compare **bulk-synchronous**, **early-bird
//!   per-partition**, **timeout-flush** and **binned aggregation** strategies
//!   (the Discussion section's proposals) through **one** kernel —
//!   [`run_deliveries`](earlybird::run_deliveries), which orders an arrival
//!   set once ([`arrival_order`](earlybird::arrival_order)) and prices any
//!   number of strategies against it;
//!   [`run_delivery`](earlybird::run_delivery) is its one-strategy case —
//!   priced against a [`NetModel`](netmodel::NetModel); and the oracle bound
//!   no grouping of partitions into messages beats on one serial link,
//!   [`oracle_exposed_ms`](earlybird::oracle_exposed_ms).

#![warn(missing_docs)]

pub mod earlybird;
pub mod netmodel;

pub use earlybird::{
    arrival_order, oracle_exposed_ms, run_deliveries, run_delivery, DeliveryOutcome, SimScratch,
    Strategy,
};
pub use netmodel::{
    link_by_name, Fabric, LinkModel, NetModel, NetModelSpec, ResolvedNetModel, SerialLink,
};
