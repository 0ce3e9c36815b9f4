//! # ebird-partcomm
//!
//! Partitioned point-to-point communication and the early-bird delivery
//! model — the downstream system whose feasibility the paper's measurements
//! assess.
//!
//! The paper's model (§2): a communication buffer is divided among compute
//! threads; each thread may initiate transmission of its portion as soon as
//! its computation finishes ("early-bird"), instead of waiting for the full
//! fork/join. Whether that wins depends on the thread-arrival distribution —
//! which is exactly what the measurement pipeline characterizes.
//!
//! * [`partition`] — an MPI-4.0-style partitioned buffer: `pready`-style
//!   per-partition readiness flags with safe, lock-free publication.
//! * [`transport`] — an in-memory rank-to-rank message transport (the MPI
//!   substitute), with real threaded send/recv.
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
//!   priced against a [`NetModel`](netmodel::NetModel).
//! * [`session`] — persistent partitioned sessions: the full
//!   `Psend_init`/`Start`/`Pready`/`Parrived`/`Wait` lifecycle over the
//!   transport, with eager per-partition (early-bird) transmission.

#![warn(missing_docs)]

pub mod earlybird;
pub mod netmodel;
pub mod partition;
pub mod session;
pub mod transport;

pub use earlybird::{
    arrival_order, run_deliveries, run_delivery, DeliveryOutcome, SimScratch, Strategy,
};
pub use netmodel::{
    link_by_name, Fabric, LinkModel, NetModel, NetModelSpec, ResolvedNetModel, SerialLink,
};
pub use partition::PartitionedBuffer;
pub use session::{PrecvSession, PsendSession, SessionError};
pub use transport::{Endpoint, Message, Transport, TransportError};
