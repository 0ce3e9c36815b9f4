//! # ebird-serve
//!
//! The campaign service: a long-lived, multi-threaded server that prices
//! scenario matrices on demand instead of one-shot `repro` invocations —
//! the workspace's step from "rerun the experiment" to "serve repeated and
//! overlapping demand" (the ROADMAP's north star).
//!
//! Layers, bottom up:
//!
//! * [`scenario`] — the config-driven campaign model (moved here from
//!   `ebird-bench` so both the offline CLI and the service share it):
//!   [`scenario::ScenarioMatrix`] resolves into typed
//!   [`scenario::ResolvedCell`]s, priced deterministically a group at a
//!   time by [`scenario::price_group`] (cells sharing their arrivals share
//!   the work; a row is a pure function of its cell).
//! * [`cache`] — the content-addressed result cache: key = FNV-1a 128 hash
//!   of the cell spec's canonical JSON; hot tier in memory under an
//!   `s3fifo` byte budget, cold tier as one record file per persisted
//!   cell, named by its key. Equal specs ⇒ bit-identical row bytes, with
//!   zero recomputation.
//! * `s3fifo` (crate-private) — the hot tier: small/main/ghost FIFO queues
//!   (Yang et al., SOSP '23), scan-resistant under one-shot campaign
//!   sweeps, each queue a log of pages that holds its entries' bytes.
//! * [`coalesce`] — the single-flight table: concurrent submissions of the
//!   same cell share one computation instead of queueing duplicates.
//! * [`protocol`] — the line-delimited JSON wire protocol (`submit`,
//!   `fetch`, `status`, `metrics`, `trace`, `shutdown`); see `PROTOCOL.md`
//!   for transcripts.
//! * [`server`] — the TCP server: per-connection handler threads, each
//!   group's uncached cells scheduled as one job on a **bounded** priority
//!   [`ebird_runtime::JobQueue`] serviced by a workspace
//!   [`ebird_runtime::Pool`] team, rows streamed back in matrix order
//!   (flushed whenever the handler would wait), saturated submits refused
//!   with a structured `overloaded` reply, graceful drain on shutdown.
//! * [`client`] — the matching client calls (`repro submit` et al.), with
//!   bounded exponential-backoff retry of `overloaded` refusals.
//!
//! The load-bearing invariant, asserted by tests and the CI smoke: a row
//! streamed by the service is **byte-identical** to the same cell's row in
//! the offline `repro scenarios` table, whether computed or cache-hit.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod coalesce;
pub mod protocol;
mod s3fifo;
pub mod scenario;
pub mod server;

pub use cache::{CacheConfig, CacheMetrics, ContentKey, ResultCache};
pub use client::{
    fetch_streaming, metrics, render_status, render_trace, shutdown, status, trace, RetryPolicy,
    SubmitOutcome,
};
pub use protocol::{
    BucketEntry, CounterEntry, GaugeEntry, HistogramEntry, MatrixSource, MetricsReply,
    OverloadedReply, Request, TraceReply,
};
pub use server::{serve, Server, ServerConfig, DEFAULT_QUEUE_BOUND};
