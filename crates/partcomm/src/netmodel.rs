//! The network cost model: one [`Fabric`] of per-rank channels behind a
//! store-and-forward hop, priced through the [`NetModel`] trait.
//!
//! Delivery simulation needs a network cost model, not a real network. The
//! model answers three questions — *when does a message injected at time t
//! arrive*, *when has all traffic drained*, and *how much wire time was
//! spent* — behind the [`NetModel`] trait, so the one delivery kernel
//! ([`crate::earlybird::run_delivery`]) prices any topology, and topologies
//! are data ([`NetModelSpec`]), not new simulator copies.
//!
//! There is one channel and one fabric:
//!
//! * [`SerialLink`] — a postal/LogP-style serializing channel: one message
//!   of `n` bytes costs `α + β·n` ([`LinkModel`]), messages serialize in
//!   injection order — the serialization an MPI implementation's send engine
//!   applies to one peer connection — and consecutive message *starts* are at
//!   least a per-message gap `g` apart (LogGP's injection-rate limit; `0` for
//!   every link [`SerialLink::new`] builds, where it never binds).
//! * [`Fabric`] — a whole job: one [`SerialLink`] per sending rank, ranks
//!   packed onto nodes whose ranks contend for node-local injection
//!   bandwidth, then a store-and-forward uplink hop whose bandwidth tapers
//!   with spine contention among the nodes.
//!
//! [`NetModelSpec`]'s three spellings are parameter settings of that fabric:
//! `Fabric` is one node behind a free hop, `LogGP` the same with link
//! `(L, G)` and gap `g`, `Hierarchical` the general case. Where two settings
//! coincide the prices are bit-identical: a 1-rank fabric is a bare
//! [`SerialLink`], a one-node hierarchy with a free (`zero`)
//! uplink is the flat fabric, and a `g = 0` LogGP channel is the α/β link.
//!
//! Default parameters approximate the paper's Omni-Path fabric: ~1 µs
//! startup, 100 Gbit/s ≈ 12.5 GB/s.

use serde::{Deserialize, Serialize};

/// Per-message link cost `α + β·bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Startup cost per message, in milliseconds.
    pub alpha_ms: f64,
    /// Transfer cost per byte, in milliseconds.
    pub beta_ms_per_byte: f64,
}

impl LinkModel {
    /// Creates a model; both parameters must be non-negative and finite.
    pub fn new(alpha_ms: f64, beta_ms_per_byte: f64) -> Self {
        assert!(alpha_ms >= 0.0 && alpha_ms.is_finite());
        assert!(beta_ms_per_byte >= 0.0 && beta_ms_per_byte.is_finite());
        LinkModel {
            alpha_ms,
            beta_ms_per_byte,
        }
    }

    /// Omni-Path-like defaults: α = 1 µs, 12.5 GB/s.
    pub fn omni_path() -> Self {
        LinkModel::new(1.0e-3, 1.0 / 12.5e9 * 1.0e3)
    }

    /// A high-startup link (α = 50 µs) where aggregation should win.
    pub(crate) fn high_latency() -> Self {
        LinkModel::new(50.0e-3, 1.0 / 1.0e9 * 1.0e3)
    }

    /// A free link (α = β = 0) — the uplink hop of a flat [`Fabric`].
    fn zero() -> Self {
        LinkModel::new(0.0, 0.0)
    }

    /// Wire time of one `bytes`-byte message (ms).
    pub fn transfer_ms(&self, bytes: usize) -> f64 {
        self.alpha_ms + self.beta_ms_per_byte * bytes as f64
    }
}

/// Looks up a link model by its scenario-config name
/// (`omni-path` / `high-latency` / `zero`).
pub fn link_by_name(name: &str) -> Option<LinkModel> {
    match name.to_ascii_lowercase().as_str() {
        "omni-path" => Some(LinkModel::omni_path()),
        "high-latency" => Some(LinkModel::high_latency()),
        "zero" => Some(LinkModel::zero()),
        _ => None,
    }
}

/// A network cost model the delivery kernel can price a message plan
/// against.
///
/// Implementations are mutable state machines: [`inject`](NetModel::inject)
/// schedules one message and returns its arrival (last-byte delivery) time,
/// with per-rank injections required in nondecreasing time order (the same
/// contract every serializing channel here enforces in debug builds).
/// [`reset`](NetModel::reset) returns the model to its freshly constructed
/// state so one instance can price many plans without reallocation.
pub trait NetModel {
    /// Number of independent sending ranks this model services.
    fn ranks(&self) -> usize;

    /// Injects a `bytes`-byte message from `rank` at `when_ms`; returns its
    /// arrival time. Per-rank injections must be nondecreasing in time;
    /// different ranks may interleave freely.
    fn inject(&mut self, rank: usize, when_ms: f64, bytes: usize) -> f64;

    /// Time the last injected message arrived (0 before any injection).
    fn completion_ms(&self) -> f64;

    /// Total wire-busy time across the whole model.
    fn busy_ms(&self) -> f64;

    /// Forgets all injected traffic, returning to the fresh state.
    fn reset(&mut self);
}

/// A single serializing channel priced by its own [`LinkModel`]: messages
/// injected at given times depart in injection-time order, each occupying
/// the link for its `α + β·bytes` transfer time and starting no sooner than
/// the per-message gap after the previous start.
#[derive(Debug, Clone)]
pub struct SerialLink {
    link: LinkModel,
    /// Minimum interval between message starts `g` (ms).
    gap_ms: f64,
    /// Time the link becomes free (ms).
    free_at_ms: f64,
    /// Start time of the most recent message (`−∞` before the first, so the
    /// gap never delays an initial injection).
    last_start_ms: f64,
    /// Cumulative busy time (ms) — utilization diagnostics.
    busy_ms: f64,
    /// Most recent injection time (ms) — enforces the nondecreasing-injection
    /// contract in debug builds.
    last_inject_ms: f64,
}

impl SerialLink {
    /// A fresh, idle, gapless link priced with `link`.
    pub fn new(link: LinkModel) -> Self {
        SerialLink::gapped(link, 0.0)
    }

    /// A fresh, idle link priced with `link` whose message starts are at
    /// least `gap_ms` apart.
    fn gapped(link: LinkModel, gap_ms: f64) -> Self {
        SerialLink {
            link,
            gap_ms,
            free_at_ms: 0.0,
            last_start_ms: f64::NEG_INFINITY,
            busy_ms: 0.0,
            last_inject_ms: 0.0,
        }
    }

    /// Injects a `bytes`-byte message at `inject_ms`; returns its completion
    /// (last-byte delivery) time. The message starts at
    /// `max(inject_ms, link free, previous start + g)`; a gap of 0 never
    /// binds, because the previous start is never after the link frees.
    ///
    /// Messages must be injected in nondecreasing order of injection time
    /// (callers sort first); debug builds assert it against the tracked last
    /// injection time. Out-of-order injection would silently produce wrong
    /// queueing (`free_at_ms` only ratchets forward, so an earlier message
    /// would be priced as if it arrived after a later one).
    pub fn inject(&mut self, inject_ms: f64, bytes: usize) -> f64 {
        let transfer_ms = self.link.transfer_ms(bytes);
        debug_assert!(inject_ms >= 0.0 && transfer_ms >= 0.0);
        debug_assert!(
            inject_ms >= self.last_inject_ms,
            "messages must be injected in nondecreasing time order \
             ({inject_ms} ms after {} ms)",
            self.last_inject_ms
        );
        self.last_inject_ms = inject_ms;
        let start = inject_ms
            .max(self.free_at_ms)
            .max(self.last_start_ms + self.gap_ms);
        self.last_start_ms = start;
        self.free_at_ms = start + transfer_ms;
        self.busy_ms += transfer_ms;
        self.free_at_ms
    }
}

impl NetModel for SerialLink {
    fn ranks(&self) -> usize {
        1
    }

    fn inject(&mut self, rank: usize, when_ms: f64, bytes: usize) -> f64 {
        assert_eq!(rank, 0, "SerialLink has a single sending rank");
        SerialLink::inject(self, when_ms, bytes)
    }

    fn completion_ms(&self) -> f64 {
        self.free_at_ms
    }

    fn busy_ms(&self) -> f64 {
        self.busy_ms
    }

    fn reset(&mut self) {
        *self = SerialLink::gapped(self.link, self.gap_ms);
    }
}

/// A whole job: one serializing [`SerialLink`] per sending rank behind a
/// store-and-forward uplink hop.
///
/// Ranks are packed onto nodes `ranks_per_node` at a time (the last node may
/// be partially filled); each node hangs off its own switch uplink, and the
/// uplinks share a spine. Contention is priced at both levels by tapering
/// per-byte cost — real queueing happens at the per-rank channels:
///
/// * a rank's channel prices bytes at
///   `β · (1 + contention · (node_occupancy − 1))` — the node's ranks contend
///   for node-local injection bandwidth;
/// * the uplink hop is store-and-forward: arrival = channel completion +
///   `α_up + β_up · (1 + uplink_contention · (nodes − 1)) · bytes` — the
///   switches contend for the spine.
///
/// `contention = 0` models full bisection bandwidth (ranks never slow each
/// other down); `contention = 1` one fully shared bottleneck (aggregate
/// bandwidth fixed at a single link's worth however many ranks inject). α
/// and the gap are per-channel properties and are not tapered. With one rank
/// the taper factor is exactly `1.0`, so a 1-rank flat fabric is
/// bit-identical to a bare [`SerialLink`] at any contention setting.
#[derive(Debug, Clone)]
pub struct Fabric {
    nics: Vec<SerialLink>,
    /// The spine-tapered hop every message takes after its channel.
    uplink: LinkModel,
    /// Per-rank uplink wire time (ms). [`busy_ms`](NetModel::busy_ms) sums
    /// it in rank order, so its bits do not depend on how the ranks'
    /// injections interleaved.
    uplink_wire_ms: Vec<f64>,
    /// Running max of returned arrival times (ms).
    completion_ms: f64,
}

impl Fabric {
    /// A flat fabric: `ranks` idle channels on one node sharing `link` under
    /// `contention` ∈ `[0, 1]`, behind a free hop —
    /// `β_eff = β · (1 + contention · (ranks − 1))`.
    pub fn new(ranks: usize, link: LinkModel, contention: f64) -> Self {
        ResolvedNetModel::one_node(link, 0.0, contention).build(ranks)
    }
}

impl NetModel for Fabric {
    fn ranks(&self) -> usize {
        self.nics.len()
    }

    fn inject(&mut self, rank: usize, when_ms: f64, bytes: usize) -> f64 {
        let nic_done = self.nics[rank].inject(when_ms, bytes);
        let hop = self.uplink.transfer_ms(bytes);
        self.uplink_wire_ms[rank] += hop;
        let arrival = nic_done + hop;
        self.completion_ms = self.completion_ms.max(arrival);
        arrival
    }

    fn completion_ms(&self) -> f64 {
        self.completion_ms
    }

    fn busy_ms(&self) -> f64 {
        self.nics.iter().map(|nic| nic.busy_ms).sum::<f64>()
            + self.uplink_wire_ms.iter().sum::<f64>()
    }

    fn reset(&mut self) {
        for nic in &mut self.nics {
            nic.reset();
        }
        self.uplink_wire_ms.fill(0.0);
        self.completion_ms = 0.0;
    }
}

/// Upper bound on each LogGP parameter (`latency_ms`, `gap_ms` in ms;
/// `gap_per_byte_ms` in ms per byte): ≈ 32 years. It keeps every price
/// finite — a job of 2⁴⁰ ranks at full contention, each sending
/// `usize::MAX` bytes in 65 535 messages, sums to under 10⁶⁰ ms of wire
/// time — where an unbounded finite parameter overflowed to ∞ (a `null` in
/// a cached row).
const LOGGP_MAX_MS: f64 = 1.0e12;

/// A network model as scenario-matrix data: the serde shape that names a
/// [`Fabric`] in matrix JSON. Specs resolve into typed [`ResolvedNetModel`]
/// handles (name lookups and range checks happen once, at resolve time)
/// which then [`build`](ResolvedNetModel::build) a fresh fabric per pricing
/// run. The three variants are three spellings of the one fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NetModelSpec {
    /// Flat contended fabric over a named α/β link — the model behind the
    /// legacy `links` axis.
    Fabric {
        /// Link-model name (`omni-path` / `high-latency` / `zero`).
        link: String,
        /// Spine contention coefficient ∈ [0, 1].
        contention: f64,
    },
    /// Two-level topology: per-node NICs under per-switch uplinks.
    Hierarchical {
        /// NIC link-model name.
        link: String,
        /// Uplink link-model name.
        uplink: String,
        /// Ranks packed onto each node (last node may be partial).
        ranks_per_node: usize,
        /// Node-local contention among a node's ranks ∈ [0, 1].
        nic_contention: f64,
        /// Spine contention among switch uplinks ∈ [0, 1].
        uplink_contention: f64,
    },
    /// LogGP-style channels: per-message latency + gap, per-byte Gap.
    LogGP {
        /// Per-message latency `L` (ms).
        latency_ms: f64,
        /// Minimum interval between message starts `g` (ms).
        gap_ms: f64,
        /// Per-byte Gap `G` (ms).
        gap_per_byte_ms: f64,
        /// Spine contention tapering `G` ∈ [0, 1].
        contention: f64,
    },
}

impl NetModelSpec {
    /// Short display label for table rows (the row's `link` column).
    pub fn label(&self) -> String {
        match self {
            NetModelSpec::Fabric { link, .. } => link.clone(),
            NetModelSpec::Hierarchical {
                link,
                uplink,
                ranks_per_node,
                nic_contention,
                uplink_contention,
            } => format!(
                "hier({link}+{uplink},{ranks_per_node}/node,c{nic_contention}/{uplink_contention})"
            ),
            NetModelSpec::LogGP {
                latency_ms,
                gap_ms,
                gap_per_byte_ms,
                contention,
            } => format!("loggp(L{latency_ms},g{gap_ms},G{gap_per_byte_ms},c{contention})"),
        }
    }

    /// Validates every name and range and returns the typed handle, so no
    /// lookup — and therefore no panic path — survives past resolution.
    ///
    /// # Errors
    /// A human-readable description of the first invalid parameter.
    pub fn resolve(&self) -> Result<ResolvedNetModel, String> {
        let link_of =
            |name: &str| link_by_name(name).ok_or_else(|| format!("unknown link model `{name}`"));
        let contention_in_range = |label: &str, c: f64| {
            if (0.0..=1.0).contains(&c) {
                Ok(())
            } else {
                Err(format!("{label} {c} outside [0, 1]"))
            }
        };
        match self {
            NetModelSpec::Fabric { link, contention } => {
                contention_in_range("contention", *contention)?;
                Ok(ResolvedNetModel::one_node(link_of(link)?, 0.0, *contention))
            }
            NetModelSpec::Hierarchical {
                link,
                uplink,
                ranks_per_node,
                nic_contention,
                uplink_contention,
            } => {
                if *ranks_per_node == 0 {
                    return Err("ranks_per_node must be ≥ 1".into());
                }
                contention_in_range("nic_contention", *nic_contention)?;
                contention_in_range("uplink_contention", *uplink_contention)?;
                Ok(ResolvedNetModel {
                    link: link_of(link)?,
                    gap_ms: 0.0,
                    contention: *nic_contention,
                    ranks_per_node: *ranks_per_node,
                    uplink: link_of(uplink)?,
                    uplink_contention: *uplink_contention,
                })
            }
            NetModelSpec::LogGP {
                latency_ms,
                gap_ms,
                gap_per_byte_ms,
                contention,
            } => {
                for (label, v) in [
                    ("latency_ms", *latency_ms),
                    ("gap_ms", *gap_ms),
                    ("gap_per_byte_ms", *gap_per_byte_ms),
                ] {
                    if !(0.0..=LOGGP_MAX_MS).contains(&v) {
                        return Err(format!("{label} {v} outside [0, {LOGGP_MAX_MS:e}]"));
                    }
                }
                contention_in_range("contention", *contention)?;
                Ok(ResolvedNetModel::one_node(
                    LinkModel::new(*latency_ms, *gap_per_byte_ms),
                    *gap_ms,
                    *contention,
                ))
            }
        }
    }
}

/// A validated [`NetModelSpec`]: the [`Fabric`]'s parameters with every name
/// resolved. Constructed only by [`NetModelSpec::resolve`] (and
/// [`Fabric::new`]); building a fabric from it is infallible.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedNetModel {
    /// Per-rank channel link, before the node-local taper.
    link: LinkModel,
    /// Per-channel gap between message starts (ms).
    gap_ms: f64,
    /// Node-local contention among a node's ranks.
    contention: f64,
    /// Ranks per node (`usize::MAX`: one node, whatever the rank count).
    ranks_per_node: usize,
    /// Uplink hop link, before the spine taper.
    uplink: LinkModel,
    /// Spine contention among the nodes' uplinks.
    uplink_contention: f64,
}

impl ResolvedNetModel {
    /// Every rank on one node behind a free hop.
    fn one_node(link: LinkModel, gap_ms: f64, contention: f64) -> Self {
        ResolvedNetModel {
            link,
            gap_ms,
            contention,
            ranks_per_node: usize::MAX,
            uplink: LinkModel::zero(),
            uplink_contention: 0.0,
        }
    }

    /// Builds a fresh fabric servicing `ranks` sending ranks.
    pub fn build(&self, ranks: usize) -> Fabric {
        assert!(ranks >= 1, "need at least one rank");
        assert!(
            (0.0..=1.0).contains(&self.contention) && (0.0..=1.0).contains(&self.uplink_contention),
            "contention must be in [0, 1]"
        );
        let nodes = ranks.div_ceil(self.ranks_per_node);
        let spine_taper = 1.0 + self.uplink_contention * (nodes - 1) as f64;
        let uplink = LinkModel::new(
            self.uplink.alpha_ms,
            self.uplink.beta_ms_per_byte * spine_taper,
        );
        let nics = (0..ranks)
            .map(|rank| {
                let node = rank / self.ranks_per_node;
                let occupancy = (ranks - node * self.ranks_per_node).min(self.ranks_per_node);
                let taper = 1.0 + self.contention * (occupancy - 1) as f64;
                let link = LinkModel::new(self.link.alpha_ms, self.link.beta_ms_per_byte * taper);
                SerialLink::gapped(link, self.gap_ms)
            })
            .collect();
        Fabric {
            nics,
            uplink,
            uplink_wire_ms: vec![0.0; ranks],
            completion_ms: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fabric over explicit parameters (what a spec resolves to).
    fn fabric(
        ranks: usize,
        ranks_per_node: usize,
        link: LinkModel,
        uplink: LinkModel,
        contention: f64,
        uplink_contention: f64,
    ) -> Fabric {
        ResolvedNetModel {
            link,
            gap_ms: 0.0,
            contention,
            ranks_per_node,
            uplink,
            uplink_contention,
        }
        .build(ranks)
    }

    #[test]
    fn transfer_cost_is_affine() {
        let l = LinkModel::new(1.0, 0.001);
        assert_eq!(l.transfer_ms(0), 1.0);
        assert_eq!(l.transfer_ms(1000), 2.0);
        // Twice the bytes != twice the cost (α amortization).
        assert!(l.transfer_ms(2000) < 2.0 * l.transfer_ms(1000));
    }

    #[test]
    fn omni_path_magnitudes() {
        let l = LinkModel::omni_path();
        // 1 MB at 12.5 GB/s = 80 µs + 1 µs startup.
        let t = l.transfer_ms(1_000_000);
        assert!((t - 0.081).abs() < 0.002, "1 MB transfer {t} ms");
    }

    #[test]
    fn named_links_resolve() {
        assert_eq!(link_by_name("Omni-Path"), Some(LinkModel::omni_path()));
        assert_eq!(
            link_by_name("high-latency"),
            Some(LinkModel::high_latency())
        );
        assert_eq!(link_by_name("zero"), Some(LinkModel::zero()));
        assert_eq!(link_by_name("carrier-pigeon"), None);
        assert_eq!(LinkModel::zero().transfer_ms(1 << 20), 0.0);
    }

    #[test]
    fn idle_link_starts_immediately() {
        // β = 1 ms/byte makes byte counts read as milliseconds.
        let mut link = SerialLink::new(LinkModel::new(0.0, 1.0));
        let done = link.inject(5.0, 2);
        assert_eq!(done, 7.0);
        assert_eq!(link.busy_ms(), 2.0);
    }

    #[test]
    fn busy_link_queues_messages() {
        let mut link = SerialLink::new(LinkModel::new(0.0, 1.0));
        link.inject(0.0, 10); // busy until 10
        let done = link.inject(1.0, 2); // must wait
        assert_eq!(done, 12.0);
        // A later message after the queue drains starts immediately.
        let done = link.inject(20.0, 1);
        assert_eq!(done, 21.0);
        assert_eq!(link.busy_ms(), 13.0);
    }

    #[test]
    fn back_to_back_messages_pipeline() {
        let mut link = SerialLink::new(LinkModel::new(1.0, 0.0));
        let mut last = 0.0;
        for i in 0..10 {
            last = link.inject(i as f64 * 0.1, 1);
        }
        // All 10 messages serialized: completion = 10 × 1.0.
        assert_eq!(last, 10.0);
    }

    #[test]
    fn reset_restores_the_fresh_state() {
        let model = LinkModel::omni_path();
        let mut link = SerialLink::gapped(model, 0.5);
        link.inject(1.0, 4096);
        link.reset();
        let mut fresh = SerialLink::gapped(model, 0.5);
        assert_eq!(link.inject(0.5, 512), fresh.inject(0.5, 512));
        assert_eq!(link.busy_ms(), fresh.busy_ms());
    }

    #[test]
    #[should_panic]
    fn negative_alpha_rejected() {
        LinkModel::new(-1.0, 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "nondecreasing")]
    fn out_of_order_injection_asserts_in_debug() {
        let mut link = SerialLink::new(LinkModel::omni_path());
        link.inject(5.0, 1);
        link.inject(4.0, 1); // earlier than the previous injection
    }

    #[test]
    fn single_rank_fabric_matches_serial_link() {
        // The acceptance identity: any contention setting, one rank, same
        // bits as the bare link.
        let model = LinkModel::omni_path();
        for contention in [0.0, 0.3, 1.0] {
            let mut fabric = Fabric::new(1, model, contention);
            let mut link = SerialLink::new(model);
            for (t, bytes) in [(0.5, 1_000_000), (0.6, 2_000), (9.0, 512)] {
                let a = fabric.inject(0, t, bytes);
                let b = link.inject(t, bytes);
                assert_eq!(a, b, "contention {contention}");
            }
            assert_eq!(fabric.completion_ms(), link.completion_ms());
            assert_eq!(fabric.busy_ms(), link.busy_ms());
            assert_eq!(fabric.nics[0].link, model);
        }
    }

    #[test]
    fn zero_contention_ranks_are_independent() {
        let model = LinkModel::high_latency();
        let mut fabric = Fabric::new(4, model, 0.0);
        // All four ranks inject at the same instant; none queues behind
        // another (full bisection bandwidth).
        let solo = SerialLink::new(model).inject(1.0, 1_000_000);
        for rank in 0..4 {
            assert_eq!(fabric.inject(rank, 1.0, 1_000_000), solo);
        }
        assert_eq!(fabric.completion_ms(), solo);
    }

    #[test]
    fn full_contention_divides_bandwidth() {
        // γ = 1 with R ranks: each byte costs R× the solo per-byte time.
        let model = LinkModel::new(0.0, 1.0e-6);
        let mut fabric = Fabric::new(8, model, 1.0);
        let done = fabric.inject(3, 0.0, 1_000);
        assert!((done - 8.0e-3).abs() < 1e-12, "done {done}");
    }

    #[test]
    fn contention_is_monotone_in_completion() {
        let model = LinkModel::omni_path();
        let mut prev = 0.0;
        for contention in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let mut fabric = Fabric::new(6, model, contention);
            let mut done = 0.0f64;
            for rank in 0..6 {
                done = done.max(fabric.inject(rank, 0.0, 4_000_000));
            }
            assert!(done >= prev, "completion must not improve with contention");
            prev = done;
        }
    }

    #[test]
    #[should_panic(expected = "contention")]
    fn out_of_range_contention_rejected() {
        Fabric::new(2, LinkModel::omni_path(), 1.5);
    }

    #[test]
    fn hierarchical_degenerates_to_flat_fabric() {
        // One node + zero-cost uplink ⇒ bit-identical to the flat fabric,
        // arrival by arrival and counter by counter, at any spine contention.
        let nic = LinkModel::omni_path();
        for contention in [0.0, 0.4, 1.0] {
            let mut flat = Fabric::new(3, nic, contention);
            let mut hier = fabric(3, 3, nic, LinkModel::zero(), contention, 0.7);
            for (rank, t, bytes) in [(0, 0.5, 40_000), (1, 0.5, 9_000), (0, 2.0, 512)] {
                let a = flat.inject(rank, t, bytes);
                let b = hier.inject(rank, t, bytes);
                assert_eq!(a, b, "contention {contention}");
            }
            assert_eq!(hier.completion_ms(), flat.completion_ms());
            assert_eq!(hier.busy_ms(), flat.busy_ms());
        }
    }

    #[test]
    fn hierarchical_uplink_hop_delays_arrival() {
        let nic = LinkModel::omni_path();
        let uplink = LinkModel::high_latency();
        // 4 ranks on 2 nodes, no contention at either level.
        let mut hier = fabric(4, 2, nic, uplink, 0.0, 0.0);
        let arrival = hier.inject(0, 0.0, 1_000_000);
        let nic_only = SerialLink::new(nic).inject(0.0, 1_000_000);
        assert_eq!(arrival, nic_only + uplink.transfer_ms(1_000_000));
        // The hop counts as wire time.
        assert_eq!(
            hier.busy_ms(),
            nic.transfer_ms(1_000_000) + uplink.transfer_ms(1_000_000)
        );
    }

    #[test]
    fn hierarchical_partial_last_node_uses_its_own_occupancy() {
        // 5 ranks, 2 per node ⇒ nodes of occupancy 2, 2, 1. The lone rank on
        // the last node sees no node-local contention.
        let nic = LinkModel::new(0.0, 1.0e-6);
        let mut hier = fabric(5, 2, nic, LinkModel::zero(), 1.0, 0.0);
        let crowded = hier.inject(0, 0.0, 1_000);
        let lone = hier.inject(4, 0.0, 1_000);
        assert_eq!(crowded, 2.0e-3); // β doubled by the node mate
        assert_eq!(lone, 1.0e-3); // solo occupancy ⇒ bare β
    }

    #[test]
    fn loggp_gap_throttles_message_rate() {
        // Three zero-size messages injected back-to-back: with g = 2 ms the
        // starts are 0, 2, 4 even though each transfer takes only 1 ms.
        let mut link = SerialLink::gapped(LinkModel::new(1.0, 0.0), 2.0);
        assert_eq!(link.inject(0.0, 0), 1.0);
        assert_eq!(link.inject(0.0, 0), 3.0);
        assert_eq!(link.inject(0.0, 0), 5.0);
        assert_eq!(link.busy_ms(), 3.0);
    }

    #[test]
    fn loggp_zero_gap_is_a_serial_link() {
        // g = 0: bit-identical to SerialLink over LinkModel(L, G), message
        // by message.
        let (l, g_byte) = (0.05, 2.0e-7);
        let spec = NetModelSpec::LogGP {
            latency_ms: l,
            gap_ms: 0.0,
            gap_per_byte_ms: g_byte,
            contention: 0.5,
        };
        let mut loggp = spec.resolve().unwrap().build(1);
        let mut serial = SerialLink::new(LinkModel::new(l, g_byte));
        for (t, bytes) in [(0.0, 1_000_000), (0.01, 64), (5.0, 123_456)] {
            assert_eq!(loggp.inject(0, t, bytes), serial.inject(t, bytes));
        }
        assert_eq!(loggp.completion_ms(), serial.completion_ms());
        assert_eq!(loggp.busy_ms(), serial.busy_ms());
    }

    #[test]
    fn loggp_contention_tapers_the_per_byte_gap() {
        let spec = NetModelSpec::LogGP {
            latency_ms: 0.0,
            gap_ms: 0.25,
            gap_per_byte_ms: 1.0e-6,
            contention: 1.0,
        };
        let link = spec.resolve().unwrap().build(4);
        for nic in &link.nics {
            assert_eq!(nic.link, LinkModel::new(0.0, 4.0e-6));
            assert_eq!(nic.gap_ms, 0.25);
        }
    }

    /// Prices a few injections, resets, and requires the same prices again.
    fn reprices_identically_after_reset<M: NetModel>(model: &mut M) {
        let ranks = model.ranks().min(2);
        let first: Vec<f64> = (0..ranks).map(|r| model.inject(r, 0.5, 10_000)).collect();
        let (busy, completion) = (model.busy_ms(), model.completion_ms());
        model.reset();
        assert_eq!(model.busy_ms(), 0.0);
        assert_eq!(model.completion_ms(), 0.0);
        let again: Vec<f64> = (0..ranks).map(|r| model.inject(r, 0.5, 10_000)).collect();
        assert_eq!(first, again);
        assert_eq!(model.busy_ms(), busy);
        assert_eq!(model.completion_ms(), completion);
    }

    #[test]
    fn model_reset_reprices_identically() {
        let nic = LinkModel::omni_path();
        reprices_identically_after_reset(&mut SerialLink::gapped(nic, 0.002));
        reprices_identically_after_reset(&mut Fabric::new(2, nic, 0.5));
        reprices_identically_after_reset(&mut fabric(
            4,
            2,
            nic,
            LinkModel::high_latency(),
            0.5,
            0.5,
        ));
        let loggp = NetModelSpec::LogGP {
            latency_ms: 0.01,
            gap_ms: 0.002,
            gap_per_byte_ms: 1.0e-7,
            contention: 0.5,
        };
        reprices_identically_after_reset(&mut loggp.resolve().unwrap().build(2));
    }

    #[test]
    fn spec_labels_and_resolution() {
        let fabric = NetModelSpec::Fabric {
            link: "omni-path".into(),
            contention: 0.5,
        };
        assert_eq!(fabric.label(), "omni-path");
        assert_eq!(
            fabric.resolve().unwrap(),
            ResolvedNetModel::one_node(LinkModel::omni_path(), 0.0, 0.5)
        );

        let hier = NetModelSpec::Hierarchical {
            link: "omni-path".into(),
            uplink: "zero".into(),
            ranks_per_node: 4,
            nic_contention: 0.5,
            uplink_contention: 0.25,
        };
        assert_eq!(hier.label(), "hier(omni-path+zero,4/node,c0.5/0.25)");
        assert!(hier.resolve().is_ok());

        let loggp = NetModelSpec::LogGP {
            latency_ms: 0.001,
            gap_ms: 0.002,
            gap_per_byte_ms: 8.0e-8,
            contention: 0.5,
        };
        assert_eq!(loggp.label(), "loggp(L0.001,g0.002,G0.00000008,c0.5)");
        assert_eq!(
            loggp.resolve().unwrap(),
            ResolvedNetModel::one_node(LinkModel::new(0.001, 8.0e-8), 0.002, 0.5)
        );
        // Labels carry every distinguishing parameter, so two different
        // specs of the same family never render identically in row output.
        let mut other = hier.clone();
        if let NetModelSpec::Hierarchical { nic_contention, .. } = &mut other {
            *nic_contention = 0.75;
        }
        assert_ne!(hier.label(), other.label());
    }

    #[test]
    fn spec_resolution_rejects_bad_parameters() {
        let err = NetModelSpec::Fabric {
            link: "carrier-pigeon".into(),
            contention: 0.5,
        }
        .resolve()
        .unwrap_err();
        assert!(err.contains("carrier-pigeon"), "{err}");

        let err = NetModelSpec::Hierarchical {
            link: "omni-path".into(),
            uplink: "omni-path".into(),
            ranks_per_node: 0,
            nic_contention: 0.5,
            uplink_contention: 0.5,
        }
        .resolve()
        .unwrap_err();
        assert!(err.contains("ranks_per_node"), "{err}");

        let loggp = |latency_ms, gap_ms, gap_per_byte_ms| NetModelSpec::LogGP {
            latency_ms,
            gap_ms,
            gap_per_byte_ms,
            contention: 0.0,
        };
        let err = loggp(f64::NAN, 0.0, 0.0).resolve().unwrap_err();
        assert!(err.contains("latency_ms"), "{err}");
        // Finite is not enough: 1e308 ms once priced to ∞.
        let past = LOGGP_MAX_MS * 2.0;
        for (spec, label) in [
            (loggp(1e308, 0.0, 0.0), "latency_ms"),
            (loggp(0.0, past, 0.0), "gap_ms"),
            (loggp(0.0, 0.0, past), "gap_per_byte_ms"),
        ] {
            let err = spec.resolve().unwrap_err();
            assert!(err.contains(label), "{err}");
        }
        assert!(loggp(LOGGP_MAX_MS, LOGGP_MAX_MS, LOGGP_MAX_MS)
            .resolve()
            .is_ok());

        let err = NetModelSpec::Fabric {
            link: "omni-path".into(),
            contention: 1.5,
        }
        .resolve()
        .unwrap_err();
        assert!(err.contains("contention"), "{err}");
    }

    #[test]
    fn spec_serde_roundtrip() {
        let specs = vec![
            NetModelSpec::Fabric {
                link: "omni-path".into(),
                contention: 0.5,
            },
            NetModelSpec::Hierarchical {
                link: "omni-path".into(),
                uplink: "high-latency".into(),
                ranks_per_node: 2,
                nic_contention: 0.25,
                uplink_contention: 0.75,
            },
            NetModelSpec::LogGP {
                latency_ms: 0.001,
                gap_ms: 0.002,
                gap_per_byte_ms: 8.0e-8,
                contention: 0.0,
            },
        ];
        let json = serde_json::to_string(&specs).unwrap();
        let back: Vec<NetModelSpec> = serde_json::from_str(&json).unwrap();
        assert_eq!(specs, back);
    }

    #[test]
    fn resolved_specs_build_working_models() {
        let specs = [
            NetModelSpec::Fabric {
                link: "omni-path".into(),
                contention: 0.5,
            },
            NetModelSpec::Hierarchical {
                link: "omni-path".into(),
                uplink: "zero".into(),
                ranks_per_node: 2,
                nic_contention: 0.5,
                uplink_contention: 0.5,
            },
            NetModelSpec::LogGP {
                latency_ms: 0.001,
                gap_ms: 0.0,
                gap_per_byte_ms: 8.0e-8,
                contention: 0.5,
            },
        ];
        for spec in &specs {
            let mut model = spec.resolve().unwrap().build(4);
            assert_eq!(model.ranks(), 4);
            let arrival = model.inject(1, 0.5, 1_000);
            assert!(arrival >= 0.5, "{}", spec.label());
            assert!(model.completion_ms() >= arrival);
            assert!(model.busy_ms() >= 0.0);
        }
    }
}
