//! Pluggable network cost models behind one [`NetModel`] trait.
//!
//! Delivery simulation needs a network cost model, not a real network. Every
//! model here answers the same three questions — *when does a message
//! injected at time t arrive*, *when has all traffic drained*, and *how much
//! wire time was spent* — behind the [`NetModel`] trait, so the one delivery
//! kernel ([`crate::earlybird::run_delivery`]) prices any topology and new
//! topologies are data ([`NetModelSpec`]), not new simulator copies.
//!
//! The models:
//!
//! * [`SerialLink`] — the classic postal/LogP-style single channel: one
//!   message of `n` bytes costs `α + β·n` ([`LinkModel`]), and messages
//!   serialize in injection order — the same serialization an MPI
//!   implementation's send engine applies to one peer connection.
//! * [`Fabric`] — a whole job: one serializing NIC per sending rank behind a
//!   shared spine whose effective bandwidth tapers with configurable
//!   injection-rate contention.
//! * [`HierarchicalFabric`] — two levels: per-node NICs (node-local
//!   contention among the node's ranks) under per-switch uplinks priced as a
//!   store-and-forward hop (spine contention among switches).
//! * [`LogGPLink`] — a LogGP-style channel: per-message latency `L`,
//!   per-byte Gap `G`, and a per-message gap `g` that throttles how fast
//!   consecutive messages may *start* — a rate limit the α/β model cannot
//!   express.
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
    pub fn high_latency() -> Self {
        LinkModel::new(50.0e-3, 1.0 / 1.0e9 * 1.0e3)
    }

    /// A free link (α = β = 0) — the degenerate uplink that collapses a
    /// [`HierarchicalFabric`] onto a flat [`Fabric`].
    pub fn zero() -> Self {
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

    /// Wire-busy time attributable to one rank's messages.
    fn rank_busy_ms(&self, rank: usize) -> f64;

    /// Forgets all injected traffic, returning to the fresh state.
    fn reset(&mut self);
}

/// A single serializing channel priced by its own [`LinkModel`]: messages
/// injected at given times depart in injection-time order, each occupying
/// the link for its `α + β·bytes` transfer time.
#[derive(Debug, Clone)]
pub struct SerialLink {
    link: LinkModel,
    /// Time the link becomes free (ms).
    free_at_ms: f64,
    /// Cumulative busy time (ms) — utilization diagnostics.
    busy_ms: f64,
    /// Most recent injection time (ms) — enforces the nondecreasing-injection
    /// contract in debug builds.
    last_inject_ms: f64,
}

impl SerialLink {
    /// A fresh, idle link priced with `link`.
    pub fn new(link: LinkModel) -> Self {
        SerialLink {
            link,
            free_at_ms: 0.0,
            busy_ms: 0.0,
            last_inject_ms: 0.0,
        }
    }

    /// The cost model this link prices with.
    pub fn link(&self) -> &LinkModel {
        &self.link
    }

    /// Injects a `bytes`-byte message at `inject_ms`; returns its completion
    /// (last-byte delivery) time.
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
        let start = inject_ms.max(self.free_at_ms);
        self.free_at_ms = start + transfer_ms;
        self.busy_ms += transfer_ms;
        self.free_at_ms
    }

    /// Time the link becomes idle after all injected traffic.
    pub fn free_at_ms(&self) -> f64 {
        self.free_at_ms
    }

    /// Total wire-busy time so far.
    pub fn busy_ms(&self) -> f64 {
        self.busy_ms
    }

    /// Forgets all injected traffic (the cost model is kept).
    pub fn reset(&mut self) {
        self.free_at_ms = 0.0;
        self.busy_ms = 0.0;
        self.last_inject_ms = 0.0;
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

    fn rank_busy_ms(&self, rank: usize) -> f64 {
        assert_eq!(rank, 0, "SerialLink has a single sending rank");
        self.busy_ms
    }

    fn reset(&mut self) {
        SerialLink::reset(self);
    }
}

/// A whole-job fabric: one serializing NIC per sending rank behind a shared
/// spine with configurable injection-rate contention.
///
/// Each rank owns a [`SerialLink`] — its NIC serializes that rank's
/// injections exactly like the single-sender model — while contention for
/// the shared spine is priced by tapering effective per-byte bandwidth:
///
/// ```text
/// β_eff = β · (1 + contention · (ranks − 1))
/// ```
///
/// `contention = 0` models full bisection bandwidth (ranks never slow each
/// other down); `contention = 1` models one fully shared bottleneck
/// (aggregate bandwidth fixed at a single link's worth however many ranks
/// inject). α is untouched: message startup is a per-NIC property. With one
/// rank the taper factor is exactly `1.0`, so a 1-rank fabric is
/// bit-identical to a bare [`SerialLink`] at any contention setting.
#[derive(Debug, Clone)]
pub struct Fabric {
    effective: LinkModel,
    contention: f64,
    nics: Vec<SerialLink>,
}

impl Fabric {
    /// A fabric of `ranks` idle NICs sharing `link` under `contention`
    /// ∈ `[0, 1]`.
    pub fn new(ranks: usize, link: LinkModel, contention: f64) -> Self {
        assert!(ranks >= 1, "need at least one rank");
        assert!(
            (0.0..=1.0).contains(&contention),
            "contention must be in [0, 1]"
        );
        let taper = 1.0 + contention * (ranks - 1) as f64;
        let effective = LinkModel::new(link.alpha_ms, link.beta_ms_per_byte * taper);
        Fabric {
            effective,
            contention,
            nics: vec![SerialLink::new(effective); ranks],
        }
    }

    /// Number of sending ranks.
    pub fn ranks(&self) -> usize {
        self.nics.len()
    }

    /// The contention coefficient this fabric was built with.
    pub fn contention(&self) -> f64 {
        self.contention
    }

    /// The contention-tapered link model every injection is priced with.
    pub fn effective_link(&self) -> &LinkModel {
        &self.effective
    }

    /// Injects a `bytes`-byte message from `rank` at `inject_ms`; returns its
    /// completion time. Per-rank injections must be nondecreasing in time
    /// (same contract as [`SerialLink::inject`]); different ranks are
    /// independent channels and may interleave freely.
    pub fn inject(&mut self, rank: usize, inject_ms: f64, bytes: usize) -> f64 {
        self.nics[rank].inject(inject_ms, bytes)
    }

    /// Read-only view of one rank's NIC.
    pub fn nic(&self, rank: usize) -> &SerialLink {
        &self.nics[rank]
    }

    /// Time the whole job's traffic has drained (max NIC free time).
    pub fn completion_ms(&self) -> f64 {
        self.nics
            .iter()
            .map(SerialLink::free_at_ms)
            .fold(0.0, f64::max)
    }

    /// Total wire-busy time across all NICs.
    pub fn busy_ms(&self) -> f64 {
        self.nics.iter().map(SerialLink::busy_ms).sum()
    }

    /// Forgets all injected traffic on every NIC.
    pub fn reset(&mut self) {
        for nic in &mut self.nics {
            nic.reset();
        }
    }
}

impl NetModel for Fabric {
    fn ranks(&self) -> usize {
        Fabric::ranks(self)
    }

    fn inject(&mut self, rank: usize, when_ms: f64, bytes: usize) -> f64 {
        Fabric::inject(self, rank, when_ms, bytes)
    }

    fn completion_ms(&self) -> f64 {
        Fabric::completion_ms(self)
    }

    fn busy_ms(&self) -> f64 {
        Fabric::busy_ms(self)
    }

    fn rank_busy_ms(&self, rank: usize) -> f64 {
        self.nics[rank].busy_ms()
    }

    fn reset(&mut self) {
        Fabric::reset(self);
    }
}

/// A two-level topology: per-node NICs under per-switch uplinks.
///
/// Ranks are packed onto nodes `ranks_per_node` at a time (the last node may
/// be partially filled); each node hangs off its own switch uplink, and the
/// uplinks share a spine. Contention is priced at both levels with the same
/// closed-form taper the flat [`Fabric`] uses — real queueing happens at the
/// per-rank NICs, exactly as in [`Fabric`]:
///
/// * a rank's NIC prices bytes at
///   `β_nic · (1 + nic_contention · (node_occupancy − 1))` — the node's
///   ranks contend for node-local injection bandwidth;
/// * the uplink hop is store-and-forward: arrival = NIC completion +
///   `α_up + β_up · (1 + uplink_contention · (nodes − 1)) · bytes` — the
///   switches contend for the spine.
///
/// Degenerate identity: with a single node (`ranks_per_node ≥ ranks`) and a
/// zero-cost uplink ([`LinkModel::zero`]), every arrival, busy time, and
/// completion is bit-identical to `Fabric::new(ranks, nic, nic_contention)`.
#[derive(Debug, Clone)]
pub struct HierarchicalFabric {
    ranks_per_node: usize,
    nodes: usize,
    uplink_effective: LinkModel,
    nics: Vec<SerialLink>,
    /// Per-rank uplink wire time (ms).
    uplink_wire_ms: Vec<f64>,
    /// Running max of returned arrival times (ms).
    completion_ms: f64,
}

impl HierarchicalFabric {
    /// A fabric of `ranks` ranks packed `ranks_per_node` to a node, NICs
    /// priced with `nic` under `nic_contention`, uplinks priced with
    /// `uplink` under `uplink_contention` (both contentions ∈ `[0, 1]`).
    pub fn new(
        ranks: usize,
        ranks_per_node: usize,
        nic: LinkModel,
        uplink: LinkModel,
        nic_contention: f64,
        uplink_contention: f64,
    ) -> Self {
        assert!(ranks >= 1, "need at least one rank");
        assert!(ranks_per_node >= 1, "need at least one rank per node");
        assert!(
            (0.0..=1.0).contains(&nic_contention),
            "nic contention must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&uplink_contention),
            "uplink contention must be in [0, 1]"
        );
        let nodes = ranks.div_ceil(ranks_per_node);
        let spine_taper = 1.0 + uplink_contention * (nodes - 1) as f64;
        let uplink_effective =
            LinkModel::new(uplink.alpha_ms, uplink.beta_ms_per_byte * spine_taper);
        let nics = (0..ranks)
            .map(|rank| {
                let node = rank / ranks_per_node;
                let occupancy = (ranks - node * ranks_per_node).min(ranks_per_node);
                let taper = 1.0 + nic_contention * (occupancy - 1) as f64;
                SerialLink::new(LinkModel::new(nic.alpha_ms, nic.beta_ms_per_byte * taper))
            })
            .collect();
        HierarchicalFabric {
            ranks_per_node,
            nodes,
            uplink_effective,
            nics,
            uplink_wire_ms: vec![0.0; ranks],
            completion_ms: 0.0,
        }
    }

    /// Number of nodes (switch uplinks).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node
    }

    /// Read-only view of one rank's NIC.
    pub fn nic(&self, rank: usize) -> &SerialLink {
        &self.nics[rank]
    }
}

impl NetModel for HierarchicalFabric {
    fn ranks(&self) -> usize {
        self.nics.len()
    }

    fn inject(&mut self, rank: usize, when_ms: f64, bytes: usize) -> f64 {
        let nic_done = self.nics[rank].inject(when_ms, bytes);
        let hop = self.uplink_effective.transfer_ms(bytes);
        self.uplink_wire_ms[rank] += hop;
        let arrival = nic_done + hop;
        self.completion_ms = self.completion_ms.max(arrival);
        arrival
    }

    fn completion_ms(&self) -> f64 {
        self.completion_ms
    }

    fn busy_ms(&self) -> f64 {
        self.nics.iter().map(SerialLink::busy_ms).sum::<f64>()
            + self.uplink_wire_ms.iter().sum::<f64>()
    }

    fn rank_busy_ms(&self, rank: usize) -> f64 {
        self.nics[rank].busy_ms() + self.uplink_wire_ms[rank]
    }

    fn reset(&mut self) {
        for nic in &mut self.nics {
            nic.reset();
        }
        for wire in &mut self.uplink_wire_ms {
            *wire = 0.0;
        }
        self.completion_ms = 0.0;
    }
}

/// One LogGP-style channel's mutable state.
#[derive(Debug, Clone)]
struct GapChannel {
    free_at_ms: f64,
    /// Start time of the most recent message (`−∞` before the first, so the
    /// gap constraint never delays an initial injection).
    last_start_ms: f64,
    busy_ms: f64,
    last_inject_ms: f64,
}

impl GapChannel {
    fn fresh() -> Self {
        GapChannel {
            free_at_ms: 0.0,
            last_start_ms: f64::NEG_INFINITY,
            busy_ms: 0.0,
            last_inject_ms: 0.0,
        }
    }
}

/// A LogGP-style link: per-message latency `L`, per-byte Gap `G`, and a
/// per-message gap `g` throttling consecutive message *starts* on one
/// channel — the injection-rate limit the α/β [`LinkModel`] cannot express.
///
/// One message of `n` bytes occupies its channel for `L + G·n`, starting at
/// `max(inject time, channel free, previous start + g)`. With `g = 0` the
/// gap constraint is inert and the channel is bit-identical to a
/// [`SerialLink`] over `LinkModel { alpha_ms: L, beta_ms_per_byte: G }` —
/// including each message's transfer time, which is computed with exactly
/// [`LinkModel::transfer_ms`]'s arithmetic.
///
/// Multi-rank form: one independent channel per rank, with spine contention
/// priced by tapering `G` exactly like [`Fabric`] tapers β
/// (`G_eff = G · (1 + contention · (ranks − 1))`); `g` and `L` are
/// per-channel properties and are not tapered.
#[derive(Debug, Clone)]
pub struct LogGPLink {
    latency_ms: f64,
    gap_ms: f64,
    /// Contention-tapered per-byte Gap.
    gap_per_byte_ms: f64,
    channels: Vec<GapChannel>,
}

impl LogGPLink {
    /// A single idle channel with the given parameters (all non-negative and
    /// finite).
    pub fn new(latency_ms: f64, gap_ms: f64, gap_per_byte_ms: f64) -> Self {
        LogGPLink::with_ranks(1, latency_ms, gap_ms, gap_per_byte_ms, 0.0)
    }

    /// `ranks` independent channels under spine `contention` ∈ `[0, 1]`.
    pub fn with_ranks(
        ranks: usize,
        latency_ms: f64,
        gap_ms: f64,
        gap_per_byte_ms: f64,
        contention: f64,
    ) -> Self {
        assert!(ranks >= 1, "need at least one rank");
        assert!(latency_ms >= 0.0 && latency_ms.is_finite());
        assert!(gap_ms >= 0.0 && gap_ms.is_finite());
        assert!(gap_per_byte_ms >= 0.0 && gap_per_byte_ms.is_finite());
        assert!(
            (0.0..=1.0).contains(&contention),
            "contention must be in [0, 1]"
        );
        let taper = 1.0 + contention * (ranks - 1) as f64;
        LogGPLink {
            latency_ms,
            gap_ms,
            gap_per_byte_ms: gap_per_byte_ms * taper,
            channels: vec![GapChannel::fresh(); ranks],
        }
    }

    /// The per-message gap `g`.
    pub fn gap_ms(&self) -> f64 {
        self.gap_ms
    }

    /// The contention-tapered per-byte Gap every byte is priced with.
    pub fn effective_gap_per_byte_ms(&self) -> f64 {
        self.gap_per_byte_ms
    }

    /// Wire time of one `bytes`-byte message (ms) — `L + G_eff·bytes`, the
    /// same arithmetic as [`LinkModel::transfer_ms`].
    pub fn transfer_ms(&self, bytes: usize) -> f64 {
        self.latency_ms + self.gap_per_byte_ms * bytes as f64
    }
}

impl NetModel for LogGPLink {
    fn ranks(&self) -> usize {
        self.channels.len()
    }

    fn inject(&mut self, rank: usize, when_ms: f64, bytes: usize) -> f64 {
        let transfer_ms = self.latency_ms + self.gap_per_byte_ms * bytes as f64;
        let ch = &mut self.channels[rank];
        debug_assert!(when_ms >= 0.0);
        debug_assert!(
            when_ms >= ch.last_inject_ms,
            "messages must be injected in nondecreasing time order \
             ({when_ms} ms after {} ms)",
            ch.last_inject_ms
        );
        ch.last_inject_ms = when_ms;
        let start = when_ms
            .max(ch.free_at_ms)
            .max(ch.last_start_ms + self.gap_ms);
        ch.last_start_ms = start;
        ch.free_at_ms = start + transfer_ms;
        ch.busy_ms += transfer_ms;
        ch.free_at_ms
    }

    fn completion_ms(&self) -> f64 {
        self.channels
            .iter()
            .map(|ch| ch.free_at_ms)
            .fold(0.0, f64::max)
    }

    fn busy_ms(&self) -> f64 {
        self.channels.iter().map(|ch| ch.busy_ms).sum()
    }

    fn rank_busy_ms(&self, rank: usize) -> f64 {
        self.channels[rank].busy_ms
    }

    fn reset(&mut self) {
        for ch in &mut self.channels {
            *ch = GapChannel::fresh();
        }
    }
}

/// A network model as scenario-matrix data: the serde shape that names any
/// [`NetModel`] in matrix JSON. Specs resolve into typed
/// [`ResolvedNetModel`] handles (name lookups and range checks happen once,
/// at resolve time) which then [`build`](ResolvedNetModel::build) a fresh
/// model per pricing run.
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
                Ok(ResolvedNetModel::Fabric {
                    link: link_of(link)?,
                    contention: *contention,
                })
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
                Ok(ResolvedNetModel::Hierarchical {
                    link: link_of(link)?,
                    uplink: link_of(uplink)?,
                    ranks_per_node: *ranks_per_node,
                    nic_contention: *nic_contention,
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
                    if !(v.is_finite() && v >= 0.0) {
                        return Err(format!("{label} {v} must be finite and non-negative"));
                    }
                }
                contention_in_range("contention", *contention)?;
                Ok(ResolvedNetModel::LogGP {
                    latency_ms: *latency_ms,
                    gap_ms: *gap_ms,
                    gap_per_byte_ms: *gap_per_byte_ms,
                    contention: *contention,
                })
            }
        }
    }
}

/// A validated [`NetModelSpec`] with every name resolved into its typed
/// handle. Constructed only by [`NetModelSpec::resolve`]; building a model
/// from it is infallible.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedNetModel {
    /// Flat contended fabric.
    Fabric {
        /// Base link model.
        link: LinkModel,
        /// Spine contention coefficient.
        contention: f64,
    },
    /// Two-level topology.
    Hierarchical {
        /// NIC link model.
        link: LinkModel,
        /// Uplink link model.
        uplink: LinkModel,
        /// Ranks per node.
        ranks_per_node: usize,
        /// Node-local contention.
        nic_contention: f64,
        /// Spine contention.
        uplink_contention: f64,
    },
    /// LogGP-style channels.
    LogGP {
        /// Per-message latency (ms).
        latency_ms: f64,
        /// Minimum interval between message starts (ms).
        gap_ms: f64,
        /// Per-byte Gap (ms).
        gap_per_byte_ms: f64,
        /// Spine contention tapering the Gap.
        contention: f64,
    },
}

impl ResolvedNetModel {
    /// Builds a fresh model instance servicing `ranks` sending ranks.
    pub fn build(&self, ranks: usize) -> Box<dyn NetModel> {
        match *self {
            ResolvedNetModel::Fabric { link, contention } => {
                Box::new(Fabric::new(ranks, link, contention))
            }
            ResolvedNetModel::Hierarchical {
                link,
                uplink,
                ranks_per_node,
                nic_contention,
                uplink_contention,
            } => Box::new(HierarchicalFabric::new(
                ranks,
                ranks_per_node,
                link,
                uplink,
                nic_contention,
                uplink_contention,
            )),
            ResolvedNetModel::LogGP {
                latency_ms,
                gap_ms,
                gap_per_byte_ms,
                contention,
            } => Box::new(LogGPLink::with_ranks(
                ranks,
                latency_ms,
                gap_ms,
                gap_per_byte_ms,
                contention,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut link = SerialLink::new(model);
        link.inject(1.0, 4096);
        link.reset();
        let mut fresh = SerialLink::new(model);
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
            assert_eq!(fabric.completion_ms(), link.free_at_ms());
            assert_eq!(fabric.busy_ms(), link.busy_ms());
            assert_eq!(
                fabric.effective_link().beta_ms_per_byte,
                model.beta_ms_per_byte
            );
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
        // One node + zero-cost uplink ⇒ bit-identical to Fabric, arrival by
        // arrival and counter by counter.
        let nic = LinkModel::omni_path();
        for contention in [0.0, 0.4, 1.0] {
            let mut flat = Fabric::new(3, nic, contention);
            let mut hier = HierarchicalFabric::new(3, 3, nic, LinkModel::zero(), contention, 0.7);
            assert_eq!(hier.nodes(), 1);
            for (rank, t, bytes) in [(0, 0.5, 40_000), (1, 0.5, 9_000), (0, 2.0, 512)] {
                let a = flat.inject(rank, t, bytes);
                let b = NetModel::inject(&mut hier, rank, t, bytes);
                assert_eq!(a, b, "contention {contention}");
            }
            assert_eq!(NetModel::completion_ms(&hier), Fabric::completion_ms(&flat));
            assert_eq!(NetModel::busy_ms(&hier), Fabric::busy_ms(&flat));
            for rank in 0..3 {
                assert_eq!(hier.rank_busy_ms(rank), flat.nic(rank).busy_ms());
            }
        }
    }

    #[test]
    fn hierarchical_uplink_hop_delays_arrival() {
        let nic = LinkModel::omni_path();
        let uplink = LinkModel::high_latency();
        // 4 ranks on 2 nodes: node taper uses occupancy 2, spine taper 2
        // nodes.
        let mut hier = HierarchicalFabric::new(4, 2, nic, uplink, 0.0, 0.0);
        assert_eq!(hier.nodes(), 2);
        assert_eq!(hier.node_of(1), 0);
        assert_eq!(hier.node_of(2), 1);
        let arrival = NetModel::inject(&mut hier, 0, 0.0, 1_000_000);
        let nic_only = SerialLink::new(nic).inject(0.0, 1_000_000);
        assert_eq!(arrival, nic_only + uplink.transfer_ms(1_000_000));
        // The hop counts as wire time.
        assert_eq!(
            hier.rank_busy_ms(0),
            nic.transfer_ms(1_000_000) + uplink.transfer_ms(1_000_000)
        );
    }

    #[test]
    fn hierarchical_partial_last_node_uses_its_own_occupancy() {
        // 5 ranks, 2 per node ⇒ nodes of occupancy 2, 2, 1. The lone rank on
        // the last node sees no node-local contention.
        let nic = LinkModel::new(0.0, 1.0e-6);
        let mut hier = HierarchicalFabric::new(5, 2, nic, LinkModel::zero(), 1.0, 0.0);
        assert_eq!(hier.nodes(), 3);
        let crowded = NetModel::inject(&mut hier, 0, 0.0, 1_000);
        let lone = NetModel::inject(&mut hier, 4, 0.0, 1_000);
        assert_eq!(crowded, 2.0e-3); // β doubled by the node mate
        assert_eq!(lone, 1.0e-3); // solo occupancy ⇒ bare β
    }

    #[test]
    fn loggp_gap_throttles_message_rate() {
        // Three zero-size messages injected back-to-back: with g = 2 ms the
        // starts are 0, 2, 4 even though each transfer takes only 1 ms.
        let mut link = LogGPLink::new(1.0, 2.0, 0.0);
        assert_eq!(NetModel::inject(&mut link, 0, 0.0, 0), 1.0);
        assert_eq!(NetModel::inject(&mut link, 0, 0.0, 0), 3.0);
        assert_eq!(NetModel::inject(&mut link, 0, 0.0, 0), 5.0);
        assert_eq!(NetModel::busy_ms(&link), 3.0);
    }

    #[test]
    fn loggp_zero_gap_is_a_serial_link() {
        // g = 0: bit-identical to SerialLink over LinkModel(L, G), message
        // by message.
        let (l, g_byte) = (0.05, 2.0e-7);
        let mut loggp = LogGPLink::new(l, 0.0, g_byte);
        let mut serial = SerialLink::new(LinkModel::new(l, g_byte));
        for (t, bytes) in [(0.0, 1_000_000), (0.01, 64), (5.0, 123_456)] {
            assert_eq!(
                NetModel::inject(&mut loggp, 0, t, bytes),
                serial.inject(t, bytes)
            );
        }
        assert_eq!(NetModel::completion_ms(&loggp), serial.free_at_ms());
        assert_eq!(NetModel::busy_ms(&loggp), serial.busy_ms());
        assert_eq!(loggp.transfer_ms(4096), serial.link().transfer_ms(4096));
    }

    #[test]
    fn loggp_contention_tapers_the_per_byte_gap() {
        let link = LogGPLink::with_ranks(4, 0.0, 0.0, 1.0e-6, 1.0);
        assert_eq!(link.effective_gap_per_byte_ms(), 4.0e-6);
        assert_eq!(link.gap_ms(), 0.0);
    }

    #[test]
    fn model_reset_reprices_identically() {
        let nic = LinkModel::omni_path();
        let mut models: Vec<Box<dyn NetModel>> = vec![
            Box::new(SerialLink::new(nic)),
            Box::new(Fabric::new(2, nic, 0.5)),
            Box::new(HierarchicalFabric::new(
                4,
                2,
                nic,
                LinkModel::high_latency(),
                0.5,
                0.5,
            )),
            Box::new(LogGPLink::with_ranks(2, 0.01, 0.002, 1.0e-7, 0.5)),
        ];
        for model in &mut models {
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
    }

    #[test]
    fn spec_labels_and_resolution() {
        let fabric = NetModelSpec::Fabric {
            link: "omni-path".into(),
            contention: 0.5,
        };
        assert_eq!(fabric.label(), "omni-path");
        assert!(matches!(
            fabric.resolve().unwrap(),
            ResolvedNetModel::Fabric { .. }
        ));

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
        assert!(loggp.resolve().is_ok());
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

        let err = NetModelSpec::LogGP {
            latency_ms: f64::NAN,
            gap_ms: 0.0,
            gap_per_byte_ms: 0.0,
            contention: 0.0,
        }
        .resolve()
        .unwrap_err();
        assert!(err.contains("latency_ms"), "{err}");

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
