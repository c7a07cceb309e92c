//! Long-running coloring service: the engine behind `dima serve`.
//!
//! A [`ColoringService`] owns a live coloring of a mutating graph. Churn
//! events are *staged* through the validating [`EventFeed`], *committed*
//! as a batch whenever the repair automata are quiescent, and repaired
//! incrementally by ticking the round [`Stepper`] — the service never
//! blocks a query on a repair in flight.
//!
//! # Determinism and crash safety
//!
//! The service commits a staged batch only at quiescence, so the round
//! at which each batch lands is a pure function of the event sequence —
//! not of wall-clock arrival times. That makes the whole trajectory
//! replayable: a snapshot records nothing but the initial graph and the
//! *history* (committed batches and recolor escalations, each pinned to
//! its round), and [`ColoringService::restore_chain`] re-executes that
//! history through the very same tick loop to a bit-identical coloring.
//! A crash-recovery journal of the same line format covers the tail since
//! the last snapshot; its markers carry a history index so a stale
//! (unrotated) journal deduplicates cleanly against the snapshot.
//!
//! Snapshots are flat JSONL guarded by a CRC-32 trailer: truncation and
//! corruption are detected and reported as structured
//! [`ServiceError`]s, never a panic.
//!
//! # Watchdog
//!
//! A convergence watchdog counts consecutive non-quiescent ticks in
//! which the progress high-water mark (committed color slots plus done
//! nodes) fails to rise; after [`ServiceConfig::watchdog_ticks`] of
//! those it escalates to a full recolor via [`Stepper::restart`]. Each
//! consecutive escalation doubles the stall threshold, so even a
//! hair-trigger watchdog cannot livelock a legitimate repair.
//! Escalations are recorded in the history (RNG streams continue
//! across a restart, so replaying the recorded escalation round
//! reproduces the live trajectory exactly; during replay the watchdog
//! itself is disarmed). The slot count is a running count, kept per
//! tick from the nodes the tick could change.
//!
//! # Cost per batch
//!
//! A batch costs its repair, not the graph. The engine steps only its
//! active nodes. While a batch is open the service logs each node's row
//! before the node first changes; at quiescence the logged nodes' edges,
//! before and after, give the churn-amplification count and update the
//! running port census (ports per color, disagreeing edges, the Kempe
//! pass's seeds, rows that repeat a color), from which the palette count
//! and every decision before the Kempe pass are read. The Kempe
//! compaction runs on the live topology: it reads rows straight from the
//! automata, builds and steps only its seeds and the nodes its
//! operations wake, and writes back only those. What stays O(n + m) per
//! batch is the topology patch's row copy and, when the pass runs, its
//! ephemeral engine's set-up (per-node flags and RNG streams, the
//! topology copy). An escalation, or a change of Δ under the Kempe pass,
//! walks the graph once. The coloring and its hash (status, checkpoints)
//! come from one walk over the topology's sorted neighbor lists, already
//! in `(u, v)` order.

use std::collections::HashMap;
use std::fmt;

use dima_graph::{Graph, VertexId};
use dima_sim::fault::FaultPlan;
use dima_sim::rng::splitmix64;
use dima_sim::telemetry::read::{parse_line, Record};
use dima_sim::telemetry::NoopTracer;
use dima_sim::{
    ChurnBatch, ChurnEvent, ChurnSchedule, EngineConfig, EventFeed, FeedError, NodeSeed, SimError,
    Stepper, Topology,
};

use crate::config::{
    ColorPolicy, ColorReduction, ColoringConfig, Engine, KempeConfig, Rejection, Transport,
};
use crate::edge_coloring::EdgeColoringNode;
use crate::error::CoreError;
use crate::kempe::{self, KempeReport, PortCensus};
use crate::palette::{Color, ColorSet};
use crate::runner::run_protocol;
use crate::strong_coloring::StrongColoringNode;

/// Snapshot format version accepted by [`ColoringService::restore_chain`].
pub const SNAPSHOT_VERSION: u64 = 1;

/// Materialized-base snapshot format version accepted by
/// [`ColoringService::restore_chain`]. A base records the *folded*
/// topology and coloring produced by [`ColoringService::compact_history`]
/// instead of a replay history, so restore cost is `O(graph)` no matter
/// how much history was folded into it.
pub const BASE_VERSION: u64 = 2;

/// Delta-checkpoint format version accepted by
/// [`ColoringService::restore_chain`]. A delta carries the history
/// entries recorded since the previous checkpoint in the chain, bound to
/// its parent by index and CRC.
pub const DELTA_VERSION: u64 = 1;

/// Which repair protocol a service runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeProtocol {
    /// DiMaEC proper edge coloring (Algorithm 1).
    EdgeColoring,
    /// DiMa2ED strong edge coloring of the symmetric closure
    /// (Algorithm 2).
    StrongColoring,
}

impl ServeProtocol {
    /// Stable wire name (`ec` / `strong`), used in snapshots and CLI
    /// flags.
    pub fn name(self) -> &'static str {
        match self {
            ServeProtocol::EdgeColoring => "ec",
            ServeProtocol::StrongColoring => "strong",
        }
    }
}

impl fmt::Display for ServeProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ServeProtocol {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "ec" | "color" => Ok(ServeProtocol::EdgeColoring),
            "strong" | "strong-color" => Ok(ServeProtocol::StrongColoring),
            other => Err(format!("unknown protocol '{other}' (expected 'ec' or 'strong')")),
        }
    }
}

/// Configuration for a [`ColoringService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Repair protocol.
    pub protocol: ServeProtocol,
    /// Coloring parameters. The service requires the bare transport and
    /// a reliable fault plan (quiescence must mean "every node is
    /// done", and snapshots must replay); any shard count is accepted —
    /// the coloring is bit-identical for all of them.
    pub coloring: ColoringConfig,
    /// Consecutive stalled ticks (no rise of the progress high-water
    /// mark — committed color slots plus done nodes — while not
    /// quiescent) before the watchdog escalates to a full recolor. The
    /// threshold doubles after each consecutive escalation so a small
    /// value cannot livelock. `0` disables the watchdog.
    pub watchdog_ticks: u64,
}

impl ServiceConfig {
    /// Service defaults for `protocol` under master seed `seed`:
    /// measurement-profile coloring config (no send validation), no
    /// per-round stat collection (the service runs unbounded), watchdog
    /// at 512 ticks.
    pub fn new(protocol: ServeProtocol, seed: u64) -> Self {
        ServiceConfig {
            protocol,
            coloring: ColoringConfig {
                collect_round_stats: false,
                ..ColoringConfig::for_measurement(seed)
            },
            watchdog_ticks: 512,
        }
    }

    fn validate(&self) -> Result<(), ServiceError> {
        self.coloring.validate().map_err(|e| ServiceError::Config(e.to_string()))?;
        // Any shard count is accepted: the stepper is bit-identical
        // across them (same colorings, same round clock, same
        // snapshots), so serving from the pool is an implementation
        // detail, not a semantic choice.
        if self.coloring.transport != Transport::Bare {
            return Err(ServiceError::Config("the service requires the bare transport".into()));
        }
        if !self.coloring.faults.is_reliable() {
            return Err(ServiceError::Config(
                "the service requires a reliable fault plan: quiescence detection and snapshot \
                 replay assume no injected loss or crashes"
                    .into(),
            ));
        }
        if self.coloring.reduction.is_on() && self.protocol != ServeProtocol::EdgeColoring {
            return Err(ServiceError::Config(
                "palette reduction is an edge-coloring pass; it is not defined for the strong \
                 (directed) protocol"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// A structured service failure. Every invalid input — malformed event,
/// corrupt snapshot, inconsistent history — surfaces as one of these;
/// the service never panics on untrusted data.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// Invalid service configuration.
    Config(String),
    /// A staged event was rejected by topology validation.
    Feed(FeedError),
    /// A query named a vertex outside the graph.
    NoSuchNode {
        /// The offending vertex.
        node: VertexId,
        /// Number of vertices in the graph.
        num_vertices: usize,
    },
    /// A query named an edge absent from the current topology.
    NoSuchEdge {
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
    },
    /// A snapshot failed structural parsing.
    Snapshot {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A snapshot's CRC-32 trailer did not match its body (truncation
    /// or corruption).
    CrcMismatch {
        /// CRC recorded in the trailer.
        expected: u32,
        /// CRC computed over the body.
        actual: u32,
    },
    /// Replaying a recorded history diverged from the recorded rounds —
    /// the snapshot does not describe this build's trajectory.
    Replay(String),
    /// A repair failed to quiesce within the tick budget.
    Budget {
        /// Ticks executed before giving up.
        ticks: u64,
    },
    /// The underlying simulator rejected a round.
    Sim(SimError),
    /// A checkpoint-chain file failed verification against its parent
    /// (broken CRC linkage, wrong chain index, history gap, or an epoch
    /// that does not match the base). Recovery falls back to the newest
    /// checkpoint *before* the offending file.
    Chain {
        /// 0-based index of the delta file in the presented chain.
        index: usize,
        /// What failed to verify.
        message: String,
    },
    /// An operation was invoked in a state it is not defined for (e.g.
    /// compaction while a repair is in flight).
    NotSettled {
        /// The rejected operation.
        what: &'static str,
    },
    /// An internal invariant was violated. Unlike the variants above
    /// this is never caused by untrusted input — it replaces what would
    /// otherwise be a panic on the serve path, so a resident service can
    /// report the failure and keep its state instead of aborting.
    Internal(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Config(m) => write!(f, "invalid service config: {m}"),
            ServiceError::Feed(e) => write!(f, "rejected event: {e}"),
            ServiceError::NoSuchNode { node, num_vertices } => {
                write!(f, "no such node {node}: graph has {num_vertices} vertices")
            }
            ServiceError::NoSuchEdge { u, v } => {
                write!(f, "no edge {u}-{v} in the current topology")
            }
            ServiceError::Snapshot { line, message } => {
                write!(f, "bad snapshot (line {line}): {message}")
            }
            ServiceError::CrcMismatch { expected, actual } => write!(
                f,
                "snapshot CRC mismatch: trailer says {expected:#010x}, body hashes to \
                 {actual:#010x} (truncated or corrupted file)"
            ),
            ServiceError::Replay(m) => write!(f, "history replay diverged: {m}"),
            ServiceError::Budget { ticks } => {
                write!(f, "repair failed to quiesce within {ticks} ticks")
            }
            ServiceError::Sim(e) => write!(f, "simulator error: {e}"),
            ServiceError::Chain { index, message } => {
                write!(f, "checkpoint chain broken at delta {index}: {message}")
            }
            ServiceError::NotSettled { what } => {
                write!(f, "{what} requires a settled service (quiescent, no batch pending)")
            }
            ServiceError::Internal(m) => write!(f, "internal invariant violated: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<FeedError> for ServiceError {
    fn from(e: FeedError) -> Self {
        ServiceError::Feed(e)
    }
}

impl From<SimError> for ServiceError {
    fn from(e: SimError) -> Self {
        ServiceError::Sim(e)
    }
}

/// One entry of the service's replayable history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HistoryEntry {
    /// A churn batch committed at `round`.
    Batch {
        /// 1-based commit sequence number.
        seq: u64,
        /// Round the batch was committed (and applied) at.
        round: u64,
        /// The events, in staging order.
        events: Vec<ChurnEvent>,
    },
    /// A watchdog (or operator) escalation to a full recolor at
    /// `round`.
    Recolor {
        /// Round the restart took effect at.
        round: u64,
    },
}

impl HistoryEntry {
    fn round(&self) -> u64 {
        match self {
            HistoryEntry::Batch { round, .. } | HistoryEntry::Recolor { round } => *round,
        }
    }
}

/// What one [`ColoringService::tick`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tick {
    /// Quiescent with no batch pending — no round was executed.
    Idle,
    /// One communication round executed.
    Round {
        /// 0-based index of the executed round.
        round: u64,
        /// Nodes still repairing after the round.
        active: usize,
        /// Commit sequence number of the batch applied this round, if
        /// any.
        applied: Option<u64>,
        /// Whether the service reached quiescence on this round.
        quiesced: bool,
        /// Round recorded for a watchdog escalation fired by this tick,
        /// if one was.
        escalated: Option<u64>,
    },
}

/// Per-batch repair accounting, drained via
/// [`ColoringService::take_reports`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeBatchReport {
    /// Commit sequence number.
    pub seq: u64,
    /// Round the batch was applied at.
    pub round: u64,
    /// Events in the batch.
    pub events: usize,
    /// Rounds from application to quiescence (≥ 1).
    pub repair_rounds: u64,
    /// Edges whose color assignment after repair differs from before
    /// the batch (new edges count once they are colored; removed edges
    /// are not counted) — the churn-amplification numerator. Counted
    /// against the repaired coloring, before any palette compaction.
    pub colors_changed: u64,
    /// Distinct colors in use once the batch settled (after compaction,
    /// when configured) — the serve-mode quality metric.
    pub colors_used: u64,
    /// What the post-repair Kempe compaction did, when
    /// [`crate::ColorReduction::Kempe`] is configured.
    pub reduction: Option<KempeReport>,
    /// Nodes whose rows the batch's accounting read: the nodes the
    /// batch named or the repair stepped, plus the rows a compaction
    /// wrote back. The accounting's cost follows this, not the graph.
    pub nodes_touched: u64,
    /// Node steps of the repair's engine rounds
    /// ([`dima_sim::RunStats::node_steps`]).
    pub node_steps: u64,
}

/// A service liveness/convergence summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceStatus {
    /// Current round clock.
    pub round: u64,
    /// Quiescent with no batch pending.
    pub settled: bool,
    /// Vertex-slot count of the graph.
    pub nodes: usize,
    /// Nodes currently alive (per the feed's staged view).
    pub alive: usize,
    /// Staged, uncommitted events.
    pub staged: usize,
    /// Batches committed so far.
    pub batches: u64,
    /// Recolor escalations so far.
    pub escalations: u64,
    /// Distinct colors in the current coloring.
    pub colors_used: usize,
    /// [`hash_coloring`] of the current coloring.
    pub hash: u64,
}

/// What [`ColoringService::restore_chain`] replayed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// History entries replayed from the snapshot/base itself (zero for
    /// a materialized base — its history is already folded in).
    pub snapshot_entries: u64,
    /// History entries recovered from the journal tail.
    pub tail_entries: u64,
    /// Journal events re-staged (accepted but uncommitted at the
    /// crash).
    pub staged: u64,
    /// The journal ended mid-line (torn write) — everything before the
    /// tear was recovered.
    pub torn_tail: bool,
    /// Delta-checkpoint files verified and replayed.
    pub deltas_applied: u64,
    /// History entries replayed out of those deltas.
    pub delta_entries: u64,
    /// Delta files discarded because the chain failed verification at
    /// that point (the journal, if also discarded, is not counted
    /// here — see [`RestoreReport::journal_discarded`]).
    pub deltas_discarded: u64,
    /// The journal was discarded because it did not attach to the
    /// verified chain prefix (it was rotated against a checkpoint that
    /// was itself discarded, leaving a replay gap).
    pub journal_discarded: bool,
    /// Why the chain was cut short, if it was (display form of the
    /// verification failure; `None` on a fully verified chain). Not
    /// part of equality because it is diagnostic text.
    pub fallback: Option<ChainFallback>,
}

/// Why [`ColoringService::restore_chain`] stopped applying deltas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainFallback {
    /// The delta's CRC trailer did not match its body.
    Corrupt,
    /// The delta did not link to its parent (index, CRC, epoch, or
    /// history offset mismatch).
    BrokenLink,
}

impl std::fmt::Display for ChainFallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainFallback::Corrupt => write!(f, "corrupt delta"),
            ChainFallback::BrokenLink => write!(f, "broken chain link"),
        }
    }
}

/// What one [`ColoringService::compact_history`] call folded away.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactReport {
    /// The epoch the service rebased into (monotonic, starts at 0 for a
    /// fresh service).
    pub epoch: u64,
    /// History entries folded into the materialized graph.
    pub folded_entries: u64,
    /// Edges of the folded (committed) topology.
    pub graph_edges: usize,
    /// Departed nodes carried as dead slots.
    pub dead_nodes: usize,
}

/// One edge of a coloring, endpoints normalized `u < v`.
///
/// For [`ServeProtocol::EdgeColoring`], `forward` and `reverse` are the
/// two endpoints' views of the single edge color (equal once repair has
/// quiesced). For [`ServeProtocol::StrongColoring`] they are the
/// `u → v` and `v → u` arc colors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColoredEdge {
    /// Lower endpoint.
    pub u: VertexId,
    /// Higher endpoint.
    pub v: VertexId,
    /// Color of the `u → v` slot.
    pub forward: Option<Color>,
    /// Color of the `v → u` slot.
    pub reverse: Option<Color>,
}

/// FNV-1a over a coloring — the bit-identity fingerprint used by
/// snapshot self-checks, the chaos harness and the serve CLI.
pub fn hash_coloring(edges: &[ColoredEdge]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for e in edges {
        for x in [
            u64::from(e.u.0) + 1,
            u64::from(e.v.0) + 1,
            e.forward.map_or(0, |c| u64::from(c.0) + 1),
            e.reverse.map_or(0, |c| u64::from(c.0) + 1),
        ] {
            h ^= x;
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

// `Fn + Sync` because the stepper's shard workers call the factory
// concurrently when churn joins land in different shards.
type EcFactory = Box<dyn Fn(NodeSeed<'_>) -> EdgeColoringNode + Send + Sync>;
type StrongFactory = Box<dyn Fn(NodeSeed<'_>) -> StrongColoringNode + Send + Sync>;

enum Inner {
    Ec(Stepper<EdgeColoringNode, EcFactory>),
    Strong(Stepper<StrongColoringNode, StrongFactory>),
}

impl Inner {
    fn round(&self) -> u64 {
        match self {
            Inner::Ec(s) => s.round(),
            Inner::Strong(s) => s.round(),
        }
    }

    fn is_quiescent(&self) -> bool {
        match self {
            Inner::Ec(s) => s.is_quiescent(),
            Inner::Strong(s) => s.is_quiescent(),
        }
    }

    fn still_active(&self) -> usize {
        match self {
            Inner::Ec(s) => s.still_active(),
            Inner::Strong(s) => s.still_active(),
        }
    }

    fn num_nodes(&self) -> usize {
        match self {
            Inner::Ec(s) => s.num_nodes(),
            Inner::Strong(s) => s.num_nodes(),
        }
    }

    fn topology(&self) -> &Topology {
        match self {
            Inner::Ec(s) => s.topology(),
            Inner::Strong(s) => s.topology(),
        }
    }

    fn tick(&mut self, batch: Option<&ChurnBatch>) -> Result<dima_sim::RoundStats, SimError> {
        match self {
            Inner::Ec(s) => s.tick(batch, &mut NoopTracer),
            Inner::Strong(s) => s.tick(batch, &mut NoopTracer),
        }
    }

    fn restart(&mut self) {
        match self {
            Inner::Ec(s) => s.restart(),
            Inner::Strong(s) => s.restart(),
        }
    }

    fn park_all(&mut self) {
        match self {
            Inner::Ec(s) => s.park_all(),
            Inner::Strong(s) => s.park_all(),
        }
    }

    /// The strong-coloring automata, when this service runs that
    /// protocol.
    fn strong_nodes_mut(&mut self) -> Option<&mut [StrongColoringNode]> {
        match self {
            Inner::Strong(s) => Some(s.nodes_mut()),
            Inner::Ec(_) => None,
        }
    }

    /// The edge-coloring automata, when this service runs that protocol.
    fn ec_nodes_mut(&mut self) -> Option<&mut [EdgeColoringNode]> {
        match self {
            Inner::Ec(s) => Some(s.nodes_mut()),
            Inner::Strong(_) => None,
        }
    }

    /// The active nodes, appended to `out` in id order.
    fn active_into(&self, out: &mut Vec<VertexId>) {
        match self {
            Inner::Ec(s) => out.extend(s.active_nodes()),
            Inner::Strong(s) => out.extend(s.active_nodes()),
        }
    }

    /// Node steps so far (see [`dima_sim::RunStats::node_steps`]).
    fn node_steps(&self) -> u64 {
        match self {
            Inner::Ec(s) => s.stats().node_steps,
            Inner::Strong(s) => s.stats().node_steps,
        }
    }

    /// `u`'s slot toward `v`: the edge color it committed (edge
    /// coloring) or its out-arc's channel (strong coloring).
    fn slot(&self, u: VertexId, v: VertexId) -> Option<Color> {
        match self {
            Inner::Ec(s) => s.nodes()[u.index()].color_toward(v),
            Inner::Strong(s) => s.nodes()[u.index()].out_color_toward(v),
        }
    }

    fn edge_slots(&self, u: VertexId, v: VertexId) -> (Option<Color>, Option<Color>) {
        (self.slot(u, v), self.slot(v, u))
    }

    fn palette(&self, v: VertexId) -> Vec<Color> {
        match self {
            Inner::Ec(s) => s.nodes()[v.index()].palette(),
            Inner::Strong(s) => s.nodes()[v.index()].palette(),
        }
    }

    /// The slots of edge `u`-`v` where `v` is `u`'s port `p` and `u` is
    /// `v`'s port `q` in the topology: direct reads for edge coloring
    /// (a port that does not match falls back to a search), a search per
    /// side for strong coloring.
    fn slots_at(
        &self,
        (u, p): (VertexId, usize),
        (v, q): (VertexId, usize),
    ) -> (Option<Color>, Option<Color>) {
        match self {
            Inner::Ec(s) => {
                let nodes = s.nodes();
                (nodes[u.index()].color_at(p, v), nodes[v.index()].color_at(q, u))
            }
            Inner::Strong(_) => self.edge_slots(u, v),
        }
    }

    /// Visit every edge of the live topology with its two slots, sorted
    /// by `(u, v)`.
    fn for_each_edge(&self, mut visit: impl FnMut(ColoredEdge)) {
        for_each_port_pair(self.topology(), |(u, p), (v, q)| {
            let (forward, reverse) = self.slots_at((u, p), (v, q));
            visit(ColoredEdge { u, v, forward, reverse });
        });
    }

    /// `v`'s filled slots toward its topology neighbors. For edge
    /// coloring (the watchdog's hot path) a node whose ports match its
    /// row counts its colored ports without a search.
    fn filled_of(&self, v: VertexId) -> u32 {
        let row = self.topology().neighbors(v);
        let filled = match self {
            Inner::Ec(s) => s.nodes()[v.index()].colored_toward(row),
            Inner::Strong(_) => row.iter().filter(|&&w| self.slot(v, w).is_some()).count(),
        };
        filled as u32
    }
}

/// The rows of the nodes a repair touched, each as it stood when first
/// touched: the node's topology neighbors, ascending, each with the
/// node's slot toward it. A node is touched before anything can change
/// its row (a batch naming it, its next step, a restart, a compaction
/// write-back), so a node the log does not hold has its row as of the
/// log's start. Recording and lookup cost O(degree); clearing costs the
/// nodes logged.
#[derive(Default)]
struct TouchLog {
    /// Per node: 1 + its index in `nodes`, or 0 when not logged.
    at: Vec<u32>,
    /// The logged nodes in logging order, each with where its row
    /// starts in `rows`.
    nodes: Vec<(VertexId, usize)>,
    rows: Vec<(VertexId, Option<Color>)>,
    /// Rows ever recorded: the accounting's reads, per batch by
    /// difference.
    recorded: u64,
}

impl TouchLog {
    fn new(n: usize) -> Self {
        TouchLog { at: vec![0; n], ..TouchLog::default() }
    }

    fn holds(&self, v: VertexId) -> bool {
        self.at[v.index()] != 0
    }

    /// Record `v`'s row, unless the log holds it already.
    fn record(&mut self, v: VertexId, row: impl Iterator<Item = (VertexId, Option<Color>)>) {
        if !self.holds(v) {
            self.nodes.push((v, self.rows.len()));
            self.at[v.index()] = self.nodes.len() as u32;
            self.rows.extend(row);
            self.recorded += 1;
        }
    }

    fn entry(&self, k: usize) -> (VertexId, &[(VertexId, Option<Color>)]) {
        let (v, start) = self.nodes[k];
        let end = self.nodes.get(k + 1).map_or(self.rows.len(), |&(_, e)| e);
        (v, &self.rows[start..end])
    }

    /// `v`'s logged row, if the log holds it.
    fn row(&self, v: VertexId) -> Option<&[(VertexId, Option<Color>)]> {
        let k = self.at[v.index()] as usize;
        (k > 0).then(|| self.entry(k - 1).1)
    }

    /// Every logged node with its row, in logging order.
    fn entries(&self) -> impl Iterator<Item = (VertexId, &[(VertexId, Option<Color>)])> {
        (0..self.nodes.len()).map(|k| self.entry(k))
    }

    /// Forget every row. The buffers keep room for a batch's repair (a
    /// hundred-odd nodes); a log that held most of the graph (after the
    /// compaction that follows the initial coloring, or an escalation)
    /// gives its memory back.
    fn clear(&mut self) {
        const KEEP_NODES: usize = 256;
        for &(v, _) in &self.nodes {
            self.at[v.index()] = 0;
        }
        self.nodes.clear();
        self.rows.clear();
        self.nodes.shrink_to(KEEP_NODES);
        self.rows.shrink_to(8 * KEEP_NODES);
    }
}

/// Visit every edge `u < v` of `topo` in `(u, v)` order with its ports:
/// `v` is `u`'s port `p` and `u` is `v`'s port `q`. One walk over the
/// sorted neighbor lists: `u` ascends, so each `v` meets its lower
/// neighbors in its own port order, and a per-node cursor names `q`
/// without a search. Relies on the topology being symmetric, as one
/// built from an undirected graph is.
fn for_each_port_pair(
    topo: &Topology,
    mut visit: impl FnMut((VertexId, usize), (VertexId, usize)),
) {
    let mut low = vec![0u32; topo.num_nodes()];
    for u in (0..topo.num_nodes() as u32).map(VertexId) {
        for (p, &v) in topo.neighbors(u).iter().enumerate() {
            if v > u {
                let q = low[v.index()] as usize;
                low[v.index()] += 1;
                debug_assert_eq!(topo.neighbors(v).get(q), Some(&u), "asymmetric topology");
                visit((u, p), (v, q));
            }
        }
    }
}

/// Edges of `post` whose slots differ from `pre` or that `pre` lacks —
/// the churn-amplification count. Both are sorted by `(u, v)`, so one
/// merge walk compares them.
fn colors_changed(pre: &[ColoredEdge], post: &[ColoredEdge]) -> u64 {
    let mut i = 0;
    let mut changed = 0;
    for e in post {
        while pre.get(i).is_some_and(|p| (p.u, p.v) < (e.u, e.v)) {
            i += 1;
        }
        changed += u64::from(pre.get(i) != Some(e));
    }
    changed
}

/// Add the colors on `e`'s slots to `set`.
fn add_colors(set: &mut ColorSet, e: &ColoredEdge) {
    for c in [e.forward, e.reverse].into_iter().flatten() {
        set.insert(c);
    }
}

impl ColoredEdge {
    /// The edge `a`-`b` with `a`'s slot `at_a` and `b`'s slot `at_b`,
    /// endpoints normalized.
    fn between(a: VertexId, b: VertexId, at_a: Option<Color>, at_b: Option<Color>) -> Self {
        if a < b {
            ColoredEdge { u: a, v: b, forward: at_a, reverse: at_b }
        } else {
            ColoredEdge { u: b, v: a, forward: at_b, reverse: at_a }
        }
    }
}

struct OpenBatch {
    seq: u64,
    round: u64,
    events: usize,
    /// The stepper's node steps and the log's recorded rows when the
    /// batch applied.
    node_steps: u64,
    recorded: u64,
}

/// A live, crash-recoverable coloring of a mutating graph. See the
/// [module docs](self) for the execution and recovery model.
pub struct ColoringService {
    cfg: ServiceConfig,
    g0: Graph,
    palette_bound0: u32,
    feed: EventFeed,
    inner: Inner,
    /// Number of history compactions applied so far. Each compaction
    /// rebases the service onto fresh per-node RNG streams derived from
    /// `epoch_seed(master, epoch)` and resets the round clock and
    /// history, so the epoch (recorded in materialized bases) is part of
    /// the service's deterministic identity.
    epoch: u64,
    pending: Option<ChurnBatch>,
    pending_seq: u64,
    history: Vec<HistoryEntry>,
    batches_committed: u64,
    escalations: u64,
    watchdog_armed: bool,
    stall_ticks: u64,
    progress_hwm: u64,
    backoff: u32,
    open_batch: Option<OpenBatch>,
    reports: Vec<ServeBatchReport>,
    /// What the compaction at the last settle point did (see
    /// [`ColoringService::last_compaction`]).
    last_compaction: Option<KempeReport>,
    /// Ports per color and disagreeing edges of the coloring as of the
    /// last settle point, kept from the touched nodes' rows (see
    /// [`ColoringService::settle`]).
    census: PortCensus,
    /// Set when the census must be walked at the next settle point: the
    /// rows changed without a log (the initial coloring, a restart).
    census_stale: bool,
    /// Filled slots per node and their sum — the watchdog's count, kept
    /// per tick from the nodes that could have changed.
    filled: Vec<u32>,
    filled_total: u64,
    /// The rows the open batch's repair touched.
    log: TouchLog,
}

/// Per-node RNG master seed for `epoch`. Epoch 0 is the configured seed
/// itself (a fresh, never-compacted service is bit-compatible with every
/// pre-compaction snapshot); later epochs mix the epoch index in through
/// splitmix64 so each rebase starts statistically fresh streams while
/// staying a pure function of `(master, epoch)`.
fn epoch_seed(master: u64, epoch: u64) -> u64 {
    if epoch == 0 {
        master
    } else {
        splitmix64(splitmix64(master) ^ splitmix64(0x5EED_BA5E ^ epoch))
    }
}

impl ColoringService {
    /// Build the engine and per-protocol artifacts for `cfg` over `g`,
    /// with per-node RNG streams seeded from `engine_seed` (the
    /// [`epoch_seed`] of the current epoch — the configured master seed
    /// for epoch 0). Shared by the fresh-service constructor and the
    /// compaction rebase.
    fn build_inner(
        g: &Graph,
        cfg: &ServiceConfig,
        engine_seed: u64,
    ) -> Result<(Inner, u32), SimError> {
        let delta = g.max_degree();
        let palette_bound = ((2 * delta).saturating_sub(1)).max(1) as u32;
        let engine_cfg = EngineConfig {
            seed: engine_seed,
            max_rounds: u64::MAX,
            collect_round_stats: false,
            validate_sends: cfg.coloring.validate_sends,
            faults: FaultPlan::reliable(),
            profile: false,
            metrics: false,
        };
        let topo = Topology::from_graph(g);
        let threads = cfg.coloring.engine.threads();
        let inner = match cfg.protocol {
            ServeProtocol::EdgeColoring => {
                let ccfg = cfg.coloring.clone();
                let factory: EcFactory = Box::new(move |seed: NodeSeed<'_>| {
                    EdgeColoringNode::new(&seed, &ccfg, palette_bound)
                });
                Inner::Ec(Stepper::new(&topo, &engine_cfg, threads, factory)?)
            }
            ServeProtocol::StrongColoring => {
                let ccfg = cfg.coloring.clone();
                let factory: StrongFactory =
                    Box::new(move |seed: NodeSeed<'_>| StrongColoringNode::new(&seed, &ccfg));
                Inner::Strong(Stepper::new(&topo, &engine_cfg, threads, factory)?)
            }
        };
        Ok((inner, palette_bound))
    }

    /// Start a fresh service over `g0`. The initial coloring has not
    /// run yet — call [`ColoringService::run_to_quiescence`] (or tick)
    /// to converge it.
    pub fn new(g0: &Graph, cfg: ServiceConfig) -> Result<Self, ServiceError> {
        cfg.validate()?;
        let (inner, palette_bound0) = Self::build_inner(g0, &cfg, cfg.coloring.seed)?;
        let mut svc = Self::assemble(cfg, g0.clone(), palette_bound0, EventFeed::new(g0), inner);
        // The initial coloring changes every row without a log.
        svc.census_stale = true;
        Ok(svc)
    }

    /// A service over `inner` at epoch 0 with no history, its counts
    /// seeded by one walk.
    fn assemble(
        cfg: ServiceConfig,
        g0: Graph,
        palette_bound0: u32,
        feed: EventFeed,
        inner: Inner,
    ) -> Self {
        let n = inner.num_nodes();
        let mut svc = ColoringService {
            cfg,
            g0,
            palette_bound0,
            feed,
            inner,
            epoch: 0,
            pending: None,
            pending_seq: 0,
            history: Vec::new(),
            batches_committed: 0,
            escalations: 0,
            watchdog_armed: true,
            stall_ticks: 0,
            progress_hwm: 0,
            backoff: 0,
            open_batch: None,
            reports: Vec::new(),
            last_compaction: None,
            census: PortCensus::default(),
            census_stale: false,
            filled: vec![0; n],
            filled_total: 0,
            log: TouchLog::new(n),
        };
        svc.census = svc.live_census();
        svc.refresh_filled((0..n as u32).map(VertexId));
        svc
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Current round clock.
    pub fn round(&self) -> u64 {
        self.inner.round()
    }

    /// Quiescent with no committed batch awaiting application — the
    /// state in which the next staged batch may commit.
    pub fn is_settled(&self) -> bool {
        self.pending.is_none() && self.inner.is_quiescent()
    }

    /// Staged, uncommitted events.
    pub fn staged(&self) -> usize {
        self.feed.staged()
    }

    /// The staged, uncommitted events in staging order — what a journal
    /// rotation must carry over.
    pub fn staged_events(&self) -> &[ChurnEvent] {
        self.feed.staged_events()
    }

    /// Committed batches so far (cumulative across compactions).
    pub fn batches_committed(&self) -> u64 {
        self.batches_committed
    }

    /// Number of history compactions applied so far (see
    /// [`ColoringService::compact_history`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Recolor escalations so far.
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// The replayable history (committed batches and escalations).
    pub fn history(&self) -> &[HistoryEntry] {
        &self.history
    }

    /// Number of history entries — the `h` index the next journal
    /// marker should carry is `history_len() + 1`.
    pub fn history_len(&self) -> u64 {
        self.history.len() as u64
    }

    /// Validate and stage one churn event for the next batch. Rejected
    /// events leave the service untouched.
    pub fn stage(&mut self, ev: ChurnEvent) -> Result<(), ServiceError> {
        self.feed.stage(ev).map_err(ServiceError::Feed)
    }

    /// Reverse the most recently staged event (see
    /// [`EventFeed::unstage_last`]) — the durability back-out for an
    /// ingest loop that accepted an event but failed to journal it.
    pub fn unstage_last(&mut self) -> Option<ChurnEvent> {
        self.feed.unstage_last()
    }

    /// `(seq, round)` the staged events would commit as right now, or
    /// `None` if there is nothing staged or a repair is still running.
    pub fn next_commit(&self) -> Option<(u64, u64)> {
        (self.is_settled() && self.feed.staged() > 0)
            .then(|| (self.batches_committed + 1, self.inner.round()))
    }

    /// Commit the staged events as one batch, to be applied on the next
    /// tick. Returns the commit `(seq, round)`, or `Ok(None)` when
    /// [`ColoringService::next_commit`] is `None`. The error arm covers
    /// an internal feed/service desynchronization (it can only fire on a
    /// bug, never on bad input — but a resident service must report it,
    /// not abort).
    pub fn commit(&mut self) -> Result<Option<(u64, u64)>, ServiceError> {
        let Some((seq, round)) = self.next_commit() else {
            return Ok(None);
        };
        let batch = self.feed.commit(round).ok_or_else(|| {
            ServiceError::Internal(format!(
                "next_commit promised batch {seq} at round {round} but the feed had nothing staged"
            ))
        })?;
        self.history.push(HistoryEntry::Batch { seq, round, events: batch.events.clone() });
        self.pending = Some(batch);
        self.pending_seq = seq;
        self.batches_committed = seq;
        Ok(Some((seq, round)))
    }

    /// Escalate to a full recolor now: every surviving node restarts
    /// the protocol on the current topology. Recorded in the history
    /// (journal it with [`ColoringService::journal_recolor_line`]).
    /// Returns the recorded round.
    pub fn force_recolor(&mut self) -> u64 {
        self.escalate()
    }

    fn escalate(&mut self) -> u64 {
        let round = self.inner.round();
        let all = (0..self.inner.num_nodes() as u32).map(VertexId);
        if self.open_batch.is_some() {
            // Every row restarts: the batch's diff needs them as they were.
            for v in all.clone() {
                self.touch(v);
            }
        }
        self.inner.restart();
        self.refresh_filled(all);
        self.census_stale = true;
        self.history.push(HistoryEntry::Recolor { round });
        self.escalations += 1;
        self.stall_ticks = 0;
        self.progress_hwm = 0;
        self.backoff = self.backoff.saturating_add(1);
        round
    }

    /// Committed color slots plus done nodes — the watchdog's progress
    /// metric. A healthy repair raises it every few ticks; a genuinely
    /// wedged one cannot. A running count: O(1).
    fn progress_metric(&self, done: usize) -> u64 {
        self.filled_total + done as u64
    }

    /// The [`PortCensus`] walk over the live coloring, under committed
    /// liveness: the one whole-graph walk the running counts are seeded
    /// from and checked against.
    fn live_census(&self) -> PortCensus {
        let (feed, inner) = (&self.feed, &self.inner);
        let alive = |v| feed.committed_alive(v);
        PortCensus::walk(inner.topology(), &alive, self.kempe_threshold(), |u, v| inner.slot(u, v))
    }

    /// The threshold the census counts the Kempe pass's seeds against:
    /// the pass's own on the live topology, or `None` when no pass runs.
    fn kempe_threshold(&self) -> Option<u32> {
        match (self.cfg.coloring.reduction, &self.inner) {
            (ColorReduction::Kempe(kcfg), Inner::Ec(s)) => {
                Some(kempe::threshold(&kcfg, s.topology().max_degree()))
            }
            _ => None,
        }
    }

    /// Log `v`'s row as it stands, unless the log holds it already.
    fn touch(&mut self, v: VertexId) {
        let inner = &self.inner;
        let row = inner.topology().neighbors(v).iter().map(|&w| (w, inner.slot(v, w)));
        self.log.record(v, row);
    }

    /// Recount the filled slots of `nodes`, the only ones that can have
    /// changed since they were last counted.
    fn refresh_filled(&mut self, nodes: impl IntoIterator<Item = VertexId>) {
        for v in nodes {
            let now = self.inner.filled_of(v);
            let was = std::mem::replace(&mut self.filled[v.index()], now);
            self.filled_total = self.filled_total + u64::from(now) - u64::from(was);
        }
    }

    /// The edges at the logged nodes, as they stood when logged and as
    /// they stand now, each sorted by `(u, v)`. Every other edge is the
    /// same in both: neither endpoint changed. An edge between two logged
    /// nodes is listed from its lower end.
    fn touched_edges(&self) -> (Vec<ColoredEdge>, Vec<ColoredEdge>) {
        let (log, inner) = (&self.log, &self.inner);
        let listed_at = |u: VertexId, v: VertexId| u < v || !log.holds(v);
        let (mut pre, mut post) = (Vec::new(), Vec::new());
        for (u, row) in log.entries() {
            for &(v, at_u) in row.iter().filter(|&&(v, _)| listed_at(u, v)) {
                let at_v = match log.row(v) {
                    Some(r) => r.binary_search_by_key(&u, |&(w, _)| w).ok().and_then(|i| r[i].1),
                    None => inner.slot(v, u),
                };
                pre.push(ColoredEdge::between(u, v, at_u, at_v));
            }
            for &v in inner.topology().neighbors(u).iter().filter(|&&v| listed_at(u, v)) {
                post.push(ColoredEdge::between(u, v, inner.slot(u, v), inner.slot(v, u)));
            }
        }
        pre.sort_unstable_by_key(|e| (e.u, e.v));
        post.sort_unstable_by_key(|e| (e.u, e.v));
        (pre, post)
    }

    /// Bring the census up to the rows as they stand and empty the log:
    /// the logged nodes' edges come out as they were and go in as they
    /// are, and, when `recheck_rows`, each logged node's row is checked for
    /// a repeated color. When the census is stale, or a change of Δ moved
    /// the Kempe threshold, one walk recounts it instead. Returns the
    /// edges whose slots changed or that are new — the
    /// churn-amplification count since the log started. Costs the logged
    /// nodes' degrees, not the graph.
    fn settle(&mut self, recheck_rows: bool) -> u64 {
        let (pre, post) = self.touched_edges();
        let stale = std::mem::take(&mut self.census_stale);
        if stale || self.kempe_threshold() != self.census.threshold() {
            self.census = self.live_census();
        } else {
            let (log, inner, census) = (&self.log, &self.inner, &mut self.census);
            for e in &pre {
                census.edge(e.u, e.forward, e.reverse, false);
            }
            for e in &post {
                census.edge(e.u, e.forward, e.reverse, true);
            }
            // Only a census the Kempe pass reads, under edge coloring,
            // keeps improper rows. Every topology neighbor of a live node
            // is live, and a departed node's row is empty.
            if let (Some(_), Inner::Ec(s), true) = (census.threshold(), inner, recheck_rows) {
                let mut seen = ColorSet::new();
                for (u, _) in log.entries() {
                    let node = &s.nodes()[u.index()];
                    let row = s.topology().neighbors(u).iter().enumerate();
                    census.row(u, row.map(|(p, &v)| node.color_at(p, v)), &mut seen);
                }
            }
        }
        self.log.clear();
        colors_changed(&pre, &post)
    }

    /// Execute one communication round, applying a pending batch first
    /// if one was committed. Idle (quiescent, nothing pending) ticks
    /// execute nothing and consume no randomness.
    ///
    /// Cost: the engine round, which steps only the active nodes, plus
    /// O(degree) per node the round can change — a batch's nodes and
    /// the active ones — to keep the watchdog's count and, while a batch
    /// is open, to log each row before its first change. The tick that
    /// quiesces settles the counts from the logged rows, in the logged
    /// nodes' degrees, and runs the compaction, which costs its seeds,
    /// the nodes it wakes and its rounds. Nothing walks the whole graph
    /// but the topology patch's row copy, an escalation (or a change of
    /// Δ under the Kempe pass, which recounts the census) and the
    /// per-node set-up of a compaction's engine.
    pub fn tick(&mut self) -> Result<Tick, ServiceError> {
        if self.pending.is_none() && self.inner.is_quiescent() {
            return Ok(Tick::Idle);
        }
        let applied = self.pending.take();
        let applied_seq = applied.as_ref().map(|_| self.pending_seq);
        if let Some(b) = &applied {
            self.open_batch = Some(OpenBatch {
                seq: self.pending_seq,
                round: b.round,
                events: b.events.len(),
                node_steps: self.inner.node_steps(),
                recorded: self.log.recorded,
            });
            self.stall_ticks = 0;
            self.progress_hwm = 0;
            self.backoff = 0;
        }
        // The nodes this round can change: the batch's and the active
        // ones. While a batch is open, each is logged before its first
        // change.
        let mut stepping = Vec::new();
        if let Some(b) = &applied {
            stepping.extend(b.joins.iter().chain(&b.leaves));
            stepping.extend(b.changes.iter().map(|&(v, _)| v));
        }
        self.inner.active_into(&mut stepping);
        if self.open_batch.is_some() {
            for &v in &stepping {
                self.touch(v);
            }
        }
        let rs = self.inner.tick(applied.as_ref())?;
        self.refresh_filled(stepping);
        let mut escalated = None;
        let quiesced = self.inner.is_quiescent();
        if quiesced {
            self.stall_ticks = 0;
            self.backoff = 0;
            let open = self.open_batch.take();
            // The churn-amplification numerator measures the *repair*,
            // so diff before compacting.
            let colors_changed = self.settle(true);
            let reduction = self.compact();
            self.last_compaction = reduction;
            if let Some(open) = open {
                self.reports.push(ServeBatchReport {
                    seq: open.seq,
                    round: open.round,
                    events: open.events,
                    repair_rounds: self.inner.round() - open.round,
                    colors_changed,
                    colors_used: self.census.palette().len() as u64,
                    reduction,
                    nodes_touched: self.log.recorded - open.recorded,
                    node_steps: self.inner.node_steps() - open.node_steps,
                });
            }
        } else if self.watchdog_armed && self.cfg.watchdog_ticks > 0 {
            let progress = self.progress_metric(rs.done);
            if progress > self.progress_hwm {
                self.progress_hwm = progress;
                self.stall_ticks = 0;
            } else {
                self.stall_ticks += 1;
                let threshold =
                    self.cfg.watchdog_ticks.saturating_mul(1u64 << self.backoff.min(16));
                if self.stall_ticks >= threshold {
                    escalated = Some(self.escalate());
                }
            }
        }
        Ok(Tick::Round {
            round: rs.round,
            active: self.inner.still_active(),
            applied: applied_seq,
            quiesced,
            escalated,
        })
    }

    /// Tick until settled, at most `max_ticks` rounds. Returns the
    /// number of rounds executed, or [`ServiceError::Budget`].
    pub fn run_to_quiescence(&mut self, max_ticks: u64) -> Result<u64, ServiceError> {
        let mut ticks = 0u64;
        while !self.is_settled() {
            if ticks >= max_ticks {
                return Err(ServiceError::Budget { ticks });
            }
            self.tick()?;
            ticks += 1;
        }
        Ok(ticks)
    }

    /// A generous tick budget for one repair on the current topology:
    /// three communication rounds per computation round of the
    /// configured budget, tripled for escalation headroom.
    pub fn tick_budget(&self) -> u64 {
        let topo = self.inner.topology();
        let delta = topo.max_degree().max(1);
        3 * 3 * self.cfg.coloring.compute_round_budget(delta) + 64
    }

    /// What the Kempe compaction at the last settle point did, if one
    /// ran there: after the initial coloring, the set-up compaction,
    /// which no batch report carries; after a batch, the batch's.
    pub fn last_compaction(&self) -> Option<KempeReport> {
        self.last_compaction
    }

    /// Drain the per-batch repair reports accumulated since the last
    /// call.
    pub fn take_reports(&mut self) -> Vec<ServeBatchReport> {
        std::mem::take(&mut self.reports)
    }

    fn check_node(&self, v: VertexId) -> Result<(), ServiceError> {
        if (v.0 as usize) < self.inner.num_nodes() {
            Ok(())
        } else {
            Err(ServiceError::NoSuchNode { node: v, num_vertices: self.inner.num_nodes() })
        }
    }

    /// The committed color slots on edge `u`-`v` (see [`ColoredEdge`]
    /// for the per-protocol meaning). Errors on unknown vertices or a
    /// non-edge.
    pub fn edge_color(
        &self,
        u: VertexId,
        v: VertexId,
    ) -> Result<(Option<Color>, Option<Color>), ServiceError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if !self.inner.topology().are_neighbors(u, v) {
            return Err(ServiceError::NoSuchEdge { u, v });
        }
        Ok(self.inner.edge_slots(u, v))
    }

    /// Every color committed on `v`'s surviving edges, ascending.
    pub fn node_palette(&self, v: VertexId) -> Result<Vec<Color>, ServiceError> {
        self.check_node(v)?;
        Ok(self.inner.palette(v))
    }

    /// Run the configured Kempe pass over the settled coloring on the
    /// live topology and write the compacted colors back into the parked
    /// automata it recolored — the serve-mode "compaction after repair
    /// commit". Out-of-band: the pass runs on an ephemeral engine and
    /// does not advance the service round clock, so recorded history
    /// rounds stay valid and snapshot replay (which re-enters this path
    /// at the same quiescence transitions) reproduces it bit-for-bit.
    /// Only the pass's built nodes (the owners of over-threshold edges
    /// and the nodes their operations woke) are read back, and the
    /// counts are settled from their rows. Returns `None` when reduction
    /// is off, the protocol is not edge coloring, or the settled
    /// coloring is unusable (endpoint disagreement).
    ///
    /// Cost: the skip decision, the propriety check, the seeds and the
    /// pre-pass palette come from the running census, so a batch with
    /// nothing over the threshold costs O(palette). A pass that runs
    /// reads the automata only for the nodes it builds, steps only its
    /// seeds and the nodes it wakes, and takes its palette after from the
    /// census and the built rows: O(seeds + built rows + node steps),
    /// plus its engine's per-node set-up and topology copy, O(n + m).
    fn compact(&mut self) -> Option<KempeReport> {
        let ColorReduction::Kempe(_) = self.cfg.coloring.reduction else {
            return None;
        };
        let Inner::Ec(stepper) = &self.inner else {
            return None;
        };
        // Committed liveness, not the feed's staged view: an event staged
        // while this repair ran belongs to a later batch, and replay
        // (which stages each batch only at its commit) never sees it here.
        let feed = &self.feed;
        let alive = |v: VertexId| feed.committed_alive(v);
        let pass = kempe::reduce_automata(
            stepper.topology(),
            stepper.nodes(),
            &alive,
            &self.census,
            &self.cfg.coloring,
            &mut NoopTracer,
        )
        .ok()??;
        if pass.report.trivial_recolors + pass.report.chains_flipped > 0 {
            let built: Vec<VertexId> = pass.built_rows().map(|(v, _)| v).collect();
            for &v in &built {
                self.touch(v);
            }
            if let Some(nodes) = self.inner.ec_nodes_mut() {
                for (v, row) in pass.built_rows() {
                    nodes[v.index()].adopt_compaction(row);
                }
            }
            self.refresh_filled(built);
            // The pass ran on proper rows and keeps them proper.
            self.settle(false);
        }
        Some(pass.report)
    }

    /// The full current coloring, sorted by `(u, v)`.
    pub fn coloring(&self) -> Vec<ColoredEdge> {
        let mut out = Vec::with_capacity(self.inner.topology().num_links());
        self.inner.for_each_edge(|e| out.push(e));
        out
    }

    /// [`hash_coloring`] of [`ColoringService::coloring`].
    pub fn coloring_hash(&self) -> u64 {
        hash_coloring(&self.coloring())
    }

    /// A liveness/convergence summary.
    pub fn status(&self) -> ServiceStatus {
        let mut coloring = Vec::with_capacity(self.inner.topology().num_links());
        let mut palette = ColorSet::new();
        self.inner.for_each_edge(|e| {
            add_colors(&mut palette, &e);
            coloring.push(e);
        });
        let n = self.inner.num_nodes();
        let alive = (0..n).filter(|&i| self.feed.is_alive(VertexId(i as u32))).count();
        ServiceStatus {
            round: self.inner.round(),
            settled: self.is_settled(),
            nodes: n,
            alive,
            staged: self.feed.staged(),
            batches: self.batches_committed,
            escalations: self.escalations,
            colors_used: palette.len(),
            hash: hash_coloring(&coloring),
        }
    }

    // ------------------------------------------------------------------
    // History compaction (epoch rebase)
    // ------------------------------------------------------------------

    /// Adopt `coloring` (the committed slot map, keyed `(u, v)` with
    /// `u < v`) into freshly built automata. The adopted state — edge
    /// coloring: the port colors; strong coloring: also the one-hop
    /// committed channels as the forbidden set — is a pure function of
    /// the coloring, which is what makes a rebase deterministic: a live
    /// compaction and a restore from the resulting materialized base
    /// reconstruct byte-identical automata.
    fn adopt_coloring(inner: &mut Inner, coloring: &SlotMap) {
        // Directed slots of the `u`-`v` edge from `u`'s side: (u's slot
        // toward v, v's slot toward u).
        let slot = |u: VertexId, v: VertexId| -> (Option<Color>, Option<Color>) {
            if u.0 < v.0 {
                coloring.get(&(u.0, v.0)).copied().unwrap_or((None, None))
            } else {
                let (f, r) = coloring.get(&(v.0, u.0)).copied().unwrap_or((None, None));
                (r, f)
            }
        };
        if matches!(inner, Inner::Ec(_)) {
            // Every automaton was just built over the topology, departed
            // (isolated) nodes included, so all of them take the
            // write-back, each its row in neighbor order.
            let topo = inner.topology().clone();
            if let Some(nodes) = inner.ec_nodes_mut() {
                let mut row = Vec::new();
                for (u, node) in (0..topo.num_nodes() as u32).map(VertexId).zip(nodes) {
                    row.clear();
                    row.extend(topo.neighbors(u).iter().map(|&v| slot(u, v).0));
                    node.adopt_compaction(&row);
                }
            }
        } else {
            let topo = inner.topology();
            let n = topo.num_nodes();
            // A strong-coloring node's forbidden set accumulates every
            // channel it has seen claimed: its own plus whatever Used and
            // Hello traffic from direct neighbors reported — exactly the
            // one-hop committed channels at quiescence.
            let incident: Vec<Vec<Color>> = (0..n)
                .map(|i| {
                    let u = VertexId(i as u32);
                    topo.neighbors(u)
                        .iter()
                        .flat_map(|&v| {
                            let (out, inc) = slot(u, v);
                            [out, inc]
                        })
                        .flatten()
                        .collect()
                })
                .collect();
            let per_node: Vec<StrongRebaseSlots> = (0..n)
                .map(|i| {
                    let u = VertexId(i as u32);
                    let out = topo.neighbors(u).iter().map(|&v| slot(u, v).0).collect::<Vec<_>>();
                    let inc = topo.neighbors(u).iter().map(|&v| slot(u, v).1).collect::<Vec<_>>();
                    let forbidden: ColorSet = incident[i]
                        .iter()
                        .copied()
                        .chain(
                            topo.neighbors(u)
                                .iter()
                                .flat_map(|&v| incident[v.index()].iter().copied()),
                        )
                        .collect();
                    (out, inc, forbidden)
                })
                .collect();
            let Some(nodes) = inner.strong_nodes_mut() else { return };
            for (i, (out, inc, forbidden)) in per_node.into_iter().enumerate() {
                nodes[i].adopt_rebase(&out, &inc, forbidden);
            }
        }
    }

    /// Build a service directly in a settled, rebased state: fresh
    /// automata over `g` (with the departed nodes in `dead` present as
    /// parked isolated slots), per-node RNG streams at `epoch`, and
    /// `coloring` adopted into the parked nodes. The caller supplies the
    /// cumulative counters a rebase carries across epochs. Shared by
    /// [`ColoringService::compact_history`] (live) and the
    /// materialized-base restore (recovery) — both must produce the same
    /// service for checkpoints to stay bit-compatible.
    fn build_rebased(
        g: &Graph,
        dead: &[VertexId],
        coloring: &SlotMap,
        cfg: ServiceConfig,
        epoch: u64,
        batches_committed: u64,
        escalations: u64,
    ) -> Result<Self, ServiceError> {
        cfg.validate()?;
        let (mut inner, palette_bound0) =
            Self::build_inner(g, &cfg, epoch_seed(cfg.coloring.seed, epoch))?;
        Self::adopt_coloring(&mut inner, coloring);
        inner.park_all();
        let feed = EventFeed::with_dead(g, dead);
        let mut svc = Self::assemble(cfg, g.clone(), palette_bound0, feed, inner);
        svc.epoch = epoch;
        svc.batches_committed = batches_committed;
        svc.escalations = escalations;
        Ok(svc)
    }

    /// Fold the committed history into the topology and rebase the
    /// service into the next epoch: the replay prefix disappears, the
    /// committed graph becomes the new `g0` (departed nodes stay as
    /// parked isolated slots so their ids remain reserved), the settled
    /// coloring is adopted verbatim, and the round clock restarts at 0
    /// on fresh RNG streams derived from `(seed, epoch)`. Staged events
    /// survive; `batches_committed`/`escalations` stay cumulative.
    ///
    /// Requires a settled service. After compacting, persist a
    /// [`ColoringService::base_text`] checkpoint — every earlier
    /// snapshot, delta, and journal entry is now unreplayable against
    /// this service (their epoch no longer matches).
    pub fn compact_history(&mut self) -> Result<CompactReport, ServiceError> {
        if !self.is_settled() {
            return Err(ServiceError::NotSettled { what: "history compaction" });
        }
        let folded_entries = self.history.len() as u64;
        let hash_before = self.coloring_hash();
        let g = self.feed.committed_graph();
        let dead = self.feed.committed_dead();
        let mut coloring = SlotMap::new();
        self.inner.for_each_edge(|e| {
            coloring.insert((e.u.0, e.v.0), (e.forward, e.reverse));
        });
        let staged: Vec<ChurnEvent> = self.feed.staged_events().to_vec();
        let epoch = self.epoch + 1;
        let mut next = Self::build_rebased(
            &g,
            &dead,
            &coloring,
            self.cfg.clone(),
            epoch,
            self.batches_committed,
            self.escalations,
        )?;
        for ev in staged {
            next.stage(ev).map_err(|e| {
                ServiceError::Internal(format!("staged event no longer applies after rebase: {e}"))
            })?;
        }
        if next.coloring_hash() != hash_before {
            return Err(ServiceError::Internal(format!(
                "rebase changed the coloring: {:#018x} != {hash_before:#018x}",
                next.coloring_hash()
            )));
        }
        next.reports = std::mem::take(&mut self.reports);
        *self = next;
        Ok(CompactReport {
            epoch,
            folded_entries,
            graph_edges: self.g0.num_edges(),
            dead_nodes: dead.len(),
        })
    }

    // ------------------------------------------------------------------
    // Snapshot + journal wire format
    // ------------------------------------------------------------------

    /// Journal line for an accepted event. Append (and flush) this
    /// *before* acknowledging the event.
    pub fn journal_event_line(ev: &ChurnEvent) -> String {
        event_line(ev)
    }

    /// Journal line for a batch commit. `epoch` is the service epoch the
    /// entry belongs to ([`ColoringService::epoch`]), `h` is the history
    /// index the entry will occupy ([`ColoringService::history_len`]` +
    /// 1` when written before the [`ColoringService::commit`] call),
    /// `(seq, round)` is what [`ColoringService::next_commit`] returned.
    /// Append and flush *before* committing — recovery replays the
    /// marker, and a marker without its commit is harmless because the
    /// commit round is deterministic. The `(epoch, h)` pair is what lets
    /// a stale (unrotated) journal deduplicate against any checkpoint:
    /// markers at an older epoch, or at this epoch but an already-
    /// captured index, are dropped on restore.
    pub fn journal_commit_line(epoch: u64, h: u64, seq: u64, round: u64) -> String {
        format!("{{\"type\":\"commit\",\"e\":{epoch},\"h\":{h},\"seq\":{seq},\"round\":{round}}}\n")
    }

    /// Journal line for a recolor escalation recorded at `round` as
    /// history entry `h` (equal to [`ColoringService::history_len`]
    /// right after the tick that escalated) in `epoch`.
    pub fn journal_recolor_line(epoch: u64, h: u64, round: u64) -> String {
        format!("{{\"type\":\"recolor\",\"e\":{epoch},\"h\":{h},\"round\":{round}}}\n")
    }

    /// The configuration fragment shared by every checkpoint header —
    /// enough to reconstruct the [`ServiceConfig`], minus the engine
    /// (which is the restoring host's choice — the coloring is
    /// bit-identical on either). Reduction settings ride along so a
    /// restored service keeps compacting exactly as the live one did;
    /// all-zero (and absent, for pre-reduction snapshots) means off.
    /// DiMa2ED's silent-rejection ablation is recorded only when set, so
    /// every default header stays as it was.
    fn config_header_fragment(&self) -> String {
        let c = &self.cfg.coloring;
        let (rk, rt) = match c.reduction {
            ColorReduction::Off => (0, 0),
            ColorReduction::Kempe(k) => (1u64, u64::from(k.target_colors.unwrap_or(0))),
        };
        format!(
            "\"protocol\":\"{}\",\"seed\":{},\"invite_bits\":{},\
             \"color_policy\":\"{}\",\"response_policy\":\"random\",\"width\":{},\
             \"max_compute\":{},\"validate_sends\":{},\"watchdog\":{},\
             \"reduce\":{rk},\"reduce_target\":{rt}{}",
            self.cfg.protocol.name(),
            c.seed,
            c.invite_probability.to_bits(),
            color_policy_name(c.color_policy),
            c.proposal_width,
            c.max_compute_rounds.unwrap_or(0),
            u64::from(c.validate_sends),
            self.cfg.watchdog_ticks,
            match c.rejection {
                Rejection::Hint => "",
                Rejection::Silent => ",\"rejection\":\"silent\"",
            },
        )
    }

    /// Serialize the service to its flat-JSONL full snapshot: header,
    /// the initial graph, the replayable history, a CRC-32 trailer.
    /// Valid at any point of execution — restore replays the history
    /// and fast-forwards the in-flight repair (if any) to quiescence.
    ///
    /// Only meaningful at epoch 0: a full snapshot replays from the
    /// initial graph with the master seed, which a compacted service no
    /// longer does. Restore rejects nonzero-epoch snapshots — a
    /// compacted service persists [`ColoringService::base_text`] plus
    /// deltas instead.
    pub fn snapshot_text(&self) -> String {
        let settled = self.is_settled();
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"serve-snapshot\",\"version\":{SNAPSHOT_VERSION},{},\
             \"epoch\":{},\"n\":{},\"edges\":{},\"history\":{},\"batches\":{},\
             \"quiescent\":{},\"round\":{},\"hash\":{}}}\n",
            self.config_header_fragment(),
            self.epoch,
            self.g0.num_vertices(),
            self.g0.num_edges(),
            self.history.len(),
            self.batches_committed,
            u64::from(settled),
            self.inner.round(),
            self.coloring_hash(),
        ));
        for (_, (u, v)) in self.g0.edges() {
            out.push_str(&format!("{{\"type\":\"edge\",\"u\":{},\"v\":{}}}\n", u.0, v.0));
        }
        push_history_lines(&mut out, self.epoch, 0, &self.history);
        let crc = crc32(out.as_bytes());
        out.push_str(&format!("{{\"type\":\"crc\",\"value\":{crc}}}\n"));
        out
    }

    /// Serialize a materialized-base checkpoint: the folded topology,
    /// dead set, and settled coloring of a just-rebased service, CRC
    /// trailer included. Only valid immediately after
    /// [`ColoringService::compact_history`] (history empty, round clock
    /// at 0, settled): a base claims "rebuild me by rebasing at this
    /// epoch", which is bit-exact only against a service that has not
    /// consumed any randomness in its epoch yet.
    pub fn base_text(&self) -> Result<String, ServiceError> {
        if !self.history.is_empty() || self.inner.round() != 0 || !self.is_settled() {
            return Err(ServiceError::NotSettled { what: "materialized-base write" });
        }
        let dead = self.feed.committed_dead();
        let coloring = self.coloring();
        let staged = self.feed.staged_events();
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"serve-base\",\"version\":{BASE_VERSION},{},\
             \"epoch\":{},\"n\":{},\"edges\":{},\"dead\":{},\"staged\":{},\"batches\":{},\
             \"escalations\":{},\"quiescent\":1,\"round\":0,\"hash\":{}}}\n",
            self.config_header_fragment(),
            self.epoch,
            self.g0.num_vertices(),
            coloring.len(),
            dead.len(),
            staged.len(),
            self.batches_committed,
            self.escalations,
            self.coloring_hash(),
        ));
        for v in &dead {
            out.push_str(&format!("{{\"type\":\"dead\",\"node\":{}}}\n", v.0));
        }
        // Color slots are written shifted by one so 0 reads "uncolored"
        // without an extra null-handling arm in the record parser.
        for e in &coloring {
            out.push_str(&format!(
                "{{\"type\":\"cedge\",\"u\":{},\"v\":{},\"f\":{},\"r\":{}}}\n",
                e.u.0,
                e.v.0,
                e.forward.map_or(0, |c| u64::from(c.0) + 1),
                e.reverse.map_or(0, |c| u64::from(c.0) + 1),
            ));
        }
        // Staged (acked but uncommitted) events ride in the base so a
        // crash between base rename and journal rotation cannot lose
        // them: a discarded journal falls back to the base's copy.
        for ev in staged {
            out.push_str(&event_line(ev));
        }
        let crc = crc32(out.as_bytes());
        out.push_str(&format!("{{\"type\":\"crc\",\"value\":{crc}}}\n"));
        Ok(out)
    }

    /// Serialize history entries `from_h..` as delta checkpoint `chain`
    /// (1-based position after the base) whose parent file — the base
    /// for chain 1, the previous delta otherwise — has CRC
    /// `parent_crc`. The parent CRC is what links the chain: a delta
    /// left over from before a compaction (or an aborted checkpoint)
    /// fails the linkage check on restore and is discarded rather than
    /// misapplied.
    pub fn delta_text(
        &self,
        from_h: u64,
        chain: u64,
        parent_crc: u32,
    ) -> Result<String, ServiceError> {
        let from = from_h as usize;
        if from > self.history.len() {
            return Err(ServiceError::Internal(format!(
                "delta start h={from_h} is beyond the history ({} entries)",
                self.history.len()
            )));
        }
        let entries = &self.history[from..];
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"serve-delta\",\"version\":{DELTA_VERSION},\"chain\":{chain},\
             \"epoch\":{},\"h_base\":{from_h},\"entries\":{},\"parent_crc\":{parent_crc},\
             \"quiescent\":{},\"round\":{},\"hash\":{}}}\n",
            self.epoch,
            entries.len(),
            u64::from(self.is_settled()),
            self.inner.round(),
            self.coloring_hash(),
        ));
        push_history_lines(&mut out, self.epoch, from_h, entries);
        let crc = crc32(out.as_bytes());
        out.push_str(&format!("{{\"type\":\"crc\",\"value\":{crc}}}\n"));
        Ok(out)
    }

    /// Rebuild a service from a checkpoint chain: a base (either a full
    /// `serve-snapshot` or a materialized `serve-base`), zero or more
    /// `serve-delta` files in chain order, and an optional journal
    /// tail.
    ///
    /// The base must verify — a corrupt base is a hard error. Deltas
    /// are verified link by link (CRC, chain position, epoch, history
    /// offset, parent CRC); the first delta that fails ends the chain
    /// there, discarding it, every later delta, *and the journal*
    /// (which was rotated against the newest delta and cannot bridge
    /// the gap) — recovery proceeds from the newest verifiable
    /// checkpoint and the [`RestoreReport::fallback`] field says why.
    /// Journal markers already captured by the chain (older epoch, or
    /// this epoch at an already-covered history index) deduplicate
    /// away. The journal is read tolerantly: a torn final line ends
    /// recovery at the tear. The restored service has finished any
    /// in-flight repair (it is settled unless journal events were
    /// re-staged), and its coloring is bit-identical for every `engine`.
    pub fn restore_chain(
        base: &str,
        deltas: &[&str],
        journal: Option<&str>,
        engine: Engine,
    ) -> Result<(Self, RestoreReport), ServiceError> {
        let (mut svc, mut entries, info) = Self::parse_base(base, engine)?;
        let snapshot_entries = entries.len() as u64;
        let mut h = snapshot_entries;
        let mut parent_crc = info.crc;
        let mut quiescent = info.quiescent;
        let mut recorded_hash = info.hash;
        let mut deltas_applied = 0u64;
        let mut delta_entries = 0u64;
        let mut fallback = None;
        for text in deltas {
            match Self::parse_delta(text, deltas_applied + 1, info.epoch, h, parent_crc) {
                Ok(d) => {
                    h += d.entries.len() as u64;
                    delta_entries += d.entries.len() as u64;
                    entries.extend(d.entries);
                    parent_crc = d.crc;
                    quiescent = d.quiescent;
                    recorded_hash = d.hash;
                    deltas_applied += 1;
                }
                Err(kind) => {
                    fallback = Some(kind);
                    break;
                }
            }
        }
        let deltas_discarded = deltas.len() as u64 - deltas_applied;
        // The journal is kept only when it attaches to the verified
        // prefix: its first fresh marker must be the very next history
        // entry. A journal rotated against a delta that was then lost
        // or corrupted starts past the gap and cannot bridge it — but a
        // journal that predates a torn newest delta still carries the
        // acked events and replays seamlessly over the fallback point.
        let mut journal_discarded = false;
        let tail = match journal {
            Some(text) => {
                let parsed = parse_entry_stream(text.lines().enumerate(), info.epoch, h, false)?;
                let attaches = match parsed.first_marker {
                    Some((e, first_h)) => e == info.epoch && first_h == h + 1,
                    None => true,
                };
                if attaches {
                    parsed
                } else {
                    journal_discarded = true;
                    ParsedEntries::default()
                }
            }
            None => ParsedEntries::default(),
        };
        let tail_count = tail.entries.len() as u64;
        entries.extend(tail.entries);
        svc.replay(&entries)?;
        // The journal's staged view supersedes the base's (rotation
        // rewrites the full staged set, and a journaled commit consumed
        // the base's staged events) — but an empty journal against a
        // base that recorded staged events means rotation was torn, so
        // the base's copy is the surviving record.
        let staged_events = if journal.is_some()
            && !journal_discarded
            && (tail_count > 0 || !tail.staged.is_empty())
        {
            tail.staged
        } else {
            info.staged
        };
        for ev in &staged_events {
            svc.stage(*ev)?;
        }
        // Self-check against the newest applied artifact's recorded
        // hash, when that artifact captured a quiescent service and
        // nothing was replayed past it.
        if quiescent
            && tail_count == 0
            && fallback.is_none()
            && svc.coloring_hash() != recorded_hash
        {
            return Err(ServiceError::Replay(format!(
                "replayed coloring hash {:#018x} != recorded {recorded_hash:#018x}",
                svc.coloring_hash()
            )));
        }
        Ok((
            svc,
            RestoreReport {
                snapshot_entries,
                tail_entries: tail_count,
                staged: staged_events.len() as u64,
                torn_tail: tail.torn,
                deltas_applied,
                delta_entries,
                deltas_discarded,
                journal_discarded,
                fallback,
            },
        ))
    }

    /// Parse and verify the chain's base file, dispatching on its
    /// header tag. Returns the not-yet-replayed service, the history
    /// entries the base itself carries (empty for a materialized base),
    /// and the linkage info the delta walk continues from.
    fn parse_base(
        base: &str,
        engine: Engine,
    ) -> Result<(Self, Vec<HistoryEntry>, BaseInfo), ServiceError> {
        let (body, crc) = verify_crc(base)?;
        let crc_lineno = body.lines().count() + 1;
        let mut lines = body.lines().enumerate();
        let (_, header_text) = lines
            .next()
            .ok_or(ServiceError::Snapshot { line: 1, message: "empty snapshot".into() })?;
        let header = parse_line(header_text)
            .filter(|r| matches!(r.tag(), Some("serve-snapshot" | "serve-base")))
            .ok_or(ServiceError::Snapshot {
                line: 1,
                message: "first line is not a serve-snapshot or serve-base header".into(),
            })?;
        let materialized = header.tag() == Some("serve-base");
        let version = header_num(&header, "version")?;
        let expected_version = if materialized { BASE_VERSION } else { SNAPSHOT_VERSION };
        if version != expected_version {
            return Err(ServiceError::Snapshot {
                line: 1,
                message: format!("unsupported snapshot version {version}"),
            });
        }
        let cfg = config_from_header(&header, engine)?;
        let n = header_num(&header, "n")? as usize;
        let num_edges = header_num(&header, "edges")? as usize;
        let recorded_hash = header_num(&header, "hash")?;
        let epoch = header.num("epoch").unwrap_or(0);

        if materialized {
            let num_dead = header_num(&header, "dead")? as usize;
            let batches = header_num(&header, "batches")?;
            let escalations = header_num(&header, "escalations")?;
            let mut dead = Vec::with_capacity(num_dead.min(1 << 20));
            for _ in 0..num_dead {
                let (idx, text) = lines.next().ok_or(ServiceError::Snapshot {
                    line: crc_lineno,
                    message: "base ends inside the dead list".into(),
                })?;
                let rec =
                    parse_line(text).filter(|r| r.tag() == Some("dead")).ok_or_else(|| {
                        ServiceError::Snapshot {
                            line: idx + 1,
                            message: "expected a dead line".into(),
                        }
                    })?;
                let v =
                    rec.num("node").filter(|&v| v < n as u64).ok_or(ServiceError::Snapshot {
                        line: idx + 1,
                        message: "dead line missing node (or out of range)".into(),
                    })?;
                dead.push(VertexId(v as u32));
            }
            let mut edges = Vec::with_capacity(num_edges.min(1 << 20));
            let mut coloring = HashMap::with_capacity(num_edges.min(1 << 20));
            for _ in 0..num_edges {
                let (idx, text) = lines.next().ok_or(ServiceError::Snapshot {
                    line: crc_lineno,
                    message: "base ends inside the coloring".into(),
                })?;
                let rec =
                    parse_line(text).filter(|r| r.tag() == Some("cedge")).ok_or_else(|| {
                        ServiceError::Snapshot {
                            line: idx + 1,
                            message: "expected a cedge line".into(),
                        }
                    })?;
                let (Some(u), Some(v), Some(f), Some(r)) =
                    (rec.num("u"), rec.num("v"), rec.num("f"), rec.num("r"))
                else {
                    return Err(ServiceError::Snapshot {
                        line: idx + 1,
                        message: "cedge line missing u/v/f/r".into(),
                    });
                };
                if u >= v || v >= n as u64 {
                    return Err(ServiceError::Snapshot {
                        line: idx + 1,
                        message: "cedge endpoints out of order or range".into(),
                    });
                }
                let decode = |x: u64| (x > 0).then(|| Color((x - 1) as u32));
                edges.push((VertexId(u as u32), VertexId(v as u32)));
                coloring.insert((u as u32, v as u32), (decode(f), decode(r)));
            }
            let num_staged = header_num(&header, "staged")? as usize;
            let mut staged = Vec::with_capacity(num_staged.min(1 << 20));
            for _ in 0..num_staged {
                let (idx, text) = lines.next().ok_or(ServiceError::Snapshot {
                    line: crc_lineno,
                    message: "base ends inside the staged events".into(),
                })?;
                let ev = parse_line(text)
                    .filter(|r| r.tag() == Some("event"))
                    .as_ref()
                    .and_then(event_from_record)
                    .ok_or_else(|| ServiceError::Snapshot {
                        line: idx + 1,
                        message: "expected a staged event line".into(),
                    })?;
                staged.push(ev);
            }
            if let Some((idx, _)) = lines.next() {
                return Err(ServiceError::Snapshot {
                    line: idx + 1,
                    message: "unexpected line after the base coloring".into(),
                });
            }
            let g = Graph::from_edges(n, edges).map_err(|e| ServiceError::Snapshot {
                line: 1,
                message: format!("invalid base graph: {e}"),
            })?;
            let svc = Self::build_rebased(&g, &dead, &coloring, cfg, epoch, batches, escalations)?;
            if svc.coloring_hash() != recorded_hash {
                return Err(ServiceError::Replay(format!(
                    "rebased coloring hash {:#018x} != recorded {recorded_hash:#018x}",
                    svc.coloring_hash()
                )));
            }
            Ok((
                svc,
                Vec::new(),
                BaseInfo { crc, epoch, quiescent: true, hash: recorded_hash, staged },
            ))
        } else {
            if epoch != 0 {
                return Err(ServiceError::Snapshot {
                    line: 1,
                    message: format!(
                        "full snapshot of a compacted service (epoch {epoch}) is not replayable; \
                         restore from its materialized base"
                    ),
                });
            }
            let num_history = header_num(&header, "history")? as usize;
            let quiescent = header_num(&header, "quiescent")? != 0;
            let mut edges = Vec::with_capacity(num_edges.min(1 << 20));
            for _ in 0..num_edges {
                let (idx, text) = lines.next().ok_or(ServiceError::Snapshot {
                    line: crc_lineno,
                    message: "snapshot ends inside the edge list".into(),
                })?;
                let rec =
                    parse_line(text).filter(|r| r.tag() == Some("edge")).ok_or_else(|| {
                        ServiceError::Snapshot {
                            line: idx + 1,
                            message: "expected an edge line".into(),
                        }
                    })?;
                let u = rec.num("u").ok_or(ServiceError::Snapshot {
                    line: idx + 1,
                    message: "edge line missing u".into(),
                })?;
                let v = rec.num("v").ok_or(ServiceError::Snapshot {
                    line: idx + 1,
                    message: "edge line missing v".into(),
                })?;
                if u > u32::MAX as u64 || v > u32::MAX as u64 {
                    return Err(ServiceError::Snapshot {
                        line: idx + 1,
                        message: "edge endpoint out of range".into(),
                    });
                }
                edges.push((VertexId(u as u32), VertexId(v as u32)));
            }
            let g0 = Graph::from_edges(n, edges).map_err(|e| ServiceError::Snapshot {
                line: 1,
                message: format!("invalid initial graph: {e}"),
            })?;
            let snap_entries = parse_entry_stream(lines, 0, 0, true)?;
            if snap_entries.torn || !snap_entries.staged.is_empty() {
                return Err(ServiceError::Snapshot {
                    line: crc_lineno,
                    message: "snapshot history ends with dangling events".into(),
                });
            }
            if snap_entries.entries.len() != num_history {
                return Err(ServiceError::Snapshot {
                    line: crc_lineno,
                    message: format!(
                        "header declares {num_history} history entries, found {}",
                        snap_entries.entries.len()
                    ),
                });
            }
            let svc = Self::new(&g0, cfg)?;
            Ok((
                svc,
                snap_entries.entries,
                BaseInfo { crc, epoch: 0, quiescent, hash: recorded_hash, staged: Vec::new() },
            ))
        }
    }

    /// Verify one delta against its expected chain position. Any CRC or
    /// structural failure is [`ChainFallback::Corrupt`]; a clean file
    /// that belongs to a different chain state (stale after compaction,
    /// replaced checkpoint) is [`ChainFallback::BrokenLink`].
    fn parse_delta(
        text: &str,
        chain: u64,
        epoch: u64,
        h_base: u64,
        parent_crc: u32,
    ) -> Result<ParsedDelta, ChainFallback> {
        let (body, crc) = verify_crc(text).map_err(|_| ChainFallback::Corrupt)?;
        let mut lines = body.lines().enumerate();
        let Some((_, header_text)) = lines.next() else {
            return Err(ChainFallback::Corrupt);
        };
        let Some(header) = parse_line(header_text).filter(|r| r.tag() == Some("serve-delta"))
        else {
            return Err(ChainFallback::Corrupt);
        };
        if header.num("version") != Some(DELTA_VERSION) {
            return Err(ChainFallback::Corrupt);
        }
        if header.num("chain") != Some(chain)
            || header.num("epoch") != Some(epoch)
            || header.num("h_base") != Some(h_base)
            || header.num("parent_crc") != Some(u64::from(parent_crc))
        {
            return Err(ChainFallback::BrokenLink);
        }
        let (Some(count), Some(quiescent), Some(hash)) =
            (header.num("entries"), header.num("quiescent"), header.num("hash"))
        else {
            return Err(ChainFallback::Corrupt);
        };
        let Ok(parsed) = parse_entry_stream(lines, 0, 0, true) else {
            return Err(ChainFallback::Corrupt);
        };
        if parsed.torn || !parsed.staged.is_empty() || parsed.entries.len() as u64 != count {
            return Err(ChainFallback::Corrupt);
        }
        Ok(ParsedDelta { entries: parsed.entries, crc, quiescent: quiescent != 0, hash })
    }

    /// Re-execute `entries` (batches pinned to their recorded rounds,
    /// escalations restarted at theirs) through the normal tick loop,
    /// with the watchdog disarmed — recorded escalations stand in for
    /// it. Finishes by repairing to quiescence with the watchdog back
    /// on.
    fn replay(&mut self, entries: &[HistoryEntry]) -> Result<(), ServiceError> {
        self.watchdog_armed = false;
        for entry in entries {
            let target = entry.round();
            while self.inner.round() < target && !self.is_settled() {
                self.tick()?;
            }
            if self.inner.round() != target {
                return Err(ServiceError::Replay(format!(
                    "settled at round {} but the next history entry is recorded at round {target}",
                    self.inner.round()
                )));
            }
            match entry {
                HistoryEntry::Batch { seq, round, events } => {
                    if !self.is_settled() {
                        return Err(ServiceError::Replay(format!(
                            "batch {seq} recorded at round {round}, but the service is not \
                             quiescent there"
                        )));
                    }
                    if *seq != self.batches_committed + 1 {
                        return Err(ServiceError::Replay(format!(
                            "batch sequence jump: recorded {seq}, expected {}",
                            self.batches_committed + 1
                        )));
                    }
                    for ev in events {
                        self.feed.stage(*ev).map_err(|e| {
                            ServiceError::Replay(format!("batch {seq} event rejected: {e}"))
                        })?;
                    }
                    let batch = self
                        .feed
                        .commit(*round)
                        .ok_or_else(|| ServiceError::Replay(format!("batch {seq} is empty")))?;
                    self.history.push(entry.clone());
                    self.pending = Some(batch);
                    self.pending_seq = *seq;
                    self.batches_committed = *seq;
                }
                HistoryEntry::Recolor { .. } => {
                    // escalate() records Recolor{round: inner.round()},
                    // which the round-match check above pins to the
                    // recorded entry — and it updates the backoff state
                    // exactly as the live watchdog did.
                    self.escalate();
                }
            }
        }
        self.watchdog_armed = true;
        self.run_to_quiescence(self.tick_budget())?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Batch recompute
    // ------------------------------------------------------------------

    /// Recompute the coloring from scratch by replaying the committed
    /// history through a fresh [`EventFeed`] into a [`ChurnSchedule`] and
    /// running it through the batch entry point under `engine` — the
    /// independent cross-check the acceptance suite diffs against the
    /// live state. Only available for escalation-free histories (a batch
    /// run has no restart path).
    pub fn recompute(&self, engine: Engine) -> Result<Vec<ColoredEdge>, ServiceError> {
        if self.epoch > 0 {
            // A compacted service adopted its coloring across a rebase;
            // a from-scratch run over the folded graph is a different
            // (equally proper, but not comparable) coloring.
            return Err(ServiceError::Config(
                "recompute requires an uncompacted (epoch 0) service".into(),
            ));
        }
        if self.history.iter().any(|e| matches!(e, HistoryEntry::Recolor { .. })) {
            return Err(ServiceError::Config(
                "recompute requires an escalation-free history".into(),
            ));
        }
        let mut feed = EventFeed::new(&self.g0);
        let mut batches = Vec::new();
        for entry in &self.history {
            if let HistoryEntry::Batch { seq, round, events } = entry {
                for ev in events {
                    feed.stage(*ev).map_err(|e| {
                        ServiceError::Replay(format!("batch {seq} event rejected: {e}"))
                    })?;
                }
                batches.push(
                    feed.commit(*round)
                        .ok_or_else(|| ServiceError::Replay(format!("batch {seq} is empty")))?,
                );
            }
        }
        let schedule = ChurnSchedule::from_feed(batches, &feed);
        let cfg = ColoringConfig { engine, ..self.cfg.coloring.clone() };
        cfg.validate().map_err(|e| ServiceError::Config(e.to_string()))?;
        let delta = self.g0.max_degree().max(schedule.max_degree()).max(1);
        let max_rounds =
            schedule.last_round().unwrap_or(0) + 3 * 3 * cfg.compute_round_budget(delta) + 64;
        let topo = Topology::from_graph(&self.g0);
        let final_graph = schedule.final_graph().unwrap_or(&self.g0);
        let core_err = |e| match e {
            CoreError::Sim(s) => ServiceError::Sim(s),
            other => ServiceError::Config(other.to_string()),
        };
        let mut tracer = NoopTracer;
        let slots: Vec<ColoredEdge> = match self.cfg.protocol {
            ServeProtocol::EdgeColoring => {
                let bound = self.palette_bound0;
                let factory = |seed: NodeSeed<'_>| EdgeColoringNode::new(&seed, &cfg, bound);
                let run = run_protocol(&topo, &cfg, max_rounds, &schedule, factory, &mut tracer)
                    .map_err(core_err)?;
                let nodes = &run.outcome.nodes;
                collect_coloring(final_graph, |u, v| {
                    (nodes[u.index()].color_toward(v), nodes[v.index()].color_toward(u))
                })
            }
            ServeProtocol::StrongColoring => {
                let factory = |seed: NodeSeed<'_>| StrongColoringNode::new(&seed, &cfg);
                let run = run_protocol(&topo, &cfg, max_rounds, &schedule, factory, &mut tracer)
                    .map_err(core_err)?;
                let nodes = &run.outcome.nodes;
                collect_coloring(final_graph, |u, v| {
                    (nodes[u.index()].out_color_toward(v), nodes[v.index()].out_color_toward(u))
                })
            }
        };
        Ok(slots)
    }
}

fn collect_coloring(
    g: &Graph,
    slots: impl Fn(VertexId, VertexId) -> (Option<Color>, Option<Color>),
) -> Vec<ColoredEdge> {
    let mut out: Vec<ColoredEdge> = g
        .edges()
        .map(|(_, (a, b))| {
            let (u, v) = if a.0 <= b.0 { (a, b) } else { (b, a) };
            let (forward, reverse) = slots(u, v);
            ColoredEdge { u, v, forward, reverse }
        })
        .collect();
    out.sort_by_key(|e| (e.u, e.v));
    out
}

fn color_policy_name(p: ColorPolicy) -> &'static str {
    match p {
        ColorPolicy::LowestIndex => "lowest-index",
        ColorPolicy::RandomLegal => "random-legal",
    }
}

fn parse_color_policy(s: &str) -> Option<ColorPolicy> {
    match s {
        "lowest-index" => Some(ColorPolicy::LowestIndex),
        "random-legal" => Some(ColorPolicy::RandomLegal),
        _ => None,
    }
}

fn header_num(rec: &Record, key: &str) -> Result<u64, ServiceError> {
    rec.num(key).ok_or_else(|| ServiceError::Snapshot {
        line: 1,
        message: format!("header missing numeric field '{key}'"),
    })
}

/// Split a checkpoint file into its CRC-verified body and trailer CRC.
fn verify_crc(text: &str) -> Result<(&str, u32), ServiceError> {
    let trimmed = text.trim_end();
    let (body, crc_text) = trimmed.rsplit_once('\n').ok_or(ServiceError::Snapshot {
        line: 1,
        message: "truncated checkpoint: missing CRC trailer".into(),
    })?;
    let crc_lineno = body.lines().count() + 1;
    let crc_rec =
        parse_line(crc_text).filter(|r| r.tag() == Some("crc")).ok_or(ServiceError::Snapshot {
            line: crc_lineno,
            message: "truncated checkpoint: last line is not a CRC trailer".into(),
        })?;
    let value = crc_rec.num("value").ok_or(ServiceError::Snapshot {
        line: crc_lineno,
        message: "CRC trailer has no value".into(),
    })?;
    let expected = u32::try_from(value).map_err(|_| ServiceError::Snapshot {
        line: crc_lineno,
        message: format!("CRC trailer value {value} does not fit in 32 bits"),
    })?;
    // The CRC covers the body and its newline, which the input holds
    // verbatim as a prefix.
    let actual = crc32(&text.as_bytes()[..body.len() + 1]);
    if expected != actual {
        return Err(ServiceError::CrcMismatch { expected, actual });
    }
    Ok((body, expected))
}

static CRC32_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// IEEE CRC-32 of `data` (the Ethernet/zip polynomial), the checksum
/// every checkpoint file's trailer records.
fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The CRC-32 a checkpoint file's trailer records, if the file
/// verifies. Hosts chain the next delta's `parent_crc` to it.
pub fn checkpoint_crc(text: &str) -> Option<u32> {
    verify_crc(text).ok().map(|(_, crc)| crc)
}

/// Rebuild the [`ServiceConfig`] a checkpoint header recorded, with the
/// restoring host's engine choice substituted in (checkpoints do not
/// record the engine — the coloring is bit-identical on either).
fn config_from_header(header: &Record, engine: Engine) -> Result<ServiceConfig, ServiceError> {
    let protocol: ServeProtocol = header
        .str("protocol")
        .unwrap_or("")
        .parse()
        .map_err(|e| ServiceError::Snapshot { line: 1, message: e })?;
    // Listeners always accept a uniformly random invitation (paper line
    // 1.21); the header records that rule, and a checkpoint naming any
    // other cannot be replayed.
    if header.str("response_policy") != Some("random") {
        return Err(ServiceError::Snapshot { line: 1, message: "unknown response_policy".into() });
    }
    // Older headers record the Kempe pass's chain cap, attempt budget and
    // round budget, which are constants now; 0 meant the default. A
    // header recording any other value asks for a pass this build cannot
    // run.
    let fixed = [
        ("reduce_chain", kempe::MAX_CHAIN),
        ("reduce_attempts", kempe::MAX_ATTEMPTS),
        ("reduce_rounds", 0),
    ];
    for (key, constant) in fixed {
        if let Some(v) = header.num(key).filter(|&v| v != 0 && v != u64::from(constant)) {
            return Err(ServiceError::Snapshot {
                line: 1,
                message: format!("unsupported {key} {v}: the Kempe pass fixes it"),
            });
        }
    }
    let coloring = ColoringConfig {
        seed: header_num(header, "seed")?,
        invite_probability: f64::from_bits(header_num(header, "invite_bits")?),
        color_policy: parse_color_policy(header.str("color_policy").unwrap_or("")).ok_or_else(
            || ServiceError::Snapshot { line: 1, message: "unknown color_policy".into() },
        )?,
        proposal_width: header_num(header, "width")? as usize,
        rejection: match header.str("rejection") {
            None => Rejection::Hint,
            Some("silent") => Rejection::Silent,
            Some(_) => {
                return Err(ServiceError::Snapshot { line: 1, message: "unknown rejection".into() })
            }
        },
        max_compute_rounds: match header_num(header, "max_compute")? {
            0 => None,
            m => Some(m),
        },
        validate_sends: header_num(header, "validate_sends")? != 0,
        collect_round_stats: false,
        collect_metrics: false,
        engine,
        faults: FaultPlan::reliable(),
        transport: Transport::Bare,
        profile: false,
        // Absent in pre-reduction snapshots: off.
        reduction: if header.num("reduce").unwrap_or(0) == 1 {
            ColorReduction::Kempe(KempeConfig {
                target_colors: match header.num("reduce_target").unwrap_or(0) {
                    0 => None,
                    t => Some(t as u32),
                },
            })
        } else {
            ColorReduction::Off
        },
    };
    Ok(ServiceConfig { protocol, coloring, watchdog_ticks: header_num(header, "watchdog")? })
}

/// Write `entries` (occupying history indices `from_h + 1 ..`) in the
/// journal wire format — shared by the full snapshot body and delta
/// checkpoints.
fn push_history_lines(out: &mut String, epoch: u64, from_h: u64, entries: &[HistoryEntry]) {
    for (i, entry) in entries.iter().enumerate() {
        let h = from_h + i as u64 + 1;
        match entry {
            HistoryEntry::Batch { seq, round, events } => {
                for ev in events {
                    out.push_str(&event_line(ev));
                }
                out.push_str(&ColoringService::journal_commit_line(epoch, h, *seq, *round));
            }
            HistoryEntry::Recolor { round } => {
                out.push_str(&ColoringService::journal_recolor_line(epoch, h, *round));
            }
        }
    }
}

/// The committed slot map, keyed `(u, v)` with `u < v`, holding (u's
/// slot toward v, v's slot toward u).
type SlotMap = HashMap<(u32, u32), (Option<Color>, Option<Color>)>;

/// Per-node adoption payload for a strong-coloring rebase: outgoing
/// slots, incoming slots, and the accumulated forbidden set.
type StrongRebaseSlots = (Vec<Option<Color>>, Vec<Option<Color>>, ColorSet);

/// Verified linkage facts about a chain's base file.
struct BaseInfo {
    crc: u32,
    epoch: u64,
    quiescent: bool,
    hash: u64,
    /// Staged events the base carried (materialized bases only) —
    /// restaged when no journal supersedes them.
    staged: Vec<ChurnEvent>,
}

/// One verified delta checkpoint.
struct ParsedDelta {
    entries: Vec<HistoryEntry>,
    crc: u32,
    quiescent: bool,
    hash: u64,
}

fn event_line(ev: &ChurnEvent) -> String {
    // Link endpoints are written normalized (min, max) — the feed
    // stores them that way, so journal replay reconstructs the exact
    // history the live service recorded.
    match ev {
        ChurnEvent::LinkUp(u, v) => {
            let (a, b) = (u.min(v), u.max(v));
            format!("{{\"type\":\"event\",\"kind\":\"link-up\",\"u\":{},\"v\":{}}}\n", a.0, b.0)
        }
        ChurnEvent::LinkDown(u, v) => {
            let (a, b) = (u.min(v), u.max(v));
            format!("{{\"type\":\"event\",\"kind\":\"link-down\",\"u\":{},\"v\":{}}}\n", a.0, b.0)
        }
        ChurnEvent::NodeJoin(v) => {
            format!("{{\"type\":\"event\",\"kind\":\"join\",\"node\":{}}}\n", v.0)
        }
        ChurnEvent::NodeLeave(v) => {
            format!("{{\"type\":\"event\",\"kind\":\"leave\",\"node\":{}}}\n", v.0)
        }
    }
}

fn event_from_record(rec: &Record) -> Option<ChurnEvent> {
    let vertex = |key: &str| -> Option<VertexId> {
        let n = rec.num(key)?;
        (n <= u32::MAX as u64).then_some(VertexId(n as u32))
    };
    match rec.str("kind")? {
        "link-up" => Some(ChurnEvent::LinkUp(vertex("u")?, vertex("v")?)),
        "link-down" => Some(ChurnEvent::LinkDown(vertex("u")?, vertex("v")?)),
        "join" => Some(ChurnEvent::NodeJoin(vertex("node")?)),
        "leave" => Some(ChurnEvent::NodeLeave(vertex("node")?)),
        _ => None,
    }
}

#[derive(Default)]
struct ParsedEntries {
    entries: Vec<HistoryEntry>,
    staged: Vec<ChurnEvent>,
    torn: bool,
    /// `(epoch, h)` of the first marker that survived staleness
    /// filtering — the point this stream attaches to. `None` when every
    /// marker was stale (or there were none).
    first_marker: Option<(u64, u64)>,
}

/// Parse a history-entry stream (shared between snapshot bodies, delta
/// checkpoints, and the journal). Markers already captured by the
/// checkpoint being restored — an earlier epoch, or `skip_epoch` with
/// `h <= skip_h` (markers without an epoch field predate compaction and
/// read as epoch 0) — are dropped, commits along with their buffered
/// events. In `strict` mode any unparseable line is an error; otherwise
/// it is a torn tail and parsing stops there.
fn parse_entry_stream<'a>(
    lines: impl Iterator<Item = (usize, &'a str)>,
    skip_epoch: u64,
    skip_h: u64,
    strict: bool,
) -> Result<ParsedEntries, ServiceError> {
    let stale = |e: u64, h: u64| e < skip_epoch || (e == skip_epoch && h <= skip_h);
    let mut out = ParsedEntries::default();
    let mut buffer: Vec<ChurnEvent> = Vec::new();
    for (idx, raw) in lines {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let bad = |message: &str| -> Result<(), ServiceError> {
            if strict {
                Err(ServiceError::Snapshot { line: idx + 1, message: message.into() })
            } else {
                Ok(())
            }
        };
        let Some(rec) = parse_line(line) else {
            bad("unparseable history line")?;
            out.torn = true;
            break;
        };
        match rec.tag() {
            Some("event") => match event_from_record(&rec) {
                Some(ev) => buffer.push(ev),
                None => {
                    bad("malformed event line")?;
                    out.torn = true;
                    break;
                }
            },
            Some("commit") => {
                let (Some(h), Some(seq), Some(round)) =
                    (rec.num("h"), rec.num("seq"), rec.num("round"))
                else {
                    bad("commit marker missing h/seq/round")?;
                    out.torn = true;
                    break;
                };
                let e = rec.num("e").unwrap_or(0);
                if stale(e, h) {
                    buffer.clear();
                } else {
                    if out.first_marker.is_none() {
                        out.first_marker = Some((e, h));
                    }
                    out.entries.push(HistoryEntry::Batch {
                        seq,
                        round,
                        events: std::mem::take(&mut buffer),
                    });
                }
            }
            Some("recolor") => {
                let (Some(h), Some(round)) = (rec.num("h"), rec.num("round")) else {
                    bad("recolor marker missing h/round")?;
                    out.torn = true;
                    break;
                };
                let e = rec.num("e").unwrap_or(0);
                if !stale(e, h) {
                    if out.first_marker.is_none() {
                        out.first_marker = Some((e, h));
                    }
                    out.entries.push(HistoryEntry::Recolor { round });
                }
            }
            _ => {
                bad("unknown history line type")?;
                out.torn = true;
                break;
            }
        }
    }
    out.staged = buffer;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dima_graph::gen::structured;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn svc(protocol: ServeProtocol, seed: u64) -> ColoringService {
        let g = structured::path(8);
        let mut s = ColoringService::new(&g, ServiceConfig::new(protocol, seed)).unwrap();
        s.run_to_quiescence(s.tick_budget()).unwrap();
        s
    }

    fn waves() -> Vec<Vec<ChurnEvent>> {
        use ChurnEvent::*;
        vec![
            vec![LinkUp(VertexId(0), VertexId(2)), LinkDown(VertexId(4), VertexId(5))],
            vec![NodeLeave(VertexId(7)), LinkUp(VertexId(2), VertexId(5))],
            vec![NodeJoin(VertexId(7)), LinkUp(VertexId(0), VertexId(7))],
        ]
    }

    /// Drive `svc` through `waves`, journaling exactly as the serve CLI
    /// does (event lines on accept, the commit marker before commit).
    fn drive(s: &mut ColoringService, waves: &[Vec<ChurnEvent>], journal: &mut String) {
        for wave in waves {
            for ev in wave {
                s.stage(*ev).unwrap();
                journal.push_str(&ColoringService::journal_event_line(ev));
            }
            let (seq, round) = s.next_commit().unwrap();
            journal.push_str(&ColoringService::journal_commit_line(
                s.epoch(),
                s.history_len() + 1,
                seq,
                round,
            ));
            assert_eq!(s.commit().unwrap(), Some((seq, round)));
            s.run_to_quiescence(s.tick_budget()).unwrap();
        }
    }

    fn assert_proper(s: &ColoringService) {
        let coloring = s.coloring();
        for e in &coloring {
            assert!(e.forward.is_some(), "uncolored edge {}-{}", e.u, e.v);
            if s.config().protocol == ServeProtocol::EdgeColoring {
                assert_eq!(e.forward, e.reverse, "endpoint disagreement on {}-{}", e.u, e.v);
            }
        }
        // Edge coloring propriety: a node's incident colors are distinct.
        if s.config().protocol == ServeProtocol::EdgeColoring {
            let mut per_node: HashMap<u32, Vec<Color>> = HashMap::new();
            for e in &coloring {
                per_node.entry(e.u.0).or_default().push(e.forward.unwrap());
                per_node.entry(e.v.0).or_default().push(e.forward.unwrap());
            }
            for (node, mut colors) in per_node {
                let len = colors.len();
                colors.sort();
                colors.dedup();
                assert_eq!(colors.len(), len, "node {node} repeats a color");
            }
        }
    }

    #[test]
    fn fresh_service_colors_the_initial_graph() {
        for protocol in [ServeProtocol::EdgeColoring, ServeProtocol::StrongColoring] {
            let s = svc(protocol, 7);
            assert!(s.is_settled());
            assert_proper(&s);
            let st = s.status();
            assert_eq!(st.nodes, 8);
            assert_eq!(st.alive, 8);
            assert_eq!(st.batches, 0);
            assert!(st.colors_used >= 2);
        }
    }

    #[test]
    fn feed_rejections_are_structured_and_harmless() {
        let mut s = svc(ServeProtocol::EdgeColoring, 1);
        let before = s.coloring_hash();
        assert!(matches!(
            s.stage(ChurnEvent::LinkUp(VertexId(0), VertexId(99))),
            Err(ServiceError::Feed(FeedError::UnknownNode { .. }))
        ));
        assert!(matches!(
            s.stage(ChurnEvent::LinkUp(VertexId(0), VertexId(1))),
            Err(ServiceError::Feed(FeedError::DuplicateLink { .. }))
        ));
        assert_eq!(s.staged(), 0);
        assert_eq!(s.coloring_hash(), before);
        // Queries validate too.
        assert!(matches!(
            s.edge_color(VertexId(0), VertexId(3)),
            Err(ServiceError::NoSuchEdge { .. })
        ));
        assert!(matches!(s.node_palette(VertexId(50)), Err(ServiceError::NoSuchNode { .. })));
    }

    #[test]
    fn batches_commit_and_reports_accumulate() {
        let mut s = svc(ServeProtocol::EdgeColoring, 3);
        let mut journal = String::new();
        drive(&mut s, &waves(), &mut journal);
        assert_eq!(s.batches_committed(), 3);
        assert_proper(&s);
        let reports = s.take_reports();
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(r.repair_rounds >= 1);
        }
        // The new edge 0-2 got a color: at least one change in batch 1.
        assert!(reports[0].colors_changed >= 1);
        assert!(s.take_reports().is_empty());
        // Edge queries see the churned topology.
        assert!(s.edge_color(VertexId(0), VertexId(2)).unwrap().0.is_some());
        assert!(matches!(
            s.edge_color(VertexId(4), VertexId(5)),
            Err(ServiceError::NoSuchEdge { .. })
        ));
    }

    #[test]
    fn silent_rejection_survives_a_snapshot_roundtrip() {
        let g = structured::path(8);
        let mut cfg = ServiceConfig::new(ServeProtocol::StrongColoring, 11);
        cfg.coloring.rejection = Rejection::Silent;
        let mut s = ColoringService::new(&g, cfg).unwrap();
        s.run_to_quiescence(s.tick_budget()).unwrap();
        drive(&mut s, &waves(), &mut String::new());
        let snap = s.snapshot_text();
        assert!(snap.lines().next().unwrap().contains("\"rejection\":\"silent\""));
        let (r, _) = ColoringService::restore_chain(&snap, &[], None, Engine::Sequential).unwrap();
        assert_eq!(r.config().coloring.rejection, Rejection::Silent);
        assert_eq!(r.coloring_hash(), s.coloring_hash());
        // The default writes no rejection key, so its headers are as
        // they were before the key existed.
        assert!(!svc(ServeProtocol::StrongColoring, 11).snapshot_text().contains("rejection"));
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        for protocol in [ServeProtocol::EdgeColoring, ServeProtocol::StrongColoring] {
            let mut s = svc(protocol, 11);
            let mut journal = String::new();
            drive(&mut s, &waves(), &mut journal);
            let snap = s.snapshot_text();
            let (r, report) =
                ColoringService::restore_chain(&snap, &[], None, Engine::Sequential).unwrap();
            assert_eq!(report.snapshot_entries, 3);
            assert_eq!(report.tail_entries, 0);
            assert_eq!(r.coloring_hash(), s.coloring_hash());
            assert_eq!(r.coloring(), s.coloring());
            assert_eq!(r.round(), s.round());
            assert_eq!(r.history(), s.history());
        }
    }

    #[test]
    fn journal_tail_recovers_post_snapshot_batches() {
        let all = waves();
        for protocol in [ServeProtocol::EdgeColoring, ServeProtocol::StrongColoring] {
            let mut s = svc(protocol, 23);
            let mut journal = String::new();
            drive(&mut s, &all[..1], &mut journal);
            let snap = s.snapshot_text();
            // Rotated journal: only the tail since the snapshot.
            let mut tail = String::new();
            drive(&mut s, &all[1..], &mut tail);
            let (r, rep) =
                ColoringService::restore_chain(&snap, &[], Some(&tail), Engine::Sequential)
                    .unwrap();
            assert_eq!(rep.tail_entries, 2);
            assert_eq!(r.coloring_hash(), s.coloring_hash());
            assert_eq!(r.history(), s.history());
            // Unrotated journal: the full log dedupes against the
            // snapshot by history index.
            journal.push_str(&tail);
            let (r2, rep2) =
                ColoringService::restore_chain(&snap, &[], Some(&journal), Engine::Sequential)
                    .unwrap();
            assert_eq!(rep2.tail_entries, 2);
            assert_eq!(r2.coloring_hash(), s.coloring_hash());
        }
    }

    #[test]
    fn journal_tolerates_torn_tail_and_restages_events() {
        let all = waves();
        let mut s = svc(ServeProtocol::EdgeColoring, 5);
        let mut journal = String::new();
        drive(&mut s, &all[..1], &mut journal);
        let snap = s.snapshot_text();
        let mut tail = String::new();
        drive(&mut s, &all[1..2], &mut tail);
        // Accepted-but-uncommitted events, then a torn final line.
        let ev = ChurnEvent::LinkUp(VertexId(1), VertexId(6));
        s.stage(ev).unwrap();
        tail.push_str(&ColoringService::journal_event_line(&ev));
        tail.push_str("{\"type\":\"ev");
        let (r, rep) =
            ColoringService::restore_chain(&snap, &[], Some(&tail), Engine::Sequential).unwrap();
        assert_eq!(rep.tail_entries, 1);
        assert_eq!(rep.staged, 1);
        assert!(rep.torn_tail);
        assert_eq!(r.staged(), 1);
        // Committing the restaged event lands on the same trajectory.
        let mut live = s;
        let (ls, lr) = live.next_commit().unwrap();
        let mut restored = r;
        assert_eq!(restored.next_commit(), Some((ls, lr)));
        live.commit().unwrap();
        live.run_to_quiescence(live.tick_budget()).unwrap();
        restored.commit().unwrap();
        restored.run_to_quiescence(restored.tick_budget()).unwrap();
        assert_eq!(restored.coloring_hash(), live.coloring_hash());
    }

    #[test]
    fn corrupted_snapshots_are_rejected_not_panicked() {
        let mut s = svc(ServeProtocol::EdgeColoring, 9);
        let mut journal = String::new();
        drive(&mut s, &waves(), &mut journal);
        let snap = s.snapshot_text();
        // Bit flip in the middle.
        let mut flipped = snap.clone().into_bytes();
        let mid = flipped.len() / 2;
        flipped[mid] = flipped[mid].wrapping_add(1);
        let flipped = String::from_utf8_lossy(&flipped).into_owned();
        assert!(matches!(
            ColoringService::restore_chain(&flipped, &[], None, Engine::Sequential),
            Err(ServiceError::CrcMismatch { .. })
        ));
        // Truncation drops the trailer.
        let truncated = &snap[..snap.len() * 2 / 3];
        assert!(ColoringService::restore_chain(truncated, &[], None, Engine::Sequential).is_err());
        // Garbage is structurally rejected.
        assert!(ColoringService::restore_chain("not a snapshot\n", &[], None, Engine::Sequential)
            .is_err());
        assert!(ColoringService::restore_chain("", &[], None, Engine::Sequential).is_err());
    }

    #[test]
    fn recompute_matches_live_on_both_engines() {
        for protocol in [ServeProtocol::EdgeColoring, ServeProtocol::StrongColoring] {
            let mut s = svc(protocol, 41);
            let mut journal = String::new();
            drive(&mut s, &waves(), &mut journal);
            let live = s.coloring();
            let seq = s.recompute(Engine::Sequential).unwrap();
            let par = s.recompute(Engine::Parallel { threads: 2 }).unwrap();
            assert_eq!(seq, live, "{protocol}: sequential recompute diverged");
            assert_eq!(par, live, "{protocol}: parallel recompute diverged");
        }
    }

    #[test]
    fn forced_recolor_is_recorded_and_replays() {
        let mut s = svc(ServeProtocol::EdgeColoring, 13);
        let mut journal = String::new();
        let all = waves();
        drive(&mut s, &all[..1], &mut journal);
        let snap = s.snapshot_text();
        let mut tail = String::new();
        // Commit a batch, escalate mid-repair, then settle.
        for ev in &all[1] {
            s.stage(*ev).unwrap();
            tail.push_str(&ColoringService::journal_event_line(ev));
        }
        let (seq, round) = s.next_commit().unwrap();
        tail.push_str(&ColoringService::journal_commit_line(
            s.epoch(),
            s.history_len() + 1,
            seq,
            round,
        ));
        s.commit().unwrap();
        s.tick().unwrap();
        s.tick().unwrap();
        let rec_round = s.force_recolor();
        tail.push_str(&ColoringService::journal_recolor_line(
            s.epoch(),
            s.history_len(),
            rec_round,
        ));
        s.run_to_quiescence(s.tick_budget()).unwrap();
        assert_eq!(s.escalations(), 1);
        assert_proper(&s);
        let (r, rep) =
            ColoringService::restore_chain(&snap, &[], Some(&tail), Engine::Sequential).unwrap();
        assert_eq!(rep.tail_entries, 2);
        assert_eq!(r.escalations(), 1);
        assert_eq!(r.coloring_hash(), s.coloring_hash());
        assert_eq!(r.history(), s.history());
        // Escalated histories refuse the batch-engine cross-check.
        assert!(s.recompute(Engine::Sequential).is_err());
    }

    #[test]
    fn hair_trigger_watchdog_escalates_but_still_converges() {
        // A 1-tick watchdog fires on the very first stalled tick (the
        // opening invite round commits nothing), so escalations are
        // guaranteed — and the exponential backoff guarantees the
        // repair still converges instead of livelocking. Two runs see
        // identical tick sequences, so they escalate identically.
        let g = structured::cycle(6);
        let mut cfg = ServiceConfig::new(ServeProtocol::EdgeColoring, 2);
        cfg.watchdog_ticks = 1;
        let run = |cfg: ServiceConfig| {
            let mut s = ColoringService::new(&g, cfg).unwrap();
            s.run_to_quiescence(s.tick_budget()).unwrap();
            assert_proper(&s);
            (s.escalations(), s.coloring_hash())
        };
        let a = run(cfg.clone());
        let b = run(cfg);
        assert!(a.0 >= 1, "hair-trigger watchdog never fired");
        assert_eq!(a, b);
    }

    #[test]
    fn service_config_rejects_incompatible_modes() {
        let g = structured::path(4);
        // threads: 0 is a config error (the coloring config validates
        // it), but a well-formed parallel engine is accepted.
        let mut cfg = ServiceConfig::new(ServeProtocol::EdgeColoring, 1);
        cfg.coloring.engine = Engine::Parallel { threads: 0 };
        assert!(matches!(ColoringService::new(&g, cfg), Err(ServiceError::Config(_))));
        let mut cfg = ServiceConfig::new(ServeProtocol::EdgeColoring, 1);
        cfg.coloring.faults = FaultPlan::uniform(0.5);
        assert!(matches!(ColoringService::new(&g, cfg), Err(ServiceError::Config(_))));
    }

    #[test]
    fn parallel_service_matches_sequential() {
        // The full serve lifecycle — initial coloring, staged churn
        // commits, repairs, history — is bit-identical when the service
        // runs on the pooled parallel stepper.
        for protocol in [ServeProtocol::EdgeColoring, ServeProtocol::StrongColoring] {
            let mut seq = svc(protocol, 29);
            let mut journal = String::new();
            drive(&mut seq, &waves(), &mut journal);

            let g = structured::path(8);
            let mut cfg = ServiceConfig::new(protocol, 29);
            cfg.coloring.engine = Engine::Parallel { threads: 3 };
            let mut par = ColoringService::new(&g, cfg).unwrap();
            par.run_to_quiescence(par.tick_budget()).unwrap();
            let mut journal_par = String::new();
            drive(&mut par, &waves(), &mut journal_par);

            assert_eq!(par.coloring_hash(), seq.coloring_hash(), "{protocol}");
            assert_eq!(par.coloring(), seq.coloring(), "{protocol}");
            assert_eq!(par.history(), seq.history(), "{protocol}");
            assert_eq!(journal_par, journal, "{protocol}");
            assert_proper(&par);
        }
    }

    /// Churn valid against the graph waves() leaves behind.
    fn extra_waves() -> Vec<Vec<ChurnEvent>> {
        use ChurnEvent::*;
        vec![
            vec![LinkUp(VertexId(3), VertexId(5)), LinkDown(VertexId(0), VertexId(2))],
            vec![NodeLeave(VertexId(6)), LinkUp(VertexId(4), VertexId(7))],
        ]
    }

    #[test]
    fn compaction_rebases_live_and_restored_identically() {
        for protocol in [ServeProtocol::EdgeColoring, ServeProtocol::StrongColoring] {
            let mut live = svc(protocol, 17);
            let mut journal = String::new();
            drive(&mut live, &waves(), &mut journal);
            let hash = live.coloring_hash();
            let report = live.compact_history().unwrap();
            assert_eq!(report.epoch, 1);
            assert_eq!(report.folded_entries, 3);
            assert_eq!(live.epoch(), 1);
            assert_eq!(live.history_len(), 0);
            assert_eq!(live.round(), 0);
            assert!(live.is_settled());
            assert_eq!(live.coloring_hash(), hash, "{protocol}: rebase changed the coloring");
            assert_eq!(live.batches_committed(), 3);
            assert_proper(&live);

            let base = live.base_text().unwrap();
            let (mut restored, rep) =
                ColoringService::restore_chain(&base, &[], None, Engine::Sequential).unwrap();
            assert_eq!(rep.deltas_applied, 0);
            assert_eq!(restored.coloring_hash(), hash);
            assert_eq!(restored.epoch(), 1);

            // Post-compaction churn lands on the same trajectory whether
            // the rebase happened live or through a base restore.
            let mut jl = String::new();
            let mut jr = String::new();
            drive(&mut live, &extra_waves(), &mut jl);
            drive(&mut restored, &extra_waves(), &mut jr);
            assert_eq!(jl, jr, "{protocol}");
            assert_eq!(restored.coloring_hash(), live.coloring_hash(), "{protocol}");
            assert_eq!(restored.history(), live.history());
            assert_proper(&live);

            // The pooled engine rebases bit-identically too.
            let g = structured::path(8);
            let mut cfg = ServiceConfig::new(protocol, 17);
            cfg.coloring.engine = Engine::Parallel { threads: 2 };
            let mut par = ColoringService::new(&g, cfg).unwrap();
            par.run_to_quiescence(par.tick_budget()).unwrap();
            drive(&mut par, &waves(), &mut String::new());
            par.compact_history().unwrap();
            drive(&mut par, &extra_waves(), &mut String::new());
            assert_eq!(par.coloring_hash(), live.coloring_hash(), "{protocol}: parallel rebase");
        }
    }

    #[test]
    fn chain_restore_applies_deltas_and_dedups_stale_journal() {
        let extra = extra_waves();
        let mut s = svc(ServeProtocol::EdgeColoring, 31);
        // One unrotated journal across the compaction — its epoch-0
        // markers must dedup away against the epoch-1 base.
        let mut journal = String::new();
        drive(&mut s, &waves(), &mut journal);
        s.compact_history().unwrap();
        let base = s.base_text().unwrap();
        let base_crc = checkpoint_crc(&base).unwrap();
        drive(&mut s, &extra[..1], &mut journal);
        let delta1 = s.delta_text(0, 1, base_crc).unwrap();
        let d1_crc = checkpoint_crc(&delta1).unwrap();
        drive(&mut s, &extra[1..], &mut journal);
        let delta2 = s.delta_text(1, 2, d1_crc).unwrap();
        // Accepted-but-uncommitted event on top.
        let ev = ChurnEvent::LinkUp(VertexId(1), VertexId(5));
        s.stage(ev).unwrap();
        journal.push_str(&ColoringService::journal_event_line(&ev));

        let (r, rep) = ColoringService::restore_chain(
            &base,
            &[&delta1, &delta2],
            Some(&journal),
            Engine::Sequential,
        )
        .unwrap();
        assert_eq!(rep.deltas_applied, 2);
        assert_eq!(rep.delta_entries, 2);
        assert_eq!(rep.deltas_discarded, 0);
        assert_eq!(rep.fallback, None);
        assert_eq!(rep.tail_entries, 0, "every journaled batch was captured by a delta");
        assert_eq!(rep.staged, 1);
        assert_eq!(r.coloring_hash(), s.coloring_hash());
        assert_eq!(r.history(), s.history());
        assert_eq!(r.staged(), 1);

        // Chain restore on the pooled engine is bit-identical.
        let (rp, _) = ColoringService::restore_chain(
            &base,
            &[&delta1, &delta2],
            Some(&journal),
            Engine::Parallel { threads: 2 },
        )
        .unwrap();
        assert_eq!(rp.coloring_hash(), s.coloring_hash());
        assert_eq!(rp.history(), s.history());
    }

    #[test]
    fn base_carries_staged_events_across_torn_journal_rotation() {
        let mut s = svc(ServeProtocol::EdgeColoring, 23);
        drive(&mut s, &waves(), &mut String::new());
        s.run_to_quiescence(s.tick_budget()).unwrap();
        let ev = ChurnEvent::LinkUp(VertexId(1), VertexId(5));
        s.compact_history().unwrap();
        s.stage(ev).unwrap();
        let base = s.base_text().unwrap();

        // No journal at all (crash between base rename and rotation):
        // the acked event survives via the base.
        let (r, rep) =
            ColoringService::restore_chain(&base, &[], None, Engine::Sequential).unwrap();
        assert_eq!(rep.staged, 1);
        assert_eq!(r.staged(), 1);
        assert_eq!(r.coloring_hash(), s.coloring_hash());

        // An empty journal (rotation renamed but wrote nothing) reads
        // as torn rotation — base staged still wins.
        let (r2, rep2) =
            ColoringService::restore_chain(&base, &[], Some(""), Engine::Sequential).unwrap();
        assert_eq!(rep2.staged, 1);
        assert_eq!(r2.staged(), 1);

        // A rotated journal that recorded the staged set supersedes it
        // (no double-staging).
        let journal = ColoringService::journal_event_line(&ev);
        let (r3, rep3) =
            ColoringService::restore_chain(&base, &[], Some(&journal), Engine::Sequential).unwrap();
        assert_eq!(rep3.staged, 1);
        assert_eq!(r3.staged(), 1);

        // And a journal where the staged batch committed replays the
        // commit instead of restaging.
        let mut s2 = s;
        let mut journal2 = journal.clone();
        let (seq, round) = s2.next_commit().unwrap();
        journal2.push_str(&ColoringService::journal_commit_line(
            s2.epoch(),
            s2.history_len() + 1,
            seq,
            round,
        ));
        s2.commit().unwrap();
        s2.run_to_quiescence(s2.tick_budget()).unwrap();
        let (r4, rep4) =
            ColoringService::restore_chain(&base, &[], Some(&journal2), Engine::Sequential)
                .unwrap();
        assert_eq!(rep4.staged, 0);
        assert_eq!(rep4.tail_entries, 1);
        assert_eq!(r4.staged(), 0);
        assert_eq!(r4.coloring_hash(), s2.coloring_hash());
    }

    #[test]
    fn broken_chain_falls_back_to_newest_verifiable_checkpoint() {
        let extra = extra_waves();
        let mut s = svc(ServeProtocol::EdgeColoring, 43);
        drive(&mut s, &waves(), &mut String::new());
        s.compact_history().unwrap();
        let base = s.base_text().unwrap();
        let base_crc = checkpoint_crc(&base).unwrap();
        drive(&mut s, &extra[..1], &mut String::new());
        let hash_at_d1 = s.coloring_hash();
        let h_at_d1 = s.history_len();
        let delta1 = s.delta_text(0, 1, base_crc).unwrap();
        let d1_crc = checkpoint_crc(&delta1).unwrap();
        let mut bridge_journal = String::new();
        drive(&mut s, &extra[1..], &mut bridge_journal);
        let delta2 = s.delta_text(h_at_d1, 2, d1_crc).unwrap();

        // Bit-flipped newest delta, journal already rotated against it
        // (empty): recover to delta 1.
        let mut bad = delta2.clone().into_bytes();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x20;
        let bad = String::from_utf8_lossy(&bad).into_owned();
        let (r, rep) =
            ColoringService::restore_chain(&base, &[&delta1, &bad], Some(""), Engine::Sequential)
                .unwrap();
        assert_eq!(rep.deltas_applied, 1);
        assert_eq!(rep.deltas_discarded, 1);
        assert_eq!(rep.fallback, Some(ChainFallback::Corrupt));
        assert!(!rep.journal_discarded);
        assert_eq!(r.coloring_hash(), hash_at_d1);

        // Same torn delta but the journal was not yet rotated — it
        // still starts at the fallback point and bridges the gap, so
        // the acked batches survive the lost checkpoint.
        let (rb, repb) = ColoringService::restore_chain(
            &base,
            &[&delta1, &bad],
            Some(&bridge_journal),
            Engine::Sequential,
        )
        .unwrap();
        assert_eq!(repb.fallback, Some(ChainFallback::Corrupt));
        assert!(!repb.journal_discarded);
        assert!(repb.tail_entries > 0);
        assert_eq!(rb.coloring_hash(), s.coloring_hash());
        assert_eq!(rb.history_len(), s.history_len());

        // A journal rotated against the lost delta starts past the
        // verified prefix; it cannot bridge the gap and is discarded.
        let orphan = ColoringService::journal_commit_line(s.epoch(), s.history_len() + 2, 99, 0);
        let (ro, repo) = ColoringService::restore_chain(
            &base,
            &[&delta1, &bad],
            Some(&orphan),
            Engine::Sequential,
        )
        .unwrap();
        assert!(repo.journal_discarded);
        assert_eq!(repo.tail_entries, 0);
        assert_eq!(ro.coloring_hash(), hash_at_d1);

        // A clean delta chained to the wrong parent is a stale leftover,
        // not corruption.
        let unlinked = s.delta_text(1, 2, d1_crc ^ 1).unwrap();
        let (r2, rep2) =
            ColoringService::restore_chain(&base, &[&delta1, &unlinked], None, Engine::Sequential)
                .unwrap();
        assert_eq!(rep2.fallback, Some(ChainFallback::BrokenLink));
        assert_eq!(r2.coloring_hash(), hash_at_d1);

        // A corrupt base is a hard error, not a fallback.
        let mut bad_base = base.clone().into_bytes();
        bad_base[20] ^= 0x01;
        let bad_base = String::from_utf8_lossy(&bad_base).into_owned();
        assert!(ColoringService::restore_chain(&bad_base, &[], None, Engine::Sequential).is_err());
    }

    #[test]
    fn crc32_known_answer() {
        // The standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc_trailer_beyond_u32_is_rejected() {
        let mut s = svc(ServeProtocol::EdgeColoring, 23);
        drive(&mut s, &waves(), &mut String::new());
        s.compact_history().unwrap();
        let base = s.base_text().unwrap();
        let crc = checkpoint_crc(&base).unwrap();
        assert!(ColoringService::restore_chain(&base, &[], None, Engine::Sequential).is_ok());
        // The same checkpoint with its trailer bumped by 2^32: the low
        // 32 bits still match, the value does not.
        let (body, _) = base.trim_end().rsplit_once('\n').unwrap();
        let bumped =
            format!("{body}\n{{\"type\":\"crc\",\"value\":{}}}\n", u64::from(crc) + (1 << 32));
        let err = ColoringService::restore_chain(&bumped, &[], None, Engine::Sequential)
            .err()
            .expect("an out-of-range trailer must not verify");
        let trailer_line = base.lines().count();
        assert!(
            matches!(err, ServiceError::Snapshot { line, .. } if line == trailer_line),
            "{err}"
        );
        assert_eq!(checkpoint_crc(&bumped), None);
    }

    #[test]
    fn checkpoint_recorded_under_another_response_policy_is_rejected() {
        let mut s = svc(ServeProtocol::EdgeColoring, 29);
        drive(&mut s, &waves(), &mut String::new());
        let snap = s.snapshot_text();
        let (r, _) = ColoringService::restore_chain(&snap, &[], None, Engine::Sequential).unwrap();
        assert_eq!(r.coloring_hash(), s.coloring_hash());
        // The same checkpoint naming another listener rule, re-sealed so
        // that it passes the CRC check.
        let (body, _) = snap.trim_end().rsplit_once('\n').unwrap();
        let random = "\"response_policy\":\"random\"";
        assert!(body.lines().next().unwrap().contains(random));
        let body =
            format!("{}\n", body.replacen(random, "\"response_policy\":\"first-sender\"", 1));
        let other = format!("{body}{{\"type\":\"crc\",\"value\":{}}}\n", crc32(body.as_bytes()));
        assert!(checkpoint_crc(&other).is_some());
        let err = ColoringService::restore_chain(&other, &[], None, Engine::Sequential)
            .err()
            .expect("only the paper's listener rule can be replayed");
        let ServiceError::Snapshot { line, message } = &err else { panic!("{err}") };
        assert_eq!((*line, message.as_str()), (1, "unknown response_policy"));
    }

    #[test]
    fn checkpoints_recording_the_old_kempe_settings_restore_only_at_the_constants() {
        for kempe in [false, true] {
            let mut cfg = ServiceConfig::new(ServeProtocol::EdgeColoring, 31);
            if kempe {
                cfg.coloring.reduction = ColorReduction::Kempe(KempeConfig::default());
            }
            let mut s = ColoringService::new(&structured::path(8), cfg).unwrap();
            s.run_to_quiescence(s.tick_budget()).unwrap();
            drive(&mut s, &waves(), &mut String::new());
            let snap = s.snapshot_text();
            // The snapshot with the fields older builds wrote after
            // `reduce_target`, re-sealed so that it passes the CRC check.
            let (body, _) = snap.trim_end().rsplit_once('\n').unwrap();
            let at = "\"reduce_target\":0";
            assert!(body.lines().next().unwrap().contains(at));
            let with = |fields: &str| {
                let body = format!("{}\n", body.replacen(at, &format!("{at}{fields}"), 1));
                format!("{body}{{\"type\":\"crc\",\"value\":{}}}\n", crc32(body.as_bytes()))
            };
            let restore = |text: &str| {
                ColoringService::restore_chain(text, &[], None, Engine::Sequential).map(|(r, _)| r)
            };
            // What older builds wrote: zeros with the pass off, the
            // constants with it on.
            let old = match kempe {
                false => ",\"reduce_chain\":0,\"reduce_attempts\":0,\"reduce_rounds\":0",
                true => ",\"reduce_chain\":256,\"reduce_attempts\":16,\"reduce_rounds\":0",
            };
            let r = restore(&with(old)).unwrap();
            assert_eq!(r.coloring_hash(), s.coloring_hash(), "kempe {kempe}");
            assert_eq!(r.config().coloring.reduction, s.config().coloring.reduction);
            for bad in [",\"reduce_chain\":64", ",\"reduce_attempts\":4", ",\"reduce_rounds\":900"]
            {
                let err = restore(&with(bad)).err().expect("a setting the build cannot run");
                let ServiceError::Snapshot { line, message } = &err else { panic!("{err}") };
                assert_eq!(*line, 1, "{message}");
                assert!(message.starts_with("unsupported reduce_"), "{message}");
            }
        }
    }

    #[test]
    fn compacted_services_guard_snapshot_and_recompute_paths() {
        let mut s = svc(ServeProtocol::EdgeColoring, 19);
        drive(&mut s, &waves(), &mut String::new());
        // base_text before compaction: replay prefix still present.
        assert!(matches!(s.base_text(), Err(ServiceError::NotSettled { .. })));
        s.compact_history().unwrap();
        // Full snapshots of a compacted service don't replay.
        let snap = s.snapshot_text();
        assert!(ColoringService::restore_chain(&snap, &[], None, Engine::Sequential).is_err());
        // And the from-scratch cross-check no longer applies.
        assert!(matches!(s.recompute(Engine::Sequential), Err(ServiceError::Config(_))));
        // Compacting while unsettled is refused.
        s.stage(ChurnEvent::LinkUp(VertexId(1), VertexId(4))).unwrap();
        s.commit().unwrap();
        assert!(matches!(s.compact_history(), Err(ServiceError::NotSettled { .. })));
        s.run_to_quiescence(s.tick_budget()).unwrap();
        assert_proper(&s);
    }

    /// Stage up to `want` random events over `n` nodes — link churn,
    /// leaves and joins — skipping what the feed rejects.
    fn stage_random(s: &mut ColoringService, rng: &mut SmallRng, n: u32, want: usize) {
        let mut staged = 0;
        for _ in 0..200 {
            if staged == want {
                break;
            }
            let (a, b) = (VertexId(rng.random_range(0..n)), VertexId(rng.random_range(0..n)));
            let ev = match rng.random_range(0..4u32) {
                0 => ChurnEvent::LinkUp(a, b),
                1 => ChurnEvent::LinkDown(a, b),
                2 => ChurnEvent::NodeLeave(a),
                _ => ChurnEvent::NodeJoin(a),
            };
            staged += usize::from(s.stage(ev).is_ok());
        }
    }

    /// A coloring keyed by `(u, v)`, as the service once kept it.
    fn slot_map(coloring: &[ColoredEdge]) -> SlotMap {
        coloring.iter().map(|e| ((e.u.0, e.v.0), (e.forward, e.reverse))).collect()
    }

    /// The reference churn-amplification count: edges of `post` that
    /// `pre` lacks or colors differently, by map lookup.
    fn map_diff(pre: &SlotMap, post: &SlotMap) -> u64 {
        post.iter().filter(|(k, v)| pre.get(k) != Some(*v)).count() as u64
    }

    /// The reference palette size: distinct colors over every slot.
    fn distinct(coloring: &[ColoredEdge]) -> usize {
        let mut colors: Vec<Color> =
            coloring.iter().flat_map(|e| [e.forward, e.reverse]).flatten().collect();
        colors.sort();
        colors.dedup();
        colors.len()
    }

    #[test]
    fn progress_diff_and_palette_match_references_on_every_tick() {
        use dima_graph::gen::erdos_renyi_gnm;
        // The tick-level checks, on every tick: the watchdog's progress
        // count against the filled slots of `coloring()`; the merge-walk
        // diff against the map diff from the batch's starting coloring;
        // and the running census (ports per color, so the palette and
        // the over-threshold test, and disagreeing edges) against the
        // census walk. The census moves only at settle points (the tick
        // that quiesces): there it must equal a fresh walk, on every
        // other tick the walk taken at the last one.
        let check = |s: &ColoringService, pre: &[ColoredEdge], settled: &mut PortCensus, what| {
            let now = s.coloring();
            let filled: u64 = now
                .iter()
                .map(|e| u64::from(e.forward.is_some()) + u64::from(e.reverse.is_some()))
                .sum();
            assert_eq!(s.progress_metric(0), filled, "{what}: progress count");
            let per_node: u64 = s.filled.iter().map(|&k| u64::from(k)).sum();
            assert_eq!(per_node, filled, "{what}: per-node filled slots");
            assert_eq!(
                colors_changed(pre, &now),
                map_diff(&slot_map(pre), &slot_map(&now)),
                "{what}: diff"
            );
            if s.inner.is_quiescent() {
                *settled = s.live_census();
                assert_eq!(s.census.palette().len(), distinct(&now), "{what}: palette");
            }
            assert_eq!(&s.census, settled, "{what}: census");
        };
        let (mut leaves_seen, mut joins_seen, mut escalations, mut write_backs) = (0, 0, 0, 0);
        for protocol in [ServeProtocol::EdgeColoring, ServeProtocol::StrongColoring] {
            for seed in 0..8u64 {
                let n = 20u32;
                let g = erdos_renyi_gnm(n as usize, 40, &mut SmallRng::seed_from_u64(seed))
                    .expect("valid parameters");
                let mut cfg = ServiceConfig::new(protocol, seed + 1);
                if protocol == ServeProtocol::EdgeColoring && seed % 2 == 1 {
                    cfg.coloring.reduction = ColorReduction::Kempe(KempeConfig::default());
                }
                // Low enough that some repairs escalate to a full recolor.
                cfg.watchdog_ticks = 3;
                let mut s = ColoringService::new(&g, cfg).unwrap();
                let mut settled = s.live_census();
                let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
                let initial = s.coloring();
                while !s.is_settled() {
                    s.tick().unwrap();
                    check(&s, &initial, &mut settled, format!("{protocol} seed {seed} initial"));
                }
                for batch in 0..8 {
                    let what = format!("{protocol} seed {seed} batch {batch}");
                    stage_random(&mut s, &mut rng, n, 4);
                    let count = |s: &ColoringService, leave: bool| {
                        let named = |e: &&ChurnEvent| match e {
                            ChurnEvent::NodeLeave(_) => leave,
                            ChurnEvent::NodeJoin(_) => !leave,
                            _ => false,
                        };
                        s.staged_events().iter().filter(named).count()
                    };
                    leaves_seen += count(&s, true);
                    joins_seen += count(&s, false);
                    if s.commit().unwrap().is_none() {
                        continue;
                    }
                    let pre = s.coloring();
                    let budget = s.tick_budget();
                    let mut ticks = 0;
                    while !s.is_settled() {
                        assert!(ticks < budget, "{what}: repair did not settle");
                        s.tick().unwrap();
                        check(&s, &pre, &mut settled, what.clone());
                        ticks += 1;
                    }
                    let reports = s.take_reports();
                    assert_eq!(reports.len(), 1, "{what}: one report per batch");
                    let r = reports[0];
                    let post = s.coloring();
                    // A compaction writes back at quiescence, so it never
                    // meets an uncolored port: the one kind of port whose
                    // knowledge row a later proposal reads.
                    assert!(
                        post.iter().all(|e| e.forward.is_some() && e.reverse.is_some()),
                        "{what}: settled with an uncolored slot"
                    );
                    write_backs +=
                        r.reduction.map_or(0, |k| k.trivial_recolors + k.chains_flipped).min(1);
                    // A compaction that moved colors rewrote the post-repair
                    // coloring the report's diff was taken against.
                    if r.reduction.is_none_or(|k| k.trivial_recolors + k.chains_flipped == 0) {
                        assert_eq!(
                            r.colors_changed,
                            map_diff(&slot_map(&pre), &slot_map(&post)),
                            "{what}: reported diff"
                        );
                    }
                    assert_eq!(r.colors_used, distinct(&post) as u64, "{what}: reported palette");
                    assert_eq!(s.status().colors_used, distinct(&post), "{what}: status palette");
                }
                escalations += s.escalations();
            }
        }
        assert!(leaves_seen > 0, "the event stream never removed a node");
        assert!(joins_seen > 0, "the event stream never added a node");
        assert!(escalations > 0, "the watchdog never escalated");
        assert!(write_backs > 0, "no compaction ever moved a color");
    }
}
