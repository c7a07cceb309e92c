//! The [`Protocol`] trait and the per-round context handed to nodes.
//!
//! A protocol is a pure state machine: once per communication round the
//! engine calls [`Protocol::on_round`] with a [`RoundCtx`] that exposes
//! the node's identity, its neighbor list, the inbox of messages sent to
//! it in the previous round (sorted by sender id), a deterministic
//! per-node RNG, and an outbox. The node returns [`NodeStatus::Done`]
//! when it has finished for good; the engine then stops scheduling it.
//! A node that only waits returns [`NodeStatus::Sleep`]; the engine
//! steps it again when mail or its due round comes.
//!
//! Mail goes to one neighbor ([`RoundCtx::send`]), to every neighbor
//! ([`RoundCtx::broadcast`]) or to a listed subset of them
//! ([`RoundCtx::multicast`]). A broadcast or multicast is one message of
//! the paper's cost model however many neighbors it reaches.
//!
//! A protocol that sets [`Protocol::CONTROL`] also gets the *control
//! plane*: beside the mail, each node may write one [`ControlWord`] per
//! port per round ([`RoundCtx::write_control`]), which the neighbor on
//! that port reads the next round ([`RoundCtx::control_word`]). A word
//! is a fixed-size value in a per-link slot, not an envelope: it costs a
//! store, a load and one fault decision, and it is never queued.

use std::num::NonZeroU64;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use dima_graph::VertexId;
use dima_telemetry::{ArqEventKind, Event, MetricsHandle, PaletteAction, TraceHandle};
use rand::rngs::SmallRng;

use crate::churn::NeighborhoodChange;

/// A message together with its sender.
///
/// The layout is deliberately flat — one `VertexId` plus the payload
/// value, nothing else — because envelopes are the unit the message
/// plane moves by the million: any per-envelope tag or indirection shows
/// up directly in engine throughput. Broadcast fan-out clones the
/// payload once per recipient; to make that clone a refcount bump
/// instead of a deep copy, wrap heavy payloads in [`Shared`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// The node that sent the message.
    pub from: VertexId,
    payload: M,
}

impl<M> Envelope<M> {
    /// A message from `from` carrying `msg`.
    #[inline]
    pub fn new(from: VertexId, msg: M) -> Self {
        Envelope { from, payload: msg }
    }

    /// The payload.
    #[inline]
    pub fn msg(&self) -> &M {
        &self.payload
    }
}

/// A cheaply-clonable handle for heavy message payloads.
///
/// The message plane clones a payload once per recipient when a
/// broadcast fans out to `d` neighbors (and once per retransmission
/// under the reliable transport). For small value-like messages — the
/// coloring protocols' enums — that clone is a register copy and any
/// cleverness costs more than it saves; measurements drove the plain
/// [`Envelope`] layout above. For payloads that own heap memory
/// (buffers, tables, batched state), wrap them in `Shared` and every
/// plane clone becomes an atomic refcount bump on **one** allocation:
///
/// ```
/// use dima_sim::Shared;
/// #
/// # struct P;
/// # impl dima_sim::Protocol for P {
/// type Msg = Shared<Vec<u64>>;
/// #     fn on_round(&mut self, ctx: &mut dima_sim::RoundCtx<'_, Self::Msg>)
/// #         -> dima_sim::NodeStatus { dima_sim::NodeStatus::Done }
/// # }
/// ```
///
/// `Shared` derefs to `T`, so receivers read through it transparently;
/// equality compares the pointed-to value. It is immutable by design —
/// messages are values, and the same allocation may be visible to many
/// recipients across worker threads.
#[derive(Debug, Default)]
pub struct Shared<T: ?Sized>(Arc<T>);

impl<T> Shared<T> {
    /// Wrap `value` in one refcounted allocation.
    #[inline]
    pub fn new(value: T) -> Self {
        Shared(Arc::new(value))
    }
}

impl<T: ?Sized> Clone for Shared<T> {
    #[inline]
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<T: ?Sized> std::ops::Deref for Shared<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

/// A shared slice from an iterator: one allocation when the iterator
/// knows its exact length (a `Vec` drain, a mapped slice).
impl<T> FromIterator<T> for Shared<[T]> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Shared(iter.into_iter().collect())
    }
}

impl<T> From<T> for Shared<T> {
    #[inline]
    fn from(value: T) -> Self {
        Shared::new(value)
    }
}

impl<T: ?Sized + PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl<T: ?Sized + Eq> Eq for Shared<T> {}

impl<T: ?Sized + std::hash::Hash> std::hash::Hash for Shared<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

/// What a node reports at the end of a round.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NodeStatus {
    /// The node wants to keep participating: it is stepped next round.
    Active,
    /// The node waits. It stays live: it is not done, so every message
    /// sent to it is delivered as to an active node. The engine steps it
    /// again in the first round its inbox is non-empty, or at round
    /// `wake_at`, whichever comes first; with `None`, only mail wakes it.
    /// If its crash round comes first, it is retired then. A churn batch,
    /// [`crate::Stepper::restart`] and [`crate::Stepper::park_all`]
    /// override the sleep.
    ///
    /// The node promises that a step with an empty inbox before
    /// `wake_at` would have been a no-op: no send, no state change, no
    /// metric update (its trace events go with the step). A `wake_at` at
    /// or before the next round is the same as [`NodeStatus::Active`],
    /// and so is every `Sleep` of a protocol with the control plane
    /// ([`Protocol::CONTROL`]), whose words are read in the round after
    /// they are written.
    Sleep {
        /// The round the node is due at, if any.
        wake_at: Option<u64>,
    },
    /// The node has terminated; the engine will not schedule it again and
    /// discards any further messages addressed to it.
    Done,
}

/// Where an outgoing message goes. One word: a multicast's port list
/// lives in the sender's port arena (see [`listed`]), so outbox entries
/// stay as small as a unicast's.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Target {
    /// One specific neighbor.
    Unicast(VertexId),
    /// Every neighbor (the paper's `Broadcast`).
    Broadcast,
    /// The neighbors at the ports [`listed`] at this arena position.
    Multicast(u32),
}

impl Target {
    /// Whether a message to `self` reaches the neighbor `peer` at `port`;
    /// `ports` is the sender's port arena.
    #[inline]
    pub(crate) fn reaches(&self, port: usize, peer: VertexId, ports: &[u32]) -> bool {
        match *self {
            Target::Unicast(to) => to == peer,
            Target::Broadcast => true,
            Target::Multicast(at) => listed(ports, at).binary_search(&(port as u32)).is_ok(),
        }
    }
}

/// The ports of the multicast at arena position `at`: strictly
/// ascending indices into the sender's neighbor list. The arena holds
/// each list as its length followed by its ports.
#[inline]
pub(crate) fn listed(ports: &[u32], at: u32) -> &[u32] {
    let at = at as usize;
    &ports[at + 1..][..ports[at] as usize]
}

/// Bytes one outbox entry of message type `M` occupies: the target word
/// plus the payload. Every message a node sends is one such entry.
pub fn outbox_entry_bytes<M>() -> usize {
    std::mem::size_of::<(Target, M)>()
}

/// One control-plane word (see the module docs). Nonzero, so an empty
/// slot needs no separate flag.
pub type ControlWord = NonZeroU64;

/// Initialization data handed to the protocol factory for each node.
#[derive(Clone, Debug)]
pub struct NodeSeed<'a> {
    /// This node's id.
    pub node: VertexId,
    /// This node's neighbors, sorted by id.
    pub neighbors: &'a [VertexId],
}

/// Per-round view of the world for one node.
pub struct RoundCtx<'a, M> {
    pub(crate) node: VertexId,
    pub(crate) round: u64,
    pub(crate) neighbors: &'a [VertexId],
    pub(crate) inbox: &'a [Envelope<M>],
    pub(crate) outbox: &'a mut Vec<(Target, M)>,
    /// The port lists of this node's multicasts this round, which its
    /// [`Target::Multicast`] entries index.
    pub(crate) ports: &'a mut Vec<u32>,
    pub(crate) rng: &'a mut SmallRng,
    /// Telemetry sink for this node this round. Dead (one branch per
    /// emission) when tracing is off or the node is sampled out.
    pub(crate) trace: TraceHandle<'a>,
    /// Aggregate-metrics sink for this node this round (the engine's
    /// registry — per-shard in the engine). Dead (one branch
    /// per update) when metrics are off.
    pub(crate) metrics: MetricsHandle<'a>,
    /// The control words this node's neighbors wrote toward it last
    /// round, by port; empty unless the protocol sets
    /// [`Protocol::CONTROL`].
    pub(crate) control_in: &'a [AtomicU64],
    /// The control words this node writes this round, by port.
    pub(crate) control_out: &'a mut Vec<(u32, ControlWord)>,
}

impl<'a, M> RoundCtx<'a, M> {
    /// This node's id.
    #[inline]
    pub fn node(&self) -> VertexId {
        self.node
    }

    /// The current communication round (0-based).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// This node's neighbors, sorted by id.
    #[inline]
    pub fn neighbors(&self) -> &[VertexId] {
        self.neighbors
    }

    /// Number of neighbors.
    #[inline]
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Messages delivered this round, sorted by sender id.
    #[inline]
    pub fn inbox(&self) -> &[Envelope<M>] {
        self.inbox
    }

    /// The node's deterministic RNG (seeded from the engine master seed
    /// and the node id only, so every shard count draws identical streams).
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Send `msg` to a single neighbor. The engine validates that `to` is
    /// in fact a neighbor (when configured to) — the model only allows
    /// one-hop communication.
    pub fn send(&mut self, to: VertexId, msg: M) {
        self.outbox.push((Target::Unicast(to), msg));
    }

    /// Send `msg` to every neighbor (the paper's `Broadcast`).
    pub fn broadcast(&mut self, msg: M) {
        self.outbox.push((Target::Broadcast, msg));
    }

    /// Send `msg` to the neighbors at `ports` (indices into
    /// [`RoundCtx::neighbors`]; order and repeats do not matter). Like a
    /// broadcast it counts as one message sent, and its copies go only to
    /// the listed neighbors: to none for an empty list.
    ///
    /// # Panics
    ///
    /// If a port is not below [`RoundCtx::degree`].
    pub fn multicast(&mut self, ports: &[u32], msg: M) {
        let at = self.ports.len();
        self.ports.push(0);
        self.ports.extend_from_slice(ports);
        if !ports.is_sorted_by(|a, b| a < b) {
            let mut list = self.ports.split_off(at + 1);
            list.sort_unstable();
            list.dedup();
            self.ports.append(&mut list);
        }
        let degree = self.neighbors.len();
        let last = self.ports[at + 1..].last();
        assert!(
            last.is_none_or(|&p| (p as usize) < degree),
            "multicast to a port past degree {degree}"
        );
        self.ports[at] = (self.ports.len() - at - 1) as u32;
        self.outbox.push((Target::Multicast(at as u32), msg));
    }

    /// Whether telemetry emissions from this node currently go anywhere.
    /// Protocols can test this before assembling expensive event
    /// arguments; the emit helpers below already no-op when it is
    /// `false`.
    #[inline]
    pub fn trace_on(&self) -> bool {
        self.trace.on()
    }

    /// Emit an automata state transition for this node (see
    /// [`Event::State`]). `label` is the state entered, `reason` a short
    /// static explanation of why.
    #[inline]
    pub fn trace_state(&mut self, label: &'static str, reason: &'static str) {
        if self.trace.on() {
            let (round, node) = (self.round, self.node.0);
            self.trace.emit(Event::State { round, node, label, reason });
        }
    }

    /// Emit a palette negotiation event for this node (see
    /// [`Event::Palette`]).
    #[inline]
    pub fn trace_palette(&mut self, action: PaletteAction, color: u32, peer: VertexId) {
        if self.trace.on() {
            let (round, node) = (self.round, self.node.0);
            self.trace.emit(Event::Palette { round, node, action, color, peer: peer.0 });
        }
    }

    /// Emit a reliable-transport link event for this node (see
    /// [`Event::Arq`]).
    #[inline]
    pub fn trace_arq(&mut self, kind: ArqEventKind, peer: VertexId) {
        if self.trace.on() {
            let (round, node) = (self.round, self.node.0);
            self.trace.emit(Event::Arq { round, node, kind, peer: peer.0 });
        }
    }

    /// Add `by` to run counter `name`. Like every metric update, it must
    /// be deterministic — a pure function of `(topology, seed, config)` —
    /// because the metrics registry participates in the engine's
    /// bit-identity contract. Count things in rounds and messages, never
    /// in wall-clock time; the update no-ops while metrics are off.
    #[inline]
    pub fn metric_inc(&mut self, name: &'static str, by: u64) {
        self.metrics.inc(name, by);
    }

    /// Record observation `v` into run histogram `name`.
    #[inline]
    pub fn metric_observe(&mut self, name: &'static str, v: u64) {
        self.metrics.observe(name, v);
    }

    /// The control word the neighbor at `port` wrote toward this node in
    /// the previous round, if it wrote one and the fault plan let it
    /// through. Always `None` unless the protocol sets
    /// [`Protocol::CONTROL`].
    #[inline]
    pub fn control_word(&self, port: usize) -> Option<ControlWord> {
        self.control_in.get(port).and_then(|w| NonZeroU64::new(w.load(Relaxed)))
    }

    /// Write `word` toward the neighbor at `port` (an index into
    /// [`RoundCtx::neighbors`]); that neighbor reads it next round. At
    /// most one word per port per round, and only from a protocol that
    /// sets [`Protocol::CONTROL`]. Like a frame, a word is subject to
    /// the fault plan's loss and corruption, and a word toward a node
    /// that is parked when the round starts is discarded.
    #[inline]
    pub fn write_control(&mut self, port: usize, word: ControlWord) {
        self.control_out.push((port as u32, word));
    }
}

/// A distributed algorithm, from one node's point of view.
///
/// The engine creates one instance per vertex (via a factory closure),
/// then call [`Protocol::on_round`] in lockstep until every node reports
/// [`NodeStatus::Done`] or the round limit is hit.
///
/// A node that only waits — for a reply, or for a round of its own
/// choosing — reports [`NodeStatus::Sleep`] instead of `Active` and is
/// not stepped until mail or its round comes. The contract: a step with
/// an empty inbox before its `wake_at` would have been a no-op. Rounds
/// in which every live node sleeps cost the engine nothing: a run
/// fast-forwards over them to the first due round, and they still count
/// toward its round budget.
pub trait Protocol: Send {
    /// The message type exchanged between nodes. `Sync` because a
    /// broadcast payload is shared (not copied) across all recipient
    /// envelopes, which shard workers read from several threads.
    type Msg: Clone + Send + Sync + 'static;

    /// Whether the protocol uses the control plane (see the module
    /// docs). Off by default: the engine then allocates no control
    /// storage and steps the protocol exactly as without the plane.
    const CONTROL: bool = false;

    /// Execute one communication round. Messages placed in the outbox are
    /// delivered to their recipients at the *next* round (synchronous
    /// model: everything sent in round `r` is readable in round `r+1`).
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) -> NodeStatus;

    /// The link to `neighbor` has been declared dead (e.g. the ARQ layer
    /// exhausted its retransmissions against a crashed peer). The protocol
    /// should stop waiting on that neighbor so it can still terminate on
    /// the residual graph. The default does nothing, which is correct for
    /// protocols that never block on a specific peer.
    fn on_link_down(&mut self, neighbor: VertexId) {
        let _ = neighbor;
    }

    /// Whether `msg` is a *wake-class* message: delivered to a parked
    /// (done) node, it re-enters the node into the run instead of being
    /// discarded, and the node reads it the next round. Everything else
    /// sent to a done node still evaporates. The decision must be a pure
    /// function of the message — the engine consults it while routing,
    /// where the receiver's state is not accessible — and it is subject
    /// to the fault layer like any other delivery (a dropped wake-up
    /// wakes nobody). The default wakes on nothing, which keeps every
    /// static protocol's termination semantics unchanged; churn-repair
    /// protocols override it for the messages that must reach parked
    /// nodes (e.g. an uncolor request for a committed edge).
    fn wakes(msg: &Self::Msg) -> bool {
        let _ = msg;
        false
    }

    /// Whether this freshly built instance starts *parked*: done from
    /// the start, stepped only once wake-class mail reaches it (see
    /// [`Protocol::wakes`]), exactly like a node that parked itself. The
    /// engine asks every instance it builds at construction and on a
    /// restart, so a protocol whose nodes mostly sleep pays nothing per
    /// round for the sleepers until one is woken. (A churn joiner's
    /// status comes from [`Protocol::on_topology_change`], which every
    /// joiner gets.) The default steps every node from round 0.
    fn starts_parked(&self) -> bool {
        false
    }

    /// A churn batch changed this node's neighborhood (see
    /// [`crate::churn`]). `seed` carries the node's *new* neighbor list;
    /// `change` the net diff against the old one. Called by the engine at
    /// the top of the batch's round, before any node is stepped. The
    /// returned status replaces the node's done flag and ends any sleep:
    /// `Active` (or `Sleep`) steps the node in the batch's round, a
    /// parked one included, and `Done` parks it (e.g. when every
    /// remaining port is already colored).
    ///
    /// The default keeps the node `Active` and ignores the diff — enough
    /// for stateless protocols, wrong for anything that caches per-port
    /// state (which must remap it here).
    fn on_topology_change(
        &mut self,
        seed: NodeSeed<'_>,
        change: &NeighborhoodChange,
    ) -> NodeStatus {
        let _ = (seed, change);
        NodeStatus::Active
    }

    /// A short static name classifying `msg` for the telemetry plane's
    /// per-kind message counters (e.g. `"invite"`, `"accept"`). Must be
    /// a pure function of the message. Only consulted when tracing is
    /// enabled; the default lumps everything under `"msg"`.
    fn kind_of(msg: &Self::Msg) -> &'static str {
        let _ = msg;
        "msg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ctx_accessors_and_outbox() {
        let neighbors = [VertexId(1), VertexId(2)];
        let inbox = [Envelope::new(VertexId(1), 7u32)];
        let mut outbox = Vec::new();
        let mut ports = Vec::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ctx = RoundCtx {
            node: VertexId(0),
            round: 3,
            neighbors: &neighbors,
            inbox: &inbox,
            outbox: &mut outbox,
            ports: &mut ports,
            rng: &mut rng,
            trace: TraceHandle::none(),
            metrics: MetricsHandle::none(),
            control_in: &[],
            control_out: &mut Vec::new(),
        };
        assert_eq!(ctx.node(), VertexId(0));
        assert_eq!(ctx.round(), 3);
        assert_eq!(ctx.degree(), 2);
        assert_eq!(ctx.inbox().len(), 1);
        assert_eq!(*ctx.inbox()[0].msg(), 7);
        ctx.send(VertexId(1), 10);
        ctx.broadcast(20);
        ctx.multicast(&[1], 30);
        ctx.multicast(&[], 40);
        ctx.multicast(&[1, 0, 1], 50);
        let _ = ctx.rng();
        assert_eq!(outbox.len(), 5);
        assert_eq!(outbox[0], (Target::Unicast(VertexId(1)), 10));
        assert_eq!(outbox[1], (Target::Broadcast, 20));
        assert_eq!(outbox[2], (Target::Multicast(0), 30));
        assert_eq!(outbox[3], (Target::Multicast(2), 40));
        assert_eq!(outbox[4], (Target::Multicast(3), 50));
        assert_eq!(listed(&ports, 0), [1]);
        assert!(listed(&ports, 2).is_empty());
        assert_eq!(listed(&ports, 3), [0, 1]);
        let reach = |t: &Target, port| t.reaches(port, neighbors[port], &ports);
        assert!(reach(&outbox[2].0, 1) && !reach(&outbox[2].0, 0));
        assert!(!reach(&outbox[3].0, 0) && !reach(&outbox[3].0, 1));
        assert!(reach(&outbox[4].0, 0) && reach(&outbox[0].0, 0) && !reach(&outbox[0].0, 1));
    }

    #[test]
    #[should_panic(expected = "past degree 2")]
    fn multicast_rejects_a_port_past_the_degree() {
        let neighbors = [VertexId(1), VertexId(2)];
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ctx = RoundCtx {
            node: VertexId(0),
            round: 0,
            neighbors: &neighbors,
            inbox: &[],
            outbox: &mut Vec::new(),
            ports: &mut Vec::new(),
            rng: &mut rng,
            trace: TraceHandle::none(),
            metrics: MetricsHandle::none(),
            control_in: &[],
            control_out: &mut Vec::new(),
        };
        ctx.multicast(&[2], 1u32);
    }
}
