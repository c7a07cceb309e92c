//! Kempe-chain palette reduction — a distributed post-processing pass
//! that compresses a proper edge coloring toward `Δ+1` colors.
//!
//! DiMaEC guarantees at most `2Δ−1` colors and typically lands on
//! `Δ+1`/`Δ+2`; the related work (Ghaffari–Kuhn–Maus–Uitto, Bernshteyn)
//! shows `Δ+1` is the real target. This module runs *after* the main
//! coloring quiesces (and after each churn-batch repair commits): every
//! node holding an edge colored at or above the target threshold `T`
//! (default `Δ+1`) tries to move that edge below `T`, either by a
//! **trivial recolor** (a color `< T` free at both endpoints) or by
//! flipping a **Kempe chain** — the `(a, b)`-alternating path starting
//! at the initiator, which in a proper coloring is a simple path whose
//! flip preserves propriety and frees `b` at the initiator for the
//! over-threshold edge.
//!
//! ## Chain protocol
//!
//! For an over-threshold edge `e = (u, v)` (owned by the lower-id
//! endpoint `u`, colored `c ≥ T`):
//!
//! 1. `u` picks `a` = its lowest absent color and `b` = a color absent
//!    at `v` (by one-hop knowledge) but present at `u`, both `< T`, and
//!    sends `PairLock` to `v`. `v` validates against its *actual* state
//!    and locks, guaranteeing `b` stays absent and `e` stays `c`.
//! 2. `u` probes along its `b`-edge. Each visited node locks
//!    (first-request-wins; a locked, busy, or pinned-conflicting node
//!    answers `ProbeResult{ok: false}`), records its predecessor and
//!    successor chain ports, and forwards the probe along its
//!    alternating continuation edge. A node with no continuation is the
//!    chain end and acknowledges; a probe reaching `v` itself is the
//!    Vizing hard case and is refused (the owner retries with the next
//!    `b` candidate).
//! 3. On the relayed acknowledgment, `u` flips its own chain edge,
//!    recolors `e := b`, and sends `Flip` down the chain (each node
//!    swaps its two chain-edge colors, unlocks, and re-broadcasts its
//!    used set) plus `Commit` to `v`.
//!
//! ## Termination and determinism
//!
//! Every committed operation strictly decreases the number of
//! over-threshold edges (trivial and chain commits move `e` below `T`
//! and recolor chain edges among `{a, b} ⊂ [0, T)`), refusals cost a
//! bounded number of rounds, and each edge gets a finite attempt budget
//! with deterministic candidate cycling. Only **structural** refusals
//! consume the budget (hard case, pinned edge, over-long chain, a
//! refusal from an idle responder); refusals born of contention or
//! message loss carry `busy: true` and are refunded, so crowded regions
//! keep searching instead of parking early — the initiation deadline
//! derived from the round budget bounds those free retries, and an
//! id-staggered backoff breaks up repeated collisions so the pass winds
//! down cleanly before the engine's hard limit.
//! The protocol never touches the per-node RNG and reacts only to its
//! own state and the id-sorted inbox, so the sequential and parallel
//! engines are bit-identical by construction (pinned by proptests).
//!
//! ## Who is built
//!
//! The pass reads the pre-pass coloring port by port (`PortSlots` on a
//! [`Topology`]). A node is built with every knowledge row holding its
//! neighbor's pre-pass used set, so no greeting round precedes the first
//! operation. Only the owners of over-threshold edges are built when the
//! pass starts; every other node is *dormant*, holding no heap, until an
//! operation wakes it, and is then built from the same table. A dormant
//! node parks after round 1 exactly as a built non-owner does, so every
//! wake, send and outcome is that of a pass that builds every node. Serve
//! mode runs the pass on its live topology, so a batch's pass builds
//! state only for the nodes its operations reach.
//!
//! ## Faulted inputs
//!
//! Edges with a crashed endpoint or without an agreed color are
//! **pinned**: they count in used sets but are never recolored, never
//! traversed by probes, and never initiate. Crashed nodes participate
//! as stubs that refuse every request.

use std::sync::Arc;

use dima_graph::VertexId;
use dima_sim::churn::ChurnSchedule;
use dima_sim::fault::FaultPlan;
use dima_sim::telemetry::{MetricsRegistry, PaletteAction, Tracer};
use dima_sim::{NodeSeed, NodeStatus, Protocol, RoundCtx, RunOutcome, Topology};

use crate::config::{ColorReduction, ColoringConfig, KempeConfig, Transport};
use crate::edge_coloring::EdgeColoringNode;
use crate::error::CoreError;
use crate::palette::{Color, ColorSet, PortColorSets};
use crate::runner::run_protocol;

/// Rounds a request sender waits for a response before retransmitting.
/// Under the bare reliable transport a received request is answered in
/// exactly 2 rounds, so silence past this window proves the request
/// evaporated into a node that parked in the very round it was sent (the
/// engine's wake machinery only catches sends to *already*-parked
/// nodes). Retransmitting is therefore never a duplicate: the original
/// was provably not processed.
const RETRY_INTERVAL: u64 = 3;

/// Retransmissions before a request is abandoned (the recipient kept
/// parking in the send round — possible but diminishing; give up and
/// release whatever the operation holds).
const MAX_RETRIES: u32 = 8;

/// Rounds an in-flight operation can still need after initiations stop:
/// every hop of a `max_chain`-long probe may burn its full retry budget
/// before resolving, plus slack for the flip/commit tail.
fn wind_down_margin(max_chain: usize) -> u64 {
    RETRY_INTERVAL * u64::from(MAX_RETRIES + 2) * max_chain as u64 + 64
}

/// Messages of the reduction pass. All unicast except the
/// [`KMsg::Hello`] used-set refresh, which is also the one message that
/// is not wake-class: parked nodes re-enter to serve locks, relays and
/// flips.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum KMsg {
    /// Full used-color set of the sender, broadcast after every local
    /// recolor (the pre-pass sets are read from the coloring, not
    /// greeted). Reference-counted: every recipient's copy of the
    /// broadcast shares the sender's one list.
    Hello { used: Arc<[Color]> },
    /// Trivial recolor request for the edge (sender, receiver): change
    /// its color from `from_color` to `to_color`.
    Recolor { from_color: Color, to_color: Color },
    /// Reply to [`KMsg::Recolor`]; on `ok` the receiver has already
    /// applied the change on its side. `busy` marks a refusal caused by
    /// the receiver being mid-operation (transient — the attempt is
    /// refunded) rather than by the move being impossible as asked.
    RecolorAck { ok: bool, busy: bool },
    /// Chain-partner lock request: the sender wants to recolor the edge
    /// (sender, receiver) from `cur` to `b` after a chain flip; the
    /// receiver must keep `b` absent and the edge at `cur` until
    /// [`KMsg::Commit`] or [`KMsg::Unlock`].
    PairLock { b: Color, cur: Color },
    /// Reply to [`KMsg::PairLock`]; `busy` as in [`KMsg::RecolorAck`].
    PairResp { ok: bool, busy: bool },
    /// The owner abandons a granted [`KMsg::PairLock`].
    Unlock,
    /// Chain probe, traveling along the `(a, b)`-alternating path. The
    /// receiver was reached via its `enter`-colored edge and continues
    /// via the other color; `len` edges are on the chain so far.
    Probe { partner: VertexId, a: Color, b: Color, enter: Color, len: u32 },
    /// Hop receipt for a forwarded [`KMsg::Probe`]: the sender locked
    /// and forwarded it. The previous hop stops retransmitting (see the
    /// module docs on the parked-recipient race).
    ProbeAck,
    /// Probe outcome, relayed back along the chain toward the owner
    /// (`len` = final chain length). `ok: false` releases the relaying
    /// nodes' locks; `busy` marks a refusal by a mid-operation hop
    /// (transient) as opposed to a structural dead end (hard case,
    /// pinned edge, over-long chain).
    ProbeResult { ok: bool, busy: bool, len: u32 },
    /// Flip order, traveling forward along the locked chain; each node
    /// swaps its two chain-edge colors and unlocks.
    Flip,
    /// The owner's edge toward the receiver (the locked partner) is now
    /// `color`; apply and unlock.
    Commit { color: Color },
}

/// What the owner side of a node is currently doing.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum OwnerOp {
    Idle,
    /// Sent [`KMsg::Recolor`] for the edge at `port`, awaiting the ack.
    AwaitRecolor {
        port: usize,
        to_color: Color,
    },
    /// Sent [`KMsg::PairLock`] for the edge at `port`, awaiting grant.
    AwaitPair {
        port: usize,
        a: Color,
        b: Color,
    },
    /// Probe launched along `chain_port`; on success `port` becomes `b`.
    Probing {
        port: usize,
        chain_port: usize,
        a: Color,
        b: Color,
    },
}

/// Responder-side lock, protecting state another node's operation
/// depends on. Any lock refuses all incoming requests.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum LockState {
    Free,
    /// Locked by a [`KMsg::PairLock`] from the neighbor at `port`.
    Partner {
        port: usize,
    },
    /// On a probed chain: entered via `pred` (colored `enter`),
    /// continuing via `succ` (colored `other`), if any. `partner`, `a`,
    /// `b` and `len` restate the forwarded probe so the hop can
    /// retransmit it until acknowledged.
    Chain {
        pred: usize,
        succ: Option<usize>,
        enter: Color,
        other: Color,
        partner: VertexId,
        a: Color,
        b: Color,
        len: u32,
    },
}

/// A proper (partial) edge coloring laid out port by port in topology
/// order: node `u`'s slots toward its neighbors, in neighbor order, are
/// the `u`-th row. Both ends of an edge hold its color; a node the
/// topology lists with no neighbors (a departed node) has an empty row.
#[derive(Default)]
pub(crate) struct PortSlots {
    start: Vec<usize>,
    slots: Vec<Option<Color>>,
}

impl PortSlots {
    /// An all-`None` table shaped like `topo`.
    pub(crate) fn new(topo: &Topology) -> Self {
        let mut start = Vec::with_capacity(topo.num_nodes() + 1);
        start.push(0);
        for u in (0..topo.num_nodes() as u32).map(VertexId) {
            start.push(start[u.index()] + topo.degree(u));
        }
        let slots = vec![None; start[topo.num_nodes()]];
        PortSlots { start, slots }
    }

    /// Node `i`'s slots, in neighbor order.
    pub(crate) fn of(&self, i: usize) -> &[Option<Color>] {
        &self.slots[self.start[i]..self.start[i + 1]]
    }

    /// Node `i`'s slots, writable.
    pub(crate) fn of_mut(&mut self, i: usize) -> &mut [Option<Color>] {
        &mut self.slots[self.start[i]..self.start[i + 1]]
    }

    /// Every color on some slot.
    fn palette(&self) -> ColorSet {
        self.slots.iter().flatten().copied().collect()
    }
}

/// What every node of one pass reads: the pre-pass coloring, the
/// liveness flags and the pass parameters.
struct Pass<'a> {
    slots: &'a PortSlots,
    /// `false` for a node that crashed in the main run: it never
    /// initiates and refuses every request.
    alive: Alive<'a>,
    /// Color indices `>= threshold` are over-threshold.
    threshold: u32,
    max_chain: u32,
    max_attempts: u32,
    /// No new operations start after this round — the wind-down margin
    /// keeps in-flight chains inside the engine budget.
    deadline: u64,
}

/// A node of the reduction pass. Only a node that owns an
/// over-threshold edge is built at construction; every other node
/// starts *dormant*, holding no heap, and is built from
/// the pre-pass coloring when its first wake-class message arrives. A
/// crashed node stays dormant for good and refuses whatever reaches it.
pub(crate) struct KempeNode<'p> {
    me: VertexId,
    pass: &'p Pass<'p>,
    live: Option<Box<LiveNode>>,
}

impl<'p> KempeNode<'p> {
    /// The production factory: built when `seed.node` owns an unpinned
    /// over-threshold edge (it is the edge's lower-id endpoint), dormant
    /// otherwise.
    fn new(pass: &'p Pass<'p>, seed: NodeSeed<'_>) -> Self {
        let me = seed.node;
        let owner = (pass.alive)(me)
            && seed.neighbors.iter().zip(pass.slots.of(me.index())).any(|(&w, &c)| {
                w > me && c.is_some_and(|c| c.0 >= pass.threshold) && (pass.alive)(w)
            });
        let live = owner.then(|| Box::new(LiveNode::new(pass, me, seed.neighbors)));
        KempeNode { me, pass, live }
    }

    /// A factory that builds every surviving node at construction — the
    /// reference the dormant nodes are tested against.
    #[cfg(test)]
    fn eager(pass: &'p Pass<'p>, seed: NodeSeed<'_>) -> Self {
        let me = seed.node;
        let live = (pass.alive)(me).then(|| Box::new(LiveNode::new(pass, me, seed.neighbors)));
        KempeNode { me, pass, live }
    }
}

/// The full automata state of a built node.
struct LiveNode {
    me: VertexId,
    neighbors: Vec<VertexId>,
    edge_color: Vec<Option<Color>>,
    /// Pinned ports count in used sets but are never recolored or
    /// traversed.
    pinned: Vec<bool>,
    used_self: ColorSet,
    /// Per-port knowledge of the neighbor's used set: the pre-pass set
    /// at build time, then refreshed by [`KMsg::Hello`] (replaced
    /// wholesale — colors can be released).
    nbr_used: PortColorSets,
    /// Candidate-pair attempts consumed per owned port.
    attempts: Vec<u32>,
    /// Color indices `>= threshold` are over-threshold.
    threshold: u32,
    max_chain: u32,
    max_attempts: u32,
    /// No new operations start after this round — the wind-down margin
    /// keeps in-flight chains inside the engine budget.
    deadline: u64,
    op: OwnerOp,
    lock: LockState,
    /// Owner-side retry gate (id-staggered backoff after a refusal).
    retry_after: u64,
    /// Refusals since the last committed operation — drives the
    /// exponential backoff window.
    consec_aborts: u32,
    /// Round the pending owner request was (re)sent.
    op_sent_at: u64,
    /// Retransmissions consumed by the pending owner request.
    op_retries: u32,
    /// The launched probe's first hop confirmed receipt.
    probe_acked: bool,
    /// Round this hop's forwarded probe was (re)sent.
    fwd_sent_at: u64,
    /// Retransmissions consumed by the forwarded probe.
    fwd_retries: u32,
    /// The next hop confirmed receipt of the forwarded probe.
    fwd_acked: bool,
    trivial_recolors: u64,
    chains_flipped: u64,
    max_chain_len: u32,
    aborts: u64,
}

impl LiveNode {
    /// Build surviving node `me` from the pre-pass coloring: its ports,
    /// its pinned flags (uncolored, or toward a crashed neighbor) and,
    /// per port, the neighbor's pre-pass used set — what a greeting
    /// from that neighbor would carry. A crashed neighbor greets no one,
    /// so its row stays empty.
    fn new(pass: &Pass<'_>, me: VertexId, neighbors: &[VertexId]) -> Self {
        let own = pass.slots.of(me.index());
        debug_assert_eq!(own.len(), neighbors.len(), "slots misaligned with topology");
        let degree = neighbors.len();
        let mut edge_color = Vec::with_capacity(degree);
        let mut pinned = Vec::with_capacity(degree);
        let mut used_self = ColorSet::with_capacity(pass.threshold as usize + degree);
        let mut nbr_used = PortColorSets::new(degree);
        for (p, (&w, &c)) in neighbors.iter().zip(own).enumerate() {
            let nbr_alive = (pass.alive)(w);
            edge_color.push(c);
            pinned.push(c.is_none() || !nbr_alive);
            if let Some(c) = c {
                used_self.insert(c);
            }
            if nbr_alive {
                nbr_used.assign(p, pass.slots.of(w.index()).iter().flatten().copied());
            }
        }
        LiveNode {
            me,
            neighbors: neighbors.to_vec(),
            edge_color,
            pinned,
            used_self,
            nbr_used,
            attempts: vec![0; degree],
            threshold: pass.threshold,
            max_chain: pass.max_chain,
            max_attempts: pass.max_attempts,
            deadline: pass.deadline,
            op: OwnerOp::Idle,
            lock: LockState::Free,
            retry_after: 0,
            consec_aborts: 0,
            op_sent_at: 0,
            op_retries: 0,
            probe_acked: false,
            fwd_sent_at: 0,
            fwd_retries: 0,
            fwd_acked: false,
            trivial_recolors: 0,
            chains_flipped: 0,
            max_chain_len: 0,
            aborts: 0,
        }
    }

    fn port_of(&self, v: VertexId) -> Option<usize> {
        self.neighbors.binary_search(&v).ok()
    }

    /// The port whose edge is colored `c`, if any (unique: proper).
    fn port_colored(&self, c: Color) -> Option<usize> {
        self.edge_color.iter().position(|&ec| ec == Some(c))
    }

    fn rebuild_used(&mut self) {
        let mut used = ColorSet::with_capacity(self.threshold as usize + self.neighbors.len());
        for c in self.edge_color.iter().flatten() {
            used.insert(*c);
        }
        self.used_self = used;
    }

    fn hello(&self, ctx: &mut RoundCtx<'_, KMsg>) {
        ctx.broadcast(KMsg::Hello { used: self.used_self.iter().collect() });
    }

    /// Responder-side availability: nothing in flight on either role.
    fn free(&self) -> bool {
        self.op == OwnerOp::Idle && self.lock == LockState::Free
    }

    /// Give back the attempt consumed by an operation that failed for a
    /// transient reason (the peer was mid-operation, or the request was
    /// lost to the parked-recipient race): contention must not eat the
    /// structural search budget, or crowded regions park with
    /// over-threshold edges still reducible. Termination still holds —
    /// refunded retries are bounded by the initiation deadline.
    fn refund(&mut self, port: usize) {
        self.attempts[port] = self.attempts[port].saturating_sub(1);
    }

    /// Deterministic backoff after a refusal. The quiet window doubles
    /// with every *consecutive* refusal (capped at 512 rounds) and is
    /// phase-shifted by node id: two owners livelocked against each
    /// other — directly, or through intersecting chains that refuse each
    /// other `busy` forever — grow their windows together until the id
    /// stagger hands one of them a window long enough to run
    /// uncontended, whose outcome (a flip, or a structural refusal that
    /// consumes an attempt) breaks the orbit. Purely a function of local
    /// state, so the engines stay bit-identical.
    /// `busy` distinguishes transient contention (the peer was
    /// mid-operation) from structural refusals that consumed an
    /// attempt — the split feeds the `kempe/aborts_*` counters.
    fn backoff(&mut self, ctx: &mut RoundCtx<'_, KMsg>, busy: bool) {
        ctx.metric_inc(if busy { "kempe/aborts_busy" } else { "kempe/aborts_structural" }, 1);
        self.aborts += 1;
        self.consec_aborts += 1;
        if (2..=9).contains(&self.consec_aborts) {
            // The quiet window actually doubled (it is capped past 9).
            ctx.metric_inc("kempe/backoff_widenings", 1);
        }
        let window = 1u64 << u64::from(self.consec_aborts.min(9));
        let stagger = (self.aborts * 3 + u64::from(self.me.0)) % window;
        self.retry_after = ctx.round() + 2 + window + stagger;
    }

    /// An operation committed: clear the consecutive-refusal streak so
    /// the next collision starts from a short backoff again.
    fn op_succeeded(&mut self, round: u64) {
        self.consec_aborts = 0;
        self.retry_after = round + 1;
    }

    /// The best over-threshold edge this node owns and may still try:
    /// highest color first, then lowest port (deterministic).
    fn best_candidate(&self) -> Option<(usize, Color)> {
        let mut best: Option<(usize, Color)> = None;
        for (p, &c) in self.edge_color.iter().enumerate() {
            let Some(c) = c else { continue };
            if c.0 < self.threshold
                || self.pinned[p]
                || self.neighbors[p] < self.me
                || self.attempts[p] >= self.max_attempts
            {
                continue;
            }
            if best.is_none_or(|(_, bc)| c > bc) {
                best = Some((p, c));
            }
        }
        best
    }

    /// Start one operation for the edge at `port` (colored `cur`).
    fn initiate(&mut self, ctx: &mut RoundCtx<'_, KMsg>, port: usize, cur: Color) {
        let partner = self.neighbors[port];
        // Trivial: a color < T free at both ends (by one-hop knowledge;
        // the partner re-validates, so staleness only costs a retry).
        let x = self.nbr_used.first_absent_in_union(&self.used_self, port);
        if x.0 < self.threshold {
            self.attempts[port] += 1;
            self.op = OwnerOp::AwaitRecolor { port, to_color: x };
            self.op_sent_at = ctx.round();
            self.op_retries = 0;
            ctx.send(partner, KMsg::Recolor { from_color: cur, to_color: x });
            return;
        }
        // Chain: `a` absent here, `b` absent there but present here
        // (if it were absent at both, the trivial branch would have
        // fired). Cycle through the `b` candidates across attempts.
        let a = self.used_self.first_absent();
        let cands: Vec<Color> = (0..self.threshold)
            .map(Color)
            .filter(|&b| !self.nbr_used.contains(port, b))
            .filter(|&b| self.port_colored(b).is_some_and(|pb| !self.pinned[pb]))
            .collect();
        if a.0 >= self.threshold || cands.is_empty() {
            // No legal pair from here (e.g. every b-edge pinned): give
            // this edge up for good.
            self.attempts[port] = self.max_attempts;
            return;
        }
        let b = cands[self.attempts[port] as usize % cands.len()];
        self.attempts[port] += 1;
        self.op = OwnerOp::AwaitPair { port, a, b };
        self.op_sent_at = ctx.round();
        self.op_retries = 0;
        ctx.send(partner, KMsg::PairLock { b, cur });
    }

    fn on_recolor(&mut self, ctx: &mut RoundCtx<'_, KMsg>, from: VertexId, fc: Color, tc: Color) {
        let port = self.port_of(from).filter(|&p| {
            self.free()
                && !self.pinned[p]
                && self.edge_color[p] == Some(fc)
                && !self.used_self.contains(tc)
        });
        let ok = port.is_some();
        if let Some(p) = port {
            self.edge_color[p] = Some(tc);
            self.rebuild_used();
            ctx.trace_palette(PaletteAction::Released, fc.0, from);
            ctx.trace_palette(PaletteAction::Committed, tc.0, from);
            self.hello(ctx);
        }
        ctx.send(from, KMsg::RecolorAck { ok, busy: !self.free() });
    }

    fn on_pair_lock(&mut self, ctx: &mut RoundCtx<'_, KMsg>, from: VertexId, b: Color, cur: Color) {
        let port = self.port_of(from).filter(|&p| {
            self.free()
                && !self.pinned[p]
                && self.edge_color[p] == Some(cur)
                && !self.used_self.contains(b)
        });
        let ok = port.is_some();
        let busy = !ok && !self.free();
        if let Some(p) = port {
            self.lock = LockState::Partner { port: p };
        }
        ctx.send(from, KMsg::PairResp { ok, busy });
    }

    // A probe carries the full chain identity (owner pair, color pair,
    // entry color, length); splitting it into a struct would only move
    // the field list.
    #[allow(clippy::too_many_arguments)]
    fn on_probe(
        &mut self,
        ctx: &mut RoundCtx<'_, KMsg>,
        from: VertexId,
        partner: VertexId,
        a: Color,
        b: Color,
        enter: Color,
        len: u32,
    ) {
        let valid = self
            .port_of(from)
            .filter(|&p| self.free() && !self.pinned[p] && self.edge_color[p] == Some(enter));
        let Some(pred) = valid else {
            ctx.send(from, KMsg::ProbeResult { ok: false, busy: !self.free(), len });
            return;
        };
        let other = if enter == b { a } else { b };
        match self.port_colored(other) {
            None => {
                // Chain end: lock and acknowledge back toward the owner
                // (the result doubles as the hop receipt).
                self.lock = LockState::Chain { pred, succ: None, enter, other, partner, a, b, len };
                ctx.send(from, KMsg::ProbeResult { ok: true, busy: false, len });
            }
            Some(pc) => {
                if self.neighbors[pc] == partner || self.pinned[pc] || len >= self.max_chain {
                    // Vizing hard case (the chain would end at the
                    // partner), an unflippable pinned edge, or an
                    // over-long chain: refuse without locking. These are
                    // structural — the owner's attempt stands spent.
                    ctx.send(from, KMsg::ProbeResult { ok: false, busy: false, len });
                } else {
                    let len = len + 1;
                    self.lock =
                        LockState::Chain { pred, succ: Some(pc), enter, other, partner, a, b, len };
                    self.fwd_sent_at = ctx.round();
                    self.fwd_retries = 0;
                    self.fwd_acked = false;
                    ctx.send(from, KMsg::ProbeAck);
                    ctx.send(self.neighbors[pc], KMsg::Probe { partner, a, b, enter: other, len });
                }
            }
        }
    }

    fn on_probe_result(
        &mut self,
        ctx: &mut RoundCtx<'_, KMsg>,
        from: VertexId,
        ok: bool,
        busy: bool,
        len: u32,
    ) {
        if let OwnerOp::Probing { port, chain_port, a, b } = self.op {
            if self.neighbors[chain_port] == from {
                // An owned edge is colored; were it not, the verdict
                // takes the refusal path.
                if let Some(old) = self.edge_color[port].filter(|_| ok) {
                    // Commit: flip the owner's own chain edge (b -> a)
                    // and move the edge below the threshold.
                    self.edge_color[chain_port] = Some(a);
                    self.edge_color[port] = Some(b);
                    self.rebuild_used();
                    self.chains_flipped += 1;
                    self.max_chain_len = self.max_chain_len.max(len);
                    ctx.metric_inc("kempe/chains_flipped", 1);
                    ctx.metric_observe("kempe/chain_len", u64::from(len));
                    ctx.trace_palette(PaletteAction::Released, old.0, self.neighbors[port]);
                    ctx.trace_palette(PaletteAction::Committed, b.0, self.neighbors[port]);
                    self.hello(ctx);
                    ctx.send(self.neighbors[chain_port], KMsg::Flip);
                    ctx.send(self.neighbors[port], KMsg::Commit { color: b });
                    self.op = OwnerOp::Idle;
                    self.op_succeeded(ctx.round());
                } else {
                    if busy {
                        self.refund(port);
                    }
                    ctx.send(self.neighbors[port], KMsg::Unlock);
                    self.op = OwnerOp::Idle;
                    self.backoff(ctx, busy);
                }
                return;
            }
        }
        // Chain relay: pass the verdict back toward the owner; a
        // refusal releases this node's lock on the way through. Either
        // verdict proves the next hop saw the probe — stop
        // retransmitting it.
        if let LockState::Chain { pred, succ: Some(s), .. } = self.lock {
            if self.neighbors[s] == from {
                self.fwd_acked = true;
                ctx.send(self.neighbors[pred], KMsg::ProbeResult { ok, busy, len });
                if !ok {
                    self.lock = LockState::Free;
                }
            }
        }
    }

    fn on_probe_ack(&mut self, from: VertexId) {
        if let OwnerOp::Probing { chain_port, .. } = self.op {
            if self.neighbors[chain_port] == from {
                self.probe_acked = true;
            }
        }
        if let LockState::Chain { succ: Some(s), .. } = self.lock {
            if self.neighbors[s] == from {
                self.fwd_acked = true;
            }
        }
    }

    fn on_flip(&mut self, ctx: &mut RoundCtx<'_, KMsg>, from: VertexId) {
        if let LockState::Chain { pred, succ, enter, other, .. } = self.lock {
            if self.neighbors[pred] == from {
                self.edge_color[pred] = Some(other);
                if let Some(s) = succ {
                    self.edge_color[s] = Some(enter);
                    ctx.send(self.neighbors[s], KMsg::Flip);
                }
                self.rebuild_used();
                ctx.trace_palette(PaletteAction::Committed, other.0, from);
                self.hello(ctx);
                self.lock = LockState::Free;
            }
        }
    }

    fn on_commit(&mut self, ctx: &mut RoundCtx<'_, KMsg>, from: VertexId, color: Color) {
        if let LockState::Partner { port } = self.lock {
            if self.neighbors[port] == from {
                let old = self.edge_color[port];
                self.edge_color[port] = Some(color);
                self.rebuild_used();
                if let Some(old) = old {
                    ctx.trace_palette(PaletteAction::Released, old.0, from);
                }
                ctx.trace_palette(PaletteAction::Committed, color.0, from);
                self.hello(ctx);
                self.lock = LockState::Free;
            }
        }
    }

    fn on_recolor_ack(
        &mut self,
        ctx: &mut RoundCtx<'_, KMsg>,
        from: VertexId,
        ok: bool,
        busy: bool,
    ) {
        if let OwnerOp::AwaitRecolor { port, to_color } = self.op {
            if self.neighbors[port] == from {
                // As in `on_probe_result`: an uncolored owned edge takes
                // the refusal path.
                if let Some(old) = self.edge_color[port].filter(|_| ok) {
                    self.edge_color[port] = Some(to_color);
                    self.rebuild_used();
                    self.trivial_recolors += 1;
                    ctx.metric_inc("kempe/trivial_recolors", 1);
                    ctx.trace_palette(PaletteAction::Released, old.0, from);
                    ctx.trace_palette(PaletteAction::Committed, to_color.0, from);
                    self.hello(ctx);
                    self.op = OwnerOp::Idle;
                    self.op_succeeded(ctx.round());
                } else {
                    if busy {
                        self.refund(port);
                    }
                    self.op = OwnerOp::Idle;
                    self.backoff(ctx, busy);
                }
            }
        }
    }

    fn on_pair_resp(&mut self, ctx: &mut RoundCtx<'_, KMsg>, from: VertexId, ok: bool, busy: bool) {
        if let OwnerOp::AwaitPair { port, a, b } = self.op {
            if self.neighbors[port] == from {
                if !ok {
                    if busy {
                        self.refund(port);
                    }
                    self.op = OwnerOp::Idle;
                    self.backoff(ctx, busy);
                    return;
                }
                match self.port_colored(b).filter(|&pb| !self.pinned[pb]) {
                    Some(pb) => {
                        self.op = OwnerOp::Probing { port, chain_port: pb, a, b };
                        self.op_sent_at = ctx.round();
                        self.op_retries = 0;
                        self.probe_acked = false;
                        ctx.send(
                            self.neighbors[pb],
                            KMsg::Probe { partner: self.neighbors[port], a, b, enter: b, len: 1 },
                        );
                    }
                    None => {
                        // The b-edge vanished between selection and
                        // grant (it cannot here — the owner is busy the
                        // whole time — but degrade instead of panicking).
                        ctx.send(self.neighbors[port], KMsg::Unlock);
                        self.op = OwnerOp::Idle;
                        self.backoff(ctx, false);
                    }
                }
            }
        }
    }
}

impl Protocol for KempeNode<'_> {
    type Msg = KMsg;

    fn kind_of(msg: &KMsg) -> &'static str {
        match msg {
            KMsg::Hello { .. } => "hello",
            KMsg::Recolor { .. } => "recolor",
            KMsg::RecolorAck { .. } => "recolor-ack",
            KMsg::PairLock { .. } => "pair-lock",
            KMsg::PairResp { .. } => "pair-resp",
            KMsg::Unlock => "unlock",
            KMsg::Probe { .. } => "probe",
            KMsg::ProbeAck => "probe-ack",
            KMsg::ProbeResult { .. } => "probe-result",
            KMsg::Flip => "flip",
            KMsg::Commit { .. } => "commit",
        }
    }

    fn wakes(msg: &KMsg) -> bool {
        // Every operational message must reach parked nodes (locks,
        // relays, flips); the Hello refresh is advisory knowledge only —
        // responders validate against their actual state.
        !matches!(msg, KMsg::Hello { .. })
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, KMsg>) -> NodeStatus {
        if !(self.pass.alive)(self.me) {
            // Crashed in the main run: refuse everything, stay parked.
            for i in 0..ctx.inbox().len() {
                let Some((from, msg)) = operation(ctx, i) else { continue };
                match msg {
                    KMsg::Recolor { .. } => {
                        ctx.send(from, KMsg::RecolorAck { ok: false, busy: false })
                    }
                    KMsg::PairLock { .. } => {
                        ctx.send(from, KMsg::PairResp { ok: false, busy: false })
                    }
                    KMsg::Probe { len, .. } => {
                        ctx.send(from, KMsg::ProbeResult { ok: false, busy: false, len })
                    }
                    _ => {}
                }
            }
            return NodeStatus::Done;
        }
        if ctx.round() == 0 {
            // Every node's knowledge is pre-filled from the pre-pass
            // coloring, so nobody greets: owners initiate next round.
            if self.live.is_some() {
                ctx.metric_inc("kempe/nodes_built", 1);
            }
            return NodeStatus::Active;
        }
        let live = match &mut self.live {
            Some(live) => live,
            None if ctx.round() == 1 => {
                // Nothing is sent in round 0, so a dormant node has no
                // mail yet: it parks exactly as a built non-owner does.
                debug_assert!(ctx.inbox().is_empty());
                ctx.trace_state("D", "reduced");
                return NodeStatus::Done;
            }
            None => {
                // Woken by an operation: a dormant node has taken part
                // in nothing, so the pre-pass coloring is its state.
                ctx.metric_inc("kempe/nodes_built", 1);
                self.live.insert(Box::new(LiveNode::new(self.pass, self.me, ctx.neighbors())))
            }
        };
        live.on_round(ctx)
    }
}

impl LiveNode {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, KMsg>) -> NodeStatus {
        // Knowledge refreshes first, then operations in sender order
        // (lowest id wins contended locks — deterministic). Handlers
        // send, so the inbox is walked by index and only the operation
        // in hand is copied out; `Hello` payloads are read in place.
        for env in ctx.inbox() {
            if let KMsg::Hello { used } = env.msg() {
                if let Some(p) = self.port_of(env.from) {
                    self.nbr_used.assign(p, used.iter().copied());
                }
            }
        }
        for i in 0..ctx.inbox().len() {
            let Some((from, msg)) = operation(ctx, i) else { continue };
            match msg {
                KMsg::Hello { .. } => {}
                KMsg::Recolor { from_color, to_color } => {
                    self.on_recolor(ctx, from, from_color, to_color)
                }
                KMsg::RecolorAck { ok, busy } => self.on_recolor_ack(ctx, from, ok, busy),
                KMsg::PairLock { b, cur } => self.on_pair_lock(ctx, from, b, cur),
                KMsg::PairResp { ok, busy } => self.on_pair_resp(ctx, from, ok, busy),
                KMsg::Unlock => {
                    if let LockState::Partner { port } = self.lock {
                        if self.neighbors[port] == from {
                            self.lock = LockState::Free;
                        }
                    }
                }
                KMsg::Probe { partner, a, b, enter, len } => {
                    self.on_probe(ctx, from, partner, a, b, enter, len)
                }
                KMsg::ProbeAck => self.on_probe_ack(from),
                KMsg::ProbeResult { ok, busy, len } => {
                    self.on_probe_result(ctx, from, ok, busy, len)
                }
                KMsg::Flip => self.on_flip(ctx, from),
                KMsg::Commit { color } => self.on_commit(ctx, from, color),
            }
        }
        // Retransmit unanswered requests (see RETRY_INTERVAL: silence
        // proves the request evaporated into a node parking in the send
        // round, so a re-send can never duplicate). Past the budget,
        // abandon the operation and release whatever it holds — for
        // never-acknowledged requests the peer provably holds nothing.
        let round = ctx.round();
        if round.saturating_sub(self.op_sent_at) >= RETRY_INTERVAL {
            match self.op {
                OwnerOp::AwaitRecolor { port, to_color } => {
                    if self.op_retries >= MAX_RETRIES {
                        self.refund(port);
                        self.op = OwnerOp::Idle;
                        self.backoff(ctx, true);
                    } else if let Some(cur) = self.edge_color[port] {
                        self.op_retries += 1;
                        self.op_sent_at = round;
                        ctx.send(self.neighbors[port], KMsg::Recolor { from_color: cur, to_color });
                    }
                }
                OwnerOp::AwaitPair { port, b, .. } => {
                    if self.op_retries >= MAX_RETRIES {
                        self.refund(port);
                        self.op = OwnerOp::Idle;
                        self.backoff(ctx, true);
                    } else if let Some(cur) = self.edge_color[port] {
                        self.op_retries += 1;
                        self.op_sent_at = round;
                        ctx.send(self.neighbors[port], KMsg::PairLock { b, cur });
                    }
                }
                OwnerOp::Probing { port, chain_port, a, b } if !self.probe_acked => {
                    if self.op_retries >= MAX_RETRIES {
                        self.refund(port);
                        ctx.send(self.neighbors[port], KMsg::Unlock);
                        self.op = OwnerOp::Idle;
                        self.backoff(ctx, true);
                    } else {
                        self.op_retries += 1;
                        self.op_sent_at = round;
                        ctx.send(
                            self.neighbors[chain_port],
                            KMsg::Probe { partner: self.neighbors[port], a, b, enter: b, len: 1 },
                        );
                    }
                }
                _ => {}
            }
        }
        if let LockState::Chain { pred, succ: Some(pc), other, partner, a, b, len, .. } = self.lock
        {
            if !self.fwd_acked && round.saturating_sub(self.fwd_sent_at) >= RETRY_INTERVAL {
                if self.fwd_retries >= MAX_RETRIES {
                    ctx.send(
                        self.neighbors[pred],
                        KMsg::ProbeResult { ok: false, busy: true, len },
                    );
                    self.lock = LockState::Free;
                } else {
                    self.fwd_retries += 1;
                    self.fwd_sent_at = round;
                    ctx.send(self.neighbors[pc], KMsg::Probe { partner, a, b, enter: other, len });
                }
            }
        }
        // Initiate at most one operation when idle, unlocked, past the
        // backoff gate and before the wind-down deadline.
        if self.free() && ctx.round() >= self.retry_after && ctx.round() <= self.deadline {
            if let Some((port, cur)) = self.best_candidate() {
                self.initiate(ctx, port, cur);
            }
        }
        if self.op != OwnerOp::Idle {
            ctx.trace_state("O", "owner-op");
            NodeStatus::Active
        } else if self.lock != LockState::Free {
            ctx.trace_state("L", "locked");
            NodeStatus::Active
        } else if self.best_candidate().is_some() && ctx.round() <= self.deadline {
            NodeStatus::Active
        } else {
            ctx.trace_state("D", "reduced");
            NodeStatus::Done
        }
    }
}

/// The sender and a copy of inbox message `i`, unless it is a
/// [`KMsg::Hello`]: every other message is heap-free, so the copy costs
/// no allocation, and it frees the context for the handler's sends.
fn operation(ctx: &RoundCtx<'_, KMsg>, i: usize) -> Option<(VertexId, KMsg)> {
    let env = &ctx.inbox()[i];
    (!matches!(env.msg(), KMsg::Hello { .. })).then(|| (env.from, env.msg().clone()))
}

/// What the reduction pass did to the palette.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct KempeReport {
    /// Distinct colors before the pass.
    pub colors_before: usize,
    /// Distinct colors after the pass.
    pub colors_after: usize,
    /// Largest color index before, if any edge was colored.
    pub max_color_before: Option<Color>,
    /// Largest color index after.
    pub max_color_after: Option<Color>,
    /// The threshold the pass compressed toward (`Δ+1` by default).
    pub target_colors: u32,
    /// Communication rounds the pass ran for (0 when nothing was over
    /// the threshold and the pass was skipped).
    pub comm_rounds: u64,
    /// Messages the pass sent.
    pub messages_sent: u64,
    /// Over-threshold edges fixed by a single-edge recolor.
    pub trivial_recolors: u64,
    /// Over-threshold edges fixed by a chain flip.
    pub chains_flipped: u64,
    /// Longest chain flipped (edges).
    pub max_chain_len: u32,
    /// Refused operations (lock conflicts, hard cases, stale knowledge).
    pub aborts: u64,
    /// Nodes the pass built state for: the owners of over-threshold
    /// edges plus every node an operation woke. Every other node stayed
    /// dormant and cost no allocation.
    pub nodes_built: u64,
}

impl KempeReport {
    /// Colors retired by the pass.
    pub fn colors_saved(&self) -> usize {
        self.colors_before.saturating_sub(self.colors_after)
    }

    /// The report of a pass that has not run (yet) over a coloring whose
    /// colors are `palette`.
    pub(crate) fn skipped(palette: &ColorSet, threshold: u32) -> Self {
        KempeReport {
            colors_before: palette.len(),
            colors_after: palette.len(),
            max_color_before: palette.max(),
            max_color_after: palette.max(),
            target_colors: threshold,
            comm_rounds: 0,
            messages_sent: 0,
            trivial_recolors: 0,
            chains_flipped: 0,
            max_chain_len: 0,
            aborts: 0,
            nodes_built: 0,
        }
    }
}

/// The color threshold a pass over a topology of maximum degree `delta`
/// compresses toward: the configured target, `Δ+1` by default.
fn threshold(kcfg: &KempeConfig, delta: usize) -> u32 {
    kcfg.target_colors.unwrap_or(delta as u32 + 1).max(1)
}

/// What a pass hands back besides its report: the coloring after it,
/// of which only the built nodes' rows can have changed.
pub(crate) struct KempePass {
    pub(crate) report: KempeReport,
    /// The pass's metrics registry (the `kempe/` family), when the config
    /// collects metrics.
    pub(crate) metrics: Option<Box<MetricsRegistry>>,
    /// The nodes the pass built, ascending.
    built: Vec<VertexId>,
    /// The coloring after the pass, port by port.
    slots: PortSlots,
}

impl KempePass {
    /// Each node the pass built with its row after the pass, ascending:
    /// the rows a caller adopts into its automata. A recolored edge has
    /// both endpoints here, since the commit protocol updates them
    /// within one operation.
    pub(crate) fn built_rows(&self) -> impl Iterator<Item = (VertexId, &[Option<Color>])> {
        self.built.iter().map(|&v| (v, self.slots.of(v.index())))
    }
}

/// Node liveness for a pass: `false` pins every edge at the node (see
/// [`reduce_automata`]).
pub(crate) type Alive<'a> = &'a (dyn Fn(VertexId) -> bool + Sync);

/// Run the Kempe-chain reduction pass over the coloring that the
/// Algorithm 1 automata `nodes` hold on `topo`, the topology they
/// settled on. Static runs, churn runs and `dima serve` all reduce
/// through here and adopt [`KempePass::built_rows`] into their automata.
///
/// `alive(v) == false` pins every edge at `v` (residual colorings of
/// crashed runs stay untouched there). A crashed node's row is its own
/// stale view, so the pass never reads it: the survivor's port toward it
/// holds the edge's color. `base` supplies the engine, seed and
/// send-validation settings; the pass itself always runs on the bare
/// reliable transport (it is a post-processing phase, not part of the
/// paper's fault model).
///
/// `Ok(None)` when two live endpoints of an edge disagree on its color:
/// Kempe chains assume both ends of every edge see the same color, and a
/// corrupted run has no well-defined palette to compress. When no port
/// is over the threshold the skipped report comes back before anything
/// that grows with the graph is allocated.
pub(crate) fn reduce_automata<T: Tracer + Sync>(
    topo: &Topology,
    nodes: &[EdgeColoringNode],
    alive: Alive<'_>,
    kcfg: &KempeConfig,
    base: &ColoringConfig,
    tracer: &mut T,
) -> Result<Option<KempePass>, CoreError> {
    let threshold = threshold(kcfg, topo.max_degree());
    let live = || (0..nodes.len() as u32).map(VertexId).filter(|&u| alive(u));
    // One allocation-free walk: endpoint agreement, and whether any port
    // is over the threshold at all.
    let (mut agree, mut over) = (true, false);
    for u in live() {
        let node = &nodes[u.index()];
        for (p, &v) in topo.neighbors(u).iter().enumerate() {
            let c = node.color_at(p, v);
            over |= c.is_some_and(|c| c.0 >= threshold);
            agree &= v < u || c == nodes[v.index()].color_toward(u) || !alive(v);
        }
    }
    if !agree {
        return Ok(None);
    }
    if !over {
        // The pass would start and immediately quiesce: skip the engine
        // run, reporting the palette of the live rows.
        let mut palette = ColorSet::new();
        for u in live() {
            nodes[u.index()].add_colors_toward(topo.neighbors(u), &mut palette);
        }
        let report = KempeReport::skipped(&palette, threshold);
        return Ok(Some(KempePass {
            report,
            metrics: None,
            built: Vec::new(),
            slots: PortSlots::default(),
        }));
    }
    let mut slots = PortSlots::new(topo);
    for u in live() {
        let (node, row) = (&nodes[u.index()], topo.neighbors(u));
        for (p, (slot, &v)) in slots.of_mut(u.index()).iter_mut().zip(row).enumerate() {
            *slot = node.color_at(p, v);
        }
    }
    reduce_ports(topo, slots, alive, kcfg, base, tracer).map(Some)
}

/// The pass itself, on `topo` with the coloring laid out in `slots`
/// (see [`reduce_automata`] for `alive`, `kcfg` and `base`).
fn reduce_ports<T: Tracer + Sync>(
    topo: &Topology,
    slots: PortSlots,
    alive: Alive<'_>,
    kcfg: &KempeConfig,
    base: &ColoringConfig,
    tracer: &mut T,
) -> Result<KempePass, CoreError> {
    reduce_ports_with(topo, slots, alive, kcfg, base, tracer, |pass, seed| {
        KempeNode::new(pass, seed)
    })
}

/// A node factory of the pass.
type Build = for<'p> fn(&'p Pass<'p>, NodeSeed<'_>) -> KempeNode<'p>;

/// [`reduce_ports`] with the node factory `build`.
fn reduce_ports_with<T: Tracer + Sync>(
    topo: &Topology,
    mut slots: PortSlots,
    alive: Alive<'_>,
    kcfg: &KempeConfig,
    base: &ColoringConfig,
    tracer: &mut T,
    build: Build,
) -> Result<KempePass, CoreError> {
    let n = topo.num_nodes();
    let delta = topo.max_degree();
    let threshold = threshold(kcfg, delta);
    let mut report = KempeReport::skipped(&slots.palette(), threshold);
    let mut seen = ColorSet::with_capacity(threshold as usize + delta);
    for u in (0..n as u32).map(VertexId) {
        if !alive(u) {
            continue;
        }
        seen.clear();
        for (&w, &c) in topo.neighbors(u).iter().zip(slots.of(u.index())) {
            if let (Some(c), true) = (c, alive(w)) {
                if !seen.insert(c) {
                    return Err(CoreError::Config(format!(
                        "the Kempe pass needs a proper input coloring \
                         (color {c} appears twice at node {})",
                        u.index()
                    )));
                }
            }
        }
    }
    let run_cfg = ColoringConfig {
        transport: Transport::Bare,
        faults: FaultPlan::reliable(),
        reduction: ColorReduction::Off,
        collect_round_stats: false,
        ..base.clone()
    };
    let max_chain = kcfg.max_chain.max(1);
    let margin = wind_down_margin(max_chain);
    // Default round budget: the serial chain work scales with Δ (chain
    // lengths, candidate cycling) but the *contention* drain scales with
    // graph size — dense over-threshold regions serialize through locks
    // a handful of operations at a time, and busy refusals are refunded
    // rather than charged to the attempt budget, so the initiation
    // window is what actually bounds them.
    let max_rounds =
        kcfg.max_rounds.unwrap_or(64 * delta as u64 + 16 * n as u64 + margin + 1024).max(8);
    let pass = Pass {
        slots: &slots,
        alive,
        threshold,
        max_chain: max_chain.min(u32::MAX as usize) as u32,
        max_attempts: kcfg.max_attempts.max(1),
        deadline: max_rounds.saturating_sub(margin),
    };
    let factory = |seed: NodeSeed<'_>| build(&pass, seed);
    let schedule = ChurnSchedule::empty();
    let RunOutcome { nodes, mut stats, .. } =
        run_protocol(topo, &run_cfg, max_rounds, &schedule, factory, tracer)?.outcome;
    let built: Vec<(VertexId, Box<LiveNode>)> =
        nodes.into_iter().filter_map(|node| node.live.map(|live| (node.me, live))).collect();
    // Write the negotiated colors back into the built nodes' rows; a
    // dormant node took part in nothing, so its row is still right.
    for (v, node) in &built {
        slots.of_mut(v.index()).copy_from_slice(&node.edge_color);
        report.trivial_recolors += node.trivial_recolors;
        report.chains_flipped += node.chains_flipped;
        report.max_chain_len = report.max_chain_len.max(node.max_chain_len);
        report.aborts += node.aborts;
    }
    let after = slots.palette();
    report.colors_after = after.len();
    report.max_color_after = after.max();
    report.comm_rounds = stats.rounds;
    report.messages_sent = stats.messages_sent;
    report.nodes_built = built.len() as u64;
    Ok(KempePass {
        report,
        metrics: stats.metrics.take(),
        built: built.into_iter().map(|(v, _)| v).collect(),
        slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Engine;
    use crate::edge_coloring::color_edges;
    use crate::verify::{count_colors, verify_edge_coloring, verify_residual_edge_coloring};
    use dima_graph::gen::{erdos_renyi_avg_degree, structured};
    use dima_graph::{Graph, GraphBuilder};
    use dima_sim::telemetry::NoopTracer;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The pass on `g`'s edge-indexed `colors`, laid out port by port,
    /// with node factory `build`.
    fn ports_with(
        g: &Graph,
        colors: &[Option<Color>],
        alive: &[bool],
        kcfg: &KempeConfig,
        cfg: &ColoringConfig,
        build: Build,
    ) -> Result<KempePass, CoreError> {
        let topo = Topology::from_graph(g);
        let mut slots = PortSlots::new(&topo);
        for v in g.vertices() {
            for (slot, &(_, e)) in slots.of_mut(v.index()).iter_mut().zip(g.neighbors(v)) {
                *slot = colors[e.index()];
            }
        }
        let alive = |v: VertexId| alive[v.index()];
        reduce_ports_with(&topo, slots, &alive, kcfg, cfg, &mut NoopTracer, build)
    }

    /// The pass with the production node factory over `colors`, every
    /// node alive, written back in place.
    fn reduce_at(
        g: &Graph,
        colors: &mut [Option<Color>],
        cfg: &ColoringConfig,
    ) -> Result<KempeReport, CoreError> {
        let alive = vec![true; g.num_vertices()];
        let pass = ports_with(g, colors, &alive, &KempeConfig::default(), cfg, |pass, seed| {
            KempeNode::new(pass, seed)
        })?;
        for (v, row) in pass.built_rows() {
            for (&c, &(_, e)) in row.iter().zip(g.neighbors(v)) {
                colors[e.index()] = c;
            }
        }
        Ok(pass.report)
    }

    fn reduce(g: &Graph, colors: &mut [Option<Color>], seed: u64) -> KempeReport {
        reduce_at(g, colors, &ColoringConfig::seeded(seed)).unwrap()
    }

    #[test]
    fn already_tight_coloring_skips_the_run() {
        let g = structured::star(6);
        let r = color_edges(&g, &ColoringConfig::seeded(1)).unwrap();
        // A star colors with exactly Δ colors — nothing over Δ+1.
        let cfg = ColoringConfig {
            reduction: ColorReduction::Kempe(KempeConfig::default()),
            ..ColoringConfig::seeded(1)
        };
        let reduced = color_edges(&g, &cfg).unwrap();
        assert_eq!(reduced.colors, r.colors);
        let report = reduced.reduction.expect("a skipped pass still reports");
        assert_eq!(report.comm_rounds, 0);
        assert_eq!(report.colors_saved(), 0);
        assert_eq!(report.colors_before, r.colors_used);
    }

    #[test]
    fn reduces_a_handmade_overful_coloring() {
        // Path a-b-c-d: Δ = 2, threshold 3; color the edges 0, 5, 0.
        // Edge (b, c) is over the threshold and a trivial recolor (to 1)
        // fixes it.
        let g = structured::path(4);
        let mut colors = vec![Some(Color(0)), Some(Color(5)), Some(Color(0))];
        let report = reduce(&g, &mut colors, 7);
        verify_edge_coloring(&g, &colors).unwrap();
        assert_eq!(count_colors(&colors), 2);
        assert_eq!(report.colors_before, 2);
        assert_eq!(report.colors_after, 2);
        assert_eq!(report.max_color_after, Some(Color(1)));
        assert_eq!(report.trivial_recolors, 1);
        assert_eq!(report.chains_flipped, 0);
    }

    #[test]
    fn reduces_via_a_chain_when_no_trivial_recolor_exists() {
        // Double star forcing a chain: u = 0 and v = 1 joined by an
        // over-threshold edge (color 9), u's pendant edges colored
        // {0, 1}, v's colored {2, 3}. Δ = 3, threshold 4; the endpoints
        // jointly use every color below the threshold, so no trivial
        // recolor exists. The (a = 2, b = 0) chain is u's 0-edge alone:
        // flipping it to 2 frees 0 for the 9-edge.
        let mut b = GraphBuilder::with_capacity(6, 5);
        b.add_edge(VertexId(0), VertexId(1)) // -> 9
            .add_edge(VertexId(0), VertexId(2)) // -> 0
            .add_edge(VertexId(0), VertexId(3)) // -> 1
            .add_edge(VertexId(1), VertexId(4)) // -> 2
            .add_edge(VertexId(1), VertexId(5)); // -> 3
        let g = b.build().unwrap();
        let mut colors = [9u32, 0, 1, 2, 3].map(|c| Some(Color(c))).to_vec();
        let report = reduce(&g, &mut colors, 3);
        verify_edge_coloring(&g, &colors).unwrap();
        assert!(colors.iter().flatten().all(|c| c.0 < 4), "still over threshold: {colors:?}");
        assert_eq!(report.trivial_recolors, 0, "{report:?}");
        assert_eq!(report.chains_flipped, 1, "{report:?}");
        assert_eq!(report.colors_before, 5);
        assert_eq!(report.colors_after, 4);
        assert_eq!(report.max_chain_len, 1);
    }

    #[test]
    fn never_grows_the_palette_and_preserves_propriety() {
        let mut rng = SmallRng::seed_from_u64(99);
        for seed in 0..8 {
            let g = erdos_renyi_avg_degree(80, 7.0, &mut rng).unwrap();
            let r = color_edges(&g, &ColoringConfig::seeded(seed)).unwrap();
            let mut colors = r.colors.clone();
            let report = reduce(&g, &mut colors, seed);
            verify_edge_coloring(&g, &colors).unwrap();
            assert!(report.colors_after <= report.colors_before, "{report:?}");
            assert_eq!(count_colors(&colors), report.colors_after);
            if r.colors_used > g.max_degree() + 1 {
                assert!(
                    report.colors_after < r.colors_used,
                    "seed {seed}: {} -> {} (Δ = {})",
                    r.colors_used,
                    report.colors_after,
                    g.max_degree()
                );
            }
        }
    }

    #[test]
    fn engines_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(41);
        let g = erdos_renyi_avg_degree(60, 6.0, &mut rng).unwrap();
        let r = color_edges(&g, &ColoringConfig::seeded(5)).unwrap();
        let mut seq = r.colors.clone();
        let seq_report = reduce(&g, &mut seq, 5);
        for threads in [2, 4] {
            let mut par = r.colors.clone();
            let cfg = ColoringConfig {
                engine: Engine::Parallel { threads },
                ..ColoringConfig::seeded(5)
            };
            let par_report = reduce_at(&g, &mut par, &cfg).unwrap();
            assert_eq!(seq, par, "threads = {threads}");
            assert_eq!(seq_report, par_report);
        }
    }

    #[test]
    fn crashed_nodes_keep_their_edges() {
        // A reliable crash-stop run reduced below its palette: every edge
        // at a crashed node keeps the color the unreduced run gives it.
        let mut rng = SmallRng::seed_from_u64(7);
        let g = erdos_renyi_avg_degree(120, 8.0, &mut rng).unwrap();
        let base = ColoringConfig {
            transport: Transport::reliable(),
            faults: FaultPlan::crashing(0.05, 4),
            ..ColoringConfig::seeded(3)
        };
        let plain = color_edges(&g, &base).unwrap();
        let at_crash: Vec<usize> = g
            .edges()
            .filter(|&(_, (u, v))| !plain.alive[u.index()] || !plain.alive[v.index()])
            .map(|(e, _)| e.index())
            .collect();
        assert!(at_crash.iter().any(|&e| plain.colors[e].is_some()), "no colored edge crashed");
        let kcfg = KempeConfig {
            target_colors: Some(plain.colors_used as u32 - 1),
            ..KempeConfig::default()
        };
        let reduced =
            color_edges(&g, &ColoringConfig { reduction: ColorReduction::Kempe(kcfg), ..base })
                .unwrap();
        assert!(reduced.reduction.is_some_and(|r| r.comm_rounds > 0), "{:?}", reduced.reduction);
        assert_eq!(reduced.alive, plain.alive);
        verify_residual_edge_coloring(&g, &reduced.colors, &reduced.alive).unwrap();
        for e in at_crash {
            assert_eq!(reduced.colors[e], plain.colors[e], "edge {e} at a crashed node recolored");
        }
    }

    #[test]
    fn a_crashed_row_is_never_read() {
        // Path 0-1-2-3, Δ = 2, threshold 3. Node 3 crashed holding 7 on
        // (2, 3), a commit node 2 never learned; the live rows hold 0 on
        // (0, 1) and `c` on (1, 2). The pass sees only the live rows.
        let topo = Topology::from_graph(&structured::path(4));
        let cfg = ColoringConfig::seeded(0);
        let alive = |v: VertexId| v != VertexId(3);
        let pass_with = |c: Color| {
            let rows: [&[Option<Color>]; 4] = [
                &[Some(Color(0))],
                &[Some(Color(0)), Some(c)],
                &[Some(c), None],
                &[Some(Color(7))],
            ];
            let nodes: Vec<EdgeColoringNode> = (0..4u32)
                .map(VertexId)
                .zip(rows)
                .map(|(node, row)| {
                    let seed = NodeSeed { node, neighbors: topo.neighbors(node) };
                    let mut n = EdgeColoringNode::new(&seed, &cfg, 3);
                    n.adopt_compaction(row);
                    n
                })
                .collect();
            reduce_automata(&topo, &nodes, &alive, &KempeConfig::default(), &cfg, &mut NoopTracer)
                .unwrap()
                .expect("live endpoints agree")
        };
        let pass = pass_with(Color(5));
        assert_eq!(pass.report.colors_before, 2, "{:?}", pass.report);
        assert_eq!(pass.report.trivial_recolors, 1, "{:?}", pass.report);
        assert_eq!(pass.report.colors_after, 2, "{:?}", pass.report);
        assert_eq!(pass.report.max_color_after, Some(Color(1)));
        assert!(pass.built_rows().all(|(v, _)| v != VertexId(3)));
        // Only the crashed row is over the threshold: nothing to do.
        let skipped = pass_with(Color(1)).report;
        assert_eq!(skipped.comm_rounds, 0, "{skipped:?}");
        assert_eq!(skipped.colors_before, 2, "{skipped:?}");
        assert_eq!(skipped.max_color_before, Some(Color(1)));
    }

    #[test]
    fn improper_input_rejected() {
        let g = structured::path(3);
        // Both edges share vertex 1 but carry the same color.
        let mut colors = vec![Some(Color(9)), Some(Color(9))];
        let err = reduce_at(&g, &mut colors, &ColoringConfig::seeded(0));
        assert!(matches!(err, Err(CoreError::Config(_))), "{err:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Dormant nodes are an allocation strategy, not a behaviour: a
        /// pass whose every surviving node is built at construction
        /// recolors the same slots in the same rounds with the same
        /// messages, and reports and counts the same, up to the number
        /// of nodes built. Inputs mix crashed nodes (stubs), uncolored
        /// (pinned) edges, colors far over the threshold and targets
        /// below Δ+1 that no pass can reach.
        #[test]
        fn dormant_nodes_match_eager_construction(
            seed in 0u64..1 << 48,
            n in 8usize..60,
            tenths_degree in 15u32..70,
            target_slack in -3i64..3,
            threads in prop_oneof![Just(1usize), Just(3usize)],
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = erdos_renyi_avg_degree(n, f64::from(tenths_degree) / 10.0, &mut rng).unwrap();
            let mut colors = color_edges(&g, &ColoringConfig::seeded(seed)).unwrap().colors;
            for (e, c) in colors.iter_mut().enumerate() {
                match rng.random_range(0..20u32) {
                    // A color no other edge holds keeps the coloring proper.
                    0..=2 => *c = Some(Color(64 + e as u32)),
                    3 => *c = None,
                    _ => {}
                }
            }
            let alive: Vec<bool> = (0..n).map(|_| rng.random_range(0..16u32) != 0).collect();
            let target = u32::try_from((g.max_degree() as i64 + 1 + target_slack).max(1)).unwrap();
            let kcfg = KempeConfig { target_colors: Some(target), ..KempeConfig::default() };
            let cfg = ColoringConfig {
                engine: Engine::Parallel { threads },
                collect_metrics: true,
                ..ColoringConfig::seeded(seed)
            };
            let lazy = ports_with(&g, &colors, &alive, &kcfg, &cfg, |pass, seed| {
                KempeNode::new(pass, seed)
            })
            .unwrap();
            let eager = ports_with(&g, &colors, &alive, &kcfg, &cfg, |pass, seed| {
                KempeNode::eager(pass, seed)
            })
            .unwrap();
            prop_assert_eq!(&lazy.slots.slots, &eager.slots.slots);
            let (lazy, lazy_metrics, eager, eager_metrics) =
                (lazy.report, lazy.metrics, eager.report, eager.metrics);
            prop_assert!(lazy.nodes_built <= eager.nodes_built);
            if eager.comm_rounds > 0 {
                let survivors = alive.iter().filter(|&&a| a).count() as u64;
                prop_assert_eq!(eager.nodes_built, survivors);
            }
            let (lazy_rest, eager_rest) =
                (KempeReport { nodes_built: 0, ..lazy }, KempeReport { nodes_built: 0, ..eager });
            prop_assert_eq!(lazy_rest, eager_rest);
            let without_built = |m: Option<Box<MetricsRegistry>>| {
                m.map(|mut m| {
                    m.remove_prefix("kempe/nodes_built");
                    m
                })
            };
            let lazy_counted = lazy_metrics.as_ref().map_or(0, |m| m.counter("kempe/nodes_built"));
            prop_assert_eq!(lazy_counted, lazy.nodes_built);
            prop_assert_eq!(without_built(lazy_metrics), without_built(eager_metrics));
        }
    }
}
