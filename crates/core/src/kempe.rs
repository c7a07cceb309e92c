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
//! ## Faulted inputs
//!
//! Edges with a crashed endpoint or without an agreed color are
//! **pinned**: they count in used sets but are never recolored, never
//! traversed by probes, and never initiate. Crashed nodes participate
//! as stubs that refuse every request.

use std::sync::Arc;

use dima_graph::{Graph, VertexId};
use dima_sim::churn::ChurnSchedule;
use dima_sim::fault::FaultPlan;
use dima_sim::telemetry::{MetricsRegistry, NoopTracer, PaletteAction, Tracer};
use dima_sim::{NodeSeed, NodeStatus, Protocol, RoundCtx, Topology};

use crate::config::{ColorReduction, ColoringConfig, KempeConfig, Transport};
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

/// Messages of the reduction pass. All unicast; everything except the
/// [`KMsg::Hello`] used-set refresh is wake-class, so parked nodes
/// re-enter to serve locks, relays and flips.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum KMsg {
    /// Full used-color set of the sender (round 0, and re-broadcast
    /// after every local recolor). Reference-counted: every recipient's
    /// copy of the broadcast shares the sender's one list.
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

/// Per-node seed data for the pass (derived from the global coloring).
#[derive(Clone, Debug, Default)]
struct KempeInit {
    /// `(neighbor, color, pinned)` per port, sorted by neighbor id.
    ports: Vec<(VertexId, Option<Color>, bool)>,
    /// `true` when the node crashed in the main run: it never initiates
    /// and refuses every request.
    stub: bool,
}

/// Per-vertex automata state of the reduction pass.
pub(crate) struct KempeNode {
    me: VertexId,
    neighbors: Vec<VertexId>,
    edge_color: Vec<Option<Color>>,
    /// Pinned ports count in used sets but are never recolored or
    /// traversed.
    pinned: Vec<bool>,
    used_self: ColorSet,
    /// Per-port knowledge of the neighbor's used set, refreshed by
    /// [`KMsg::Hello`] (replaced wholesale — colors can be released).
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
    stub: bool,
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

impl KempeNode {
    fn new(
        seed: &NodeSeed<'_>,
        init: &KempeInit,
        threshold: u32,
        kcfg: &KempeConfig,
        deadline: u64,
    ) -> Self {
        debug_assert_eq!(
            init.ports.len(),
            seed.neighbors.len(),
            "init table misaligned with topology"
        );
        let degree = seed.neighbors.len();
        let mut edge_color = Vec::with_capacity(degree);
        let mut pinned = Vec::with_capacity(degree);
        let mut used_self = ColorSet::with_capacity(threshold as usize + degree);
        for (p, &(w, c, pin)) in init.ports.iter().enumerate() {
            debug_assert_eq!(w, seed.neighbors[p]);
            edge_color.push(c);
            pinned.push(pin);
            if let Some(c) = c {
                used_self.insert(c);
            }
        }
        KempeNode {
            me: seed.node,
            neighbors: seed.neighbors.to_vec(),
            edge_color,
            pinned,
            used_self,
            nbr_used: PortColorSets::new(degree),
            attempts: vec![0; degree],
            threshold,
            max_chain: kcfg.max_chain.min(u32::MAX as usize) as u32,
            max_attempts: kcfg.max_attempts,
            deadline,
            stub: init.stub,
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

    /// The color this node holds for its edge toward `v`.
    fn color_toward(&self, v: VertexId) -> Option<Color> {
        self.port_of(v).and_then(|p| self.edge_color[p])
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
        !self.stub && self.op == OwnerOp::Idle && self.lock == LockState::Free
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

impl Protocol for KempeNode {
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
        if self.stub {
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
            // Prime every neighbor's knowledge before anyone initiates.
            self.hello(ctx);
            return NodeStatus::Active;
        }
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
}

impl KempeReport {
    /// Colors retired by the pass.
    pub fn colors_saved(&self) -> usize {
        self.colors_before.saturating_sub(self.colors_after)
    }
}

/// [`reduce_palette_metered`] without telemetry, dropping the metrics
/// registry.
pub fn reduce_palette(
    g: &Graph,
    colors: &mut [Option<Color>],
    alive: &[bool],
    kcfg: &KempeConfig,
    base: &ColoringConfig,
) -> Result<KempeReport, CoreError> {
    reduce_palette_metered(g, colors, alive, kcfg, base, &mut NoopTracer).map(|(report, _)| report)
}

/// Run the Kempe-chain reduction pass over a proper (partial) edge
/// coloring of `g`, rewriting `colors` in place and reporting what
/// changed. `alive[v] == false` pins every edge at `v` (residual
/// colorings of crashed runs stay untouched there). `base` supplies the
/// engine, seed and send-validation settings; the pass itself always
/// runs on the bare reliable transport (it is a post-processing phase,
/// not part of the paper's fault model).
///
/// The second return is the pass's own metrics registry (the `kempe/`
/// family) when `base.collect_metrics` is on — [`KempeReport`] is
/// `Copy` and stays that way, so the registry travels beside it for
/// callers that fold it into a run-level registry.
pub fn reduce_palette_metered<T: Tracer + Sync>(
    g: &Graph,
    colors: &mut [Option<Color>],
    alive: &[bool],
    kcfg: &KempeConfig,
    base: &ColoringConfig,
    tracer: &mut T,
) -> Result<(KempeReport, Option<Box<MetricsRegistry>>), CoreError> {
    if colors.len() != g.num_edges() {
        return Err(CoreError::Config(format!(
            "reduce_palette: {} colors for {} edges",
            colors.len(),
            g.num_edges()
        )));
    }
    if alive.len() != g.num_vertices() {
        return Err(CoreError::Config(format!(
            "reduce_palette: {} alive flags for {} vertices",
            alive.len(),
            g.num_vertices()
        )));
    }
    let delta = g.max_degree();
    let threshold = kcfg.target_colors.unwrap_or(delta as u32 + 1).max(1);
    let before: ColorSet = colors.iter().flatten().copied().collect();
    let mut report = KempeReport {
        colors_before: before.len(),
        colors_after: before.len(),
        max_color_before: before.max(),
        max_color_after: before.max(),
        target_colors: threshold,
        comm_rounds: 0,
        messages_sent: 0,
        trivial_recolors: 0,
        chains_flipped: 0,
        max_chain_len: 0,
        aborts: 0,
    };
    // Nothing over the threshold: the pass would start and immediately
    // quiesce — skip the engine run entirely.
    if before.max().is_none_or(|m| m.0 < threshold) {
        return Ok((report, None));
    }
    let n = g.num_vertices();
    let mut init: Vec<KempeInit> = vec![KempeInit::default(); n];
    for (e, (u, v)) in g.edges() {
        let c = colors[e.index()];
        let pin = c.is_none() || !alive[u.index()] || !alive[v.index()];
        init[u.index()].ports.push((v, c, pin));
        init[v.index()].ports.push((u, c, pin));
    }
    for (i, ni) in init.iter_mut().enumerate() {
        ni.ports.sort_by_key(|&(w, _, _)| w);
        ni.stub = !alive[i];
        let mut seen = ColorSet::with_capacity(threshold as usize + ni.ports.len());
        for &(_, c, pin) in &ni.ports {
            if let (Some(c), false) = (c, pin) {
                if !seen.insert(c) {
                    return Err(CoreError::Config(format!(
                        "reduce_palette needs a proper input coloring \
                         (color {c} appears twice at node {i})"
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
    let max_rounds = kcfg
        .max_rounds
        .unwrap_or(64 * delta as u64 + 16 * g.num_vertices() as u64 + margin + 1024)
        .max(8);
    let deadline = max_rounds.saturating_sub(margin);
    let kcfg = KempeConfig { max_chain, max_attempts: kcfg.max_attempts.max(1), ..*kcfg };
    let topo = Topology::from_graph(g);
    let factory = |seed: NodeSeed<'_>| {
        KempeNode::new(&seed, &init[seed.node.index()], threshold, &kcfg, deadline)
    };
    let schedule = ChurnSchedule::empty();
    let mut run = run_protocol(&topo, &run_cfg, max_rounds, &schedule, factory, tracer)?.outcome;
    // Write the negotiated colors back into the global table. Both
    // endpoints of every live edge agree (the commit protocol updates
    // them within one operation); pinned edges kept their input color.
    for (e, (u, v)) in g.edges() {
        let nu = &run.nodes[u.index()];
        let nv = &run.nodes[v.index()];
        if !nu.stub {
            debug_assert!(
                nv.stub || nu.color_toward(v) == nv.color_toward(u),
                "edge ({u:?}, {v:?}) endpoints disagree after reduction"
            );
            colors[e.index()] = nu.color_toward(v);
        } else if !nv.stub {
            colors[e.index()] = nv.color_toward(u);
        }
    }
    let after: ColorSet = colors.iter().flatten().copied().collect();
    report.colors_after = after.len();
    report.max_color_after = after.max();
    report.comm_rounds = run.stats.rounds;
    report.messages_sent = run.stats.messages_sent;
    for node in &run.nodes {
        report.trivial_recolors += node.trivial_recolors;
        report.chains_flipped += node.chains_flipped;
        report.max_chain_len = report.max_chain_len.max(node.max_chain_len);
        report.aborts += node.aborts;
    }
    Ok((report, run.stats.metrics.take()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Engine;
    use crate::edge_coloring::color_edges;
    use crate::verify::{count_colors, verify_edge_coloring};
    use dima_graph::gen::{erdos_renyi_avg_degree, structured};
    use dima_graph::GraphBuilder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn reduce(g: &Graph, colors: &mut [Option<Color>], seed: u64) -> KempeReport {
        let alive = vec![true; g.num_vertices()];
        reduce_palette(g, colors, &alive, &KempeConfig::default(), &ColoringConfig::seeded(seed))
            .unwrap()
    }

    #[test]
    fn already_tight_coloring_skips_the_run() {
        let g = structured::star(6);
        let mut r = color_edges(&g, &ColoringConfig::seeded(1)).unwrap();
        // A star colors with exactly Δ colors — nothing over Δ+1.
        let before = r.colors.clone();
        let report = reduce(&g, &mut r.colors, 1);
        assert_eq!(r.colors, before);
        assert_eq!(report.comm_rounds, 0);
        assert_eq!(report.colors_saved(), 0);
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
        let alive = vec![true; g.num_vertices()];
        let mut seq = r.colors.clone();
        let seq_report = reduce_palette(
            &g,
            &mut seq,
            &alive,
            &KempeConfig::default(),
            &ColoringConfig::seeded(5),
        )
        .unwrap();
        for threads in [2, 4] {
            let mut par = r.colors.clone();
            let cfg = ColoringConfig {
                engine: Engine::Parallel { threads },
                ..ColoringConfig::seeded(5)
            };
            let par_report =
                reduce_palette(&g, &mut par, &alive, &KempeConfig::default(), &cfg).unwrap();
            assert_eq!(seq, par, "threads = {threads}");
            assert_eq!(seq_report, par_report);
        }
    }

    #[test]
    fn pinned_edges_survive_untouched() {
        // Crash one endpoint: every edge at it keeps its input color.
        let g = structured::complete(5);
        let r = color_edges(&g, &ColoringConfig::seeded(2)).unwrap();
        let mut colors = r.colors.clone();
        // Bump a non-pinned edge over the threshold so the pass runs.
        let mut alive = vec![true; g.num_vertices()];
        alive[0] = false;
        let pinned: Vec<(usize, Option<Color>)> = g
            .edges()
            .filter(|&(_, (u, v))| u.index() == 0 || v.index() == 0)
            .map(|(e, _)| (e.index(), colors[e.index()]))
            .collect();
        let report = reduce_palette(
            &g,
            &mut colors,
            &alive,
            &KempeConfig::default(),
            &ColoringConfig::seeded(2),
        )
        .unwrap();
        for (e, c) in pinned {
            assert_eq!(colors[e], c, "pinned edge {e} was recolored");
        }
        assert!(report.colors_after <= report.colors_before);
    }

    #[test]
    fn improper_input_rejected() {
        let g = structured::path(3);
        // Both edges share vertex 1 but carry the same color.
        let mut colors = vec![Some(Color(9)), Some(Color(9))];
        let alive = vec![true; 3];
        let err = reduce_palette(
            &g,
            &mut colors,
            &alive,
            &KempeConfig::default(),
            &ColoringConfig::seeded(0),
        );
        assert!(matches!(err, Err(CoreError::Config(_))), "{err:?}");
    }

    #[test]
    fn length_mismatches_rejected() {
        let g = structured::path(3);
        let mut colors = vec![Some(Color(0))]; // 2 edges expected
        let alive = vec![true; 3];
        assert!(reduce_palette(
            &g,
            &mut colors,
            &alive,
            &KempeConfig::default(),
            &ColoringConfig::seeded(0)
        )
        .is_err());
        let mut colors = vec![Some(Color(0)), Some(Color(1))];
        let alive = vec![true; 2]; // 3 vertices expected
        assert!(reduce_palette(
            &g,
            &mut colors,
            &alive,
            &KempeConfig::default(),
            &ColoringConfig::seeded(0)
        )
        .is_err());
    }
}
