//! A reliable-link (ARQ) layer: run any [`Protocol`] over lossy links as
//! if the links were perfect.
//!
//! The paper assumes reliable synchronous message passing. The fault
//! plans in [`crate::fault`] break that assumption; this module wins it
//! back. [`ReliableNode`] wraps an inner protocol and is itself a
//! [`Protocol`], so the engine runs it unchanged at any shard count.
//! Per neighbor it maintains a sequenced, cumulatively-acknowledged
//! stream of *bundles* — one bundle per inner round per link, possibly
//! empty — and retransmits unacknowledged bundles with a bounded,
//! deterministic backoff.
//!
//! The wrapper doubles as an **α-synchronizer**: inner round `i` executes
//! only once the bundle for inner round `i − 1` has arrived from every
//! neighbor that can still send one. Under loss the engine's rounds
//! outnumber the inner protocol's rounds; the difference is the
//! *transport overhead* that experiment reports break out separately.
//!
//! Two properties make the wrapper transparent:
//!
//! - **Fault-free transparency.** With a reliable [`crate::fault::FaultPlan`]
//!   every bundle arrives in one engine round, so inner round `i` runs at
//!   engine round `i` with exactly the inbox the bare engine would have
//!   delivered — and the wrapper draws nothing from the node RNG, so the
//!   inner protocol's random choices are bit-identical to a bare run.
//! - **Crash containment.** A neighbor that crash-stops never
//!   acknowledges; after `max_retries` retransmissions the link is
//!   declared dead, [`Protocol::on_link_down`] tells the inner protocol
//!   to stop waiting for that peer, and the run terminates with a correct
//!   result on the residual graph. A peer that acknowledges everything
//!   and *then* crashes leaves nothing to retransmit, so a second
//!   detector backs the first: a link we are blocked on that stays
//!   completely silent past [`ArqConfig::death_timeout`] rounds is
//!   declared dead too. The timeout is sized so a live peer that is
//!   merely stalled (detecting its own dead neighbor) is never falsely
//!   killed: any receipt — data or ack — resets it.
//!
//! # Data layout
//!
//! The layer sits on every frame of a reliable run, so its hot path is
//! O(d + inbox) per engine round and allocates per inner round, never
//! per frame: in steady state only the payload of an inner round that
//! sends and the inner inbox of a round that receives hit the heap.
//!
//! - **Receive** is one merge-walk of the inbox (sorted by sender)
//!   against the links (sorted by peer).
//! - **Receive window.** Each link buffers arrived, not yet consumed
//!   bundles in a `RecvWindow` ring indexed by round.
//! - **Outgoing bundles.** An inner round whose outbox is all
//!   broadcasts — static DiMaEC's exchange rounds — builds *one*
//!   [`Shared`] payload that every link's bundle holds a handle to; an
//!   empty outbox reuses the node's one empty payload. Only outboxes
//!   with unicasts are split per link.
//! - **Inner inbox and outbox.** The inbox is sized once per inner
//!   round and its messages are cloned out of the shared bundles by
//!   reference; the outbox is a scratch buffer reused across rounds.

use std::collections::VecDeque;

use dima_graph::VertexId;
use dima_telemetry::{ArqEventKind, MetricsHandle};

use crate::protocol::{Envelope, NodeSeed, NodeStatus, Protocol, RoundCtx, Shared, Target};

/// Tuning for the ARQ layer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ArqConfig {
    /// Retransmissions of one bundle before the link is declared dead.
    /// The default (16) makes false link death vanishingly unlikely at
    /// loss rates up to ~0.5 while bounding how long a crashed peer can
    /// stall the run.
    pub max_retries: u32,
    /// Rounds to wait for an acknowledgement before the first
    /// retransmission (the backoff then grows linearly per attempt,
    /// capped at 8 rounds). The default (2) is the fault-free round-trip
    /// time, so a healthy link is never retransmitted to.
    pub retransmit_after: u64,
    /// Engine round budgets are scaled by this factor when a protocol
    /// runs under the ARQ layer (see [`ArqConfig::round_budget`]).
    pub round_budget_factor: u64,
}

impl Default for ArqConfig {
    fn default() -> Self {
        ArqConfig { max_retries: 16, retransmit_after: 2, round_budget_factor: 12 }
    }
}

impl ArqConfig {
    /// Deterministic backoff: rounds to wait after transmission number
    /// `attempts` before retransmitting.
    fn backoff(&self, attempts: u32) -> u64 {
        (self.retransmit_after + attempts as u64).min(8)
    }

    /// Scale a bare-engine round budget to cover retransmission stalls
    /// and link-death detection.
    pub fn round_budget(&self, bare: u64) -> u64 {
        self.round_budget_factor * bare + 2 * self.death_timeout() + 16
    }

    /// Engine rounds a blocked link may stay completely silent before the
    /// peer is presumed crashed. A live peer can legitimately go quiet
    /// for one full retransmission-exhaustion episode (it is stalled
    /// declaring *its* dead neighbor) plus propagation slack, so the
    /// timeout is two episodes with headroom — late detection only costs
    /// rounds, a false positive would wrongly shrink the residual graph.
    pub fn death_timeout(&self) -> u64 {
        let exhaust: u64 = (0..=self.max_retries).map(|a| self.backoff(a)).sum();
        2 * exhaust + 8 * self.retransmit_after + 64
    }
}

/// The ARQ layer's wire messages: sequenced data bundles and explicit
/// acknowledgements. `ack` fields carry the next bundle round the sender
/// expects (cumulative: everything below it has been received).
#[derive(Clone, Debug, PartialEq)]
pub enum ArqMsg<M> {
    /// One inner round's messages on one link.
    Data {
        /// Inner round this bundle belongs to.
        round: u32,
        /// Piggybacked cumulative ack for the reverse direction.
        ack: u32,
        /// The inner messages (possibly none — empty bundles carry the
        /// synchronization signal). Refcounted: every (re)transmission
        /// and engine-injected duplicate of a bundle — and, for an
        /// all-broadcast inner round, every link's bundle — shares the
        /// one allocation built when the inner round ran, so the ARQ tax
        /// per copy is a pointer bump, not a deep `Vec` clone.
        msgs: Shared<Vec<M>>,
        /// `true` on the sender's final bundle: its inner protocol
        /// finished at `round` and will never send again.
        fin: bool,
    },
    /// Standalone cumulative acknowledgement (sent when a data receipt
    /// needs acknowledging but no bundle is going the other way).
    Ack {
        /// Next bundle round expected from the receiver of this ack.
        ack: u32,
    },
}

/// A queued outgoing bundle with its retransmission bookkeeping.
#[derive(Debug)]
struct Bundle<M> {
    round: u32,
    /// Shared with every transmission of this bundle (see
    /// [`ArqMsg::Data::msgs`]).
    msgs: Shared<Vec<M>>,
    fin: bool,
    /// Transmissions performed so far (0 = never sent).
    attempts: u32,
    /// Engine round of the most recent transmission.
    last_sent: Option<u64>,
    /// Engine round of the first transmission — the start of the
    /// ack-latency clock. Measured in engine rounds (not wall clock)
    /// so the `arq/ack_rounds` histogram stays deterministic.
    first_sent: Option<u64>,
}

impl<M> Bundle<M> {
    fn new(round: u32, msgs: Shared<Vec<M>>, fin: bool) -> Self {
        Bundle { round, msgs, fin, attempts: 0, last_sent: None, first_sent: None }
    }
}

/// One link's receive window: arrived, not yet consumed bundles in a
/// ring indexed by `round − base`.
///
/// Rounds are consumed in order, one per inner round (`take`), and the
/// cumulative ack `ceil` only grows, so the window never needs rounds
/// below `base = min(ceil, next)`: a round under `ceil` is redundant on
/// arrival whatever the window holds, and a round under `next` is never
/// consumed again. In steady state `base == next` and the ring holds
/// the one or two rounds in flight; only on a dead link, whose inner
/// rounds may run ahead of its cumulative ack, can `base` trail `next`.
/// The semantics are exactly those of a `round → payload` map with
/// insert-if-new-and-`≥ ceil` and remove-on-consume (the unit tests
/// check the two against each other).
#[derive(Debug)]
struct RecvWindow<T> {
    slots: VecDeque<Option<T>>,
    /// Round held by `slots[0]`.
    base: u32,
    /// Every round below this has been received (the cumulative ack).
    ceil: u32,
    /// The round the next `take` consumes.
    next: u32,
}

impl<T> RecvWindow<T> {
    fn new() -> Self {
        RecvWindow { slots: VecDeque::new(), base: 0, ceil: 0, next: 0 }
    }

    /// Store round `round`'s payload. Returns `true` when the arrival
    /// was redundant (below the cumulative ack, or already held).
    fn absorb(&mut self, round: u32, payload: T) -> bool {
        if round < self.ceil {
            return true;
        }
        let i = (round - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        if self.slots[i].is_some() {
            return true;
        }
        self.slots[i] = Some(payload);
        while self.slots.get((self.ceil - self.base) as usize).is_some_and(Option::is_some) {
            self.ceil += 1;
        }
        self.trim();
        false
    }

    /// The next round's payload, if it arrived, without consuming it.
    fn peek(&self) -> Option<&T> {
        self.slots.get((self.next - self.base) as usize).and_then(Option::as_ref)
    }

    /// Consume the next round's payload, if it arrived.
    fn take(&mut self) -> Option<T> {
        let out = self.slots.get_mut((self.next - self.base) as usize).and_then(Option::take);
        self.next += 1;
        self.trim();
        out
    }

    /// Drop the slots below `min(ceil, next)` — nothing reads them.
    fn trim(&mut self) {
        while self.base < self.ceil.min(self.next) {
            self.slots.pop_front();
            self.base += 1;
        }
    }
}

/// Per-neighbor link state.
#[derive(Debug)]
struct Link<M> {
    peer: VertexId,
    /// Unacknowledged outgoing bundles, oldest first.
    outq: VecDeque<Bundle<M>>,
    /// Received, not yet consumed bundles. Holding the shared handle
    /// (not a copy) keeps absorption allocation-free.
    recv: RecvWindow<Shared<Vec<M>>>,
    /// The peer's final inner round, once its `fin` bundle arrived.
    peer_fin: Option<u32>,
    /// Retransmissions exhausted or silence timeout hit — the peer is
    /// presumed crashed.
    dead: bool,
    /// A data bundle arrived this engine round (triggers an ack).
    got_data: bool,
    /// A data bundle was (re)transmitted this engine round (carries the
    /// piggybacked ack, so no standalone ack is needed).
    sent_data: bool,
    /// Anything at all arrived this engine round (resets `stall` — an
    /// ack is as much proof of life as a bundle).
    got_any: bool,
    /// Consecutive engine rounds we have been blocked on this link with
    /// total silence from the peer.
    stall: u64,
}

impl<M> Link<M> {
    fn new(peer: VertexId) -> Self {
        Link {
            peer,
            outq: VecDeque::new(),
            recv: RecvWindow::new(),
            peer_fin: None,
            dead: false,
            got_data: false,
            sent_data: false,
            got_any: false,
            stall: 0,
        }
    }

    /// The peer's inner protocol finished and will neither send nor read
    /// anything further on this link.
    fn peer_finished(&self) -> bool {
        self.peer_fin.is_some()
    }

    /// Still sending bundles: neither dead nor talking to a finished peer.
    fn open(&self) -> bool {
        !self.dead && !self.peer_finished()
    }

    /// Drop every outgoing bundle acknowledged by `ack`, recording each
    /// one's first-send → ack latency (in engine rounds) in the
    /// `arq/ack_rounds` histogram.
    fn absorb_ack(&mut self, ack: u32, engine_round: u64, metrics: &mut MetricsHandle<'_>) {
        // `outq` is sorted by round, so the acked bundles are a prefix.
        let acked = self.outq.partition_point(|b| b.round < ack);
        for b in self.outq.drain(..acked) {
            if let Some(first) = b.first_sent {
                metrics.observe("arq/ack_rounds", engine_round.saturating_sub(first));
            }
        }
    }

    /// Store an arriving bundle (idempotent — duplication faults and
    /// retransmissions collapse here). Returns `true` when the bundle
    /// was redundant (already received or consumed).
    fn absorb_data(&mut self, round: u32, msgs: Shared<Vec<M>>, fin: bool) -> bool {
        self.got_data = true;
        if fin {
            self.peer_fin = Some(round);
        }
        self.recv.absorb(round, msgs)
    }

    /// Whether this link holds (or will never produce) the input bundle
    /// for inner round `r`.
    fn ready_for(&self, r: u64) -> bool {
        if r == 0 || self.dead {
            return true;
        }
        let need = r - 1;
        if self.recv.ceil as u64 > need {
            return true;
        }
        // A finished peer sends nothing beyond its fin bundle.
        self.peer_fin.is_some_and(|f| (f as u64) < need)
    }
}

/// Wraps an inner [`Protocol`] with the reliable-link layer. Create
/// instances through [`ReliableNode::factory`].
#[derive(Debug)]
pub struct ReliableNode<P: Protocol> {
    inner: P,
    cfg: ArqConfig,
    /// [`ArqConfig::death_timeout`], computed once per factory.
    death_timeout: u64,
    links: Vec<Link<P::Msg>>,
    /// Next inner round to execute == inner rounds executed so far.
    inner_round: u64,
    inner_done: bool,
    /// The payload every empty bundle of this node shares.
    empty: Shared<Vec<P::Msg>>,
    /// The inner protocol's outbox, reused across inner rounds (it is
    /// drained into bundles every inner round).
    outbox: Vec<(Target, P::Msg)>,
}

impl<P: Protocol> ReliableNode<P> {
    /// Wrap a protocol factory: the returned closure builds a
    /// [`ReliableNode`] around each node the inner factory creates. The
    /// closure is `Fn` (and `Sync` when the inner factory is), so it
    /// works at every shard count.
    pub fn factory<F>(cfg: ArqConfig, inner: F) -> impl Fn(NodeSeed<'_>) -> Self
    where
        F: Fn(NodeSeed<'_>) -> P,
    {
        let death_timeout = cfg.death_timeout();
        move |seed| ReliableNode {
            inner: inner(seed.clone()),
            cfg,
            death_timeout,
            links: seed.neighbors.iter().map(|&v| Link::new(v)).collect(),
            inner_round: 0,
            inner_done: false,
            empty: Shared::new(Vec::new()),
            outbox: Vec::new(),
        }
    }

    /// The wrapped protocol state.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwrap into the inner protocol state.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Inner protocol rounds executed — subtract from the engine's round
    /// count to get the transport overhead.
    pub fn inner_rounds(&self) -> u64 {
        self.inner_round
    }

    /// Neighbors whose links were declared dead (presumed crashed).
    pub fn dead_links(&self) -> Vec<VertexId> {
        self.links.iter().filter(|l| l.dead).map(|l| l.peer).collect()
    }

    /// Every link can supply (or will never supply) the bundle inner
    /// round `self.inner_round` needs.
    fn can_execute_inner(&self) -> bool {
        !self.inner_done && self.links.iter().all(|l| l.ready_for(self.inner_round))
    }

    /// Run inner round `self.inner_round` on the bundles it consumes and
    /// queue its outbox as this round's bundle on every open link. A
    /// unicast to a non-neighbor goes straight into the engine's outbox
    /// (as a one-message bundle), so the engine's send validation
    /// reports it exactly as it would for the bare protocol.
    fn execute_inner(&mut self, ctx: &mut RoundCtx<'_, ArqMsg<P::Msg>>) {
        let r = self.inner_round;
        let mut inbox = Vec::new();
        if r > 0 {
            // Every link consumes bundle `r − 1` (links are in sender
            // order, so the inbox is too). Sized up front: one
            // allocation, and none of it outlives the inner round.
            let len = self.links.iter().filter_map(|l| l.recv.peek()).map(|m| m.len()).sum();
            inbox.reserve_exact(len);
            for link in &mut self.links {
                if let Some(msgs) = link.recv.take() {
                    let peer = link.peer;
                    inbox.extend(msgs.iter().map(|m| Envelope::new(peer, m.clone())));
                }
            }
        }
        let status = {
            let mut inner_ctx = RoundCtx {
                node: ctx.node,
                round: r,
                neighbors: ctx.neighbors,
                inbox: &inbox,
                outbox: &mut self.outbox,
                // The wrapper draws nothing from the RNG itself, so the
                // inner protocol sees the exact stream a bare run would.
                rng: &mut *ctx.rng,
                // Inner telemetry flows through the outer handle; the
                // inner ctx carries the *inner* round, so the protocol's
                // events are stamped with the round its logic actually
                // observed.
                trace: ctx.trace.reborrow(),
                metrics: ctx.metrics.reborrow(),
            };
            self.inner.on_round(&mut inner_ctx)
        };
        self.inner_done = status == NodeStatus::Done;
        self.inner_round += 1;

        let (round, fin) = (r as u32, self.inner_done);
        if self.outbox.iter().all(|(t, _)| *t == Target::Broadcast) {
            // Every link carries the same bundle: share one payload.
            let msgs = if self.outbox.is_empty() {
                self.empty.clone()
            } else {
                Shared::new(self.outbox.drain(..).map(|(_, m)| m).collect())
            };
            for link in self.links.iter_mut().filter(|l| l.open()) {
                link.outq.push_back(Bundle::new(round, msgs.clone(), fin));
            }
        } else {
            // A unicast to a non-neighbor goes straight to the engine.
            for (target, msg) in &self.outbox {
                if let Target::Unicast(to) = *target {
                    if self.links.binary_search_by_key(&to, |l| l.peer).is_err() {
                        let msgs = Shared::new(vec![msg.clone()]);
                        ctx.outbox
                            .push((Target::Unicast(to), ArqMsg::Data { round, ack: 0, msgs, fin }));
                    }
                }
            }
            // Each open link's bundle is the outbox filtered in order:
            // the broadcasts plus the unicasts to its peer.
            for link in self.links.iter_mut().filter(|l| l.open()) {
                let peer = link.peer;
                let msgs: Vec<P::Msg> = self
                    .outbox
                    .iter()
                    .filter(|(t, _)| *t == Target::Broadcast || *t == Target::Unicast(peer))
                    .map(|(_, m)| m.clone())
                    .collect();
                let msgs = if msgs.is_empty() { self.empty.clone() } else { Shared::new(msgs) };
                link.outq.push_back(Bundle::new(round, msgs, fin));
            }
            self.outbox.clear();
        }
        if self.inner_done {
            // The scratch outbox is never needed again.
            self.outbox = Vec::new();
        }
    }
}

impl<P: Protocol> Protocol for ReliableNode<P> {
    type Msg = ArqMsg<P::Msg>;

    fn kind_of(msg: &Self::Msg) -> &'static str {
        match msg {
            ArqMsg::Data { .. } => "arq-data",
            ArqMsg::Ack { .. } => "arq-ack",
        }
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) -> NodeStatus {
        let engine_round = ctx.round();

        // --- Receive: absorb acks, bundles and fins in one merge-walk of
        //     the inbox (sorted by sender) against the links (sorted by
        //     peer). The inbox borrow is copied out of `ctx`, leaving
        //     `ctx.metrics` free for the ack-latency histogram. ---
        let inbox = ctx.inbox;
        let mut at = 0;
        let mut dup_bundles = 0u64;
        for link in &mut self.links {
            link.got_data = false;
            link.sent_data = false;
            link.got_any = false;
            // Only an unvalidated run delivers from a non-neighbor; such
            // envelopes are skipped.
            while inbox.get(at).is_some_and(|e| e.from < link.peer) {
                at += 1;
            }
            while let Some(env) = inbox.get(at).filter(|e| e.from == link.peer) {
                at += 1;
                link.got_any = true;
                match env.msg() {
                    ArqMsg::Ack { ack } => link.absorb_ack(*ack, engine_round, &mut ctx.metrics),
                    ArqMsg::Data { round, ack, msgs, fin } => {
                        link.absorb_ack(*ack, engine_round, &mut ctx.metrics);
                        let fresh_fin = *fin && link.peer_fin.is_none();
                        if link.absorb_data(*round, msgs.clone(), *fin) {
                            dup_bundles += 1;
                        }
                        if fresh_fin {
                            // The peer's inner protocol is done: whatever
                            // we still had queued for it would be
                            // discarded on arrival anyway (the bare model
                            // drops deliveries to done nodes), so stop
                            // retransmitting it.
                            link.outq.clear();
                        }
                    }
                }
            }
        }
        if dup_bundles > 0 {
            ctx.metric_inc("arq/dup_bundles", dup_bundles);
        }

        // --- Synchronize: run the inner round if its inputs are here. ---
        if self.can_execute_inner() {
            self.execute_inner(ctx);
        }

        // --- Transmit: new bundles now, timed-out bundles with backoff;
        //     exhausted or silent-past-timeout links are declared dead. ---
        let (cfg, death_timeout) = (self.cfg, self.death_timeout);
        let (inner_round, inner_done) = (self.inner_round, self.inner_done);
        let mut downed: Vec<VertexId> = Vec::new();
        for link in self.links.iter_mut().filter(|l| l.open()) {
            let ack = link.recv.ceil;
            let mut died: Option<ArqEventKind> = None;
            for b in &mut link.outq {
                let due = match b.last_sent {
                    None => true,
                    Some(t) => engine_round - t >= cfg.backoff(b.attempts),
                };
                if !due {
                    continue;
                }
                if b.attempts > cfg.max_retries {
                    died = Some(ArqEventKind::LinkDownExhausted);
                    break;
                }
                if b.attempts > 0 {
                    // A re-send, not the bundle's first transmission.
                    ctx.trace_arq(ArqEventKind::Retransmit, link.peer);
                    ctx.metric_inc("arq/retransmits", 1);
                }
                ctx.outbox.push((
                    Target::Unicast(link.peer),
                    ArqMsg::Data { round: b.round, ack, msgs: b.msgs.clone(), fin: b.fin },
                ));
                b.attempts += 1;
                b.last_sent = Some(engine_round);
                if b.first_sent.is_none() {
                    b.first_sent = Some(engine_round);
                }
                link.sent_data = true;
            }
            // Second detector: a peer that acked everything and then
            // crashed leaves the outq empty, so exhaustion above never
            // fires — but a link we are blocked on cannot stay silent
            // forever.
            if link.got_any {
                link.stall = 0;
            } else if !inner_done && !link.ready_for(inner_round) {
                link.stall += 1;
                if link.stall > death_timeout {
                    died = Some(ArqEventKind::LinkDownSilent);
                }
            }
            if let Some(kind) = died {
                ctx.trace_arq(kind, link.peer);
                ctx.metric_inc(
                    if matches!(kind, ArqEventKind::LinkDownExhausted) {
                        "arq/link_down_exhausted"
                    } else {
                        "arq/link_down_silent"
                    },
                    1,
                );
                link.dead = true;
                link.outq.clear();
                downed.push(link.peer);
            }
        }
        if !self.inner_done {
            for peer in downed {
                self.inner.on_link_down(peer);
            }
        }

        // --- Acknowledge receipts that carried no piggybacked reply. ---
        for link in &mut self.links {
            if link.got_data && !link.sent_data && !link.dead {
                ctx.outbox.push((Target::Unicast(link.peer), ArqMsg::Ack { ack: link.recv.ceil }));
                ctx.metric_inc("arq/acks_standalone", 1);
            }
        }

        // --- Linger until every outgoing bundle is delivered or moot. ---
        let settled = self.links.iter().all(|l| !l.open() || l.outq.is_empty());
        if self.inner_done && settled {
            NodeStatus::Done
        } else {
            NodeStatus::Active
        }
    }

    fn on_link_down(&mut self, neighbor: VertexId) {
        if let Ok(port) = self.links.binary_search_by_key(&neighbor, |l| l.peer) {
            self.links[port].dead = true;
            self.links[port].outq.clear();
        }
        if !self.inner_done {
            self.inner.on_link_down(neighbor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnSchedule;
    use crate::engine::{run, EngineConfig, RunOutcome};
    use crate::error::SimError;
    use crate::fault::FaultPlan;
    use crate::topology::Topology;
    use dima_graph::gen::structured;
    use dima_telemetry::NoopTracer;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A static, untraced [`run`] over `threads` shards.
    fn run_on<P: Protocol>(
        topo: &Topology,
        cfg: &EngineConfig,
        threads: usize,
        factory: impl Fn(NodeSeed<'_>) -> P + Sync,
    ) -> Result<RunOutcome<P>, SimError> {
        run(topo, cfg, threads, &ChurnSchedule::empty(), factory, &mut NoopTracer)
    }

    /// Flood that tolerates dead links: every node broadcasts its id
    /// once and finishes when it has heard from every *reachable*
    /// neighbor.
    #[derive(Debug)]
    struct Flood {
        heard: Vec<VertexId>,
        expected: usize,
        sent: bool,
    }

    impl Protocol for Flood {
        type Msg = u32;
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, u32>) -> NodeStatus {
            if !self.sent {
                ctx.broadcast(ctx.node().0);
                self.sent = true;
            }
            for env in ctx.inbox() {
                self.heard.push(env.from);
            }
            if self.heard.len() >= self.expected {
                NodeStatus::Done
            } else {
                NodeStatus::Active
            }
        }
        fn on_link_down(&mut self, neighbor: VertexId) {
            // Stop waiting for (and discount anything heard from) the
            // unreachable neighbor.
            self.expected = self.expected.saturating_sub(1);
            self.heard.retain(|&v| v != neighbor);
        }
    }

    fn flood_factory(seed: NodeSeed<'_>) -> Flood {
        Flood { heard: Vec::new(), expected: seed.neighbors.len(), sent: false }
    }

    fn wrapped_factory(cfg: ArqConfig) -> impl Fn(NodeSeed<'_>) -> ReliableNode<Flood> + Sync {
        ReliableNode::factory(cfg, flood_factory)
    }

    #[test]
    fn fault_free_run_is_transparent() {
        let topo = Topology::from_graph(&structured::cycle(8));
        let cfg = EngineConfig::seeded(5);
        let bare = run_on(&topo, &cfg, 1, flood_factory).unwrap();
        let arq = run_on(&topo, &cfg, 1, wrapped_factory(ArqConfig::default())).unwrap();
        for (b, w) in bare.nodes.iter().zip(&arq.nodes) {
            assert_eq!(b.heard, w.inner().heard);
            // Inner rounds ran in lockstep with the bare engine.
            assert_eq!(w.inner_rounds(), bare.stats.rounds);
            assert!(w.dead_links().is_empty());
        }
        // Only the fin/ack linger separates the two runs.
        let overhead = arq.stats.rounds - bare.stats.rounds;
        assert!(overhead <= 3, "overhead {overhead}");
    }

    #[test]
    fn survives_uniform_loss() {
        let topo = Topology::from_graph(&structured::complete(8));
        let reliable_cfg = EngineConfig::seeded(11);
        let bare = run_on(&topo, &reliable_cfg, 1, flood_factory).unwrap();
        let cfg = EngineConfig {
            faults: FaultPlan::uniform(0.25),
            max_rounds: 500,
            ..EngineConfig::seeded(11)
        };
        let arq = run_on(&topo, &cfg, 1, wrapped_factory(ArqConfig::default())).unwrap();
        assert!(arq.stats.dropped > 0, "the plan should actually drop messages");
        for (b, w) in bare.nodes.iter().zip(&arq.nodes) {
            let mut got = w.inner().heard.clone();
            let mut want = b.heard.clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn survives_burst_loss_and_duplication() {
        let topo = Topology::from_graph(&structured::grid(4, 4));
        let cfg = EngineConfig {
            faults: FaultPlan { duplicate_probability: 0.2, ..FaultPlan::bursty(0.05, 0.9) },
            max_rounds: 800,
            ..EngineConfig::seeded(17)
        };
        let arq = run_on(&topo, &cfg, 1, wrapped_factory(ArqConfig::default())).unwrap();
        // Sequencing dedups the duplicates: every node heard each
        // neighbor exactly once.
        for (i, w) in arq.nodes.iter().enumerate() {
            let mut heard = w.inner().heard.clone();
            heard.sort_unstable();
            let expect = topo.neighbors(VertexId(i as u32)).to_vec();
            assert_eq!(heard, expect, "node {i}");
        }
    }

    #[test]
    fn crashed_peers_get_declared_dead_and_run_terminates() {
        let topo = Topology::from_graph(&structured::complete(12));
        let cfg = EngineConfig {
            // Spread 1: the victims crash at round 0 sharp, before they
            // can send anything — survivors must detect them by
            // retransmission exhaustion alone.
            faults: FaultPlan { crash_spread: 1, ..FaultPlan::crashing(0.4, 0) },
            max_rounds: 2_000,
            ..EngineConfig::seeded(23)
        };
        let arq = run_on(&topo, &cfg, 1, wrapped_factory(ArqConfig::default())).unwrap();
        assert!(arq.stats.crashed > 0, "the plan should actually crash someone");
        for (i, w) in arq.nodes.iter().enumerate() {
            if arq.crashed[i] {
                continue;
            }
            // Every survivor heard from every surviving neighbor.
            let mut heard = w.inner().heard.clone();
            heard.sort_unstable();
            let expect: Vec<VertexId> = topo
                .neighbors(VertexId(i as u32))
                .iter()
                .copied()
                .filter(|v| !arq.crashed[v.index()])
                .collect();
            assert_eq!(heard, expect, "node {i}");
        }
    }

    /// Broadcasts for a fixed number of inner rounds — long enough that
    /// mid-run crashes fell peers which already acknowledged earlier
    /// bundles, the case retransmission exhaustion alone cannot detect
    /// (nothing is left unacked, so only the silence timeout fires).
    #[derive(Debug)]
    struct Chatter {
        rounds_left: u32,
        heard: u64,
    }

    impl Protocol for Chatter {
        type Msg = u32;
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, u32>) -> NodeStatus {
            self.heard += ctx.inbox().len() as u64;
            if self.rounds_left == 0 {
                return NodeStatus::Done;
            }
            self.rounds_left -= 1;
            ctx.broadcast(ctx.node().0);
            NodeStatus::Active
        }
    }

    #[test]
    fn mid_run_crashes_after_acks_still_terminate() {
        let topo = Topology::from_graph(&structured::complete(8));
        let cfg = EngineConfig {
            faults: FaultPlan {
                crash_fraction: 0.4,
                crash_from_round: 5,
                ..FaultPlan::uniform(0.1)
            },
            max_rounds: 5_000,
            ..EngineConfig::seeded(41)
        };
        let factory = |_seed: NodeSeed<'_>| Chatter { rounds_left: 12, heard: 0 };
        let run =
            run_on(&topo, &cfg, 1, ReliableNode::factory(ArqConfig::default(), factory)).unwrap();
        assert!(run.stats.crashed > 0, "the plan should actually crash someone");
        for (i, w) in run.nodes.iter().enumerate() {
            if !run.crashed[i] {
                assert_eq!(w.inner_rounds(), 13, "survivor {i} must finish all inner rounds");
            }
        }
    }

    #[test]
    fn shard_counts_agree_under_arq_and_loss() {
        let topo = Topology::from_graph(&structured::grid(5, 4));
        let cfg = EngineConfig {
            faults: FaultPlan::uniform(0.2),
            max_rounds: 500,
            collect_round_stats: true,
            ..EngineConfig::seeded(31)
        };
        let seq = run_on(&topo, &cfg, 1, wrapped_factory(ArqConfig::default())).unwrap();
        for threads in [2, 4] {
            let par = run_on(&topo, &cfg, threads, wrapped_factory(ArqConfig::default())).unwrap();
            assert_eq!(par.stats, seq.stats, "threads {threads}");
            for (a, b) in par.nodes.iter().zip(&seq.nodes) {
                assert_eq!(a.inner().heard, b.inner().heard);
                assert_eq!(a.inner_rounds(), b.inner_rounds());
            }
        }
    }

    /// Unicasts to a non-neighbor: node 0 of the path 0–1–2 sends to 2.
    #[derive(Debug)]
    struct BadSender;

    impl Protocol for BadSender {
        type Msg = ();
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, ()>) -> NodeStatus {
            if ctx.node() == VertexId(0) {
                ctx.send(VertexId(2), ());
            }
            NodeStatus::Done
        }
    }

    #[test]
    fn non_neighbor_unicast_is_the_engines_typed_error() {
        let topo = Topology::from_graph(&structured::path(3));
        let factory = || ReliableNode::factory(ArqConfig::default(), |_: NodeSeed<'_>| BadSender);
        for threads in [1, 3] {
            let err = run_on(&topo, &EngineConfig::default(), threads, factory()).unwrap_err();
            assert_eq!(err, SimError::NotANeighbor { from: VertexId(0), to: VertexId(2) });
            // With validation off the stray frame reaches node 2, whose
            // wrapper ignores a sender it has no link to.
            let cfg = EngineConfig { validate_sends: false, ..Default::default() };
            let out = run_on(&topo, &cfg, threads, factory()).unwrap();
            assert!(out.nodes.iter().all(|n| n.inner_rounds() == 1 && n.dead_links().is_empty()));
        }
    }

    /// The receive side before the ring window: a map from round to
    /// payload with insert-if-new-and-at-or-above-the-ack and
    /// remove-on-consume.
    #[derive(Debug, Default)]
    struct MapModel {
        recvq: BTreeMap<u32, u64>,
        recv_ceil: u32,
        peer_fin: Option<u32>,
        dead: bool,
    }

    impl MapModel {
        fn absorb_data(&mut self, round: u32, payload: u64, fin: bool) -> bool {
            if fin {
                self.peer_fin = Some(round);
            }
            if round >= self.recv_ceil && !self.recvq.contains_key(&round) {
                self.recvq.insert(round, payload);
                while self.recvq.contains_key(&self.recv_ceil) {
                    self.recv_ceil += 1;
                }
                false
            } else {
                true
            }
        }

        fn ready_for(&self, r: u64) -> bool {
            r == 0
                || self.dead
                || self.recv_ceil as u64 > r - 1
                || self.peer_fin.is_some_and(|f| (f as u64) < r - 1)
        }
    }

    #[derive(Clone, Debug)]
    enum WindowOp {
        /// A bundle arrives for round `next + ahead − 4` (so from four
        /// below the consume cursor to seven above it).
        Absorb { ahead: u32, fin: bool },
        /// The inner round that consumes the next bundle runs, if its
        /// input is ready.
        Take,
        /// The link is declared dead: inner rounds stop waiting for it.
        Kill,
    }

    /// About 60% arrivals (5% of them fins), 39% takes and 1% kills.
    fn arb_op() -> impl Strategy<Value = WindowOp> {
        (0u32..100, 0u32..12, 0u32..20).prop_map(|(kind, ahead, fin)| match kind {
            0..=59 => WindowOp::Absorb { ahead, fin: fin == 0 },
            60..=98 => WindowOp::Take,
            _ => WindowOp::Kill,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Random arrivals — duplicates, out-of-order and late rounds,
        /// fins, a link dying mid-sequence — drive the ring window and
        /// the map model side by side: the cumulative ack, the
        /// redundancy flags, readiness and every consumed payload
        /// agree. Payloads are unique per arrival, so keeping a
        /// different copy of a round would show.
        #[test]
        fn ring_window_matches_the_map_model(ops in proptest::collection::vec(arb_op(), 1..200)) {
            let mut link: Link<u64> = Link::new(VertexId(1));
            let mut model = MapModel::default();
            let mut next = 0u32;
            for (i, op) in ops.into_iter().enumerate() {
                match op {
                    WindowOp::Absorb { ahead, fin } => {
                        let round = (next + ahead).saturating_sub(4);
                        let redundant = link.absorb_data(round, Shared::new(vec![i as u64]), fin);
                        prop_assert_eq!(redundant, model.absorb_data(round, i as u64, fin));
                    }
                    WindowOp::Take => {
                        // Inner round `next + 1` consumes bundle `next`.
                        let r = u64::from(next) + 1;
                        prop_assert_eq!(link.ready_for(r), model.ready_for(r));
                        if model.ready_for(r) {
                            let got = link.recv.take().map(|m| m[0]);
                            prop_assert_eq!(got, model.recvq.remove(&next));
                            next += 1;
                        }
                    }
                    WindowOp::Kill => {
                        link.dead = true;
                        model.dead = true;
                    }
                }
                prop_assert_eq!(link.recv.ceil, model.recv_ceil);
            }
        }
    }
}
