//! A reliable-link (ARQ) layer: run any [`Protocol`] over lossy links as
//! if the links were perfect.
//!
//! The paper assumes reliable synchronous message passing. The fault
//! plans in [`crate::fault`] break that assumption; this module wins it
//! back. [`ReliableNode`] wraps an inner protocol and is itself a
//! [`Protocol`], so the engine runs it unchanged at any shard count.
//!
//! The layer keeps control apart from data:
//!
//! - **Control** rides the engine's control plane ([`Protocol::CONTROL`]):
//!   every node that is not done writes one word on each open link every
//!   engine round, stalled or not. The word carries its inner rounds
//!   completed (the *sync*), how many data bundles it produced for the
//!   reader, its cumulative ack of the reader's bundles, its fin (inner
//!   protocol finished) and whether it has seen the reader's fin. A lost
//!   word is healed by the next round's word; nothing is queued or
//!   retransmitted for it.
//! - **Data** is an [`ArqMsg`] bundle: one inner round's messages on one
//!   link, sent only on a link the inner round actually sent something
//!   to. Bundles are sequenced per link and retransmitted when a word
//!   proves them lost: a word written after a bundle's arrival round that
//!   does not acknowledge it. A crashed peer writes no words, so it draws
//!   no retransmissions either, and a peer whose words keep coming is
//!   alive however many retransmissions its bundles need: data loss
//!   never kills a link.
//!
//! The wrapper doubles as an **α-synchronizer**: inner round `i` executes
//! only once every neighbor that can still send has completed inner round
//! `i − 1` and every bundle it produced up to that round has arrived.
//! Under loss the engine's rounds outnumber the inner protocol's rounds;
//! the difference is the *transport overhead* that experiment reports
//! break out separately.
//!
//! Three properties make the wrapper transparent:
//!
//! - **Fault-free transparency.** With a reliable [`crate::fault::FaultPlan`]
//!   every word and bundle arrives in one engine round, so inner round `i`
//!   runs at engine round `i` with exactly the inbox the bare engine would
//!   have delivered — and the wrapper draws nothing from the node RNG, so
//!   the inner protocol's random choices are bit-identical to a bare run.
//! - **Liveness is not progress.** A node stalled behind its own dead
//!   neighbor still writes its words, so the silence detector reads only
//!   control silence: a link on which no word arrives for
//!   [`DEATH_TIMEOUT`] rounds while the node still needs its
//!   peer is declared dead, [`Protocol::on_link_down`] tells the inner
//!   protocol to stop waiting for that peer, and the run terminates with
//!   a correct result on the residual graph. Under crash-stop faults and
//!   loss bursts shorter than the timeout, "dead" means "crashed".
//! - **A closed fin handshake.** A finished node lingers until every open
//!   peer still running has seen its fin and acknowledged its data, and
//!   every finished one has seen its fin or gone quiet — no word for a
//!   round trip — so no peer is left waiting on it. It writes to a
//!   finished peer until that peer goes quiet, so its fin gets through
//!   even when the peer's words are lost. A peer parks only once its own
//!   fin has been seen, so a finished neighbor's silence is never read as
//!   a crash. Only a node whose inner protocol still runs declares links
//!   dead; a finished node that hears nothing more from a running peer
//!   closes the link instead, since nothing it does can change the inner
//!   result any more.
//!
//! # Data layout
//!
//! The layer's hot path is O(d + inbox) per engine round, in two passes
//! over the links, and allocates per inner round, never per word or
//! frame.
//!
//! - **Receive** reads one word per link from the control plane and
//!   merge-walks the inbox (sorted by sender) against the links (sorted
//!   by peer), deciding readiness for the next inner round on the way.
//!   The second pass counts silence and writes the words.
//! - **Receive window.** Each link buffers arrived, not yet consumed
//!   bundles in a `RecvWindow` ring indexed by sequence number. Rings
//!   and retransmission queues grow one slot at a time: every link of
//!   the graph keeps its capacity, and most never hold more than a
//!   bundle or two.
//! - **Outgoing bundles.** An inner round whose outbox is all broadcasts
//!   builds *one* [`Shared`] payload that every link's bundle holds a
//!   handle to. Other outboxes are split per link — a link's share is the
//!   broadcasts, its peer's unicasts and the multicasts that list its
//!   port — and a link whose share is empty gets no bundle.
//! - **Inner inbox and outbox** are scratch buffers reused across inner
//!   rounds; the inbox's messages are cloned out of the shared bundles
//!   by reference.

use std::cmp::Ordering;
use std::collections::VecDeque;

use dima_graph::VertexId;
use dima_telemetry::{ArqEventKind, MetricsHandle};

use crate::protocol::{
    listed, ControlWord, Envelope, NodeSeed, NodeStatus, Protocol, RoundCtx, Shared, Target,
};

/// Engine rounds from a bundle's transmission to the first word that
/// can prove it lost: a bundle sent at round `r` is read at `r + 1`, and
/// the word its reader writes then is read at `r + 2`. A word read a
/// round trip or more after a bundle's transmission that does not
/// acknowledge it triggers the retransmission; a finished peer is quiet
/// once no word came from it for a round trip.
const ROUND_TRIP: u64 = 2;

/// Engine rounds without a word on a link the node still needs before
/// the peer is presumed crashed. A live peer writes every round, stalled
/// or not, so only that many lost words in a row can make it look dead —
/// at 50% loss, about once in 1.7 × 10¹⁰ tries. Data loss alone never
/// kills a link: a peer whose words arrive is alive.
pub const DEATH_TIMEOUT: u64 = 34;

/// The factor [`round_budget`] scales a bare-engine round budget by.
const ROUND_BUDGET_FACTOR: u64 = 12;

/// Scale a bare-engine round budget to cover retransmission stalls and
/// link-death detection under the ARQ layer.
pub fn round_budget(bare: u64) -> u64 {
    ROUND_BUDGET_FACTOR * bare + 2 * DEATH_TIMEOUT + 16
}

/// The ARQ layer's one wire message: one inner round's messages on one
/// link. Control (sync, acks, fins) travels on the engine's control plane.
#[derive(Clone, Debug, PartialEq)]
pub struct ArqMsg<M> {
    /// Position in the link's bundle sequence (0, 1, 2, …).
    pub seq: u32,
    /// Inner round the messages were sent in.
    pub round: u32,
    /// The inner messages (never none). Refcounted: every
    /// (re)transmission and engine-injected duplicate of a bundle — and,
    /// for an all-broadcast inner round, every link's bundle — shares the
    /// one slice built when the inner round ran, so a copy costs a
    /// pointer bump.
    pub msgs: Shared<[M]>,
}

/// What a node tells one neighbor every engine round, packed into one
/// [`ControlWord`]. Counts of bundles travel modulo 2¹⁶ and are widened
/// on receipt against the reader's own count, which is never more than a
/// few bundles away.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
struct Word {
    /// Inner rounds the writer completed. At least 1 in every word:
    /// inner round 0 needs no input and runs in the first engine round,
    /// before the first word is written.
    sync: u32,
    /// Bundles the writer produced for the reader in inner rounds before
    /// its last one (`sync − 1`).
    sent: u32,
    /// The writer's last inner round produced a bundle for the reader too.
    last: bool,
    /// Bundles of the reader's the writer holds, contiguously from the
    /// first (the cumulative ack).
    ack: u32,
    /// The writer's inner protocol finished (at inner round `sync − 1`).
    fin: bool,
    /// The writer has seen the reader's fin.
    seen_fin: bool,
}

impl Word {
    /// Bits 35.. sync, 34 seen_fin, 33 fin, 32 last, 16..32 sent, 0..16 ack.
    fn pack(self) -> ControlWord {
        debug_assert!(self.sync >= 1 && self.sync < 1 << 29, "sync {}", self.sync);
        let bits = u64::from(self.sync) << 35
            | u64::from(self.seen_fin) << 34
            | u64::from(self.fin) << 33
            | u64::from(self.last) << 32
            | u64::from(self.sent as u16) << 16
            | u64::from(self.ack as u16);
        ControlWord::new(bits).expect("a word's sync is at least 1")
    }

    /// Unpack `w`, widening its counts: `sent` against `recv_ceil`, the
    /// reader's count of the writer's bundles held, and `ack` against
    /// `acked`, the reader's count of its own bundles acknowledged.
    fn unpack(w: ControlWord, recv_ceil: u32, acked: u32) -> Self {
        let bits = w.get();
        Word {
            sync: (bits >> 35) as u32,
            seen_fin: bits >> 34 & 1 == 1,
            fin: bits >> 33 & 1 == 1,
            last: bits >> 32 & 1 == 1,
            sent: widen((bits >> 16) as u16, recv_ceil),
            ack: widen(bits as u16, acked),
        }
    }

    /// Bundles the writer produced for the reader, all told.
    fn produced(&self) -> u32 {
        self.sent + u32::from(self.last)
    }
}

/// The count whose low 16 bits are `low`, nearest to `near`.
fn widen(low: u16, near: u32) -> u32 {
    near.wrapping_add(low.wrapping_sub(near as u16) as i16 as u32)
}

/// A queued outgoing bundle with its retransmission bookkeeping.
#[derive(Debug)]
struct Bundle<M> {
    seq: u32,
    round: u32,
    msgs: Shared<[M]>,
    /// Engine round of the most recent transmission.
    last_sent: u64,
    /// Engine round of the first transmission — the start of the
    /// ack-latency clock. Measured in engine rounds (not wall clock)
    /// so the `arq/ack_rounds` histogram stays deterministic.
    first_sent: u64,
}

/// One link's receive window: arrived, not yet consumed bundles in a
/// ring indexed by `seq − base`.
///
/// Bundles are consumed in sequence order (`take`), and the cumulative
/// ack `ceil` only grows, so the window never needs sequence numbers
/// below `base = min(ceil, next)`: one under `ceil` is redundant on
/// arrival whatever the window holds, and one under `next` is never
/// consumed again. In steady state `base == next` and the ring holds the
/// one or two bundles in flight. The semantics are exactly those of a
/// `seq → payload` map with insert-if-new-and-`≥ ceil` and
/// remove-on-consume (the unit tests check the two against each other).
#[derive(Debug)]
struct RecvWindow<T> {
    slots: VecDeque<Option<T>>,
    /// Sequence number held by `slots[0]`.
    base: u32,
    /// Every bundle below this has been received (the cumulative ack).
    ceil: u32,
    /// The sequence number the next `take` consumes.
    next: u32,
}

impl<T> RecvWindow<T> {
    fn new() -> Self {
        RecvWindow { slots: VecDeque::new(), base: 0, ceil: 0, next: 0 }
    }

    /// Store bundle `seq`. Returns `true` when the arrival was redundant
    /// (below the cumulative ack, or already held).
    fn absorb(&mut self, seq: u32, payload: T) -> bool {
        if seq < self.ceil {
            return true;
        }
        let i = (seq - self.base) as usize;
        if i >= self.slots.len() {
            // Exact growth: a link rarely holds more than one bundle, and
            // every link of the graph keeps its ring's capacity.
            self.slots.reserve_exact(i + 1 - self.slots.len());
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

    /// The next bundle, if it arrived, without consuming it.
    fn peek(&self) -> Option<&T> {
        self.slots.get((self.next - self.base) as usize).and_then(Option::as_ref)
    }

    /// Consume the next bundle, if it arrived.
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

/// Where a link stands.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum LinkState {
    /// Words flow both ways.
    Open,
    /// Declared dead while the inner protocol ran: the peer is presumed
    /// crashed, and the inner protocol was told.
    Dead,
    /// Closed by a finished node that heard nothing more from its peer.
    /// The inner protocol is not told (it has finished); the peer most
    /// likely parked.
    Closed,
}

/// Per-neighbor link state.
#[derive(Debug)]
struct Link<M> {
    peer: VertexId,
    state: LinkState,
    /// Unacknowledged outgoing bundles, oldest first.
    outq: VecDeque<Bundle<M>>,
    /// Bundles produced for this peer so far (the next sequence number),
    /// and the inner round of the newest.
    sent: u32,
    last_bundle: Option<u32>,
    /// Received, not yet consumed bundles as `(inner round, messages)`.
    /// Holding the shared handle (not a copy) keeps absorption
    /// allocation-free.
    recv: RecvWindow<(u32, Shared<[M]>)>,
    /// The peer's latest word (all zero before the first).
    heard: Word,
    /// Consecutive engine rounds, up to this one, in which no word
    /// arrived (0: one arrived this round).
    quiet: u64,
}

impl<M: Clone> Link<M> {
    fn new(peer: VertexId) -> Self {
        Link {
            peer,
            state: LinkState::Open,
            outq: VecDeque::new(),
            sent: 0,
            last_bundle: None,
            recv: RecvWindow::new(),
            heard: Word::default(),
            quiet: 0,
        }
    }

    /// Bundles of ours the peer acknowledged.
    fn acked(&self) -> u32 {
        self.outq.front().map_or(self.sent, |b| b.seq)
    }

    /// The peer's inner protocol finished and everything it produced for
    /// us has arrived: it can hold up no inner round of ours.
    fn drained(&self) -> bool {
        self.heard.fin && self.recv.ceil >= self.heard.produced()
    }

    /// Whether this link holds (or will never produce) every bundle inner
    /// round `r` consumes — those of inner rounds up to `r − 1`.
    fn ready_for(&self, r: u64) -> bool {
        if r == 0 || self.state == LinkState::Dead {
            return true;
        }
        let h = &self.heard;
        let need = match u64::from(h.sync).cmp(&r) {
            // The peer ran a round ahead: `sent` covers rounds ≤ r − 1.
            Ordering::Greater => h.sent,
            Ordering::Equal => h.produced(),
            Ordering::Less if h.fin => h.produced(),
            Ordering::Less => return false,
        };
        self.recv.ceil >= need
    }

    /// The peer has finished and has gone a round trip without a word:
    /// it parked (or crashed). A finished peer writes every round while
    /// it waits on us, so one lost word does not make it quiet.
    fn quiet_fin(&self) -> bool {
        self.heard.fin && self.quiet >= ROUND_TRIP
    }

    /// A finished node owes this peer nothing more. A peer still running
    /// needs our fin and our bundles, so it must have seen the one and
    /// acknowledged the other. A finished peer only needs to hear that we
    /// saw its fin, which every word we write since says: we owe it
    /// nothing once it has seen our fin or gone quiet.
    fn settled(&self) -> bool {
        match self.state {
            LinkState::Open if self.heard.fin => self.heard.seen_fin || self.quiet_fin(),
            LinkState::Open => self.heard.seen_fin && self.outq.is_empty(),
            LinkState::Dead | LinkState::Closed => true,
        }
    }

    /// Whether the node writes a word on this link this round. Always to
    /// a peer still running; to a finished peer until it goes quiet (so
    /// our fin reaches it even when its own words are lost), and while we
    /// still lack its bundles (our ack drives its retransmissions).
    fn writes(&self, inner_done: bool) -> bool {
        self.state == LinkState::Open && (!self.quiet_fin() || (!inner_done && !self.drained()))
    }

    /// Whether silence on this link counts toward its death (or, for a
    /// finished node, its closing): the node still needs the peer. Never
    /// so for a finished peer that may have parked: a running node has
    /// everything it needs from it once drained, and a finished node
    /// owes it nothing once it is quiet.
    fn waits(&self, inner_done: bool) -> bool {
        self.state == LinkState::Open && if inner_done { !self.settled() } else { !self.drained() }
    }

    /// Absorb the peer's word `w`: drop the bundles it acknowledges
    /// (recording each one's first-send → ack latency in engine rounds in
    /// the `arq/ack_rounds` histogram). A peer whose inner protocol
    /// finished discards whatever we still had queued for it (the bare
    /// model drops deliveries to done nodes), so stop retransmitting it.
    fn hear(&mut self, w: Word, engine_round: u64, metrics: &mut MetricsHandle<'_>) {
        while let Some(b) = self.outq.front().filter(|b| b.seq < w.ack) {
            metrics.observe("arq/ack_rounds", engine_round - b.first_sent);
            self.outq.pop_front();
        }
        if w.fin {
            self.outq.clear();
        }
        self.heard = w;
        self.quiet = 0;
    }

    /// The word this node writes on this link.
    fn word(&self, sync: u64, fin: bool) -> Word {
        let last = self.last_bundle.is_some_and(|b| u64::from(b) + 1 == sync);
        Word {
            sync: sync as u32,
            sent: self.sent - u32::from(last),
            last,
            ack: self.recv.ceil,
            fin,
            seen_fin: self.heard.fin,
        }
    }

    /// Store an arriving bundle (idempotent — duplication faults and
    /// retransmissions collapse here). A bundle of inner round `round`
    /// also says what its sender's word would: it completed that round,
    /// having produced bundles `..seq` for us before it — so a lost word
    /// does not stall a link that carried data. Returns `true` when the
    /// bundle was redundant.
    fn absorb(&mut self, m: &ArqMsg<M>) -> bool {
        if m.round + 1 > self.heard.sync {
            self.heard = Word { sync: m.round + 1, sent: m.seq, last: true, ..self.heard };
        }
        self.recv.absorb(m.seq, (m.round, m.msgs.clone()))
    }

    /// The bundle inner round `r` consumes from this link: the next one,
    /// if it arrived and belongs to inner round `r − 1`. A dead link still
    /// hands over what arrived before its peer fell silent, as the bare
    /// engine delivers what a node sent before it crashed.
    fn due(&self, r: u64) -> Option<&Shared<[M]>> {
        let (round, msgs) = self.recv.peek()?;
        (u64::from(*round) + 1 == r).then_some(msgs)
    }

    /// Queue and transmit a new bundle of inner round `round`.
    fn push(
        &mut self,
        round: u32,
        msgs: Shared<[M]>,
        engine_round: u64,
        out: &mut Vec<(Target, ArqMsg<M>)>,
    ) {
        let seq = self.sent;
        self.sent += 1;
        self.last_bundle = Some(round);
        out.push((Target::Unicast(self.peer), ArqMsg { seq, round, msgs: msgs.clone() }));
        if self.outq.len() == self.outq.capacity() {
            // Exact growth, as for the receive window.
            self.outq.reserve_exact(1);
        }
        self.outq.push_back(Bundle {
            seq,
            round,
            msgs,
            last_sent: engine_round,
            first_sent: engine_round,
        });
    }
}

/// Wraps an inner [`Protocol`] with the reliable-link layer. Create
/// instances through [`ReliableNode::factory`].
#[derive(Debug)]
pub struct ReliableNode<P: Protocol> {
    inner: P,
    links: Vec<Link<P::Msg>>,
    /// Next inner round to execute == inner rounds executed so far.
    inner_round: u64,
    inner_done: bool,
    /// The inner protocol's outbox, reused across inner rounds (it is
    /// drained into bundles every inner round).
    outbox: Vec<(Target, P::Msg)>,
    /// One link's share of an outbox with unicasts, staged so its
    /// bundle's payload is one exact-size allocation.
    share: Vec<P::Msg>,
    /// The inner protocol's inbox, rebuilt every inner round.
    inbox: Vec<Envelope<P::Msg>>,
}

impl<P: Protocol> ReliableNode<P> {
    /// Wrap a protocol factory: the returned closure builds a
    /// [`ReliableNode`] around each node the inner factory creates. The
    /// closure is `Fn` (and `Sync` when the inner factory is), so it
    /// works at every shard count.
    pub fn factory<F>(inner: F) -> impl Fn(NodeSeed<'_>) -> Self
    where
        F: Fn(NodeSeed<'_>) -> P,
    {
        move |seed| ReliableNode {
            inner: inner(seed.clone()),
            links: seed.neighbors.iter().map(|&v| Link::new(v)).collect(),
            inner_round: 0,
            inner_done: false,
            outbox: Vec::new(),
            share: Vec::new(),
            inbox: Vec::new(),
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
    pub fn dead_links(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.links.iter().filter(|l| l.state == LinkState::Dead).map(|l| l.peer)
    }

    /// Run inner round `self.inner_round` on the bundles it consumes —
    /// `len` messages in all — and send its outbox as this round's bundle
    /// on every link it reaches. A unicast to a non-neighbor goes straight
    /// into the engine's outbox (as a one-message bundle), so the engine's
    /// send validation reports it exactly as it would for the bare
    /// protocol.
    fn execute_inner(&mut self, ctx: &mut RoundCtx<'_, ArqMsg<P::Msg>>, len: usize) {
        let r = self.inner_round;
        // Every link consumes its bundle of inner round `r − 1`, if it
        // produced one (links are in sender order, so the inbox is too),
        // into the scratch inbox, sized up front.
        let inbox = &mut self.inbox;
        if len > 0 {
            inbox.reserve_exact(len);
            for link in &mut self.links {
                if link.due(r).is_some() {
                    let (_, msgs) = link.recv.take().expect("the due bundle");
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
                inbox,
                outbox: &mut self.outbox,
                // The inner multicasts' port lists borrow the engine's
                // scratch: the wrapper itself never multicasts.
                ports: &mut *ctx.ports,
                // The wrapper draws nothing from the RNG itself, so the
                // inner protocol sees the exact stream a bare run would.
                rng: &mut *ctx.rng,
                // Inner telemetry flows through the outer handle; the
                // inner ctx carries the *inner* round, so the protocol's
                // events are stamped with the round its logic actually
                // observed.
                trace: ctx.trace.reborrow(),
                metrics: ctx.metrics.reborrow(),
                control_in: &[],
                control_out: &mut Vec::new(),
            };
            self.inner.on_round(&mut inner_ctx)
        };
        self.inbox.clear();
        self.inner_done = status == NodeStatus::Done;
        self.inner_round += 1;

        let (round, engine_round) = (r as u32, ctx.round);
        let mut broadcasts = self.outbox.iter().filter(|(t, _)| *t == Target::Broadcast);
        if broadcasts.next().is_some() && broadcasts.count() + 1 == self.outbox.len() {
            // Every link carries the same bundle: share one payload.
            let msgs: Shared<[P::Msg]> = self.outbox.drain(..).map(|(_, m)| m).collect();
            for link in &mut self.links {
                if link.state == LinkState::Open && !link.heard.fin {
                    link.push(round, msgs.clone(), engine_round, ctx.outbox);
                }
            }
        } else if !self.outbox.is_empty() {
            // Each link's bundle is the outbox filtered in order: the
            // broadcasts, the unicasts to its peer and the multicasts
            // listing its port. With no broadcast only the links a
            // unicast or multicast reaches get one, in outbox order.
            let any_broadcast = self.outbox.iter().any(|(t, _)| *t == Target::Broadcast);
            for k in 0..self.outbox.len() {
                match self.outbox[k] {
                    (Target::Unicast(to), ref msg) => {
                        match self.links.binary_search_by_key(&to, |l| l.peer) {
                            Ok(port) if !any_broadcast => {
                                self.bundle(port, (round, engine_round), ctx.ports, ctx.outbox)
                            }
                            Ok(_) => {}
                            Err(_) => {
                                // A non-neighbor: straight to the engine.
                                let msgs = std::iter::once(msg.clone()).collect();
                                let bundle = ArqMsg { seq: 0, round, msgs };
                                ctx.outbox.push((Target::Unicast(to), bundle));
                            }
                        }
                    }
                    (Target::Multicast(at), _) if !any_broadcast => {
                        for &port in listed(ctx.ports, at) {
                            self.bundle(
                                port as usize,
                                (round, engine_round),
                                ctx.ports,
                                ctx.outbox,
                            );
                        }
                    }
                    _ => {}
                }
            }
            if any_broadcast {
                for port in 0..self.links.len() {
                    self.bundle(port, (round, engine_round), ctx.ports, ctx.outbox);
                }
            }
            self.outbox.clear();
        }
        if self.inner_done {
            // The scratch buffers are never needed again.
            self.outbox = Vec::new();
            self.share = Vec::new();
            self.inbox = Vec::new();
        }
    }

    /// Send link `port`'s share of the outbox as its bundle of inner
    /// round `round`, unless it has one already or its peer is out of
    /// reach (dead, or finished: the bare model drops deliveries to done
    /// nodes).
    /// `ports` is the inner round's port arena; the bundle goes to `out`.
    fn bundle(
        &mut self,
        port: usize,
        (round, engine_round): (u32, u64),
        ports: &[u32],
        out: &mut Vec<(Target, ArqMsg<P::Msg>)>,
    ) {
        let link = &mut self.links[port];
        if link.state != LinkState::Open || link.heard.fin || link.last_bundle == Some(round) {
            return;
        }
        self.share.extend(
            self.outbox
                .iter()
                .filter(|(t, _)| t.reaches(port, link.peer, ports))
                .map(|(_, m)| m.clone()),
        );
        if !self.share.is_empty() {
            link.push(round, self.share.drain(..).collect(), engine_round, out);
        }
    }

    /// Take a silent `link` out of service: declared dead (and the inner
    /// protocol told, by the caller) while the inner protocol runs, closed
    /// once it has finished.
    fn give_up(link: &mut Link<P::Msg>, inner_done: bool, ctx: &mut RoundCtx<'_, ArqMsg<P::Msg>>) {
        link.outq.clear();
        if inner_done {
            link.state = LinkState::Closed;
            ctx.metric_inc("arq/links_closed", 1);
        } else {
            link.state = LinkState::Dead;
            ctx.trace_arq(ArqEventKind::LinkDownSilent, link.peer);
            ctx.metric_inc("arq/link_down_silent", 1);
        }
    }
}

impl<P: Protocol> Protocol for ReliableNode<P> {
    type Msg = ArqMsg<P::Msg>;

    const CONTROL: bool = true;

    fn kind_of(_: &Self::Msg) -> &'static str {
        "arq-data"
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) -> NodeStatus {
        let engine_round = ctx.round();
        let r = self.inner_round;

        // --- Receive, link by link: the word (acks, fin, sync, and the
        //     retransmissions it proves due: bundles sent at least a round
        //     trip ago, still unacknowledged), then the bundles, in one
        //     merge-walk of the inbox (sorted by sender) against the links
        //     (sorted by peer). Readiness for the next inner round and the
        //     size of its inbox fall out on the way. ---
        let inbox = ctx.inbox;
        let (mut at, mut dup_bundles) = (0, 0u64);
        let (mut ready, mut len) = (!self.inner_done, 0);
        for (port, link) in self.links.iter_mut().enumerate() {
            link.quiet += 1;
            if let Some(w) = ctx.control_word(port).filter(|_| link.state == LinkState::Open) {
                let w = Word::unpack(w, link.recv.ceil, link.acked());
                link.hear(w, engine_round, &mut ctx.metrics);
                for b in &mut link.outq {
                    if engine_round - b.last_sent >= ROUND_TRIP {
                        ctx.trace_arq(ArqEventKind::Retransmit, link.peer);
                        ctx.metric_inc("arq/retransmits", 1);
                        ctx.outbox.push((
                            Target::Unicast(link.peer),
                            ArqMsg { seq: b.seq, round: b.round, msgs: b.msgs.clone() },
                        ));
                        b.last_sent = engine_round;
                    }
                }
            }
            // Only an unvalidated run delivers from a non-neighbor; such
            // envelopes are skipped.
            while inbox.get(at).is_some_and(|e| e.from < link.peer) {
                at += 1;
            }
            while let Some(env) = inbox.get(at).filter(|e| e.from == link.peer) {
                at += 1;
                if link.state == LinkState::Open && link.absorb(env.msg()) {
                    dup_bundles += 1;
                }
            }
            ready &= link.ready_for(r);
            len += link.due(r).map_or(0, |m| m.len());
        }
        if dup_bundles > 0 {
            ctx.metric_inc("arq/dup_bundles", dup_bundles);
        }

        // --- Synchronize: run the inner round if its inputs are here. ---
        if ready {
            self.execute_inner(ctx, len);
        }

        // --- Liveness and words, link by link. A link the node still
        //     needs that stayed silent past the timeout is given up on: a
        //     peer still running writes every round, and one that finished
        //     parks only once we saw its fin, so only a crash silences a
        //     link the node waits on. Then every link that needs one gets
        //     a word: sync, counts, ack and fin. ---
        let (sync, fin) = (self.inner_round, self.inner_done);
        let mut settled = fin;
        for (port, link) in self.links.iter_mut().enumerate() {
            if link.quiet > DEATH_TIMEOUT && link.waits(fin) {
                Self::give_up(link, fin, ctx);
                if link.state == LinkState::Dead {
                    self.inner.on_link_down(link.peer);
                }
            }
            if link.writes(fin) {
                ctx.write_control(port, link.word(sync, fin).pack());
            }
            settled &= link.settled();
        }

        // --- Linger until no open peer needs anything from us. ---
        if settled {
            NodeStatus::Done
        } else {
            NodeStatus::Active
        }
    }

    fn on_link_down(&mut self, neighbor: VertexId) {
        if let Ok(port) = self.links.binary_search_by_key(&neighbor, |l| l.peer) {
            self.links[port].state = LinkState::Dead;
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
    use dima_telemetry::TraceHandle;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

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

    fn wrapped_factory() -> impl Fn(NodeSeed<'_>) -> ReliableNode<Flood> + Sync {
        ReliableNode::factory(flood_factory)
    }

    #[test]
    fn fault_free_run_is_transparent() {
        let topo = Topology::from_graph(&structured::cycle(8));
        let cfg = EngineConfig::seeded(5);
        let bare = run_on(&topo, &cfg, 1, flood_factory).unwrap();
        let arq = run_on(&topo, &cfg, 1, wrapped_factory()).unwrap();
        for (b, w) in bare.nodes.iter().zip(&arq.nodes) {
            assert_eq!(b.heard, w.inner().heard);
            // Inner rounds ran in lockstep with the bare engine.
            assert_eq!(w.inner_rounds(), bare.stats.rounds);
            assert_eq!(w.dead_links().count(), 0);
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
        let arq = run_on(&topo, &cfg, 1, wrapped_factory()).unwrap();
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
        let arq = run_on(&topo, &cfg, 1, wrapped_factory()).unwrap();
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
            // write a single word — survivors detect them by silence.
            faults: FaultPlan { crash_spread: 1, ..FaultPlan::crashing(0.4, 0) },
            max_rounds: 2_000,
            ..EngineConfig::seeded(23)
        };
        let arq = run_on(&topo, &cfg, 1, wrapped_factory()).unwrap();
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
    /// bundles.
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
        let run = run_on(&topo, &cfg, 1, ReliableNode::factory(factory)).unwrap();
        assert!(run.stats.crashed > 0, "the plan should actually crash someone");
        for (i, w) in run.nodes.iter().enumerate() {
            if !run.crashed[i] {
                assert_eq!(w.inner_rounds(), 13, "survivor {i} must finish all inner rounds");
            }
        }
    }

    #[test]
    fn shard_counts_agree_under_arq_and_loss() {
        // Stats and the metrics registry (control words and losses
        // included) must not depend on the shard count.
        let topo = Topology::from_graph(&structured::grid(5, 4));
        let cfg = EngineConfig {
            faults: FaultPlan::uniform(0.2),
            max_rounds: 500,
            collect_round_stats: true,
            metrics: true,
            ..EngineConfig::seeded(31)
        };
        let seq = run_on(&topo, &cfg, 1, wrapped_factory()).unwrap();
        let reg = seq.stats.metrics.as_deref().expect("metrics were requested");
        assert!(reg.counter("engine/control_lost") > 0, "the plan should lose control words");
        for threads in [2, 3, 8] {
            let par = run_on(&topo, &cfg, threads, wrapped_factory()).unwrap();
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
        let factory = || ReliableNode::factory(|_: NodeSeed<'_>| BadSender);
        for threads in [1, 3] {
            let err = run_on(&topo, &EngineConfig::default(), threads, factory()).unwrap_err();
            assert_eq!(err, SimError::NotANeighbor { from: VertexId(0), to: VertexId(2) });
            // With validation off the stray frame reaches node 2, whose
            // wrapper ignores a sender it has no link to.
            let cfg = EngineConfig { validate_sends: false, ..Default::default() };
            let out = run_on(&topo, &cfg, threads, factory()).unwrap();
            assert!(out.nodes.iter().all(|n| n.inner_rounds() == 1 && n.dead_links().count() == 0));
        }
    }

    /// The receive window's specification: a map from sequence number
    /// to payload with insert-if-new-and-at-or-above-the-ack and
    /// remove-on-consume.
    #[derive(Debug, Default)]
    struct MapModel {
        recvq: BTreeMap<u32, u64>,
        ceil: u32,
    }

    impl MapModel {
        fn absorb(&mut self, seq: u32, payload: u64) -> bool {
            if seq >= self.ceil && !self.recvq.contains_key(&seq) {
                self.recvq.insert(seq, payload);
                while self.recvq.contains_key(&self.ceil) {
                    self.ceil += 1;
                }
                false
            } else {
                true
            }
        }
    }

    #[derive(Clone, Debug)]
    enum WindowOp {
        /// A bundle arrives with sequence number `next + ahead − 4` (so
        /// from four below the consume cursor to seven above it).
        Absorb { ahead: u32 },
        /// The consumer takes the next bundle, if it arrived and its
        /// turn came (the cursor never passes the cumulative ack).
        Take,
    }

    /// About 60% arrivals and 40% takes.
    fn arb_op() -> impl Strategy<Value = WindowOp> {
        (0u32..100, 0u32..12).prop_map(|(kind, ahead)| match kind {
            0..=59 => WindowOp::Absorb { ahead },
            _ => WindowOp::Take,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Random arrivals — duplicates, out-of-order and late bundles —
        /// drive the ring window and the map model side by side: the
        /// cumulative ack, the redundancy flags and every consumed
        /// payload agree. Payloads are unique per arrival, so keeping a
        /// different copy of a bundle would show.
        #[test]
        fn ring_window_matches_the_map_model(ops in proptest::collection::vec(arb_op(), 1..200)) {
            let mut window: RecvWindow<u64> = RecvWindow::new();
            let mut model = MapModel::default();
            let mut next = 0u32;
            for (i, op) in ops.into_iter().enumerate() {
                match op {
                    WindowOp::Absorb { ahead } => {
                        let seq = (next + ahead).saturating_sub(4);
                        prop_assert_eq!(window.absorb(seq, i as u64), model.absorb(seq, i as u64));
                    }
                    WindowOp::Take => {
                        if next < model.ceil {
                            prop_assert_eq!(window.peek().copied(), model.recvq.get(&next).copied());
                            prop_assert_eq!(window.take(), model.recvq.remove(&next));
                            next += 1;
                        }
                    }
                }
                prop_assert_eq!(window.ceil, model.ceil);
            }
        }
    }

    /// The readiness rule's specification, from the truth of the peer's
    /// run and what the reader has heard of it: inner round `r` may run
    /// once the link is dead, or once the reader knows the peer completed
    /// round `r − 1` (or finished) and holds every bundle the peer
    /// produced in rounds `≤ r − 1`. It consumes the next bundle in
    /// sequence if that belongs to round `r − 1` and arrived — on a dead
    /// link too, for what arrived before the link died.
    #[derive(Debug, Default)]
    struct ReadyModel {
        /// Inner round of every bundle the peer produced, by sequence.
        rounds: Vec<u32>,
        /// Sequence numbers that reached the reader.
        arrived: BTreeSet<u32>,
        /// The most the reader heard about the peer's progress: inner
        /// rounds completed, and whether it finished.
        known_sync: u32,
        known_fin: bool,
        dead: bool,
        /// The next sequence number the reader consumes.
        consumed: u32,
    }

    impl ReadyModel {
        fn ready(&self, r: u32) -> bool {
            r == 0
                || self.dead
                || ((self.known_sync >= r || self.known_fin)
                    && (0..self.rounds.len() as u32)
                        .all(|s| self.rounds[s as usize] >= r || self.arrived.contains(&s)))
        }

        fn due(&self, r: u32) -> Option<u32> {
            let s = self.consumed;
            (self.rounds.get(s as usize) == Some(&(r.wrapping_sub(1))) && self.arrived.contains(&s))
                .then_some(s)
        }

        fn drained(&self) -> bool {
            self.known_fin && (0..self.rounds.len() as u32).all(|s| self.arrived.contains(&s))
        }
    }

    #[derive(Clone, Debug)]
    enum LinkOp {
        /// The peer runs its next inner round, sending the reader a bundle
        /// or not, and maybe finishing. It runs at most one inner round
        /// ahead of the reader, as the synchronizer keeps it.
        PeerRound { bundle: bool, fin: bool },
        /// The peer writes its word; a lost one never arrives.
        Word { lost: bool },
        /// A bundle arrives: the oldest one missing, offset by `pick − 2`
        /// — so also duplicates of arrived ones and later ones out of
        /// order.
        Deliver { pick: u32 },
        /// The reader runs its next inner round if the link lets it.
        Take,
        /// The link is declared dead.
        Kill,
    }

    fn arb_link_op() -> impl Strategy<Value = LinkOp> {
        (0u32..100, any::<bool>(), 0u32..10, 0u32..6).prop_map(
            |(kind, flag, roll, pick)| match kind {
                0..=24 => LinkOp::PeerRound { bundle: flag, fin: roll == 0 },
                25..=54 => LinkOp::Word { lost: roll < 3 },
                55..=74 => LinkOp::Deliver { pick },
                75..=97 => LinkOp::Take,
                _ => LinkOp::Kill,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// A peer's inner rounds, its words (lost ones included), bundle
        /// arrivals (late, duplicated, out of order) and a link dying
        /// mid-sequence drive the reader's `Link` and the model side by
        /// side: readiness, the bundle each inner round consumes and
        /// whether the peer is drained agree at every step. The peer's
        /// side is a `Link` too, so its words and bundles are the ones
        /// the layer builds, and words cross the packed wire format.
        #[test]
        fn link_readiness_matches_the_model(ops in proptest::collection::vec(arb_link_op(), 1..200)) {
            let mut peer: Link<u32> = Link::new(VertexId(0));
            let mut reader: Link<u32> = Link::new(VertexId(1));
            let mut model = ReadyModel::default();
            let (mut peer_sync, mut peer_fin, mut r) = (0u32, false, 0u32);
            let mut bundles: Vec<ArqMsg<u32>> = Vec::new();
            let mut metrics = MetricsHandle::none();
            for (e, op) in ops.into_iter().enumerate() {
                let e = e as u64;
                let open = reader.state == LinkState::Open;
                match op {
                    LinkOp::PeerRound { bundle, fin } => {
                        if !peer_fin && peer_sync <= r {
                            if bundle {
                                let mut out = Vec::new();
                                let seq = peer.sent;
                                peer.push(peer_sync, std::iter::once(seq).collect(), e, &mut out);
                                bundles.extend(out.into_iter().map(|(_, m)| m));
                                model.rounds.push(peer_sync);
                            }
                            peer_sync += 1;
                            peer_fin = fin;
                        }
                    }
                    LinkOp::Word { lost } => {
                        if peer_sync > 0 && !lost && open {
                            let w = peer.word(u64::from(peer_sync), peer_fin).pack();
                            let w = Word::unpack(w, reader.recv.ceil, reader.acked());
                            reader.hear(w, e, &mut metrics);
                            model.known_sync = model.known_sync.max(w.sync);
                            model.known_fin |= w.fin;
                        }
                    }
                    LinkOp::Deliver { pick } => {
                        let missing = (0..).find(|s| !model.arrived.contains(s)).unwrap_or(0);
                        let seq = (missing + pick).saturating_sub(2);
                        if let Some(b) = bundles.get(seq as usize).filter(|_| open) {
                            let redundant = reader.absorb(b);
                            prop_assert_eq!(redundant, !model.arrived.insert(seq));
                            model.known_sync = model.known_sync.max(b.round + 1);
                        }
                    }
                    LinkOp::Take => {
                        let ready = reader.ready_for(u64::from(r));
                        prop_assert_eq!(ready, model.ready(r), "inner round {}", r);
                        if ready {
                            let due = reader.due(u64::from(r)).map(|m| m[0]);
                            prop_assert_eq!(due, model.due(r), "inner round {}", r);
                            if due.is_some() {
                                reader.recv.take();
                                model.consumed += 1;
                            }
                            r += 1;
                        }
                    }
                    LinkOp::Kill => {
                        reader.state = LinkState::Dead;
                        model.dead = true;
                    }
                }
                prop_assert_eq!(reader.drained(), model.drained());
            }
        }
    }

    /// Steps two wrapped nodes joined by one link by hand, as the engine
    /// would — a frame or word written at engine round `e` is read at
    /// `e + 1`, and nothing reaches a parked node — except that `lost`
    /// picks which words (by round and writer) are lost; frames always
    /// arrive. Returns the engine round each node parked at.
    fn two_nodes<P: Protocol>(
        mut nodes: [ReliableNode<P>; 2],
        lost: impl Fn(u64, usize) -> bool,
    ) -> ([ReliableNode<P>; 2], [Option<u64>; 2]) {
        use rand::SeedableRng;
        let ids = [VertexId(0), VertexId(1)];
        let mut rngs = [SmallRng::seed_from_u64(0), SmallRng::seed_from_u64(1)];
        let slots = [[AtomicU64::new(0)], [AtomicU64::new(0)]];
        let mut inboxes: [Vec<Envelope<ArqMsg<P::Msg>>>; 2] = [Vec::new(), Vec::new()];
        let mut parked = [None; 2];
        for e in 0..200 {
            let mut sent: [(Vec<_>, Vec<_>); 2] = Default::default();
            for i in 0..2 {
                if parked[i].is_some() {
                    continue;
                }
                let (outbox, words) = &mut sent[i];
                let mut ctx = RoundCtx {
                    node: ids[i],
                    round: e,
                    neighbors: &ids[1 - i..2 - i],
                    inbox: &inboxes[i],
                    outbox,
                    ports: &mut Vec::new(),
                    rng: &mut rngs[i],
                    trace: TraceHandle::none(),
                    metrics: MetricsHandle::none(),
                    control_in: &slots[i],
                    control_out: words,
                };
                if nodes[i].on_round(&mut ctx) == NodeStatus::Done {
                    parked[i] = Some(e);
                }
            }
            for (i, (outbox, words)) in sent.into_iter().enumerate() {
                let j = 1 - i;
                slots[j][0].store(0, Relaxed);
                inboxes[j].clear();
                if parked[j].is_some() {
                    continue;
                }
                inboxes[j].extend(outbox.into_iter().map(|(_, m)| Envelope::new(ids[i], m)));
                for (_, w) in words.into_iter().filter(|_| !lost(e, i)) {
                    slots[j][0].store(w.get(), Relaxed);
                }
            }
            if parked.iter().all(Option::is_some) {
                break;
            }
        }
        (nodes, parked)
    }

    #[test]
    fn finished_peers_part_even_when_words_on_both_sides_are_lost() {
        // Both nodes run inner rounds 0–3 (broadcasting in 0–2) and finish
        // at engine round 3. Fault-free, each reads the other's fin at 4,
        // answers that it saw it, and parks at 5.
        let wrap = |id: u32| {
            let neighbors = [VertexId(1 - id)];
            ReliableNode::factory(|_: NodeSeed<'_>| Chatter { rounds_left: 3, heard: 0 })(
                NodeSeed { node: VertexId(id), neighbors: &neighbors },
            )
        };
        let (_, parked) = two_nodes([wrap(0), wrap(1)], |_, _| false);
        assert_eq!(parked, [Some(5), Some(5)]);
        // Every pattern of up to three lost words among the eight written
        // in engine rounds 3–6 — among them node 0's fin word, its answer
        // to node 1's fin and node 1's next word, after which node 0 used
        // to park at once and leave node 1 waiting out the death timeout.
        // Losing a node's fin twice and its peer's words twice in a row
        // is what it takes to part early now.
        for mask in 0u32..256 {
            if mask.count_ones() > 3 {
                continue;
            }
            let lost = |e: u64, from: usize| {
                (3..7).contains(&e) && mask >> ((e - 3) * 2 + from as u64) & 1 == 1
            };
            let (nodes, parked) = two_nodes([wrap(0), wrap(1)], lost);
            for (i, node) in nodes.iter().enumerate() {
                assert_eq!(node.inner_rounds(), 4, "mask {mask:#b}, node {i}");
                assert_eq!(node.links[0].state, LinkState::Open, "mask {mask:#b}, node {i}");
                let at = parked[i].expect("both nodes park");
                assert!(at <= 10, "mask {mask:#b}: node {i} parked at round {at}");
            }
        }
    }

    #[test]
    fn words_round_trip_and_counts_widen_across_the_wrap() {
        let w =
            Word { sync: 77, sent: 70_000, last: true, ack: 65_535, fin: true, seen_fin: false };
        // The reader's own counts sit a few bundles off the true ones.
        assert_eq!(Word::unpack(w.pack(), 69_998, 65_537), w);
        let w = Word { sync: 1, ..Word::default() };
        assert_eq!(Word::unpack(w.pack(), 3, 0), w);
        assert_eq!(widen(2, 65_534), 65_538);
        assert_eq!(widen(65_534, 65_538), 65_534);
        assert_eq!(widen(5, 5), 5);
    }
}
