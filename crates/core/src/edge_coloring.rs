//! **Algorithm 1 (DiMaEC)** — distributed matching-based edge coloring.
//!
//! A faithful implementation of the paper's Algorithm 1. Per computation
//! round (three communication rounds):
//!
//! * **invite** — each active node first ingests the `Used` exchanges
//!   broadcast at the end of the previous round (updating its per-neighbor
//!   used-color knowledge, the paper's `dead`/`used_v` lists), then tosses
//!   the `C`-state coin. An invitor picks a *random uncolored incident
//!   edge* `(u, v)` and proposes the *lowest* color used by neither `u`
//!   nor (to `u`'s knowledge) `v` (line 1.11), and sends the invitation
//!   to `v`.
//! * **respond** — a listener keeps the invitations addressed to it and
//!   accepts one *uniformly at random* (line 1.21), echoing it back to
//!   the invitor and committing the color on its side.
//! * **exchange** — the invitor commits on receipt of the echo; both
//!   sides announce the newly used color (`E` state). A node whose every
//!   incident edge is colored makes its final exchange and enters `D`.
//!
//! ## Who hears the exchange
//!
//! The paper's `E` state broadcasts the color, and the run counts it as
//! one message. A neighbor reads its knowledge of the sender, though,
//! only to propose over their shared edge (`propose_color`, line 1.11),
//! so only while that edge is uncolored. The exchange is therefore a
//! multicast to the sender's uncolored ports: the neighbors across a
//! colored edge, done nodes among them, would receive it only to store a
//! row nobody reads again. Both ends of an edge agree on its color under
//! reliable delivery (Proposition 2), so every neighbor that still reads
//! the row gets the update.
//!
//! ## Why no re-validation is needed at accept time (Prop. 2)
//!
//! A listener accepts at most one invitation per computation round and
//! cannot simultaneously be an invitor, so its used set grows by at most
//! the accepted color per round; the invitor's knowledge of it — refreshed
//! by the previous exchange — is therefore *exact* at proposal time, and
//! the proposed color is legal for both sides at commit time. The fault
//! injection tests show this breaks down exactly when the reliable-
//! delivery assumption is violated.
//!
//! ## Incremental repair under churn
//!
//! [`color_edges_churn`] runs the same automata under a
//! [`dima_sim::churn::ChurnSchedule`]: when a batch mutates the topology,
//! each affected node remaps its per-port state to the new neighbor list
//! in `Protocol::on_topology_change`, prunes its palette to exactly the
//! colors on its *surviving* edges, and re-enters `C` if any port became
//! uncolored — while untouched nodes stay parked in `D`. Two additions
//! keep repairs sound where Proposition 2's exact-knowledge argument no
//! longer applies (a brand-new link starts with no knowledge of the
//! peer):
//!
//! * a node greets each new neighbor with a [`EcMsg::Hello`] carrying its
//!   used colors, priming the peer's `used_v` knowledge, and
//! * a responder re-validates invitations against its own used set — a
//!   statically vacuous check that rejects proposals made before the
//!   hello landed.

use dima_graph::{Graph, VertexId};
use dima_sim::churn::{ChurnSchedule, NeighborhoodChange};
use dima_sim::telemetry::{NoopTracer, PaletteAction, Tracer};
use dima_sim::{
    Envelope, NodeSeed, NodeStatus, Protocol, RoundCtx, RunOutcome, RunStats, Shared, Topology,
};
use rand::rngs::SmallRng;

use crate::automata::{
    choose_role, pick_index, pick_uniform, pick_uniform_iter, Phase, Role, State,
};
use crate::churn::{batch_reports, ChurnColoringResult};
use crate::config::{ColorPolicy, ColoringConfig};
use crate::error::CoreError;
use crate::kempe::{self, reduce_automata, KempeReport, PortCensus};
use crate::palette::{Color, ColorSet};
use crate::runner::{run_protocol, EngineRun};

/// Messages of Algorithm 1.
///
/// `Invite` and `Accept` are *addressed*: each goes to its one receiver
/// ([`RoundCtx::send`]), which is the paper's semantics — a listener
/// "keeps invitations addressed to me" and every other neighbor's copy of
/// a broadcast would be read only to be thrown away. The receiver is the
/// envelope's addressee, so neither message carries it. `Used` is the
/// paper's broadcast, multicast to the sender's uncolored ports: only
/// those neighbors read their `used_v` knowledge of the sender again
/// (see the module docs). `Hello` greets one new neighbor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EcMsg {
    /// `I_u^v, c`: the sender proposes to color edge `(sender, receiver)`
    /// with `color`.
    Invite {
        /// Proposed color.
        color: Color,
    },
    /// `R_u^v, c`: the sender accepts the receiver's invitation (ids
    /// reversed, same color — "a duplicate of the invitation with the ids
    /// reversed").
    Accept {
        /// The agreed color.
        color: Color,
    },
    /// `E` state: the sender has newly used `color` on one of its edges.
    Used {
        /// The newly used color.
        color: Color,
    },
    /// Churn repair: the sender greets a brand-new neighbor with its full
    /// used-color set, priming the `used_v` knowledge that static runs
    /// accumulate through the `Used` exchange. Never sent without churn.
    Hello {
        /// Every color the sender has committed so far, ascending. Behind
        /// one pointer, so this rare message does not widen every other.
        used: Shared<Vec<Color>>,
    },
}

/// The port color of an uncolored edge, and the empty value of a node's
/// proposal port and newly used color.
const NONE: u32 = u32::MAX;

/// Colors per word of a node's color rows.
const WORD_BITS: u32 = u32::BITS;

/// Churn's deferred work for one node, behind one pointer so that a
/// static run pays eight bytes for it.
#[derive(Debug, Default)]
struct Pending {
    /// Neighbors gained through churn that still owe a [`EcMsg::Hello`]
    /// greeting (flushed at the top of the next round this node runs).
    hello: Vec<VertexId>,
    /// Colors released by churn's palette pruning, awaiting a telemetry
    /// [`PaletteAction::Released`] event ([`Protocol::on_topology_change`]
    /// has no tracing context, so they are flushed at the top of the next
    /// round this node runs; drained unconditionally so the buffer never
    /// grows when tracing is off).
    released: Vec<(Color, VertexId)>,
}

/// Per-vertex automata state for Algorithm 1.
///
/// Everything the node keeps per port lives in one heap block of `u32`
/// words, allocated once when the node is built. For degree `d` and
/// color rows `s` words wide it holds, in order:
///
/// | words | content |
/// |---|---|
/// | `d` | neighbor ids, sorted |
/// | `d` | the color committed toward each port, `u32::MAX` if none |
/// | `1` | `k`, the number of uncolored ports |
/// | `d` | the uncolored ports, of which the first `k` are live |
/// | `s` | the colors this node has used (`used_u`) |
/// | `d·s` | one row per port: the colors that neighbor is known to have used (`used_v`, learned via the `E` exchange; the paper's `dead` bookkeeping) |
///
/// Color rows are bitsets. They start one word wide (colors `0..32`);
/// a color past the stride re-lays the block at a wider one, keeping
/// every row's bits.
#[derive(Debug)]
pub struct EdgeColoringNode {
    block: Box<[u32]>,
    degree: u32,
    /// Words per color row; always at least 1.
    stride: u32,
    /// `2Δ−1`, the worst-case palette (only the RandomLegal ablation
    /// samples from it; the default rule discovers its own bound).
    palette_bound: u32,
    /// Port of the neighbor invited this computation round, [`NONE`] if
    /// this node sent no invitation.
    proposal_port: u32,
    /// The color proposed to it.
    proposal_color: u32,
    /// Color newly committed this computation round (for the exchange
    /// broadcast), [`NONE`] if none.
    newly_used: u32,
    invite_probability: f64,
    pending: Option<Box<Pending>>,
    /// Role this computation round.
    role: Role,
    color_policy: ColorPolicy,
    /// Automata state after the last round; churn reads it to wake a
    /// parked (`D`) node.
    state: State,
}

impl EdgeColoringNode {
    pub(crate) fn new(seed: &NodeSeed<'_>, cfg: &ColoringConfig, palette_bound: u32) -> Self {
        EdgeColoringNode {
            block: blank_block(seed.neighbors, 1),
            degree: seed.neighbors.len() as u32,
            stride: 1,
            palette_bound,
            proposal_port: NONE,
            proposal_color: NONE,
            newly_used: NONE,
            invite_probability: cfg.invite_probability,
            pending: None,
            role: Role::Listener,
            color_policy: cfg.color_policy,
            state: State::Choose,
        }
    }

    #[inline]
    fn degree(&self) -> usize {
        self.degree as usize
    }

    /// Sorted neighbor ids, as raw words.
    #[inline]
    fn neighbor_ids(&self) -> &[u32] {
        &self.block[..self.degree()]
    }

    #[inline]
    fn neighbor(&self, port: usize) -> VertexId {
        VertexId(self.block[port])
    }

    #[inline]
    fn port_of(&self, v: VertexId) -> Option<usize> {
        self.neighbor_ids().binary_search(&v.0).ok()
    }

    /// The color committed toward each port, [`NONE`] where none is.
    #[inline]
    fn port_colors(&self) -> &[u32] {
        let d = self.degree();
        &self.block[d..2 * d]
    }

    #[inline]
    fn color_of(&self, port: usize) -> Option<Color> {
        let c = self.port_colors()[port];
        (c != NONE).then_some(Color(c))
    }

    /// Ports of still-uncolored edges.
    #[inline]
    fn uncolored(&self) -> &[u32] {
        let d = self.degree();
        let k = self.block[2 * d] as usize;
        &self.block[2 * d + 1..2 * d + 1 + k]
    }

    /// Color row `r`: 0 is this node's used set, `1 + p` what it knows
    /// of port `p`'s.
    #[inline]
    fn row(&self, r: usize) -> &[u32] {
        let at = rows_at(self.degree()) + r * self.stride as usize;
        &self.block[at..at + self.stride as usize]
    }

    /// Add `c` to color row `r`, widening every row first if `c` is past
    /// the stride.
    fn insert(&mut self, r: usize, c: Color) {
        let w = c.0 / WORD_BITS;
        if w >= self.stride {
            self.widen(w + 1);
        }
        let at = rows_at(self.degree()) + r * self.stride as usize + w as usize;
        self.block[at] |= 1 << (c.0 % WORD_BITS);
    }

    /// Re-lay the block with color rows `stride` words wide, keeping
    /// every row's bits.
    fn widen(&mut self, stride: u32) {
        let (head, old, new) = (rows_at(self.degree()), self.stride as usize, stride as usize);
        let mut block = vec![0; head + (self.degree() + 1) * new];
        block[..head].copy_from_slice(&self.block[..head]);
        for (to, from) in
            block[head..].chunks_exact_mut(new).zip(self.block[head..].chunks_exact(old))
        {
            to[..old].copy_from_slice(from);
        }
        self.block = block.into_boxed_slice();
        self.stride = stride;
    }

    /// Rebuild the uncolored-port list and the used set from the port
    /// colors.
    fn settle_colors(&mut self) {
        let d = self.degree();
        let mut k = 0;
        for p in 0..d {
            if self.block[d + p] == NONE {
                self.block[2 * d + 1 + k] = p as u32;
                k += 1;
            }
        }
        self.block[2 * d] = k as u32;
        let at = rows_at(d);
        self.block[at..at + self.stride as usize].fill(0);
        for p in 0..d {
            let c = self.block[d + p];
            if c != NONE {
                self.insert(0, Color(c));
            }
        }
    }

    /// Drop `port` from the uncolored list, keeping the others' order.
    fn remove_uncolored(&mut self, port: usize) {
        let d = self.degree();
        let k = self.block[2 * d] as usize;
        let list = &mut self.block[2 * d + 1..2 * d + 1 + k];
        if let Some(i) = list.iter().position(|&p| p as usize == port) {
            list.copy_within(i + 1.., i);
            self.block[2 * d] -= 1;
        }
    }

    /// The color this node has committed on its edge toward `v`, if any
    /// — the query side of the long-running service.
    pub(crate) fn color_toward(&self, v: VertexId) -> Option<Color> {
        self.port_of(v).and_then(|p| self.color_of(p))
    }

    /// Every color committed on this node's surviving edges, ascending.
    pub(crate) fn palette(&self) -> Vec<Color> {
        let set: ColorSet =
            self.port_colors().iter().filter(|&&c| c != NONE).map(|&c| Color(c)).collect();
        set.iter().collect()
    }

    /// Heap bytes of this node's color rows: its used set and its
    /// knowledge of each neighbor's.
    fn palette_bytes(&self) -> usize {
        (self.degree() + 1) * self.stride as usize * std::mem::size_of::<u32>()
    }

    /// Pick the color to propose for the edge toward `port`
    /// (line 1.11: lowest available; or the RandomLegal ablation).
    fn propose_color(&self, port: usize, rng: &mut SmallRng) -> Color {
        let (own, known) = (self.row(0), self.row(1 + port));
        match self.color_policy {
            ColorPolicy::LowestIndex => first_absent_in_union(own, known),
            ColorPolicy::RandomLegal => {
                // A legal color within the worst-case palette always
                // exists: |used_u| + |used_v| <= 2Δ−2 < 2Δ−1.
                let legal = (0..self.palette_bound)
                    .filter(|&c| !row_has(own, c) && !row_has(known, c))
                    .map(Color);
                pick_uniform_iter(rng, legal).unwrap_or_else(|| first_absent_in_union(own, known))
            }
        }
    }

    /// Committed slots toward `nbrs`, a sorted neighbor list — the
    /// service watchdog's progress count, read per node without
    /// allocating. When `nbrs` is this node's own port list (every live
    /// node between batches) that is its colored ports; otherwise (a
    /// departed node keeps its ports while the topology lists none) each
    /// listed neighbor is looked up.
    pub(crate) fn colored_toward(&self, nbrs: &[VertexId]) -> usize {
        if self.neighbor_ids().iter().copied().eq(nbrs.iter().map(|v| v.0)) {
            self.port_colors().iter().filter(|&&c| c != NONE).count()
        } else {
            nbrs.iter().filter(|&&v| self.color_toward(v).is_some()).count()
        }
    }

    /// [`EdgeColoringNode::color_toward`] for a caller that expects `v`
    /// at `port`: one read when it is there, a search when it is not.
    pub(crate) fn color_at(&self, port: usize, v: VertexId) -> Option<Color> {
        match self.neighbor_ids().get(port) {
            Some(&w) if w == v.0 => self.color_of(port),
            _ => self.color_toward(v),
        }
    }

    /// This node's palette bound: the `2Δ−1` it was built with, raised
    /// by every degree churn gave it. Not a function of its row, so a
    /// checkpoint records it.
    pub(crate) fn palette_bound(&self) -> u32 {
        self.palette_bound
    }

    /// Rebuild a settled node from a checkpoint: this factory-fresh
    /// automaton takes `row` (its committed colors, port-aligned with its
    /// neighbor list), `palette_bound`, and the parked `D` state. Its
    /// knowledge rows stay blank, as after a compaction (see
    /// [`Self::adopt_compaction`]): at a settled point every port is
    /// colored, so no row of them is read again.
    pub(crate) fn resume_parked(&mut self, row: &[Option<Color>], palette_bound: u32) {
        self.palette_bound = palette_bound;
        self.adopt_compaction(row);
        self.state = State::Done;
    }

    /// Overwrite this node's committed colors with the outcome of an
    /// out-of-band palette compaction (serve mode runs the Kempe pass
    /// between repairs — see [`crate::kempe`]). Only sound while the
    /// node is parked: at quiescence no proposal or exchange is in
    /// flight. `own` is port-aligned with the (sorted) neighbor list.
    ///
    /// The per-port knowledge rows are left as they are. Only an
    /// uncolored port's row is ever read ([`Self::propose_color`]), a
    /// parked node has none, and churn keeps a surviving port's color; a
    /// port that turns up later starts blank and is primed by the new
    /// neighbor's [`EcMsg::Hello`], which carries its post-compaction
    /// palette.
    pub(crate) fn adopt_compaction(&mut self, own: &[Option<Color>]) {
        let d = self.degree();
        debug_assert_eq!(own.len(), d);
        for (slot, c) in self.block[d..2 * d].iter_mut().zip(own) {
            *slot = c.map_or(NONE, |c| c.0);
        }
        self.settle_colors();
    }

    /// The invitations in `inbox` this listener may accept, as
    /// `(invitor, port, color)`: over a still-uncolored edge, with a
    /// color it has not used. The port-uncolored guard is
    /// vacuous under reliable delivery (nobody invites over a colored
    /// edge) but keeps fault-injected desyncs from double-coloring. The
    /// used-self guard is likewise vacuous statically (Proposition 2) but
    /// rejects proposals made over a churn-fresh link before the hello
    /// landed.
    fn acceptable_invites<'a>(
        &'a self,
        inbox: &'a [Envelope<EcMsg>],
    ) -> impl Iterator<Item = (VertexId, usize, Color)> + 'a {
        inbox.iter().filter_map(move |env| match *env.msg() {
            EcMsg::Invite { color } => {
                let port = self.port_of(env.from)?;
                (self.color_of(port).is_none() && !row_has(self.row(0), color.0))
                    .then_some((env.from, port, color))
            }
            _ => None,
        })
    }

    /// Commit `color` on the edge toward `port`.
    fn commit(&mut self, port: usize, color: Color) {
        debug_assert!(self.color_of(port).is_none(), "edge colored twice");
        debug_assert_ne!(color.0, NONE, "a color past the representable range");
        let d = self.degree();
        self.block[d + port] = color.0;
        self.remove_uncolored(port);
        self.insert(0, color);
        self.newly_used = color.0;
    }

    /// Enter `state` and trace it with `reason`.
    fn enter(&mut self, state: State, ctx: &mut RoundCtx<'_, EcMsg>, reason: &'static str) {
        self.state = state;
        ctx.trace_state(state.label(), reason);
    }
}

/// Where the color rows start in a block for `degree` ports.
#[inline]
fn rows_at(degree: usize) -> usize {
    3 * degree + 1
}

/// A node's block for `neighbors` with color rows `stride` words wide:
/// every port uncolored, every row empty.
fn blank_block(neighbors: &[VertexId], stride: u32) -> Box<[u32]> {
    let d = neighbors.len();
    let mut block = vec![0; rows_at(d) + (d + 1) * stride as usize];
    for (slot, v) in block.iter_mut().zip(neighbors) {
        *slot = v.0;
    }
    block[d..2 * d].fill(NONE);
    block[2 * d] = d as u32;
    for (slot, p) in block[2 * d + 1..3 * d + 1].iter_mut().zip(0..) {
        *slot = p;
    }
    block.into_boxed_slice()
}

/// Membership of color `c` in a color row.
#[inline]
fn row_has(row: &[u32], c: u32) -> bool {
    let w = (c / WORD_BITS) as usize;
    w < row.len() && (row[w] >> (c % WORD_BITS)) & 1 == 1
}

/// The lowest color in neither of two color rows of one stride.
#[inline]
fn first_absent_in_union(a: &[u32], b: &[u32]) -> Color {
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        let used = x | y;
        if used != u32::MAX {
            return Color(i as u32 * WORD_BITS + used.trailing_ones());
        }
    }
    Color(a.len() as u32 * WORD_BITS)
}

/// The colors of a color row, ascending.
fn row_colors(row: &[u32]) -> impl Iterator<Item = Color> + '_ {
    row.iter().zip(0u32..).flat_map(|(&word, i)| {
        (0..WORD_BITS).filter(move |b| (word >> b) & 1 == 1).map(move |b| Color(i * WORD_BITS + b))
    })
}

impl Protocol for EdgeColoringNode {
    type Msg = EcMsg;

    fn kind_of(msg: &EcMsg) -> &'static str {
        match msg {
            EcMsg::Invite { .. } => "invite",
            EcMsg::Accept { .. } => "accept",
            EcMsg::Used { .. } => "used",
            EcMsg::Hello { .. } => "hello",
        }
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, EcMsg>) -> NodeStatus {
        // Repair prelude. Under churn, `Hello` greetings can land at
        // *any* phase, not just the invite step — ingest them and the
        // `Used` exchanges before the phase logic.
        // Static runs only ever see `Used` here and only at the invite
        // step, so the paper's schedule is unchanged.
        for env in ctx.inbox() {
            let Some(p) = self.port_of(env.from) else { continue };
            match env.msg() {
                EcMsg::Used { color } => self.insert(1 + p, *color),
                EcMsg::Hello { used } => {
                    for &c in used.iter() {
                        self.insert(1 + p, c);
                    }
                }
                _ => {}
            }
        }
        if let Some(pending) = self.pending.take() {
            // Greet neighbors gained through churn (re-checking that they
            // were not lost again by a later batch before this node ran).
            for w in pending.hello {
                if self.port_of(w).is_some() {
                    let used = Shared::new(row_colors(self.row(0)).collect());
                    ctx.send(w, EcMsg::Hello { used });
                }
            }
            for (color, peer) in pending.released {
                ctx.trace_palette(PaletteAction::Released, color.0, peer);
            }
        }
        match Phase::of_round(ctx.round()) {
            Phase::InviteStep => {
                self.proposal_port = NONE;
                self.newly_used = NONE;
                if self.uncolored().is_empty() {
                    // Reached by isolated vertices in round 0 and by nodes
                    // whose last uncolored ports were removed by churn. No
                    // neighbor reads this node's colors any more.
                    self.enter(State::Done, ctx, "all-colored");
                    return NodeStatus::Done;
                }
                self.role = choose_role(ctx.rng(), self.invite_probability);
                let state = if self.role == Role::Invitor { State::Invite } else { State::Listen };
                self.enter(state, ctx, "coin");
                if self.role == Role::Invitor {
                    // The uncolored list is non-empty here today, but
                    // degrade to listening rather than panic if a future
                    // edit breaks that invariant.
                    let Some(port) = pick_uniform(ctx.rng(), self.uncolored()).map(|&p| p as usize)
                    else {
                        self.role = Role::Listener;
                        self.enter(State::Listen, ctx, "no-edge");
                        return NodeStatus::Active;
                    };
                    let color = self.propose_color(port, ctx.rng());
                    (self.proposal_port, self.proposal_color) = (port as u32, color.0);
                    let to = self.neighbor(port);
                    ctx.trace_palette(PaletteAction::Proposed, color.0, to);
                    ctx.send(to, EcMsg::Invite { color });
                }
                NodeStatus::Active
            }
            Phase::RespondStep => {
                let mut accepted: Option<(VertexId, Color)> = None;
                if self.role == Role::Listener {
                    // Accept one kept invitation uniformly at random (L
                    // state): count, draw, then walk to the pick.
                    let kept = self.acceptable_invites(ctx.inbox()).count();
                    let pick = pick_index(ctx.rng(), kept)
                        .and_then(|i| self.acceptable_invites(ctx.inbox()).nth(i));
                    if let Some((partner, port, color)) = pick {
                        ctx.send(partner, EcMsg::Accept { color });
                        self.commit(port, color);
                        ctx.trace_palette(PaletteAction::Committed, color.0, partner);
                        accepted = Some((partner, color));
                    }
                }
                // Telemetry: every invitation received that did not end
                // in the commit above is a palette conflict (the invitor
                // retries next computation round).
                if ctx.trace_on() {
                    for i in 0..ctx.inbox().len() {
                        let env = &ctx.inbox()[i];
                        if let EcMsg::Invite { color } = *env.msg() {
                            let from = env.from;
                            if accepted != Some((from, color)) {
                                ctx.trace_palette(PaletteAction::Conflicted, color.0, from);
                            }
                        }
                    }
                }
                let state = if self.role == Role::Invitor { State::Wait } else { State::Respond };
                self.enter(state, ctx, "await");
                NodeStatus::Active
            }
            Phase::ExchangeStep => {
                // W state: the invitor looks for the echo of its own
                // invitation (reversed ids, same color).
                if self.role == Role::Invitor && self.proposal_port != NONE {
                    let (port, color) = (self.proposal_port as usize, Color(self.proposal_color));
                    let partner = self.neighbor(port);
                    let accepted = ctx.inbox().iter().any(|env| {
                        env.from == partner
                            && matches!(*env.msg(), EcMsg::Accept { color: c } if c == color)
                    });
                    if accepted {
                        self.commit(port, color);
                        ctx.trace_palette(PaletteAction::Committed, color.0, partner);
                    }
                }
                // E state: announce the newly used color, if any, to the
                // neighbors that will read it.
                if self.newly_used != NONE {
                    let color = Color(std::mem::replace(&mut self.newly_used, NONE));
                    ctx.multicast(self.uncolored(), EcMsg::Used { color });
                }
                if self.uncolored().is_empty() {
                    self.enter(State::Done, ctx, "all-colored");
                    NodeStatus::Done
                } else {
                    self.enter(State::Exchange, ctx, "exchange");
                    NodeStatus::Active
                }
            }
        }
    }

    fn on_link_down(&mut self, neighbor: VertexId) {
        // The edge toward the dead neighbor can never complete a
        // handshake: write it off so the node can finish coloring the
        // rest of its residual edges and terminate.
        if let Some(p) = self.port_of(neighbor) {
            if self.color_of(p).is_none() {
                self.remove_uncolored(p);
            }
        }
    }

    fn on_topology_change(
        &mut self,
        seed: NodeSeed<'_>,
        change: &NeighborhoodChange,
    ) -> NodeStatus {
        let was_parked = self.state == State::Done;
        // Colors on removed edges leave the palette below ("pruning");
        // queue the telemetry release events now, while the old port map
        // still resolves the departed neighbors.
        for &w in &change.removed {
            if let Some(c) = self.port_of(w).and_then(|op| self.color_of(op)) {
                self.pending.get_or_insert_default().released.push((c, w));
            }
        }
        // Remap per-port state onto the new neighbor list: surviving
        // ports keep their color and accumulated neighbor knowledge, new
        // ports start blank.
        let (d, s) = (seed.neighbors.len(), self.stride as usize);
        let mut block = blank_block(seed.neighbors, self.stride);
        for (np, &w) in seed.neighbors.iter().enumerate() {
            if let Some(op) = self.port_of(w) {
                block[d + np] = self.port_colors()[op];
                let at = rows_at(d) + (1 + np) * s;
                block[at..at + s].copy_from_slice(self.row(1 + op));
            }
        }
        // A pending proposal follows its neighbor to the new port index.
        // Dropping a still-valid one would desync a mid-handshake pair —
        // the listener may already have committed — so it dies only with
        // its edge.
        if self.proposal_port != NONE {
            let w = self.neighbor(self.proposal_port as usize);
            self.proposal_port = seed.neighbors.binary_search(&w).map_or(NONE, |np| np as u32);
        }
        self.block = block;
        self.degree = d as u32;
        // Palette pruning: recompute the used set from the surviving
        // edges only, releasing the colors of removed edges for reuse. A
        // commit pending its exchange sits in the port colors already, so
        // it is retained iff its edge survived.
        self.settle_colors();
        // Churn can raise the local degree past the original Δ; keep the
        // RandomLegal ablation's palette wide enough to stay legal.
        self.palette_bound = self.palette_bound.max((2 * d).saturating_sub(1).max(1) as u32);
        if !change.added.is_empty() {
            self.pending.get_or_insert_default().hello.extend(change.added.iter().copied());
        }
        if was_parked {
            // A re-entering node resumes from a clean C state.
            self.role = Role::Listener;
            self.proposal_port = NONE;
        }
        if !self.uncolored().is_empty() {
            self.state = State::Choose;
            NodeStatus::Active
        } else if self.newly_used != NONE
            || self.pending.as_ref().is_some_and(|p| !p.hello.is_empty())
        {
            // Nothing left to color, but a commit is mid-exchange (or a
            // greeting is queued): stay up to finish the computation
            // round, then park.
            NodeStatus::Active
        } else {
            self.state = State::Done;
            NodeStatus::Done
        }
    }
}

/// The outcome of an edge-coloring run.
#[derive(Clone, Debug)]
pub struct EdgeColoringResult {
    /// Color per edge (indexed by [`dima_graph::EdgeId`]), as committed by the lower
    /// endpoint. `None` only if the run was corrupted by fault injection.
    pub colors: Vec<Option<Color>>,
    /// Number of distinct colors used.
    pub colors_used: usize,
    /// Largest color index used, if any edge was colored.
    pub max_color: Option<Color>,
    /// Computation rounds until the last node finished.
    pub compute_rounds: u64,
    /// Communication rounds (3 per computation round).
    pub comm_rounds: u64,
    /// Maximum degree Δ of the input (what the paper plots against).
    pub max_degree: usize,
    /// `true` iff both endpoints committed the same color on every edge
    /// (always true under reliable delivery — Proposition 2). With crash
    /// faults, checked between surviving endpoints only.
    pub endpoint_agreement: bool,
    /// Simulator statistics (messages, deliveries, per-round breakdown).
    pub stats: RunStats,
    /// `alive[v]` iff node `v` was not crash-stopped by the fault plan.
    /// Verify residual colorings (crashed runs) with
    /// [`crate::verify::verify_residual_edge_coloring`].
    pub alive: Vec<bool>,
    /// Engine rounds spent by the reliable transport on retransmission
    /// and synchronization, on top of
    /// [`EdgeColoringResult::comm_rounds`] (0 under
    /// [`crate::Transport::Bare`]).
    pub transport_overhead_rounds: u64,
    /// What the Kempe-chain reduction pass did, when
    /// [`crate::ColorReduction::Kempe`] was configured and the coloring
    /// had endpoint agreement ([`EdgeColoringResult::colors_used`] and
    /// [`EdgeColoringResult::max_color`] reflect the reduced palette).
    pub reduction: Option<KempeReport>,
    /// Total heap bytes the nodes' palette bitsets held at the end of
    /// the run (own used set + per-neighbor knowledge). Divide by the
    /// vertex count for the bytes/node figure the run reports print.
    pub palette_bytes: u64,
}

/// Run Algorithm 1 on `g`.
///
/// Returns the coloring plus the round/message statistics the paper's
/// figures report. The coloring is *not* verified here — call
/// [`crate::verify::verify_edge_coloring`] (the experiment binaries and
/// tests always do).
pub fn color_edges(g: &Graph, cfg: &ColoringConfig) -> Result<EdgeColoringResult, CoreError> {
    color_edges_traced(g, cfg, &mut NoopTracer)
}

/// [`color_edges`] with the run's telemetry events fed to `tracer`
/// (state transitions, palette negotiation, per-kind message counters,
/// round footers — see [`dima_sim::telemetry`]). With [`NoopTracer`]
/// this *is* [`color_edges`]: every tracing branch folds away at
/// monomorphization.
pub fn color_edges_traced<T: Tracer + Sync>(
    g: &Graph,
    cfg: &ColoringConfig,
    tracer: &mut T,
) -> Result<EdgeColoringResult, CoreError> {
    run_algorithm1(g, &ChurnSchedule::empty(), cfg, tracer)
}

/// Run Algorithm 1 on `g0` under a churn schedule: the coloring is
/// repaired incrementally after each topology batch rather than restarted
/// (see the module docs). The result's coloring is assembled against the
/// schedule's **final** graph; verify it there.
///
/// A non-empty schedule needs the bare transport — the ARQ layer binds
/// sequence numbers to a static neighbor set. Message-loss and crash
/// faults compose freely. With [`ChurnSchedule::empty`] this is
/// [`color_edges`] plus a copy of `g0` as the final graph.
pub fn color_edges_churn(
    g0: &Graph,
    schedule: &ChurnSchedule,
    cfg: &ColoringConfig,
) -> Result<ChurnColoringResult, CoreError> {
    color_edges_churn_traced(g0, schedule, cfg, &mut NoopTracer)
}

/// [`color_edges_churn`] with telemetry fed to `tracer`. Beyond the
/// static-run events, churn runs emit [`Event::Churn`] headers per batch
/// and [`PaletteAction::Released`] for every color the repair pruned off
/// a removed edge.
///
/// [`Event::Churn`]: dima_sim::telemetry::Event::Churn
pub fn color_edges_churn_traced<T: Tracer + Sync>(
    g0: &Graph,
    schedule: &ChurnSchedule,
    cfg: &ColoringConfig,
    tracer: &mut T,
) -> Result<ChurnColoringResult, CoreError> {
    let coloring = run_algorithm1(g0, schedule, cfg, tracer)?;
    let batches = batch_reports(schedule, &coloring.stats);
    let final_graph = schedule.final_graph().unwrap_or(g0).clone();
    Ok(ChurnColoringResult { coloring, final_graph, batches })
}

/// The one Algorithm 1 run: `g0` under `schedule` (empty for a static
/// run), assembled and reduced against the schedule's final graph —
/// `g0` itself when nothing churned.
fn run_algorithm1<T: Tracer + Sync>(
    g0: &Graph,
    schedule: &ChurnSchedule,
    cfg: &ColoringConfig,
    tracer: &mut T,
) -> Result<EdgeColoringResult, CoreError> {
    cfg.validate()?;
    let g = schedule.final_graph().unwrap_or(g0);
    // Δ may grow mid-run: budget rounds and the ablation palette against
    // the largest degree the schedule ever produces.
    let delta = g0.max_degree().max(schedule.max_degree());
    let topo = Topology::from_graph(g0);
    // Round budget: the last batch gets a full static budget after it
    // fires; earlier repairs run inside the inter-batch gaps.
    let budget = 3 * cfg.compute_round_budget(delta);
    let max_rounds = schedule.last_round().map_or(budget, |lr| lr + budget);
    let palette_bound = (2 * delta).saturating_sub(1).max(1) as u32;
    let factory = |seed: NodeSeed<'_>| EdgeColoringNode::new(&seed, cfg, palette_bound);
    let mut run = run_protocol(&topo, cfg, max_rounds, schedule, factory, tracer)?;
    // Read before the reduction pass rebuilds any node's used set.
    let palette_bytes = run.outcome.nodes.iter().map(|n| n.palette_bytes() as u64).sum();
    let reduction = apply_reduction(&topo, schedule.final_graph(), cfg, &mut run.outcome, tracer)?;
    Ok(assemble_result(g, delta, run, reduction, palette_bytes))
}

/// Build the global result from per-node protocol states.
fn assemble_result(
    g: &Graph,
    delta: usize,
    run: EngineRun<EdgeColoringNode>,
    reduction: Option<KempeReport>,
    palette_bytes: u64,
) -> EdgeColoringResult {
    let RunOutcome { nodes, stats, crashed } = run.outcome;
    let transport_overhead_rounds = run.transport_overhead_rounds;
    // Assemble the global coloring from the endpoints' views. The
    // residual coloring of a crashed run reflects what the *survivors*
    // committed: a crashed endpoint's view is ignored (its partner may
    // never have learned of a commitment the crasher made on its way
    // down, so including it could fabricate conflicts).
    let mut colors: Vec<Option<Color>> = vec![None; g.num_edges()];
    let mut agreement = true;
    for (e, (u, v)) in g.edges() {
        let nu = &nodes[u.index()];
        let nv = &nodes[v.index()];
        let (cu, cv) = (nu.color_toward(v), nv.color_toward(u));
        colors[e.index()] = match (!crashed[u.index()], !crashed[v.index()]) {
            (true, true) => {
                agreement &= cu == cv;
                cu.or(cv)
            }
            (true, false) => cu,
            (false, true) => cv,
            (false, false) => None,
        };
    }

    let mut palette = ColorSet::new();
    for c in colors.iter().flatten() {
        palette.insert(*c);
    }
    let comm_rounds = stats.rounds - transport_overhead_rounds;
    EdgeColoringResult {
        colors_used: palette.len(),
        max_color: palette.max(),
        colors,
        compute_rounds: Phase::compute_rounds(comm_rounds),
        comm_rounds,
        max_degree: delta,
        endpoint_agreement: agreement,
        stats,
        alive: crashed.iter().map(|&c| !c).collect(),
        transport_overhead_rounds,
        reduction,
        palette_bytes,
    }
}

/// Run the configured palette-reduction pass over a finished run's
/// automata, adopting the reduced colors into the nodes it built. `topo`
/// is the topology the run started on; a churn run ends on its
/// schedule's `final_graph` instead. Skipped (`None`) without endpoint
/// agreement, see [`crate::kempe::reduce_automata`].
fn apply_reduction<T: Tracer + Sync>(
    topo: &Topology,
    final_graph: Option<&Graph>,
    cfg: &ColoringConfig,
    outcome: &mut RunOutcome<EdgeColoringNode>,
    tracer: &mut T,
) -> Result<Option<KempeReport>, CoreError> {
    let crate::config::ColorReduction::Kempe(kcfg) = cfg.reduction else {
        return Ok(None);
    };
    let churned = final_graph.map(Topology::from_graph);
    let topo = churned.as_ref().unwrap_or(topo);
    let (crashed, nodes) = (&outcome.crashed, &outcome.nodes);
    let alive = |v: VertexId| !crashed[v.index()];
    let threshold = Some(kempe::threshold(&kcfg, topo.max_degree()));
    let census = PortCensus::walk(topo, &alive, threshold, |u, v| nodes[u.index()].color_toward(v));
    let Some(pass) = reduce_automata(topo, nodes, &alive, &census, cfg, tracer)? else {
        return Ok(None);
    };
    for (v, row) in pass.built_rows() {
        outcome.nodes[v.index()].adopt_compaction(row);
    }
    // Fold the pass's registry into the run's under `kempe/`: the
    // reduction is part of the run's work, but its own engine's
    // `engine/` and `kind/` counters stay apart from Algorithm 1's, which
    // `RunStats` counts.
    if let Some(m) = pass.metrics {
        outcome.stats.metrics.get_or_insert_with(Default::default).merge_under(&m, "kempe/");
    }
    Ok(Some(pass.report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Engine, Transport};
    use crate::verify::verify_edge_coloring;
    use dima_graph::gen::{erdos_renyi_avg_degree, structured, watts_strogatz};
    use dima_sim::fault::FaultPlan;
    use dima_sim::telemetry::StateTimeline;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn assert_good_coloring(g: &Graph, r: &EdgeColoringResult) {
        assert!(r.endpoint_agreement);
        verify_edge_coloring(g, &r.colors).unwrap();
        let delta = g.max_degree();
        if delta > 0 {
            assert!(
                r.colors_used < 2 * delta,
                "{} colors > 2Δ−1 = {}",
                r.colors_used,
                2 * delta - 1
            );
        }
    }

    #[test]
    fn single_edge() {
        let g = structured::path(2);
        let r = color_edges(&g, &ColoringConfig::seeded(1)).unwrap();
        assert_eq!(r.colors, vec![Some(Color(0))]);
        assert_eq!(r.colors_used, 1);
        assert_good_coloring(&g, &r);
    }

    #[test]
    fn edgeless_graphs() {
        let g = Graph::empty(4);
        let r = color_edges(&g, &ColoringConfig::seeded(1)).unwrap();
        assert!(r.colors.is_empty());
        assert_eq!(r.colors_used, 0);
        assert_eq!(r.max_color, None);
        let g = Graph::empty(0);
        let r = color_edges(&g, &ColoringConfig::seeded(1)).unwrap();
        assert_eq!(r.comm_rounds, 0);
    }

    #[test]
    fn structured_families_color_correctly() {
        for (name, g) in [
            ("complete8", structured::complete(8)),
            // Δ = 39: colors past 32 widen every node's color rows mid-run.
            ("complete40", structured::complete(40)),
            ("cycle9", structured::cycle(9)),
            ("star12", structured::star(12)),
            ("grid", structured::grid(5, 5)),
            ("petersen", structured::petersen()),
            ("bipartite", structured::complete_bipartite(4, 6)),
            ("hypercube", structured::hypercube(4)),
            ("tree", structured::balanced_binary_tree(5)),
        ] {
            let r = color_edges(&g, &ColoringConfig::seeded(11)).unwrap();
            assert_good_coloring(&g, &r);
            assert!(r.colors.iter().all(Option::is_some), "{name}: incomplete");
        }
    }

    #[test]
    fn star_uses_exactly_delta_colors() {
        // Every edge shares the hub: χ' = Δ, and the lowest-index rule
        // must discover exactly that.
        let g = structured::star(9);
        let r = color_edges(&g, &ColoringConfig::seeded(3)).unwrap();
        assert_eq!(r.colors_used, 8);
        assert_good_coloring(&g, &r);
    }

    #[test]
    fn random_graphs_color_correctly() {
        let mut rng = SmallRng::seed_from_u64(17);
        for seed in 0..5 {
            let g = erdos_renyi_avg_degree(120, 8.0, &mut rng).unwrap();
            let r = color_edges(&g, &ColoringConfig::seeded(seed)).unwrap();
            assert_good_coloring(&g, &r);
        }
        let g = watts_strogatz(64, 8, 0.3, &mut rng).unwrap();
        let r = color_edges(&g, &ColoringConfig::seeded(23)).unwrap();
        assert_good_coloring(&g, &r);
    }

    #[test]
    fn typical_colors_near_delta_on_er() {
        // Conjecture 2: Δ or Δ+1 in the typical run (Δ+2 rare).
        let mut rng = SmallRng::seed_from_u64(5);
        let g = erdos_renyi_avg_degree(200, 8.0, &mut rng).unwrap();
        let r = color_edges(&g, &ColoringConfig::seeded(99)).unwrap();
        assert_good_coloring(&g, &r);
        assert!(
            r.colors_used <= g.max_degree() + 2,
            "colors {} vs Δ {}",
            r.colors_used,
            g.max_degree()
        );
    }

    #[test]
    fn rounds_scale_with_delta_not_n() {
        // The headline O(Δ) claim, coarse-grained: a big sparse cycle
        // terminates in few rounds despite having many more nodes than a
        // small dense clique.
        let sparse_big = structured::cycle(400); // Δ = 2
        let dense_small = structured::complete(24); // Δ = 23
        let r1 = color_edges(&sparse_big, &ColoringConfig::seeded(7)).unwrap();
        let r2 = color_edges(&dense_small, &ColoringConfig::seeded(7)).unwrap();
        assert!(
            r1.compute_rounds < r2.compute_rounds,
            "cycle {} rounds vs clique {}",
            r1.compute_rounds,
            r2.compute_rounds
        );
        assert!(r1.compute_rounds < 60, "Δ=2 should finish fast, took {}", r1.compute_rounds);
    }

    #[test]
    fn parallel_engine_bit_identical() {
        let g = structured::grid(8, 8);
        let cfg = ColoringConfig { collect_round_stats: true, ..ColoringConfig::seeded(31) };
        let seq = color_edges(&g, &cfg).unwrap();
        for threads in [2, 5] {
            let par = color_edges(
                &g,
                &ColoringConfig { engine: Engine::Parallel { threads }, ..cfg.clone() },
            )
            .unwrap();
            assert_eq!(seq.colors, par.colors, "threads={threads}");
            assert_eq!(seq.comm_rounds, par.comm_rounds);
            assert_eq!(seq.stats, par.stats);
        }
    }

    #[test]
    fn random_legal_policy_still_correct() {
        let g = structured::complete(10);
        let cfg =
            ColoringConfig { color_policy: ColorPolicy::RandomLegal, ..ColoringConfig::seeded(41) };
        let r = color_edges(&g, &cfg).unwrap();
        assert_good_coloring(&g, &r);
    }

    #[test]
    fn biased_coin_still_correct() {
        let g = structured::petersen();
        for p in [0.1, 0.3, 0.7, 0.9] {
            let cfg = ColoringConfig { invite_probability: p, ..ColoringConfig::seeded(47) };
            let r = color_edges(&g, &cfg).unwrap();
            assert_good_coloring(&g, &r);
        }
    }

    #[test]
    fn message_loss_can_break_agreement() {
        // Violating the model's reliable-delivery assumption must be
        // *detected* (agreement flag or verification), demonstrating that
        // Proposition 2 leans on the model. With heavy loss the run may
        // also fail to terminate — both are acceptable detections.
        let g = structured::complete(12);
        let mut saw_detection = false;
        for seed in 0..10 {
            let cfg = ColoringConfig {
                faults: FaultPlan::uniform(0.4),
                max_compute_rounds: Some(400),
                ..ColoringConfig::seeded(seed)
            };
            match color_edges(&g, &cfg) {
                Ok(r) => {
                    if !r.endpoint_agreement || verify_edge_coloring(&g, &r.colors).is_err() {
                        saw_detection = true;
                    }
                }
                Err(CoreError::Sim(_)) => saw_detection = true,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_detection, "40% loss should corrupt at least one of 10 runs");
    }

    #[test]
    fn reliable_transport_is_transparent_without_faults() {
        let g = structured::grid(6, 6);
        let bare = color_edges(&g, &ColoringConfig::seeded(61)).unwrap();
        let arq = color_edges(
            &g,
            &ColoringConfig { transport: Transport::reliable(), ..ColoringConfig::seeded(61) },
        )
        .unwrap();
        assert_eq!(bare.colors, arq.colors);
        assert_eq!(bare.comm_rounds, arq.comm_rounds);
        assert!(arq.transport_overhead_rounds <= 3, "{}", arq.transport_overhead_rounds);
        assert_good_coloring(&g, &arq);
    }

    #[test]
    fn reliable_transport_survives_loss_that_breaks_bare_runs() {
        // The same loss rate that corrupts bare runs (see
        // `message_loss_can_break_agreement`) is invisible through the
        // ARQ layer: the run produces the exact coloring of a fault-free
        // run, paying only transport rounds.
        let g = structured::complete(9);
        let bare = color_edges(&g, &ColoringConfig::seeded(53)).unwrap();
        let cfg = ColoringConfig {
            faults: FaultPlan::uniform(0.2),
            transport: Transport::reliable(),
            ..ColoringConfig::seeded(53)
        };
        let r = color_edges(&g, &cfg).unwrap();
        assert!(r.stats.dropped > 0, "the plan should actually drop messages");
        assert!(r.endpoint_agreement);
        assert_eq!(r.colors, bare.colors);
        assert!(r.transport_overhead_rounds > 0);
        assert_good_coloring(&g, &r);
    }

    #[test]
    fn crashes_leave_proper_residual_coloring() {
        let g = structured::complete(10);
        let cfg = ColoringConfig {
            faults: FaultPlan { crash_spread: 1, ..FaultPlan::crashing(0.3, 0) },
            transport: Transport::reliable(),
            ..ColoringConfig::seeded(67)
        };
        let r = color_edges(&g, &cfg).unwrap();
        assert!(r.alive.iter().any(|&a| !a), "the plan should crash someone");
        assert!(r.endpoint_agreement);
        crate::verify::verify_residual_edge_coloring(&g, &r.colors, &r.alive).unwrap();
    }

    #[test]
    fn census_tracks_automata_states() {
        let g = structured::grid(4, 4);
        let n = g.num_vertices();
        let mut timeline = StateTimeline::new(n);
        let r = color_edges_traced(&g, &ColoringConfig::seeded(5), &mut timeline).unwrap();
        assert_good_coloring(&g, &r);
        let census = timeline.rounds();
        assert_eq!(census.len() as u64, r.comm_rounds, "one snapshot per communication round");
        // Round 0 is the invite step: every node is I or L.
        assert_eq!(census[0].count("I") + census[0].count("L"), n as u32);
        // Round 1 is the respond step: every node is W or R.
        assert_eq!(census[1].count("W") + census[1].count("R"), n as u32);
        // Final round: everyone done.
        assert!(census.last().unwrap().count("D") > 0);
        // The census agrees with the plain runner on the result.
        let plain = color_edges(&g, &ColoringConfig::seeded(5)).unwrap();
        assert_eq!(plain.colors, r.colors);
    }

    #[test]
    fn addressed_handshakes_pin_algorithm1_traffic() {
        // Invitations and accepts go to their one receiver, and the `Used`
        // exchange to the sender's uncolored ports. The paper's cost
        // metric (messages sent) and the coloring do not move; deliveries
        // fall to the copies that are read. Broadcasting all three
        // delivered 50,725 copies here, broadcasting `Used` alone 22,950;
        // matching's broadcasts delivered 4,072.
        let mut rng = SmallRng::seed_from_u64(2012);
        let g = erdos_renyi_avg_degree(300, 8.0, &mut rng).unwrap();
        let r = color_edges(&g, &ColoringConfig::seeded(1)).unwrap();
        assert_good_coloring(&g, &r);
        assert_eq!((r.compute_rounds, r.colors_used), (38, 17));
        assert_eq!(r.stats.messages_sent, 6_579);
        assert_eq!(r.stats.deliveries, 13_854);
        let m = crate::matching::maximal_matching(&g, &ColoringConfig::seeded(1)).unwrap();
        assert_eq!(m.pairs.len(), 136);
        assert_eq!(m.stats.messages_sent, 705);
        assert_eq!(m.stats.deliveries, 2_033);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn mail_grid_entries_stay_small() {
        use dima_sim::mail_entry_bytes;
        // The engine's routing word is one `u32`, so a 4-byte-aligned
        // envelope pays 4 bytes for it, not 8.
        assert_eq!(mail_entry_bytes::<crate::matching::MatchMsg>(), 12);
        // 8-byte-aligned messages round up to the same size either way.
        // `EcMsg` is 16 bytes: `Hello`'s color list sits behind a thin
        // pointer (a `Vec` inline made it 32, and each entry 40).
        assert_eq!(std::mem::size_of::<EcMsg>(), 16);
        assert_eq!(mail_entry_bytes::<EcMsg>(), 32);
        assert_eq!(mail_entry_bytes::<crate::strong_coloring::StrongMsg>(), 72);
        assert_eq!(mail_entry_bytes::<crate::kempe::KMsg>(), 40);
        // An outbox entry's target is one word too: a multicast carries
        // an index into the sender's port arena, not its port list.
        assert_eq!(dima_sim::outbox_entry_bytes::<EcMsg>(), 24);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn node_struct_stays_small() {
        // Per-port state lives in the node's one heap block, the churn
        // buffers behind one pointer: the struct holds scalars beside them.
        assert!(std::mem::size_of::<EdgeColoringNode>() <= 64);
    }

    #[test]
    fn color_rows_widen_past_32_colors_keeping_their_bits() {
        let nbrs = [VertexId(1), VertexId(4), VertexId(9)];
        let seed = NodeSeed { node: VertexId(0), neighbors: &nbrs };
        let mut n = EdgeColoringNode::new(&seed, &ColoringConfig::seeded(1), 5);
        n.insert(1, Color(3));
        n.insert(3, Color(31));
        n.commit(1, Color(2));
        assert_eq!((n.stride, n.palette_bytes()), (1, 4 * 4));
        n.insert(2, Color(70));
        assert_eq!((n.stride, n.palette_bytes()), (3, 4 * 3 * 4));
        let rows: Vec<Vec<u32>> =
            (0..4).map(|r| row_colors(n.row(r)).map(|c| c.0).collect()).collect();
        assert_eq!(rows, [vec![2], vec![3], vec![70], vec![31]]);
        assert_eq!(n.uncolored(), &[0, 2]);
        assert_eq!(n.color_toward(VertexId(4)), Some(Color(2)));
        assert_eq!(n.color_at(0, VertexId(4)), Some(Color(2)), "a port miss falls back to search");
        assert_eq!(n.palette(), [Color(2)]);
        // Port 0 knows colors 3; this node uses 2: the lowest free is 0.
        assert_eq!(first_absent_in_union(n.row(0), n.row(1)), Color(0));
        let full = [u32::MAX, u32::MAX, 1];
        assert_eq!(first_absent_in_union(&full, &[0, 0, 2]), Color(66));
        assert_eq!(first_absent_in_union(&full[..2], &full[..2]), Color(64));
    }

    #[test]
    fn round_budget_error_carries_context() {
        let g = structured::complete(8);
        let cfg = ColoringConfig { max_compute_rounds: Some(1), ..ColoringConfig::seeded(1) };
        match color_edges(&g, &cfg) {
            Err(CoreError::Sim(dima_sim::SimError::MaxRoundsExceeded { max_rounds, .. })) => {
                assert_eq!(max_rounds, 3);
            }
            other => panic!("expected budget error, got {other:?}"),
        }
    }
}
