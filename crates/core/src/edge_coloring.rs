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

use crate::automata::{choose_role, pick_index, pick_uniform, pick_uniform_iter, Phase, Role};
use crate::churn::{batch_reports, ChurnColoringResult};
use crate::config::{ColorPolicy, ColoringConfig};
use crate::error::CoreError;
use crate::kempe::{self, reduce_automata, KempeReport, PortCensus};
use crate::palette::{Color, ColorSet, PortColorSets};
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

/// What the invitor proposed this computation round.
#[derive(Copy, Clone, Debug)]
struct Proposal {
    /// Port (index into `neighbors`) of the invited neighbor.
    port: usize,
    color: Color,
}

/// Per-vertex automata state for Algorithm 1.
#[derive(Debug)]
pub struct EdgeColoringNode {
    /// Sorted neighbor ids.
    neighbors: Vec<VertexId>,
    /// Color committed toward each neighbor, if any.
    edge_color: Vec<Option<Color>>,
    /// Ports of still-uncolored edges.
    uncolored: Vec<u32>,
    /// Colors this node has used (`used_u`).
    used_self: ColorSet,
    /// Colors each neighbor is known to have used (`used_v` learned via
    /// the `E` exchange; the paper's `dead` bookkeeping), one row per
    /// port.
    used_nbr: PortColorSets,
    /// Role this computation round.
    role: Role,
    proposal: Option<Proposal>,
    /// Color newly committed this computation round (for the exchange
    /// broadcast).
    newly_used: Option<Color>,
    invite_probability: f64,
    color_policy: ColorPolicy,
    /// `2Δ−1`, the worst-case palette (only the RandomLegal ablation
    /// samples from it; the default rule discovers its own bound).
    palette_bound: u32,
    /// Neighbors gained through churn that still owe a [`EcMsg::Hello`]
    /// greeting (flushed at the top of the next round this node runs).
    pending_hello: Vec<VertexId>,
    /// Colors released by churn's palette pruning, awaiting a telemetry
    /// [`PaletteAction::Released`] event ([`Protocol::on_topology_change`]
    /// has no tracing context, so they are flushed at the top of the next
    /// round this node runs; drained unconditionally so the buffer never
    /// grows when tracing is off).
    pending_released: Vec<(Color, VertexId)>,
    /// Automata state after the last round; churn reads it to wake a
    /// parked (`D`) node.
    state: &'static str,
}

impl EdgeColoringNode {
    pub(crate) fn new(seed: &NodeSeed<'_>, cfg: &ColoringConfig, palette_bound: u32) -> Self {
        let degree = seed.neighbors.len();
        EdgeColoringNode {
            neighbors: seed.neighbors.to_vec(),
            edge_color: vec![None; degree],
            uncolored: (0..degree as u32).collect(),
            // Presized to the 2Δ−1 bound: the hot paths never reallocate.
            used_self: ColorSet::with_capacity(palette_bound as usize),
            used_nbr: PortColorSets::new(degree),
            role: Role::Listener,
            proposal: None,
            newly_used: None,
            invite_probability: cfg.invite_probability,
            color_policy: cfg.color_policy,
            palette_bound,
            pending_hello: Vec::new(),
            pending_released: Vec::new(),
            state: "C",
        }
    }

    fn port_of(&self, v: VertexId) -> Option<usize> {
        self.neighbors.binary_search(&v).ok()
    }

    /// The color this node has committed on its edge toward `v`, if any
    /// — the query side of the long-running service.
    pub(crate) fn color_toward(&self, v: VertexId) -> Option<Color> {
        self.port_of(v).and_then(|p| self.edge_color[p])
    }

    /// Every color committed on this node's surviving edges, ascending.
    pub(crate) fn palette(&self) -> Vec<Color> {
        let set: ColorSet = self.edge_color.iter().flatten().copied().collect();
        set.iter().collect()
    }

    /// Pick the color to propose for the edge toward `port`
    /// (line 1.11: lowest available; or the RandomLegal ablation).
    fn propose_color(&self, port: usize, rng: &mut SmallRng) -> Color {
        match self.color_policy {
            ColorPolicy::LowestIndex => self.used_nbr.first_absent_in_union(&self.used_self, port),
            ColorPolicy::RandomLegal => {
                // A legal color within the worst-case palette always
                // exists: |used_self| + |used_nbr| <= 2Δ−2 < 2Δ−1.
                let legal = self
                    .used_self
                    .absent_below(self.palette_bound)
                    .filter(|&c| !self.used_nbr.contains(port, c));
                pick_uniform_iter(rng, legal)
                    .unwrap_or_else(|| self.used_nbr.first_absent_in_union(&self.used_self, port))
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
        if self.neighbors == nbrs {
            self.edge_color.iter().filter(|c| c.is_some()).count()
        } else {
            nbrs.iter().filter(|&&v| self.color_toward(v).is_some()).count()
        }
    }

    /// [`EdgeColoringNode::color_toward`] for a caller that expects `v`
    /// at `port`: one read when it is there, a search when it is not.
    pub(crate) fn color_at(&self, port: usize, v: VertexId) -> Option<Color> {
        match self.neighbors.get(port) {
            Some(&w) if w == v => self.edge_color[port],
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
        self.state = "D";
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
        debug_assert_eq!(own.len(), self.neighbors.len());
        self.edge_color.copy_from_slice(own);
        self.uncolored = self.uncolored_ports();
        let mut used = ColorSet::with_capacity(self.palette_bound as usize);
        for c in self.edge_color.iter().flatten() {
            used.insert(*c);
        }
        self.used_self = used;
    }

    /// The ports whose edge carries no color yet.
    fn uncolored_ports(&self) -> Vec<u32> {
        (0..self.neighbors.len() as u32)
            .filter(|&p| self.edge_color[p as usize].is_none())
            .collect()
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
                (self.edge_color[port].is_none() && !self.used_self.contains(color))
                    .then_some((env.from, port, color))
            }
            _ => None,
        })
    }

    /// Commit `color` on the edge toward `port`.
    fn commit(&mut self, port: usize, color: Color) {
        debug_assert!(self.edge_color[port].is_none(), "edge colored twice");
        self.edge_color[port] = Some(color);
        self.uncolored.retain(|&p| p as usize != port);
        self.used_self.insert(color);
        self.newly_used = Some(color);
    }
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
                EcMsg::Used { color } => {
                    self.used_nbr.insert(p, *color);
                }
                EcMsg::Hello { used } => {
                    for &c in used.iter() {
                        self.used_nbr.insert(p, c);
                    }
                }
                _ => {}
            }
        }
        // Greet neighbors gained through churn (re-checking that they
        // were not lost again by a later batch before this node ran).
        for w in std::mem::take(&mut self.pending_hello) {
            if self.port_of(w).is_some() {
                ctx.send(w, EcMsg::Hello { used: Shared::new(self.used_self.iter().collect()) });
            }
        }
        for (color, peer) in std::mem::take(&mut self.pending_released) {
            ctx.trace_palette(PaletteAction::Released, color.0, peer);
        }
        match Phase::of_round(ctx.round()) {
            Phase::InviteStep => {
                self.proposal = None;
                self.newly_used = None;
                if self.uncolored.is_empty() {
                    // Reached by isolated vertices in round 0 and by nodes
                    // whose last uncolored ports were removed by churn. No
                    // neighbor reads this node's colors any more.
                    self.state = "D";
                    ctx.trace_state("D", "all-colored");
                    return NodeStatus::Done;
                }
                self.role = choose_role(ctx.rng(), self.invite_probability);
                self.state = if self.role == Role::Invitor { "I" } else { "L" };
                ctx.trace_state(self.state, "coin");
                if self.role == Role::Invitor {
                    // The uncolored list is non-empty here today, but
                    // degrade to listening rather than panic if a future
                    // edit breaks that invariant.
                    let Some(port) = pick_uniform(ctx.rng(), &self.uncolored).map(|&p| p as usize)
                    else {
                        self.role = Role::Listener;
                        self.state = "L";
                        ctx.trace_state("L", "no-edge");
                        return NodeStatus::Active;
                    };
                    let color = self.propose_color(port, ctx.rng());
                    self.proposal = Some(Proposal { port, color });
                    ctx.trace_palette(PaletteAction::Proposed, color.0, self.neighbors[port]);
                    ctx.send(self.neighbors[port], EcMsg::Invite { color });
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
                self.state = if self.role == Role::Invitor { "W" } else { "R" };
                ctx.trace_state(self.state, "await");
                NodeStatus::Active
            }
            Phase::ExchangeStep => {
                // W state: the invitor looks for the echo of its own
                // invitation (reversed ids, same color).
                if self.role == Role::Invitor {
                    if let Some(Proposal { port, color }) = self.proposal {
                        let partner = self.neighbors[port];
                        let accepted = ctx.inbox().iter().any(|env| {
                            env.from == partner
                                && matches!(*env.msg(), EcMsg::Accept { color: c } if c == color)
                        });
                        if accepted {
                            self.commit(port, color);
                            ctx.trace_palette(PaletteAction::Committed, color.0, partner);
                        }
                    }
                }
                // E state: announce the newly used color, if any, to the
                // neighbors that will read it.
                if let Some(color) = self.newly_used.take() {
                    ctx.multicast(&self.uncolored, EcMsg::Used { color });
                }
                if self.uncolored.is_empty() {
                    self.state = "D";
                    ctx.trace_state("D", "all-colored");
                    NodeStatus::Done
                } else {
                    self.state = "E";
                    ctx.trace_state("E", "exchange");
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
            if self.edge_color[p].is_none() {
                self.uncolored.retain(|&q| q as usize != p);
            }
        }
    }

    fn on_topology_change(
        &mut self,
        seed: NodeSeed<'_>,
        change: &NeighborhoodChange,
    ) -> NodeStatus {
        let was_parked = self.state == "D";
        let new_neighbors = seed.neighbors.to_vec();
        // Colors on removed edges leave the palette below ("pruning");
        // queue the telemetry release events now, while the old port map
        // still resolves the departed neighbors.
        for &w in &change.removed {
            if let Some(op) = self.port_of(w) {
                if let Some(c) = self.edge_color[op] {
                    self.pending_released.push((c, w));
                }
            }
        }
        // Remap per-port state onto the new neighbor list: surviving
        // ports keep their color and accumulated neighbor knowledge, new
        // ports start blank.
        let old_port: Vec<Option<usize>> = new_neighbors.iter().map(|&w| self.port_of(w)).collect();
        let edge_color = old_port.iter().map(|op| op.and_then(|op| self.edge_color[op])).collect();
        let used_nbr = self.used_nbr.remap(old_port.into_iter());
        // A pending proposal follows its neighbor to the new port index.
        // Dropping a still-valid one would desync a mid-handshake pair —
        // the listener may already have committed — so it dies only with
        // its edge.
        self.proposal = self.proposal.and_then(|p| {
            let w = self.neighbors[p.port];
            new_neighbors.binary_search(&w).ok().map(|np| Proposal { port: np, color: p.color })
        });
        self.neighbors = new_neighbors;
        self.edge_color = edge_color;
        self.used_nbr = used_nbr;
        self.uncolored = self.uncolored_ports();
        // Palette pruning: recompute the used set from the surviving
        // edges only, releasing the colors of removed edges for reuse. A
        // commit pending its exchange sits in `edge_color` already, so it
        // is retained iff its edge survived.
        self.used_self = self.edge_color.iter().flatten().copied().collect();
        // Churn can raise the local degree past the original Δ; keep the
        // RandomLegal ablation's palette wide enough to stay legal.
        self.palette_bound =
            self.palette_bound.max((2 * self.neighbors.len()).saturating_sub(1).max(1) as u32);
        self.pending_hello.extend(change.added.iter().copied());
        if was_parked {
            // A re-entering node resumes from a clean C state.
            self.role = Role::Listener;
            self.proposal = None;
        }
        if !self.uncolored.is_empty() {
            self.state = "C";
            NodeStatus::Active
        } else if self.newly_used.is_some() || !self.pending_hello.is_empty() {
            // Nothing left to color, but a commit is mid-exchange (or a
            // greeting is queued): stay up to finish the computation
            // round, then park.
            NodeStatus::Active
        } else {
            self.state = "D";
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
    let palette_bytes = run
        .outcome
        .nodes
        .iter()
        .map(|n| (n.used_self.heap_bytes() + n.used_nbr.heap_bytes()) as u64)
        .sum();
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
        let cu = nu.port_of(v).and_then(|p| nu.edge_color[p]);
        let cv = nv.port_of(u).and_then(|p| nv.edge_color[p]);
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
