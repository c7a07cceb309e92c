//! **Algorithm 2 (DiMa2ED)** — distributed matching-based distance-2 edge
//! coloring of symmetric digraphs.
//!
//! The model for channel / time-slot assignment in ad-hoc radio networks:
//! each directed link needs a channel distinct from every transmission
//! whose sender lies in interference range of its receiver (the paper's
//! Definition 2). The automata skeleton is Algorithm 1's, with two
//! crucial additions from Procedures 2-a/b/c:
//!
//! * each node's *usable* palette excludes every color used within one
//!   hop — its own colors plus everything its neighbors have announced
//!   (`UpdateColors`), and
//! * a responder in the `R` state filters the invitations addressed to it
//!   against the colors proposed in **overheard** invitations addressed
//!   to others (Procedure 2-b, line 8): because the digraph is symmetric,
//!   every same-round Definition-2 conflict is overheard by at least one
//!   of the two responders involved — that is exactly the paper's
//!   Proposition 5, Case 2.
//!
//! One computation round colors at most one *out*-arc per invitor (and
//! the corresponding in-arc at the responder); a node is done when all
//! its out- **and** in-arcs are colored (paper line 2.28).

use dima_graph::{ArcId, Digraph, Graph, VertexId};
use dima_sim::churn::{ChurnSchedule, NeighborhoodChange};
use dima_sim::telemetry::{NoopTracer, PaletteAction, Tracer};
use dima_sim::{NodeSeed, NodeStatus, Protocol, RoundCtx, RunStats, Topology};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::automata::{choose_role, pick_uniform, Phase, Role};
use crate::churn::{batch_reports, ChurnStrongResult};
use crate::config::{ColorPolicy, ColoringConfig};
use crate::error::CoreError;
use crate::palette::{Color, ColorSet};
use crate::runner::{run_protocol_churn_traced, run_protocol_traced};

/// Messages of Algorithm 2. All broadcast — overhearing is what makes the
/// same-round conflict detection of Procedure 2-b work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StrongMsg {
    /// Procedure 2-a's `⟨φ, v, u⟩`: sender proposes candidate channels
    /// for the arc `sender → to`. The paper sends exactly one channel
    /// (`proposal_width = 1`, the default); wider proposals are the ABL3
    /// extension.
    Invite {
        /// Intended responder (head of the arc).
        to: VertexId,
        /// Proposed channels, lowest first.
        colors: Vec<Color>,
    },
    /// Procedure 2-b's reply: sender (the responder) echoes the chosen
    /// invitation back to invitor `to`.
    Accept {
        /// The invitor whose proposal is accepted.
        to: VertexId,
        /// The agreed channel.
        color: Color,
    },
    /// `UpdateColors`: the sender has newly used `color`; neighbors must
    /// remove it from their usable lists.
    Used {
        /// The newly used channel.
        color: Color,
    },
    /// Churn repair: the sender announces every channel committed on its
    /// incident arcs — the batched form of the `UpdateColors`
    /// announcements the receiver missed while the link did not exist
    /// (new neighbors) or while it was parked (stale wake-ups, which set
    /// `reply`). Split by direction because for adjacent nodes the
    /// Definition-2 conflicts between committed channels are exactly
    /// *my out vs your in* and *my in vs your out*. Never sent without
    /// churn.
    Hello {
        /// Channels on the sender's out-arcs (tail side), ascending.
        out_used: Vec<Color>,
        /// Channels on the sender's in-arcs (head side), ascending.
        in_used: Vec<Color>,
        /// Ask the receiver to greet back: set by a node waking from the
        /// parked state, whose one-hop color knowledge went stale while
        /// it was dropping mail.
        reply: bool,
    },
    /// Churn repair: the sender has released the listed channels on the
    /// arcs it shares with the receiver. A churn-fresh link can put
    /// channels *committed before the link existed* into a Definition-2
    /// conflict; the smaller-id endpoint of the new link resolves it by
    /// uncoloring its clashing arcs and telling each affected partner to
    /// uncolor the matching side, after which the normal handshake
    /// recolors them. Never sent without churn.
    Release {
        /// Channels released on the sender ↔ receiver arc pair.
        colors: Vec<Color>,
    },
}

#[derive(Clone, Debug)]
struct Proposal {
    port: usize,
    colors: Vec<Color>,
}

/// An active conflict watch on one churn-fresh neighbor (see
/// `StrongColoringNode::release_watch`).
#[derive(Clone, Debug)]
struct ReleaseWatch {
    /// The new neighbor being policed.
    peer: VertexId,
    /// Rounds of watching left; the entry dies at 0.
    rounds_left: u32,
    /// Every channel the peer has announced (Hello or `UpdateColors`)
    /// while watched — checked against this node's own commits, including
    /// commits that land *after* the announcement (an invitor never
    /// re-checks its proposal against fresh announcements).
    announced: ColorSet,
}

/// Per-vertex automata state for Algorithm 2.
#[derive(Debug)]
pub struct StrongColoringNode {
    me: VertexId,
    /// Sorted (underlying) neighbor ids.
    neighbors: Vec<VertexId>,
    /// Out-arc `me → neighbors[p]`.
    out_arcs: Vec<ArcId>,
    /// In-arc `neighbors[p] → me`.
    in_arcs: Vec<ArcId>,
    out_color: Vec<Option<Color>>,
    in_color: Vec<Option<Color>>,
    /// Ports with uncolored out-arcs (what this node can still invite
    /// for).
    uncolored_out: Vec<usize>,
    /// In-arcs still uncolored (counted for termination).
    uncolored_in: usize,
    /// Ports whose link was declared dead (peer presumed crashed); their
    /// arcs are written off for termination purposes.
    link_down: Vec<bool>,
    /// Colors unusable here: own used ∪ everything neighbors announced.
    forbidden: ColorSet,
    /// Per-port retry memory: colors this node proposed on the port while
    /// the partner was a *silent listener* — i.e. the partner provably
    /// received the invitation, was in the `L`/`R` states, and accepted
    /// nothing, which (Procedure 2-b) means the color was unusable at the
    /// partner or collided with an overheard proposal. One-hop knowledge
    /// cannot reveal *which* colors a two-hops-away node holds, so
    /// without this memory the lowest-available rule can re-propose the
    /// same doomed color forever (a genuine livelock of the paper's
    /// pseudocode as written; see `DESIGN.md`).
    tried: Vec<ColorSet>,
    role: Role,
    proposal: Option<Proposal>,
    /// Whether the current round partner was overheard inviting (set in
    /// the wait step; an inviting partner was not listening, so a missing
    /// reply says nothing about the proposed color).
    partner_was_inviting: bool,
    newly_used: Option<Color>,
    invite_probability: f64,
    color_policy: ColorPolicy,
    proposal_width: usize,
    /// Neighbors that still owe a [`StrongMsg::Hello`] greeting, with the
    /// reply-wanted flag (set when this node woke from the parked state
    /// and must refresh its knowledge of the peer's channels).
    pending_hello: Vec<(VertexId, bool)>,
    /// Rounds left in which this node must not *invite*: set on waking
    /// from the parked state, long enough for the refresh Hello round
    /// trip — proposals made from stale one-hop knowledge could commit a
    /// channel a neighbor took while this node was dropping mail.
    refresh: u32,
    /// Churn-fresh neighbors this node polices for Definition-2 clashes
    /// against its own committed channels (the smaller-id endpoint of
    /// each new link only). The watch covers the window in which the new
    /// neighbor can still announce channels chosen before it learned this
    /// node's — afterwards both sides' `forbidden` sets and the
    /// Proposition-5 overhearing argument make fresh clashes impossible.
    release_watch: Vec<ReleaseWatch>,
    /// Rounds a finished node stays up (as a silent listener) after a
    /// churn batch gave it new links: its `release_watch` entries only
    /// tick while it is stepped, and a watched peer's `UpdateColors` is
    /// not wake-class — parking early would blind the watch. Decremented
    /// at the park gates, 0 in static runs.
    vigil: u32,
    /// Automata state after the last round; churn reads it to wake a
    /// parked (`D`) node.
    state: &'static str,
}

/// Placeholder arc id for ports created by churn: the stored arc ids
/// index the *initial* digraph and only serve the static assembly path
/// ([`strong_color_digraph`]); churn runs assemble via ports against the
/// final digraph and never read them.
const NO_ARC: ArcId = ArcId(u32::MAX);

impl StrongColoringNode {
    pub(crate) fn new(seed: &NodeSeed<'_>, d: &Digraph, cfg: &ColoringConfig) -> Self {
        let me = seed.node;
        // Ports without an arc in `d` can only come from churn (a join
        // node attached to post-batch links): map them to the sentinel.
        let out_arcs: Vec<ArcId> =
            seed.neighbors.iter().map(|&w| d.arc_between(me, w).unwrap_or(NO_ARC)).collect();
        let in_arcs: Vec<ArcId> =
            seed.neighbors.iter().map(|&w| d.arc_between(w, me).unwrap_or(NO_ARC)).collect();
        let degree = seed.neighbors.len();
        StrongColoringNode {
            me,
            neighbors: seed.neighbors.to_vec(),
            out_arcs,
            in_arcs,
            out_color: vec![None; degree],
            in_color: vec![None; degree],
            uncolored_out: (0..degree).collect(),
            uncolored_in: degree,
            link_down: vec![false; degree],
            forbidden: ColorSet::new(),
            tried: vec![ColorSet::new(); degree],
            role: Role::Listener,
            proposal: None,
            partner_was_inviting: false,
            newly_used: None,
            invite_probability: cfg.invite_probability,
            color_policy: cfg.color_policy,
            proposal_width: cfg.proposal_width,
            pending_hello: Vec::new(),
            refresh: 0,
            release_watch: Vec::new(),
            vigil: 0,
            state: "C",
        }
    }

    fn port_of(&self, v: VertexId) -> Option<usize> {
        self.neighbors.binary_search(&v).ok()
    }

    /// Overwrite this node's committed channels after a history-
    /// compaction rebase (`ColoringService` folds the replay prefix into
    /// a materialized topology and rebuilds every node fresh, handing
    /// each one back the channels it had already converged to). Only
    /// sound while the node is parked: at quiescence no proposal or
    /// exchange is in flight. `out`/`inc` are port-aligned with the
    /// (sorted) neighbor list; `forbidden` must hold this node's own
    /// channels plus every channel committed in its one-hop
    /// neighborhood — exactly the exclusion set the automata would have
    /// accumulated through `Used`/`Hello` traffic on the way to this
    /// coloring, so future repairs propose from the same knowledge.
    pub(crate) fn adopt_rebase(
        &mut self,
        out: &[Option<Color>],
        inc: &[Option<Color>],
        forbidden: ColorSet,
    ) {
        debug_assert_eq!(out.len(), self.neighbors.len());
        debug_assert_eq!(inc.len(), self.neighbors.len());
        self.out_color.copy_from_slice(out);
        self.in_color.copy_from_slice(inc);
        self.uncolored_out = (0..out.len()).filter(|&p| out[p].is_none()).collect();
        self.uncolored_in = inc.iter().filter(|c| c.is_none()).count();
        self.forbidden = forbidden;
    }

    /// Channel committed on the out-arc `me → v`, if any — the query
    /// side of the long-running service.
    pub(crate) fn out_color_toward(&self, v: VertexId) -> Option<Color> {
        self.port_of(v).and_then(|p| self.out_color[p])
    }

    /// Every channel committed on this node's own arcs (both
    /// directions), ascending.
    pub(crate) fn palette(&self) -> Vec<Color> {
        let (out, inc) = self.own_used_split();
        let set: ColorSet = out.into_iter().chain(inc).collect();
        set.iter().collect()
    }

    fn is_finished(&self) -> bool {
        self.uncolored_out.is_empty() && self.uncolored_in == 0
    }

    /// Channels committed on this node's own arcs, split tail/head side —
    /// the payload of a [`StrongMsg::Hello`] greeting.
    fn own_used_split(&self) -> (Vec<Color>, Vec<Color>) {
        let out: ColorSet = self.out_color.iter().flatten().copied().collect();
        let inc: ColorSet = self.in_color.iter().flatten().copied().collect();
        (out.iter().collect(), inc.iter().collect())
    }

    /// Record channels a watched churn-fresh neighbor announced; `true`
    /// iff `v` is currently watched (the caller then clash-scans).
    fn note_announcement(&mut self, v: VertexId, colors: &[Color]) -> bool {
        let mut watched = false;
        for w in self.release_watch.iter_mut().filter(|w| w.peer == v) {
            for &c in colors {
                w.announced.insert(c);
            }
            watched = true;
        }
        watched
    }

    /// Whether any watched churn-fresh neighbor has announced `color`.
    fn watched_clash(&self, color: Color) -> bool {
        self.release_watch.iter().any(|w| w.announced.contains(color))
    }

    /// Release own committed channels that clash with a neighbor's
    /// announcement: out-arc channels in `out_clash`, in-arc channels in
    /// `in_clash`. For adjacent nodes, *my out vs your in* and *my in vs
    /// your out* pairs are Definition-2 conflicts unconditionally, so a
    /// hit here is a real violation; releasing the arc — and telling its
    /// partner via [`StrongMsg::Release`] — lets the normal handshake
    /// recolor it. Released channels stay in `forbidden`, so they cannot
    /// be re-picked into the same clash.
    fn release_conflicts(
        &mut self,
        out_clash: &ColorSet,
        in_clash: &ColorSet,
        notes: &mut Vec<(usize, Vec<Color>)>,
    ) {
        for p in 0..self.neighbors.len() {
            let mut freed: Vec<Color> = Vec::new();
            if let Some(c) = self.out_color[p] {
                if out_clash.contains(c) {
                    self.out_color[p] = None;
                    if !self.link_down[p] {
                        self.uncolored_out.push(p);
                    }
                    freed.push(c);
                }
            }
            if let Some(c) = self.in_color[p] {
                if in_clash.contains(c) {
                    self.in_color[p] = None;
                    if !self.link_down[p] {
                        self.uncolored_in += 1;
                    }
                    freed.push(c);
                }
            }
            if !freed.is_empty() {
                notes.push((p, freed));
            }
        }
    }

    /// "Choose an open channel φ for v" (Procedure 2-a), generalised to
    /// `proposal_width` candidates: the lowest colors neither forbidden
    /// here nor already refused on this port (or random legal ones under
    /// the ablation policy).
    fn propose_colors(&self, port: usize, rng: &mut SmallRng) -> Vec<Color> {
        let width = self.proposal_width.max(1);
        match self.color_policy {
            ColorPolicy::LowestIndex => {
                let mut out = Vec::with_capacity(width);
                let mut scratch = self.tried[port].clone();
                for _ in 0..width {
                    let c = self.forbidden.first_absent_in_union(&scratch);
                    scratch.insert(c);
                    out.push(c);
                }
                out
            }
            ColorPolicy::RandomLegal => {
                let bound = self
                    .forbidden
                    .max()
                    .into_iter()
                    .chain(self.tried[port].max())
                    .map(|c| c.0 + 1 + width as u32)
                    .max()
                    .unwrap_or(width as u32);
                // Sampling without replacement below needs positional
                // `swap_remove`, so this path keeps one scratch `Vec` —
                // filled from the lazy gap iterator rather than a probe
                // per candidate color.
                let mut legal: Vec<Color> = self
                    .forbidden
                    .absent_below(bound)
                    .filter(|&c| !self.tried[port].contains(c))
                    .collect();
                let mut out = Vec::with_capacity(width);
                for _ in 0..width.min(legal.len().max(1)) {
                    if legal.is_empty() {
                        break;
                    }
                    let i = rng.random_range(0..legal.len());
                    out.push(legal.swap_remove(i));
                }
                if out.is_empty() {
                    out.push(self.forbidden.first_absent_in_union(&self.tried[port]));
                }
                out.sort_unstable();
                out
            }
        }
    }

    fn use_color(&mut self, color: Color) {
        self.forbidden.insert(color);
        self.newly_used = Some(color);
    }
}

impl Protocol for StrongColoringNode {
    type Msg = StrongMsg;

    fn kind_of(msg: &StrongMsg) -> &'static str {
        match msg {
            StrongMsg::Invite { .. } => "invite",
            StrongMsg::Accept { .. } => "accept",
            StrongMsg::Used { .. } => "used",
            StrongMsg::Hello { .. } => "hello",
            StrongMsg::Release { .. } => "release",
        }
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, StrongMsg>) -> NodeStatus {
        // Repair prelude (see the edge-coloring twin): under churn,
        // `UpdateColors` flushes and `Hello` greetings can land at any
        // phase — ingest them before the phase logic. Static runs only
        // see `Used` here, at the invite step, so the paper's schedule is
        // unchanged.
        let was_finished = self.is_finished();
        let mut release_notes: Vec<(usize, Vec<Color>)> = Vec::new();
        let mut clashes: Vec<(ColorSet, ColorSet)> = Vec::new();
        let mut greet_back: Vec<VertexId> = Vec::new();
        // Channels uncolored on a partner's request (telemetry only; the
        // inbox borrow forbids emitting inside the loop).
        let mut partner_released: Vec<(Color, VertexId)> = Vec::new();
        for env in ctx.inbox() {
            match env.msg() {
                StrongMsg::Used { color } => {
                    self.forbidden.insert(*color);
                    if self.note_announcement(env.from, std::slice::from_ref(color)) {
                        // A channel announced by a churn-fresh neighbor
                        // may clash with channels committed here before
                        // the link existed. The `Used` message does not
                        // say which side committed, so clash both ways —
                        // unless the announcement is the sender's side of
                        // an arc *we share* (its commit for our own
                        // handshake): an arc never clashes with itself.
                        let shared = self.port_of(env.from).is_some_and(|p| {
                            self.out_color[p] == Some(*color) || self.in_color[p] == Some(*color)
                        });
                        if !shared {
                            let c: ColorSet = [*color].into_iter().collect();
                            clashes.push((c.clone(), c));
                        }
                    }
                }
                StrongMsg::Hello { out_used, in_used, reply } => {
                    for &c in out_used.iter().chain(in_used) {
                        self.forbidden.insert(c);
                    }
                    let mut all = out_used.clone();
                    all.extend_from_slice(in_used);
                    self.note_announcement(env.from, &all);
                    // My out vs their in and my in vs their out are
                    // unconditional Definition-2 conflicts between
                    // adjacent nodes: any hit is a real violation (a
                    // channel committed while this link was missing or
                    // while one side was parked) and must be released.
                    // The arcs *shared* with the sender appear on both
                    // sides of the comparison under their agreed channel
                    // — an arc is not in conflict with itself, so drop
                    // those channels from the clash sets (per-node
                    // channel uniqueness makes the removal exact).
                    let mut out_clash: ColorSet = in_used.iter().copied().collect();
                    let mut in_clash: ColorSet = out_used.iter().copied().collect();
                    if let Some(p) = self.port_of(env.from) {
                        if let Some(c) = self.out_color[p] {
                            out_clash.remove(c);
                        }
                        if let Some(c) = self.in_color[p] {
                            in_clash.remove(c);
                        }
                    }
                    clashes.push((out_clash, in_clash));
                    if *reply {
                        greet_back.push(env.from);
                    }
                }
                StrongMsg::Release { colors } => {
                    // A partner released its side of our shared arcs:
                    // uncolor the matching side here and let the normal
                    // handshake recolor it.
                    if let Some(p) = self.port_of(env.from) {
                        for &c in colors {
                            if self.out_color[p] == Some(c) {
                                self.out_color[p] = None;
                                if !self.link_down[p] {
                                    self.uncolored_out.push(p);
                                }
                                partner_released.push((c, env.from));
                            }
                            if self.in_color[p] == Some(c) {
                                self.in_color[p] = None;
                                if !self.link_down[p] {
                                    self.uncolored_in += 1;
                                }
                                partner_released.push((c, env.from));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        self.pending_hello.extend(greet_back.into_iter().map(|w| (w, false)));
        for (out_clash, in_clash) in clashes {
            self.release_conflicts(&out_clash, &in_clash, &mut release_notes);
        }
        for (c, w) in partner_released {
            ctx.trace_palette(PaletteAction::Released, c.0, w);
        }
        for (p, colors) in release_notes {
            for &c in &colors {
                ctx.trace_palette(PaletteAction::Released, c.0, self.neighbors[p]);
            }
            ctx.send(self.neighbors[p], StrongMsg::Release { colors });
        }
        if was_finished && !self.is_finished() {
            // A Release (or clash) just re-opened arcs on a finished node
            // — possibly one that a wake-class message pulled out of the
            // parked state, where it was dropping every `UpdateColors`
            // broadcast. Before recoloring, refresh one-hop knowledge the
            // same way a batch wake-up does: re-greet every neighbor
            // asking for their channels back, and stand down from any
            // role until the replies are in.
            self.refresh = 3;
            self.role = Role::Listener;
            self.proposal = None;
            self.state = "C";
            self.pending_hello = self.neighbors.iter().map(|&w| (w, true)).collect();
        }
        self.release_watch.retain_mut(|w| {
            w.rounds_left -= 1;
            w.rounds_left > 0
        });
        self.refresh = self.refresh.saturating_sub(1);
        for (w, reply) in std::mem::take(&mut self.pending_hello) {
            if self.port_of(w).is_some() {
                let (out_used, in_used) = self.own_used_split();
                ctx.send(w, StrongMsg::Hello { out_used, in_used, reply });
            }
        }
        match Phase::of_round(ctx.round()) {
            Phase::InviteStep => {
                if self.is_finished() {
                    // Reached by isolated vertices in round 0 and by nodes
                    // whose last uncolored arcs were removed by churn: a
                    // commit may still await its `UpdateColors` — flush it.
                    if let Some(color) = self.newly_used.take() {
                        ctx.broadcast(StrongMsg::Used { color });
                    }
                    if self.vigil > 0 {
                        // Churn recently touched this neighborhood: stay
                        // up as a silent listener so a partner's Release
                        // can still reach us (parked nodes drop mail).
                        self.vigil -= 1;
                        self.role = Role::Listener;
                        self.proposal = None;
                        self.state = "L";
                        ctx.trace_state("L", "vigil");
                        return NodeStatus::Active;
                    }
                    self.state = "D";
                    ctx.trace_state("D", "all-colored");
                    return NodeStatus::Done;
                }
                self.proposal = None;
                self.partner_was_inviting = false;
                self.newly_used = None;
                // A node with nothing left to invite for still listens —
                // its remaining in-arcs are colored by its neighbors'
                // invitations. A node still refreshing stale knowledge
                // after waking from the parked state must not invite yet
                // (it could propose a channel a neighbor took while this
                // node was dropping mail); `refresh` is 0 in static runs.
                self.role = if self.uncolored_out.is_empty() || self.refresh > 0 {
                    Role::Listener
                } else {
                    choose_role(ctx.rng(), self.invite_probability)
                };
                if self.role == Role::Invitor {
                    // Non-empty by the role choice above; degrade to
                    // listening rather than panic if that ever breaks.
                    let Some(&port) = pick_uniform(ctx.rng(), &self.uncolored_out) else {
                        self.role = Role::Listener;
                        self.state = "L";
                        ctx.trace_state("L", "no-edge");
                        return NodeStatus::Active;
                    };
                    let colors = self.propose_colors(port, ctx.rng());
                    self.proposal = Some(Proposal { port, colors: colors.clone() });
                    for &c in &colors {
                        ctx.trace_palette(PaletteAction::Proposed, c.0, self.neighbors[port]);
                    }
                    ctx.broadcast(StrongMsg::Invite { to: self.neighbors[port], colors });
                }
                self.state = if self.role == Role::Invitor { "I" } else { "L" };
                ctx.trace_state(self.state, "coin");
                NodeStatus::Active
            }
            Phase::RespondStep => {
                if self.role == Role::Invitor {
                    // W state: while waiting, overhear whether the round
                    // partner itself invited (then it was not listening
                    // and a missing reply carries no color information).
                    if let Some(Proposal { port, .. }) = &self.proposal {
                        let partner = self.neighbors[*port];
                        self.partner_was_inviting = ctx.inbox().iter().any(|env| {
                            env.from == partner && matches!(*env.msg(), StrongMsg::Invite { .. })
                        });
                    }
                }
                if self.role == Role::Listener && self.refresh == 0 {
                    // (A node still refreshing stale knowledge must not
                    // *accept* either: a responder commits on the spot,
                    // and its `forbidden` may be missing channels that
                    // neighbors took while it was parked. 0 in static
                    // runs, so the paper's responder is unchanged.)
                    let me = self.me;
                    // Procedure 2-b: split into mine[] and other[].
                    let mut mine: Vec<(VertexId, &Vec<Color>)> = Vec::new();
                    let mut other_colors = ColorSet::new();
                    for env in ctx.inbox() {
                        if let StrongMsg::Invite { to, colors } = env.msg() {
                            if *to == me {
                                mine.push((env.from, colors));
                            } else {
                                for &c in colors {
                                    other_colors.insert(c);
                                }
                            }
                        }
                    }
                    // For each invitation keep its lowest channel that is
                    // usable here *and* free of overheard collisions
                    // (line 2-b.8). The in-arc guard is vacuous under
                    // reliable delivery; it keeps fault-injected desyncs
                    // from double-coloring.
                    let candidates: Vec<(VertexId, usize, Color)> = mine
                        .into_iter()
                        .filter_map(|(from, colors)| {
                            let port = self
                                .port_of(from)
                                .filter(|&p| self.in_color[p].is_none() && !self.link_down[p])?;
                            colors
                                .iter()
                                .copied()
                                .find(|&c| !self.forbidden.contains(c) && !other_colors.contains(c))
                                .map(|c| (from, port, c))
                        })
                        .collect();
                    if let Some(&(partner, port, color)) = pick_uniform(ctx.rng(), &candidates) {
                        ctx.broadcast(StrongMsg::Accept { to: partner, color });
                        // U_i: color the incoming arc from the round
                        // partner.
                        debug_assert!(self.in_color[port].is_none());
                        self.in_color[port] = Some(color);
                        self.uncolored_in -= 1;
                        self.use_color(color);
                        ctx.trace_palette(PaletteAction::Committed, color.0, partner);
                    }
                }
                self.state = if self.role == Role::Invitor { "W" } else { "R" };
                ctx.trace_state(self.state, "await");
                NodeStatus::Active
            }
            Phase::ExchangeStep => {
                // U_o: the invitor looks for the echo of its proposal.
                if self.role == Role::Invitor {
                    if let Some(Proposal { port, colors }) = self.proposal.take() {
                        let partner = self.neighbors[port];
                        let me = self.me;
                        let accepted = ctx.inbox().iter().find_map(|env| {
                            if env.from != partner {
                                return None;
                            }
                            match *env.msg() {
                                StrongMsg::Accept { to, color: c }
                                    if to == me && colors.contains(&c) =>
                                {
                                    Some(c)
                                }
                                _ => None,
                            }
                        });
                        if let Some(color) = accepted {
                            debug_assert!(self.out_color[port].is_none());
                            self.out_color[port] = Some(color);
                            self.uncolored_out.retain(|&p| p != port);
                            self.use_color(color);
                            ctx.trace_palette(PaletteAction::Committed, color.0, partner);
                            if self.watched_clash(color) {
                                // The proposal predates a churn-fresh
                                // neighbor's announcement of this channel
                                // (an invitor never re-checks). The
                                // responder has already committed, so
                                // honor the handshake symmetrically:
                                // commit, then release both sides for
                                // recoloring. The channel stays in
                                // `forbidden`, so it cannot be re-picked
                                // into the same clash.
                                self.out_color[port] = None;
                                self.uncolored_out.push(port);
                                ctx.trace_palette(PaletteAction::Released, color.0, partner);
                                ctx.send(partner, StrongMsg::Release { colors: vec![color] });
                            }
                        } else {
                            // The proposal died this round, whatever the
                            // cause (contention or rejection).
                            for &c in &colors {
                                ctx.trace_palette(PaletteAction::Conflicted, c.0, partner);
                            }
                            // No reply. If the partner was overheard
                            // accepting someone else's invitation this
                            // round, or was inviting itself, the failure
                            // is pure contention — retry the same colors
                            // later. If the partner was a *silent
                            // listener*, Procedure 2-b rejected every
                            // proposed channel at the partner (unusable
                            // there, or overheard collisions): remember
                            // them per port so the next proposal makes
                            // progress.
                            let partner_accepted_other = ctx.inbox().iter().any(|env| {
                                env.from == partner
                                    && matches!(*env.msg(), StrongMsg::Accept { to, .. } if to != me)
                            });
                            if !self.partner_was_inviting && !partner_accepted_other {
                                for &c in &colors {
                                    self.tried[port].insert(c);
                                }
                            }
                        }
                    }
                }
                if let Some(color) = self.newly_used.take() {
                    ctx.broadcast(StrongMsg::Used { color });
                }
                if self.is_finished() {
                    if self.vigil > 0 {
                        self.vigil -= 1;
                        self.state = "E";
                        ctx.trace_state("E", "vigil");
                        NodeStatus::Active
                    } else {
                        self.state = "D";
                        ctx.trace_state("D", "all-colored");
                        NodeStatus::Done
                    }
                } else {
                    self.state = "E";
                    ctx.trace_state("E", "exchange");
                    NodeStatus::Active
                }
            }
        }
    }

    fn wakes(msg: &StrongMsg) -> bool {
        // Repair traffic that *must* reach parked nodes: an uncolor
        // request re-opens committed arcs on the receiver, and a
        // reply-requesting greeting is how a stale wake-up rebuilds its
        // one-hop knowledge — both are meaningless if the (parked,
        // mail-dropping) partner never hears them. Neither is ever sent
        // in a static run, so static termination semantics are untouched.
        matches!(msg, StrongMsg::Release { .. } | StrongMsg::Hello { reply: true, .. })
    }

    fn on_link_down(&mut self, neighbor: VertexId) {
        // Both arcs of the dead link can never complete a handshake:
        // write them off so the node can finish its residual arcs and
        // terminate (paper line 2.28 counts only colorable arcs).
        let Some(p) = self.port_of(neighbor) else { return };
        if self.link_down[p] {
            return;
        }
        self.link_down[p] = true;
        if self.out_color[p].is_none() {
            self.uncolored_out.retain(|&q| q != p);
        }
        if self.in_color[p].is_none() {
            self.uncolored_in -= 1;
        }
    }

    fn on_topology_change(
        &mut self,
        seed: NodeSeed<'_>,
        change: &NeighborhoodChange,
    ) -> NodeStatus {
        let was_parked = self.state == "D";
        let new_neighbors = seed.neighbors.to_vec();
        let n_new = new_neighbors.len();
        // Remap per-port state; churn-created ports get sentinel arc ids
        // (never read — churn assembly goes via ports).
        let mut out_arcs = vec![NO_ARC; n_new];
        let mut in_arcs = vec![NO_ARC; n_new];
        let mut out_color = vec![None; n_new];
        let mut in_color = vec![None; n_new];
        let mut link_down = vec![false; n_new];
        let mut tried = vec![ColorSet::new(); n_new];
        for (np, &w) in new_neighbors.iter().enumerate() {
            if let Some(op) = self.port_of(w) {
                out_arcs[np] = self.out_arcs[op];
                in_arcs[np] = self.in_arcs[op];
                out_color[np] = self.out_color[op];
                in_color[np] = self.in_color[op];
                link_down[np] = self.link_down[op];
                tried[np] = std::mem::take(&mut self.tried[op]);
            }
        }
        // A pending proposal follows its neighbor to the new port index;
        // it dies only with its arc (see the edge-coloring twin).
        self.proposal = self.proposal.take().and_then(|p| {
            let w = self.neighbors[p.port];
            new_neighbors.binary_search(&w).ok().map(|np| Proposal { port: np, colors: p.colors })
        });
        self.neighbors = new_neighbors;
        self.out_arcs = out_arcs;
        self.in_arcs = in_arcs;
        self.out_color = out_color;
        self.in_color = in_color;
        self.link_down = link_down;
        self.tried = tried;
        self.uncolored_out =
            (0..n_new).filter(|&p| self.out_color[p].is_none() && !self.link_down[p]).collect();
        self.uncolored_in =
            (0..n_new).filter(|&p| self.in_color[p].is_none() && !self.link_down[p]).count();
        // `forbidden` is kept as-is: it over-approximates the distance-2
        // constraint after removals (releasing a neighbor's colors would
        // need the two-hop knowledge the model denies us), which is safe —
        // it can only inflate the palette, never break Definition 2.
        if was_parked && !self.is_finished() {
            // Parked nodes drop mail: every `UpdateColors` broadcast
            // while this node was done is lost, so its one-hop knowledge
            // may be stale. Since the batch re-opened arcs here, re-greet
            // *every* neighbor asking for their current channels back,
            // and hold off inviting (`refresh`) until the replies are in.
            // (A still-finished wake-up skips this: if a Release later
            // re-opens one of its arcs, the wake path in the round
            // prelude runs the same refresh then.)
            self.refresh = 3;
            self.pending_hello = self.neighbors.iter().map(|&w| (w, true)).collect();
        } else if !was_parked {
            self.pending_hello.extend(change.added.iter().map(|&w| (w, false)));
        }
        // The smaller-id endpoint of each new link polices Definition-2
        // clashes between channels committed before the link existed (the
        // larger side's are all announced through Hello / in-flight
        // `UpdateColors` within this window — see the prelude).
        for &w in &change.added {
            if self.me < w {
                self.release_watch.push(ReleaseWatch {
                    peer: w,
                    rounds_left: 5,
                    announced: ColorSet::new(),
                });
            }
        }
        // A watcher must stay up through its whole watch window — the
        // watched peer's `UpdateColors` broadcasts are not wake-class
        // (the engines cannot know who watches whom), so a parked
        // watcher would miss the clash it exists to catch. 8 engine
        // rounds (two per park gate) comfortably outlast the 5-round
        // watch plus a Release round trip. Nodes without new links don't
        // watch and need no vigil: wake-class messages reach them parked.
        if !change.added.is_empty() {
            self.vigil = 8;
        }
        if was_parked {
            self.role = Role::Listener;
            self.proposal = None;
        }
        if !self.is_finished() {
            self.state = "C";
            NodeStatus::Active
        } else if self.newly_used.is_some() || !self.pending_hello.is_empty() || self.vigil > 0 {
            // Stay up to flush pending `UpdateColors` / greetings and to
            // keep vigil; the park gates re-park the node afterwards.
            NodeStatus::Active
        } else {
            self.state = "D";
            NodeStatus::Done
        }
    }
}

/// The outcome of a strong-coloring run.
#[derive(Clone, Debug)]
pub struct StrongColoringResult {
    /// Channel per arc (indexed by [`ArcId`]), as committed by the tail.
    pub colors: Vec<Option<Color>>,
    /// Number of distinct channels used.
    pub colors_used: usize,
    /// Largest channel index used.
    pub max_color: Option<Color>,
    /// Computation rounds until the last node finished.
    pub compute_rounds: u64,
    /// Communication rounds (3 per computation round).
    pub comm_rounds: u64,
    /// Maximum degree Δ of the *underlying* graph (the paper's Δ).
    pub max_degree: usize,
    /// `true` iff tail and head committed the same channel on every arc
    /// (with crash faults, checked between surviving endpoints only).
    pub endpoint_agreement: bool,
    /// Simulator statistics.
    pub stats: RunStats,
    /// `alive[v]` iff node `v` was not crash-stopped by the fault plan.
    /// Verify residual colorings (crashed runs) with
    /// [`crate::verify::verify_residual_strong_coloring`].
    pub alive: Vec<bool>,
    /// Engine rounds spent by the reliable transport on retransmission
    /// and synchronization, on top of
    /// [`StrongColoringResult::comm_rounds`] (0 under
    /// [`crate::Transport::Bare`]).
    pub transport_overhead_rounds: u64,
}

/// Run Algorithm 2 on the symmetric digraph `d`.
///
/// Returns [`CoreError::Graph`] if `d` is not symmetric — the paper's
/// Proposition 5 (Case 2) relies on responders overhearing competing
/// invitations through the reverse arcs.
pub fn strong_color_digraph(
    d: &Digraph,
    cfg: &ColoringConfig,
) -> Result<StrongColoringResult, CoreError> {
    strong_color_digraph_traced(d, cfg, &mut NoopTracer)
}

/// [`strong_color_digraph`] with telemetry fed to `tracer` (see
/// [`dima_sim::telemetry`]). With [`NoopTracer`] the tracing branches
/// monomorphize away and this *is* [`strong_color_digraph`].
pub fn strong_color_digraph_traced<T: Tracer + Sync>(
    d: &Digraph,
    cfg: &ColoringConfig,
    tracer: &mut T,
) -> Result<StrongColoringResult, CoreError> {
    cfg.validate()?;
    d.require_symmetric()?;
    let delta = d.max_underlying_degree();
    let topo = Topology::from_digraph(d);
    let max_rounds = 3 * cfg.compute_round_budget(delta);
    let factory = |seed: NodeSeed<'_>| StrongColoringNode::new(&seed, d, cfg);
    let run = run_protocol_traced(&topo, cfg, max_rounds, factory, tracer)?;
    let alive = run.alive();

    // Residual assembly: each arc takes its *tail's* committed channel
    // when the tail survived, the head's view when only the head did.
    // Tail/head agreement is meaningful between survivors only.
    let mut tail_view: Vec<Option<Color>> = vec![None; d.num_arcs()];
    let mut head_view: Vec<Option<Color>> = vec![None; d.num_arcs()];
    for node in &run.nodes {
        for (port, &c) in node.out_color.iter().enumerate() {
            tail_view[node.out_arcs[port].index()] = c;
        }
        for (port, &c) in node.in_color.iter().enumerate() {
            head_view[node.in_arcs[port].index()] = c;
        }
    }
    let mut colors: Vec<Option<Color>> = vec![None; d.num_arcs()];
    let mut endpoint_agreement = true;
    for (a, (u, v)) in d.arcs() {
        let (tail, head) = (tail_view[a.index()], head_view[a.index()]);
        // Arcs touching a crashed node are *withdrawn*, even if a
        // surviving endpoint had committed a channel: distance-2
        // conflicts are policed by the crashed node's `UpdateColors`
        // broadcasts, which died with it — a node two hops away may
        // legitimately reuse the channel later. (Plain edge coloring
        // keeps such colors: its constraints are all one-hop, enforced
        // by a then-alive endpoint at commit time.)
        colors[a.index()] = match (alive[u.index()], alive[v.index()]) {
            (true, true) => {
                endpoint_agreement &= tail == head;
                tail.or(head)
            }
            _ => None,
        };
    }

    let mut palette = ColorSet::new();
    for c in colors.iter().flatten() {
        palette.insert(*c);
    }
    let comm_rounds = run.stats.rounds - run.transport_overhead_rounds;
    Ok(StrongColoringResult {
        colors_used: palette.len(),
        max_color: palette.max(),
        colors,
        compute_rounds: Phase::compute_rounds(comm_rounds),
        comm_rounds,
        max_degree: delta,
        endpoint_agreement,
        stats: run.stats,
        alive,
        transport_overhead_rounds: run.transport_overhead_rounds,
    })
}

/// Run Algorithm 2 on the symmetric closure of `g0` under a churn
/// schedule, repairing the channel assignment incrementally after each
/// batch (see [`crate::edge_coloring::color_edges_churn`] — the repair
/// machinery is the same; this variant additionally re-announces used
/// channels over churn-fresh links via [`StrongMsg::Hello`]).
///
/// The result is indexed by the arcs of the **final** graph's symmetric
/// closure; verify it there. Bare transport only.
pub fn strong_color_churn(
    g0: &Graph,
    schedule: &ChurnSchedule,
    cfg: &ColoringConfig,
) -> Result<ChurnStrongResult, CoreError> {
    strong_color_churn_traced(g0, schedule, cfg, &mut NoopTracer)
}

/// [`strong_color_churn`] with telemetry fed to `tracer`. Beyond the
/// static-run events, churn runs emit churn batch headers and
/// [`PaletteAction::Released`] for every channel the repair uncolored.
pub fn strong_color_churn_traced<T: Tracer + Sync>(
    g0: &Graph,
    schedule: &ChurnSchedule,
    cfg: &ColoringConfig,
    tracer: &mut T,
) -> Result<ChurnStrongResult, CoreError> {
    cfg.validate()?;
    let d0 = Digraph::symmetric_closure(g0);
    let final_graph = schedule.final_graph().cloned().unwrap_or_else(|| g0.clone());
    let final_digraph = Digraph::symmetric_closure(&final_graph);
    let delta = g0.max_degree().max(schedule.max_degree());
    let topo = Topology::from_graph(g0);
    let budget = 3 * cfg.compute_round_budget(delta);
    let max_rounds = schedule.last_round().map_or(budget, |lr| lr + budget);
    let factory = |seed: NodeSeed<'_>| StrongColoringNode::new(&seed, &d0, cfg);
    let run = run_protocol_churn_traced(&topo, cfg, max_rounds, schedule, factory, tracer)?;
    let batches = batch_reports(schedule, &run.stats);
    let alive = run.alive();

    // Assemble via ports against the final digraph: the arc ids stored in
    // the nodes index the *initial* digraph and go stale under churn.
    // Crash withdrawal matches the static path (see above).
    let mut colors: Vec<Option<Color>> = vec![None; final_digraph.num_arcs()];
    let mut endpoint_agreement = true;
    for (a, (u, v)) in final_digraph.arcs() {
        let nu = &run.nodes[u.index()];
        let nv = &run.nodes[v.index()];
        let tail = nu.port_of(v).and_then(|p| nu.out_color[p]);
        let head = nv.port_of(u).and_then(|p| nv.in_color[p]);
        colors[a.index()] = match (alive[u.index()], alive[v.index()]) {
            (true, true) => {
                endpoint_agreement &= tail == head;
                tail.or(head)
            }
            _ => None,
        };
    }

    let mut palette = ColorSet::new();
    for c in colors.iter().flatten() {
        palette.insert(*c);
    }
    let comm_rounds = run.stats.rounds;
    let coloring = StrongColoringResult {
        colors_used: palette.len(),
        max_color: palette.max(),
        colors,
        compute_rounds: Phase::compute_rounds(comm_rounds),
        comm_rounds,
        max_degree: delta,
        endpoint_agreement,
        stats: run.stats,
        alive,
        transport_overhead_rounds: 0,
    };
    Ok(ChurnStrongResult { coloring, final_graph, final_digraph, batches })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Engine, Transport};
    use crate::verify::verify_strong_coloring;
    use dima_graph::gen::{erdos_renyi_avg_degree, structured};
    use dima_graph::Graph;
    use dima_sim::fault::FaultPlan;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn assert_good(d: &Digraph, r: &StrongColoringResult) {
        assert!(r.endpoint_agreement, "tail/head disagree");
        verify_strong_coloring(d, &r.colors).unwrap();
    }

    #[test]
    fn single_symmetric_edge() {
        let g = structured::path(2);
        let d = Digraph::symmetric_closure(&g);
        let r = strong_color_digraph(&d, &ColoringConfig::seeded(1)).unwrap();
        assert_good(&d, &r);
        // The two directions conflict (reverse arcs): exactly 2 channels.
        assert_eq!(r.colors_used, 2);
    }

    #[test]
    fn rejects_asymmetric_digraph() {
        let d = Digraph::from_arcs(2, [(VertexId(0), VertexId(1))]).unwrap();
        let err = strong_color_digraph(&d, &ColoringConfig::seeded(1)).unwrap_err();
        assert!(matches!(err, CoreError::Graph(_)));
    }

    #[test]
    fn structured_families_color_correctly() {
        for (name, g) in [
            ("path5", structured::path(5)),
            ("cycle6", structured::cycle(6)),
            ("star7", structured::star(7)),
            ("grid", structured::grid(4, 4)),
            ("complete6", structured::complete(6)),
            ("petersen", structured::petersen()),
        ] {
            let d = Digraph::symmetric_closure(&g);
            let r = strong_color_digraph(&d, &ColoringConfig::seeded(5)).unwrap();
            assert_good(&d, &r);
            assert!(r.colors.iter().all(Option::is_some), "{name}: incomplete");
        }
    }

    #[test]
    fn random_er_digraphs_color_correctly() {
        // The paper's §IV-D workload, scaled down for unit tests.
        let mut rng = SmallRng::seed_from_u64(8);
        for seed in 0..4 {
            let g = erdos_renyi_avg_degree(60, 4.0, &mut rng).unwrap();
            let d = Digraph::symmetric_closure(&g);
            let r = strong_color_digraph(&d, &ColoringConfig::seeded(seed)).unwrap();
            assert_good(&d, &r);
        }
    }

    #[test]
    fn empty_digraph() {
        let d = Digraph::symmetric_closure(&Graph::empty(3));
        let r = strong_color_digraph(&d, &ColoringConfig::seeded(1)).unwrap();
        assert!(r.colors.is_empty());
        assert_eq!(r.colors_used, 0);
    }

    #[test]
    fn parallel_engine_bit_identical() {
        let g = structured::grid(5, 5);
        let d = Digraph::symmetric_closure(&g);
        let cfg = ColoringConfig::seeded(77);
        let seq = strong_color_digraph(&d, &cfg).unwrap();
        let par = strong_color_digraph(
            &d,
            &ColoringConfig { engine: Engine::Parallel { threads: 3 }, ..cfg },
        )
        .unwrap();
        assert_eq!(seq.colors, par.colors);
        assert_eq!(seq.comm_rounds, par.comm_rounds);
        assert_eq!(seq.stats.messages_sent, par.stats.messages_sent);
    }

    #[test]
    fn rounds_scale_with_delta_not_n() {
        let sparse_big = Digraph::symmetric_closure(&structured::cycle(200)); // Δ = 2
        let dense_small = Digraph::symmetric_closure(&structured::complete(12)); // Δ = 11
        let r1 = strong_color_digraph(&sparse_big, &ColoringConfig::seeded(6)).unwrap();
        let r2 = strong_color_digraph(&dense_small, &ColoringConfig::seeded(6)).unwrap();
        assert!(
            r1.compute_rounds < r2.compute_rounds,
            "cycle {} vs clique {}",
            r1.compute_rounds,
            r2.compute_rounds
        );
    }

    #[test]
    fn random_legal_policy_still_correct() {
        let g = structured::grid(3, 4);
        let d = Digraph::symmetric_closure(&g);
        let cfg =
            ColoringConfig { color_policy: ColorPolicy::RandomLegal, ..ColoringConfig::seeded(3) };
        let r = strong_color_digraph(&d, &cfg).unwrap();
        assert_good(&d, &r);
    }

    #[test]
    fn reliable_transport_is_transparent_without_faults() {
        let g = structured::grid(4, 4);
        let d = Digraph::symmetric_closure(&g);
        let bare = strong_color_digraph(&d, &ColoringConfig::seeded(71)).unwrap();
        let arq = strong_color_digraph(
            &d,
            &ColoringConfig { transport: Transport::reliable(), ..ColoringConfig::seeded(71) },
        )
        .unwrap();
        assert_eq!(bare.colors, arq.colors);
        assert_eq!(bare.comm_rounds, arq.comm_rounds);
        assert!(arq.transport_overhead_rounds <= 3, "{}", arq.transport_overhead_rounds);
        assert_good(&d, &arq);
    }

    #[test]
    fn reliable_transport_survives_loss() {
        let g = structured::complete(7);
        let d = Digraph::symmetric_closure(&g);
        let bare = strong_color_digraph(&d, &ColoringConfig::seeded(73)).unwrap();
        let cfg = ColoringConfig {
            faults: FaultPlan::uniform(0.15),
            transport: Transport::reliable(),
            ..ColoringConfig::seeded(73)
        };
        let r = strong_color_digraph(&d, &cfg).unwrap();
        assert!(r.stats.dropped > 0, "the plan should actually drop messages");
        assert_eq!(r.colors, bare.colors);
        assert!(r.transport_overhead_rounds > 0);
        assert_good(&d, &r);
    }

    #[test]
    fn crashes_leave_proper_residual_strong_coloring() {
        let g = structured::complete(9);
        let d = Digraph::symmetric_closure(&g);
        let cfg = ColoringConfig {
            faults: FaultPlan { crash_spread: 1, ..FaultPlan::crashing(0.3, 0) },
            transport: Transport::reliable(),
            ..ColoringConfig::seeded(79)
        };
        let r = strong_color_digraph(&d, &cfg).unwrap();
        assert!(r.alive.iter().any(|&a| !a), "the plan should crash someone");
        assert!(r.endpoint_agreement);
        crate::verify::verify_residual_strong_coloring(&d, &r.colors, &r.alive).unwrap();
    }

    #[test]
    fn coloring_also_satisfies_cross_round_one_hop_exclusion() {
        // Stronger-than-required sanity: by construction, a color used at
        // a node is never reused by that node. Check per-node uniqueness
        // over incident arcs' *own* commitments (tail for out, head for
        // in) — the conservative palette rule implies it.
        let g = structured::complete(7);
        let d = Digraph::symmetric_closure(&g);
        let r = strong_color_digraph(&d, &ColoringConfig::seeded(10)).unwrap();
        assert_good(&d, &r);
        for v in d.vertices() {
            let mut seen = ColorSet::new();
            for &(_, a) in d.out_neighbors(v).iter().chain(d.in_neighbors(v)) {
                let c = r.colors[a.index()].unwrap();
                assert!(seen.insert(c), "node {v} reuses color {c}");
            }
        }
    }
}
