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
//! Beyond the pseudocode, a listening responder whose `forbidden` set
//! holds every channel of an invitation addressed to it answers with a
//! unicast [`StrongMsg::Reject`] carrying that set, and the invitor
//! retires all of those channels on the arc at once. The pseudocode's
//! silence would cost the invitor one round per doomed channel (a
//! channel held two hops away is invisible to it); the hint is the
//! responder's own one-hop knowledge, so the model stays one-hop, and it
//! only ever removes candidates, so Proposition 5's safety argument is
//! untouched. [`Rejection::Silent`] restores the pseudocode's behaviour.
//!
//! One computation round colors at most one *out*-arc per invitor (and
//! the corresponding in-arc at the responder); a node is done when all
//! its out- **and** in-arcs are colored (paper line 2.28).

use dima_graph::{Digraph, Graph, VertexId};
use dima_sim::churn::{ChurnSchedule, NeighborhoodChange};
use dima_sim::telemetry::{NoopTracer, PaletteAction, Tracer};
use dima_sim::{NodeSeed, NodeStatus, Protocol, RoundCtx, RunStats, Topology};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::automata::{choose_role, pick_uniform, Phase, Role};
use crate::churn::{batch_reports, ChurnStrongResult};
use crate::config::{ColorPolicy, ColoringConfig, Rejection, MAX_PROPOSAL_WIDTH};
use crate::error::CoreError;
use crate::palette::{Color, ColorSet};
use crate::runner::run_protocol;

/// Messages of Algorithm 2. `Invite`, `Accept` and `Used` are broadcast —
/// overhearing is what makes the same-round conflict detection of
/// Procedure 2-b work. `Reject`, `Hello` and `Release` are unicast to the
/// one neighbor they concern.
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
        colors: Channels,
    },
    /// Procedure 2-b's reply: sender (the responder) echoes the chosen
    /// invitation back to invitor `to`.
    Accept {
        /// The invitor whose proposal is accepted.
        to: VertexId,
        /// The agreed channel.
        color: Color,
    },
    /// Reply to an invitation addressed to the sender whose every
    /// proposed channel is in the sender's `forbidden` set (not in the
    /// pseudocode, which stays silent; see [`Rejection`]). Unicast to the
    /// invitor, which adds `blocked` to the channels it will never propose
    /// on that arc again.
    Reject {
        /// The responder's `forbidden` set: its own channels and every
        /// channel its neighbors announced. No arc into the responder can
        /// ever take one of them.
        blocked: ColorSet,
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

/// The channels one invitation proposes, lowest first: at most
/// [`MAX_PROPOSAL_WIDTH`], held inline so that copying an invitation into
/// every neighbor's inbox moves bytes instead of allocating. Slots past
/// `len` stay `Color(0)`, so the derived equality compares the lists.
#[derive(Copy, Clone, PartialEq, Eq)]
pub struct Channels {
    len: u8,
    colors: [Color; MAX_PROPOSAL_WIDTH],
}

impl Channels {
    const EMPTY: Channels = Channels { len: 0, colors: [Color(0); MAX_PROPOSAL_WIDTH] };

    /// Append `c`; a full list ignores it (validated configurations never
    /// propose more than [`MAX_PROPOSAL_WIDTH`] channels).
    fn push(&mut self, c: Color) {
        if let Some(slot) = self.colors.get_mut(self.len as usize) {
            *slot = c;
            self.len += 1;
        }
    }
}

impl std::ops::Deref for Channels {
    type Target = [Color];

    fn deref(&self) -> &[Color] {
        &self.colors[..self.len as usize]
    }
}

impl std::ops::DerefMut for Channels {
    fn deref_mut(&mut self) -> &mut [Color] {
        &mut self.colors[..self.len as usize]
    }
}

impl FromIterator<Color> for Channels {
    fn from_iter<I: IntoIterator<Item = Color>>(iter: I) -> Self {
        let mut out = Channels::EMPTY;
        for c in iter.into_iter().take(MAX_PROPOSAL_WIDTH) {
            out.push(c);
        }
        out
    }
}

impl std::fmt::Debug for Channels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[derive(Copy, Clone, Debug)]
struct Proposal {
    port: usize,
    colors: Channels,
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
    /// partner or collided with an overheard proposal — plus every
    /// channel a [`StrongMsg::Reject`] from the partner listed. One-hop
    /// knowledge cannot reveal *which* colors a two-hops-away node holds,
    /// so without this memory the lowest-available rule can re-propose
    /// the same doomed color forever (a genuine livelock of the paper's
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
    rejection: Rejection,
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
    /// Responder scratch, kept across rounds so a round allocates
    /// nothing: the channels overheard in invitations addressed to
    /// others, the acceptable invitations `(invitor, port, channel)`, and
    /// the invitors owed a [`StrongMsg::Reject`].
    overheard: ColorSet,
    candidates: Vec<(VertexId, usize, Color)>,
    rejected: Vec<VertexId>,
}

impl StrongColoringNode {
    pub(crate) fn new(seed: &NodeSeed<'_>, cfg: &ColoringConfig) -> Self {
        let degree = seed.neighbors.len();
        StrongColoringNode {
            me: seed.node,
            neighbors: seed.neighbors.to_vec(),
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
            rejection: cfg.rejection,
            pending_hello: Vec::new(),
            refresh: 0,
            release_watch: Vec::new(),
            vigil: 0,
            state: "C",
            overheard: ColorSet::new(),
            candidates: Vec::new(),
            rejected: Vec::new(),
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
    fn propose_colors(&self, port: usize, rng: &mut SmallRng) -> Channels {
        let width = self.proposal_width.clamp(1, MAX_PROPOSAL_WIDTH);
        match self.color_policy {
            ColorPolicy::LowestIndex => {
                self.forbidden.absent_in_union(&self.tried[port]).take(width).collect()
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
                let mut out = Channels::EMPTY;
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
            StrongMsg::Reject { .. } => "reject",
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
                    self.proposal = Some(Proposal { port, colors });
                    for &c in colors.iter() {
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
                    // Procedure 2-b splits the invitations into mine[] and
                    // other[]; other[] only matters as the set of channels
                    // it proposes.
                    let mut overheard = std::mem::take(&mut self.overheard);
                    overheard.clear();
                    for env in ctx.inbox() {
                        if let StrongMsg::Invite { to, colors } = env.msg() {
                            if *to != me {
                                for &c in colors.iter() {
                                    overheard.insert(c);
                                }
                            }
                        }
                    }
                    // For each invitation addressed here keep its lowest
                    // channel that is usable here *and* free of overheard
                    // collisions (line 2-b.8). The in-arc guard is vacuous
                    // under reliable delivery; it keeps fault-injected
                    // desyncs from double-coloring.
                    let mut candidates = std::mem::take(&mut self.candidates);
                    candidates.clear();
                    self.rejected.clear();
                    for env in ctx.inbox() {
                        let StrongMsg::Invite { to, colors } = env.msg() else { continue };
                        if *to != me {
                            continue;
                        }
                        let Some(port) = self
                            .port_of(env.from)
                            .filter(|&p| self.in_color[p].is_none() && !self.link_down[p])
                        else {
                            continue;
                        };
                        if let Some(&c) = colors
                            .iter()
                            .find(|&&c| !self.forbidden.contains(c) && !overheard.contains(c))
                        {
                            candidates.push((env.from, port, c));
                        } else if self.rejection == Rejection::Hint
                            && colors.iter().all(|&c| self.forbidden.contains(c))
                        {
                            // Blocked by channels committed around here,
                            // not by a same-round collision: worth naming.
                            self.rejected.push(env.from);
                        }
                    }
                    self.overheard = overheard;
                    let picked = pick_uniform(ctx.rng(), &candidates).copied();
                    self.candidates = candidates;
                    if let Some((partner, port, color)) = picked {
                        ctx.broadcast(StrongMsg::Accept { to: partner, color });
                        // U_i: color the incoming arc from the round
                        // partner.
                        debug_assert!(self.in_color[port].is_none());
                        self.in_color[port] = Some(color);
                        self.uncolored_in -= 1;
                        self.use_color(color);
                        ctx.trace_palette(PaletteAction::Committed, color.0, partner);
                    }
                    // Sent after the commit, so the hint also names the
                    // channel just taken here.
                    for &invitor in &self.rejected {
                        ctx.send(invitor, StrongMsg::Reject { blocked: self.forbidden.clone() });
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
                            for &c in colors.iter() {
                                ctx.trace_palette(PaletteAction::Conflicted, c.0, partner);
                            }
                            // No accept. A `Reject` names every channel the
                            // partner holds forbidden: retire them all.
                            // Otherwise, if the partner was overheard
                            // accepting someone else's invitation this
                            // round, or was inviting itself, the failure
                            // is pure contention — retry the same colors
                            // later. If the partner was a *silent
                            // listener*, Procedure 2-b rejected every
                            // proposed channel at the partner (unusable
                            // there, or overheard collisions): remember
                            // them per port so the next proposal makes
                            // progress.
                            let mut partner_accepted_other = false;
                            for env in ctx.inbox().iter().filter(|env| env.from == partner) {
                                match env.msg() {
                                    StrongMsg::Reject { blocked } => {
                                        self.tried[port].union_with(blocked)
                                    }
                                    StrongMsg::Accept { to, .. } if *to != me => {
                                        partner_accepted_other = true
                                    }
                                    _ => {}
                                }
                            }
                            if !self.partner_was_inviting && !partner_accepted_other {
                                for &c in colors.iter() {
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
        // Remap per-port state to the new neighbor list.
        let mut out_color = vec![None; n_new];
        let mut in_color = vec![None; n_new];
        let mut link_down = vec![false; n_new];
        let mut tried = vec![ColorSet::new(); n_new];
        for (np, &w) in new_neighbors.iter().enumerate() {
            if let Some(op) = self.port_of(w) {
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
    /// Channel per arc (indexed by [`ArcId`](dima_graph::ArcId)), as committed by the tail.
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
    let topo = Topology::from_digraph(d);
    run_algorithm2(&topo, d, d.max_underlying_degree(), &ChurnSchedule::empty(), cfg, tracer)
}

/// Run Algorithm 2 on the symmetric closure of `g0` under a churn
/// schedule, repairing the channel assignment incrementally after each
/// batch (see [`crate::edge_coloring::color_edges_churn`] — the repair
/// machinery is the same; this variant additionally re-announces used
/// channels over churn-fresh links via [`StrongMsg::Hello`]).
///
/// The result is indexed by the arcs of the **final** graph's symmetric
/// closure; verify it there. A non-empty schedule needs the bare
/// transport; with [`ChurnSchedule::empty`] this is
/// [`strong_color_digraph`] on the closure of `g0`.
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
    let final_graph = schedule.final_graph().unwrap_or(g0).clone();
    let final_digraph = Digraph::symmetric_closure(&final_graph);
    let delta = g0.max_degree().max(schedule.max_degree());
    let topo = Topology::from_graph(g0);
    let coloring = run_algorithm2(&topo, &final_digraph, delta, schedule, cfg, tracer)?;
    let batches = batch_reports(schedule, &coloring.stats);
    Ok(ChurnStrongResult { coloring, final_graph, final_digraph, batches })
}

/// The one Algorithm 2 run: the protocol on `topo` under `schedule`
/// (empty for a static run), assembled against `d`, the symmetric
/// digraph of the schedule's final topology. `delta` is the largest
/// underlying degree the run ever sees.
fn run_algorithm2<T: Tracer + Sync>(
    topo: &Topology,
    d: &Digraph,
    delta: usize,
    schedule: &ChurnSchedule,
    cfg: &ColoringConfig,
    tracer: &mut T,
) -> Result<StrongColoringResult, CoreError> {
    // The last batch gets a full static budget after it fires; earlier
    // repairs run inside the inter-batch gaps.
    let budget = 3 * cfg.compute_round_budget(delta);
    let max_rounds = schedule.last_round().map_or(budget, |lr| lr + budget);
    let factory = |seed: NodeSeed<'_>| StrongColoringNode::new(&seed, cfg);
    let run = run_protocol(topo, cfg, max_rounds, schedule, factory, tracer)?;
    let alive = run.outcome.alive();
    let nodes = &run.outcome.nodes;

    // Residual assembly via ports against the final digraph: each arc
    // takes its *tail's* committed channel, the head's view when the
    // tail has none. Arcs touching a crashed node are *withdrawn*, even
    // if a surviving endpoint had committed a channel: distance-2
    // conflicts are policed by the crashed node's `UpdateColors`
    // broadcasts, which died with it — a node two hops away may
    // legitimately reuse the channel later. (Plain edge coloring keeps
    // such colors: its constraints are all one-hop, enforced by a
    // then-alive endpoint at commit time.) Tail/head agreement is
    // meaningful between survivors only.
    let mut colors: Vec<Option<Color>> = vec![None; d.num_arcs()];
    let mut endpoint_agreement = true;
    for (a, (u, v)) in d.arcs() {
        let nu = &nodes[u.index()];
        let nv = &nodes[v.index()];
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
    let comm_rounds = run.outcome.stats.rounds - run.transport_overhead_rounds;
    Ok(StrongColoringResult {
        colors_used: palette.len(),
        max_color: palette.max(),
        colors,
        compute_rounds: Phase::compute_rounds(comm_rounds),
        comm_rounds,
        max_degree: delta,
        endpoint_agreement,
        stats: run.outcome.stats,
        alive,
        transport_overhead_rounds: run.transport_overhead_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Engine, Rejection, Transport};
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

    /// DESIGN.md's livelock fixture, the symmetric P5 0–1–2–3–4 with
    /// every arc colored except 1→2. Channels 0 and 1 sit on 3↔4: node 2
    /// holds them forbidden, but node 1, two hops from node 3, cannot see
    /// them. Steps the engine until node 1 colors 1→2 and returns node
    /// 1's proposals in order, plus its retry set toward node 2 and node
    /// 2's `forbidden` set, both as they stood after the first failed
    /// invitation.
    fn p5_livelock(rejection: Rejection) -> (Vec<Vec<Color>>, ColorSet, ColorSet) {
        let topo = Topology::from_graph(&structured::path(5));
        let cfg = ColoringConfig { rejection, ..ColoringConfig::seeded(3) };
        let factory = |seed: NodeSeed<'_>| StrongColoringNode::new(&seed, &cfg);
        let mut stepper =
            dima_sim::Stepper::new(&topo, &cfg.engine_config(u64::MAX), 1, factory).unwrap();
        let c = |x: u32| Some(Color(x));
        let set = |xs: &[u32]| xs.iter().map(|&x| Color(x)).collect::<ColorSet>();
        // Arcs: 0→1 4, 1→0 5, 2→1 6, 2→3 2, 3→2 3, 3→4 0, 4→3 1. Each
        // `forbidden` is the node's own channels plus its neighbors'.
        let nodes = stepper.nodes_mut();
        nodes[0].adopt_rebase(&[c(4)], &[c(5)], set(&[4, 5, 6]));
        nodes[1].adopt_rebase(&[c(5), None], &[c(4), c(6)], set(&[2, 3, 4, 5, 6]));
        nodes[2].adopt_rebase(&[c(6), c(2)], &[None, c(3)], set(&[0, 1, 2, 3, 4, 5, 6]));
        nodes[3].adopt_rebase(&[c(3), c(0)], &[c(2), c(1)], set(&[0, 1, 2, 3, 6]));
        nodes[4].adopt_rebase(&[c(1)], &[c(0)], set(&[0, 1, 2, 3]));
        let mut proposals = Vec::new();
        let mut after_first: Option<(ColorSet, ColorSet)> = None;
        while stepper.nodes()[1].out_color[1].is_none() {
            assert!(stepper.round() < 600, "node 1 never colored 1→2");
            let phase = Phase::of_round(stepper.round());
            stepper.tick(None, &mut NoopTracer).unwrap();
            let inviter = &stepper.nodes()[1];
            match (phase, inviter.proposal) {
                (Phase::InviteStep, Some(p)) => proposals.push(p.colors.to_vec()),
                (Phase::ExchangeStep, _) if !proposals.is_empty() && after_first.is_none() => {
                    after_first =
                        Some((inviter.tried[1].clone(), stepper.nodes()[2].forbidden.clone()));
                }
                _ => {}
            }
        }
        assert_eq!(stepper.nodes()[1].out_color[1], stepper.nodes()[2].in_color[0]);
        let (tried, blocked) = after_first.unwrap();
        (proposals, tried, blocked)
    }

    #[test]
    fn one_reject_retires_every_blocked_channel() {
        let (proposals, tried, blocked) = p5_livelock(Rejection::Hint);
        // Node 1 proposes channel 0, which node 2 holds forbidden. The
        // Reject names node 2's whole `forbidden` set, so the next
        // proposal skips channel 1 as well and succeeds.
        assert_eq!(tried, blocked);
        assert_eq!(proposals, vec![vec![Color(0)], vec![Color(7)]]);
    }

    #[test]
    fn silent_rejection_retires_one_channel_per_round() {
        let (proposals, tried, _) = p5_livelock(Rejection::Silent);
        assert_eq!(tried, [Color(0)].into_iter().collect());
        assert_eq!(proposals, vec![vec![Color(0)], vec![Color(1)], vec![Color(7)]]);
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
