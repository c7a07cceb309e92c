//! **Extension: strong edge coloring of *undirected* graphs.**
//!
//! The paper closes by conjecturing the matching-discovery framework
//! "may be applicable to a variety of graph algorithms". This module is
//! that claim exercised: a strong (distance-2) edge coloring of an
//! undirected graph — no two edges that share an endpoint *or* are joined
//! by an edge may share a color (the paper's Fig. 2; verified against
//! [`dima_graph::conflict::strong_line_graph`]).
//!
//! Undirectedness breaks the trick DiMa2ED leans on (Proposition 5's
//! "the responder overhears the competing invitation"): two responders
//! `v ~ x` can accept the same color from invitors that neither of them
//! hears. The round protocol therefore stretches to **five communication
//! rounds** so conflicts can be resolved before anything commits:
//!
//! | round | invitor side | listener side |
//! |-------|--------------|---------------|
//! | 0 invite  | broadcast `Invite(to, c)` | listen |
//! | 1 accept  | overhear rival invites    | filter (legality, overheard collisions), broadcast `Accept(to, c)` *tentatively* |
//! | 2 proceed | if accepted and no rival invite with `c` was overheard: broadcast `Proceed(to, c)` | overhear rival *accepts*; lose the tie-break if a lower-id neighbor tentatively accepted `c` |
//! | 3 commit  | wait | if `Proceed` arrived and the tie-break was won: commit, broadcast `Committed(to, c)` |
//! | 4 settle  | on `Committed`: commit own side, broadcast `Used(c)` | — |
//!
//! Every same-round conflict pair (shared endpoint, or joined by an edge)
//! is overheard by at least one of the four endpoints at rounds 1–2 and
//! resolved conservatively; cross-round conflicts are excluded by the
//! one-hop `Used` knowledge on at least one side of every future edge.
//! The per-port retry memory of [`crate::strong_coloring`] reappears here
//! for the same livelock reason.

use dima_graph::{EdgeId, Graph, VertexId};
use dima_sim::telemetry::{NoopTracer, PaletteAction, Tracer};
use dima_sim::{
    run, ChurnSchedule, NodeSeed, NodeStatus, Protocol, RoundCtx, RunOutcome, RunStats, Topology,
};
use rand::rngs::SmallRng;

use crate::automata::{choose_role, pick_uniform, pick_uniform_iter, Role};
use crate::config::{ColorPolicy, ColoringConfig, ResponsePolicy};
use crate::error::CoreError;
use crate::palette::{Color, ColorSet};

/// Messages of the undirected strong-coloring protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SuMsg {
    /// Invitor proposes `color` for edge `(sender, to)`.
    Invite {
        /// Intended responder.
        to: VertexId,
        /// Proposed color.
        color: Color,
    },
    /// Responder tentatively accepts `to`'s invitation.
    Accept {
        /// The invitor.
        to: VertexId,
        /// The proposed color.
        color: Color,
    },
    /// Invitor confirms no rival proposal was overheard.
    Proceed {
        /// The responder.
        to: VertexId,
        /// The color being confirmed.
        color: Color,
    },
    /// Responder commits the edge; doubles as a `Used` announcement for
    /// the responder's neighborhood.
    Committed {
        /// The invitor (other endpoint of the committed edge).
        to: VertexId,
        /// The committed color.
        color: Color,
    },
    /// Invitor's own `Used` announcement after settling.
    Used {
        /// The newly used color.
        color: Color,
    },
}

/// The five communication rounds of one computation round.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Phase5 {
    Invite,
    Accept,
    Proceed,
    Commit,
    Settle,
}

impl Phase5 {
    fn of_round(r: u64) -> Phase5 {
        match r % 5 {
            0 => Phase5::Invite,
            1 => Phase5::Accept,
            2 => Phase5::Proceed,
            3 => Phase5::Commit,
            _ => Phase5::Settle,
        }
    }
}

#[derive(Copy, Clone, Debug)]
struct Proposal {
    port: usize,
    color: Color,
}

/// Per-vertex state for the undirected strong-coloring protocol.
#[derive(Debug)]
pub struct StrongUndirectedNode {
    me: VertexId,
    neighbors: Vec<VertexId>,
    edge_ids: Vec<EdgeId>,
    edge_color: Vec<Option<Color>>,
    uncolored: Vec<usize>,
    /// Colors unusable at this node: own edges' colors plus everything
    /// announced by neighbors (one-hop knowledge).
    forbidden: ColorSet,
    /// Per-port retry memory (see module docs).
    tried: Vec<ColorSet>,
    role: Role,
    proposal: Option<Proposal>,
    /// Invitor: saw a rival invite with my proposed color in round 1.
    rival_seen: bool,
    /// Invitor: the partner was overheard inviting (no blame on silence).
    partner_was_inviting: bool,
    /// Invitor: partner tentatively accepted someone (mine or not).
    partner_accepted_any: bool,
    /// Responder: the tentative acceptance taken in round 1.
    tentative: Option<Proposal>,
    /// Responder: lost the round-2 tie-break.
    lost_tiebreak: bool,
    newly_used: Option<Color>,
    invite_probability: f64,
    color_policy: ColorPolicy,
    response_policy: ResponsePolicy,
}

impl StrongUndirectedNode {
    fn new(seed: &NodeSeed<'_>, g: &Graph, cfg: &ColoringConfig) -> Self {
        let edge_ids: Vec<EdgeId> = seed
            .neighbors
            .iter()
            .map(|&w| g.edge_between(seed.node, w).expect("topology mirrors graph"))
            .collect();
        let degree = seed.neighbors.len();
        StrongUndirectedNode {
            me: seed.node,
            neighbors: seed.neighbors.to_vec(),
            edge_ids,
            edge_color: vec![None; degree],
            uncolored: (0..degree).collect(),
            forbidden: ColorSet::new(),
            tried: vec![ColorSet::new(); degree],
            role: Role::Listener,
            proposal: None,
            rival_seen: false,
            partner_was_inviting: false,
            partner_accepted_any: false,
            tentative: None,
            lost_tiebreak: false,
            newly_used: None,
            invite_probability: cfg.invite_probability,
            color_policy: cfg.color_policy,
            response_policy: cfg.response_policy,
        }
    }

    fn port_of(&self, v: VertexId) -> Option<usize> {
        self.neighbors.binary_search(&v).ok()
    }

    fn propose_color(&self, port: usize, rng: &mut SmallRng) -> Color {
        match self.color_policy {
            ColorPolicy::LowestIndex => self.forbidden.first_absent_in_union(&self.tried[port]),
            ColorPolicy::RandomLegal => {
                let bound = self
                    .forbidden
                    .max()
                    .into_iter()
                    .chain(self.tried[port].max())
                    .map(|c| c.0 + 2)
                    .max()
                    .unwrap_or(1);
                let legal =
                    self.forbidden.absent_below(bound).filter(|&c| !self.tried[port].contains(c));
                pick_uniform_iter(rng, legal)
                    .unwrap_or_else(|| self.forbidden.first_absent_in_union(&self.tried[port]))
            }
        }
    }

    fn commit(&mut self, port: usize, color: Color) {
        debug_assert!(self.edge_color[port].is_none(), "edge colored twice");
        self.edge_color[port] = Some(color);
        self.uncolored.retain(|&p| p != port);
        self.forbidden.insert(color);
        self.newly_used = Some(color);
    }
}

impl Protocol for StrongUndirectedNode {
    type Msg = SuMsg;

    fn kind_of(msg: &SuMsg) -> &'static str {
        match msg {
            SuMsg::Invite { .. } => "invite",
            SuMsg::Accept { .. } => "accept",
            SuMsg::Proceed { .. } => "proceed",
            SuMsg::Committed { .. } => "committed",
            SuMsg::Used { .. } => "used",
        }
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, SuMsg>) -> NodeStatus {
        match Phase5::of_round(ctx.round()) {
            Phase5::Invite => {
                // Ingest `Used`/`Committed` announcements (both tell the
                // neighborhood a color is taken nearby).
                for env in ctx.inbox() {
                    match *env.msg() {
                        SuMsg::Used { color } | SuMsg::Committed { color, .. } => {
                            self.forbidden.insert(color);
                        }
                        _ => {}
                    }
                }
                if self.uncolored.is_empty() {
                    ctx.trace_state("D", "all-colored");
                    return NodeStatus::Done;
                }
                self.proposal = None;
                self.rival_seen = false;
                self.partner_was_inviting = false;
                self.partner_accepted_any = false;
                self.tentative = None;
                self.lost_tiebreak = false;
                self.newly_used = None;
                self.role = choose_role(ctx.rng(), self.invite_probability);
                ctx.trace_state(if self.role == Role::Invitor { "I" } else { "L" }, "coin");
                if self.role == Role::Invitor {
                    let &port = pick_uniform(ctx.rng(), &self.uncolored)
                        .expect("invitor has an uncolored edge");
                    let color = self.propose_color(port, ctx.rng());
                    self.proposal = Some(Proposal { port, color });
                    ctx.trace_palette(PaletteAction::Proposed, color.0, self.neighbors[port]);
                    ctx.broadcast(SuMsg::Invite { to: self.neighbors[port], color });
                }
                NodeStatus::Active
            }
            Phase5::Accept => {
                if self.role == Role::Invitor {
                    // Overhear rival invites: any neighbor proposing my
                    // color dooms my proposal (conservative u~w veto).
                    if let Some(Proposal { port, color }) = self.proposal {
                        let partner = self.neighbors[port];
                        for env in ctx.inbox() {
                            if let SuMsg::Invite { color: c, .. } = *env.msg() {
                                if env.from == partner {
                                    self.partner_was_inviting = true;
                                }
                                if c == color {
                                    self.rival_seen = true;
                                }
                            }
                        }
                    }
                } else {
                    let me = self.me;
                    let mut mine: Vec<(VertexId, Color)> = Vec::new();
                    let mut other_colors = ColorSet::new();
                    for env in ctx.inbox() {
                        if let SuMsg::Invite { to, color } = *env.msg() {
                            if to == me {
                                mine.push((env.from, color));
                            } else {
                                other_colors.insert(color);
                            }
                        }
                    }
                    let candidates: Vec<(VertexId, Color)> = mine
                        .into_iter()
                        .filter(|&(from, c)| {
                            !self.forbidden.contains(c)
                                && !other_colors.contains(c)
                                && self.port_of(from).is_some_and(|p| self.edge_color[p].is_none())
                        })
                        .collect();
                    let chosen = match self.response_policy {
                        ResponsePolicy::Random => pick_uniform(ctx.rng(), &candidates).copied(),
                        ResponsePolicy::FirstSender => candidates.first().copied(),
                        ResponsePolicy::LowestColor => {
                            candidates.iter().copied().min_by_key(|&(_, c)| c)
                        }
                    };
                    if let Some((partner, color)) = chosen {
                        let port = self.port_of(partner).expect("invitor is a neighbor");
                        self.tentative = Some(Proposal { port, color });
                        ctx.broadcast(SuMsg::Accept { to: partner, color });
                    }
                }
                ctx.trace_state(if self.role == Role::Invitor { "W" } else { "R" }, "await");
                NodeStatus::Active
            }
            Phase5::Proceed => {
                if self.role == Role::Invitor {
                    if let Some(Proposal { port, color }) = self.proposal {
                        let partner = self.neighbors[port];
                        let me = self.me;
                        let mut accepted_mine = false;
                        for env in ctx.inbox() {
                            if let SuMsg::Accept { to, color: c } = *env.msg() {
                                if env.from == partner {
                                    self.partner_accepted_any = true;
                                    if to == me && c == color {
                                        accepted_mine = true;
                                    }
                                }
                            }
                        }
                        if accepted_mine && !self.rival_seen {
                            ctx.broadcast(SuMsg::Proceed { to: partner, color });
                        }
                    }
                } else if let Some(Proposal { color, .. }) = self.tentative {
                    // Tie-break among responders: a lower-id neighbor
                    // tentatively accepting the same color wins.
                    let me = self.me;
                    self.lost_tiebreak = ctx.inbox().iter().any(|env| {
                        matches!(*env.msg(), SuMsg::Accept { color: c, .. } if c == color)
                            && env.from < me
                    });
                }
                NodeStatus::Active
            }
            Phase5::Commit => {
                if self.role == Role::Listener {
                    if let Some(Proposal { port, color }) = self.tentative {
                        let partner = self.neighbors[port];
                        let me = self.me;
                        let proceed = ctx.inbox().iter().any(|env| {
                            env.from == partner
                                && matches!(
                                    *env.msg(),
                                    SuMsg::Proceed { to, color: c } if to == me && c == color
                                )
                        });
                        if proceed && !self.lost_tiebreak {
                            self.commit(port, color);
                            ctx.trace_palette(PaletteAction::Committed, color.0, partner);
                            ctx.broadcast(SuMsg::Committed { to: partner, color });
                        } else {
                            // The tentative acceptance died (lost the
                            // tie-break, or the invitor overheard a rival
                            // and went silent).
                            ctx.trace_palette(PaletteAction::Conflicted, color.0, partner);
                        }
                    }
                }
                NodeStatus::Active
            }
            Phase5::Settle => {
                // `Committed` messages arrive *here* (sent in the commit
                // round); every node must fold them into its forbidden
                // set now — waiting for the next invite phase would lose
                // them, since inboxes are not persisted across rounds.
                for env in ctx.inbox() {
                    if let SuMsg::Committed { color, .. } = *env.msg() {
                        self.forbidden.insert(color);
                    }
                }
                if self.role == Role::Invitor {
                    if let Some(Proposal { port, color }) = self.proposal {
                        let partner = self.neighbors[port];
                        let me = self.me;
                        let committed = ctx.inbox().iter().any(|env| {
                            env.from == partner
                                && matches!(
                                    *env.msg(),
                                    SuMsg::Committed { to, color: c } if to == me && c == color
                                )
                        });
                        if committed {
                            self.commit(port, color);
                            ctx.trace_palette(PaletteAction::Committed, color.0, partner);
                            ctx.broadcast(SuMsg::Used { color });
                        } else {
                            ctx.trace_palette(PaletteAction::Conflicted, color.0, partner);
                            if !self.partner_was_inviting
                                && !self.partner_accepted_any
                                && !self.rival_seen
                            {
                                // Silent listener ⇒ the color was unusable
                                // at the partner (or collided in its
                                // airspace): remember it for this port.
                                self.tried[port].insert(color);
                            }
                        }
                    }
                }
                if self.uncolored.is_empty() {
                    ctx.trace_state("D", "all-colored");
                    NodeStatus::Done
                } else {
                    ctx.trace_state("E", "exchange");
                    NodeStatus::Active
                }
            }
        }
    }
}

/// The outcome of an undirected strong-coloring run.
#[derive(Clone, Debug)]
pub struct StrongUndirectedResult {
    /// Color per edge (indexed by [`EdgeId`]).
    pub colors: Vec<Option<Color>>,
    /// Number of distinct colors used.
    pub colors_used: usize,
    /// Computation rounds (5 communication rounds each).
    pub compute_rounds: u64,
    /// Communication rounds.
    pub comm_rounds: u64,
    /// Maximum degree of the input.
    pub max_degree: usize,
    /// `true` iff both endpoints committed the same color on every edge.
    pub endpoint_agreement: bool,
    /// Simulator statistics.
    pub stats: RunStats,
}

/// Run the undirected strong-coloring extension on `g`.
pub fn strong_color_graph(
    g: &Graph,
    cfg: &ColoringConfig,
) -> Result<StrongUndirectedResult, CoreError> {
    strong_color_graph_traced(g, cfg, &mut NoopTracer)
}

/// [`strong_color_graph`] with telemetry fed to `tracer` (see
/// [`dima_sim::telemetry`]). With [`NoopTracer`] the tracing branches
/// monomorphize away and this *is* [`strong_color_graph`].
pub fn strong_color_graph_traced<T: Tracer + Sync>(
    g: &Graph,
    cfg: &ColoringConfig,
    tracer: &mut T,
) -> Result<StrongUndirectedResult, CoreError> {
    cfg.validate()?;
    let delta = g.max_degree();
    let topo = Topology::from_graph(g);
    // Five communication rounds per computation round, and strong
    // coloring needs more rounds than plain coloring: double the usual
    // budget.
    let engine_cfg = cfg.engine_config(5 * 2 * cfg.compute_round_budget(delta));
    let factory = |seed: NodeSeed<'_>| StrongUndirectedNode::new(&seed, g, cfg);
    let threads = cfg.engine.threads();
    let outcome: RunOutcome<StrongUndirectedNode> =
        run(&topo, &engine_cfg, threads, &ChurnSchedule::empty(), factory, tracer)?;

    let mut colors: Vec<Option<Color>> = vec![None; g.num_edges()];
    let mut agreement = true;
    for node in &outcome.nodes {
        for (port, &c) in node.edge_color.iter().enumerate() {
            let e = node.edge_ids[port];
            match (colors[e.index()], c) {
                (None, c) => colors[e.index()] = c,
                (Some(prev), Some(now)) => agreement &= prev == now,
                (Some(_), None) => agreement = false,
            }
        }
    }
    if agreement {
        for node in &outcome.nodes {
            for (port, &c) in node.edge_color.iter().enumerate() {
                if c.is_none() && colors[node.edge_ids[port].index()].is_some() {
                    agreement = false;
                }
            }
        }
    }

    let mut palette = ColorSet::new();
    for c in colors.iter().flatten() {
        palette.insert(*c);
    }
    let comm_rounds = outcome.stats.rounds;
    Ok(StrongUndirectedResult {
        colors_used: palette.len(),
        colors,
        compute_rounds: comm_rounds.div_ceil(5),
        comm_rounds,
        max_degree: delta,
        endpoint_agreement: agreement,
        stats: outcome.stats,
    })
}

/// Check a complete strong edge coloring of an undirected graph: edges
/// sharing an endpoint or joined by an edge must differ.
pub fn verify_strong_undirected(
    g: &Graph,
    colors: &[Option<Color>],
) -> Result<(), crate::verify::Violation> {
    assert_eq!(colors.len(), g.num_edges(), "color vector length mismatch");
    for (e, _) in g.edges() {
        if colors[e.index()].is_none() {
            return Err(crate::verify::Violation::Uncolored { index: e.0 });
        }
    }
    // Two edges conflict iff within one hop: compare each edge against
    // all edges incident to its endpoints and its endpoints' neighbors.
    for (e, (u, v)) in g.edges() {
        let c = colors[e.index()];
        for &(w, f) in g.neighbors(u).iter().chain(g.neighbors(v)) {
            if f != e && colors[f.index()] == c {
                return Err(crate::verify::Violation::AdjacentSameColor {
                    e1: e.min(f),
                    e2: e.max(f),
                    color: c.expect("checked above"),
                    at: if g.endpoints(f).0 == u || g.endpoints(f).1 == u { u } else { v },
                });
            }
            for &(_, f2) in g.neighbors(w) {
                if f2 != e && colors[f2.index()] == c {
                    return Err(crate::verify::Violation::AdjacentSameColor {
                        e1: e.min(f2),
                        e2: e.max(f2),
                        color: c.expect("checked above"),
                        at: w,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Engine;
    use dima_graph::conflict::strong_line_graph;
    use dima_graph::gen::{erdos_renyi_avg_degree, structured};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn assert_good(g: &Graph, r: &StrongUndirectedResult) {
        assert!(r.endpoint_agreement);
        verify_strong_undirected(g, &r.colors).unwrap();
        // Cross-check through the conflict-graph lens.
        let sq = strong_line_graph(g);
        for (_, (a, b)) in sq.edges() {
            assert_ne!(r.colors[a.index()], r.colors[b.index()]);
        }
    }

    #[test]
    fn single_edge_and_path() {
        let g = structured::path(2);
        let r = strong_color_graph(&g, &ColoringConfig::seeded(1)).unwrap();
        assert_good(&g, &r);
        assert_eq!(r.colors_used, 1);

        // P4: all three edges are within distance 1 of the middle one;
        // middle conflicts with both, ends conflict with middle and each
        // other? e0-e1 adjacent, e1-e2 adjacent, e0-e2 joined by e1 → all
        // pairwise conflicting: exactly 3 colors.
        let g = structured::path(4);
        let r = strong_color_graph(&g, &ColoringConfig::seeded(1)).unwrap();
        assert_good(&g, &r);
        assert_eq!(r.colors_used, 3);
    }

    #[test]
    fn star_needs_degree_colors() {
        let g = structured::star(7);
        let r = strong_color_graph(&g, &ColoringConfig::seeded(2)).unwrap();
        assert_good(&g, &r);
        assert_eq!(r.colors_used, 6); // all edges pairwise adjacent
    }

    #[test]
    fn structured_families() {
        for g in [
            structured::cycle(9),
            structured::grid(4, 4),
            structured::petersen(),
            structured::complete(6),
            structured::balanced_binary_tree(4),
        ] {
            let r = strong_color_graph(&g, &ColoringConfig::seeded(5)).unwrap();
            assert_good(&g, &r);
        }
    }

    #[test]
    fn random_er_graphs() {
        let mut rng = SmallRng::seed_from_u64(7);
        for seed in 0..3 {
            let g = erdos_renyi_avg_degree(60, 4.0, &mut rng).unwrap();
            let r = strong_color_graph(&g, &ColoringConfig::seeded(seed)).unwrap();
            assert_good(&g, &r);
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(3);
        let r = strong_color_graph(&g, &ColoringConfig::seeded(1)).unwrap();
        assert!(r.colors.is_empty());
        assert_eq!(r.colors_used, 0);
    }

    #[test]
    fn parallel_engine_bit_identical() {
        let g = structured::grid(4, 5);
        let seq = strong_color_graph(&g, &ColoringConfig::seeded(9)).unwrap();
        let par = strong_color_graph(
            &g,
            &ColoringConfig {
                engine: Engine::Parallel { threads: 3 },
                ..ColoringConfig::seeded(9)
            },
        )
        .unwrap();
        assert_eq!(seq.colors, par.colors);
        assert_eq!(seq.comm_rounds, par.comm_rounds);
    }

    #[test]
    fn verifier_rejects_distance2_conflict() {
        // P5: e0 and e2 are joined by e1 → same color must be rejected.
        let g = structured::path(5);
        let colors = vec![Some(Color(0)), Some(Color(1)), Some(Color(0)), Some(Color(2))];
        assert!(verify_strong_undirected(&g, &colors).is_err());
        // e0 and e3 are at distance 2 → sharing is fine.
        let colors = vec![Some(Color(0)), Some(Color(1)), Some(Color(2)), Some(Color(0))];
        assert!(verify_strong_undirected(&g, &colors).is_ok());
    }
}
