//! The matching-discovery protocol — the substrate framework of the
//! paper's prior work (reference \[3\], Daigle & Prasad 2011) that both coloring
//! algorithms extend.
//!
//! Every computation round, the automata pairs up a set of nodes such
//! that the chosen edges form a matching. Iterating until every node is
//! matched or has no unmatched neighbor yields a **maximal matching**
//! (termination implies no edge joins two unmatched nodes).
//!
//! The paper's Proposition 1 argues each node pairs with probability
//! ≥ ~1/4 per round; `dima-experiments`'s PROP1 binary measures this rate
//! empirically from [`MatchingResult::pair_round`].

use dima_graph::{Graph, VertexId};
use dima_sim::churn::ChurnSchedule;
use dima_sim::telemetry::{NoopTracer, PaletteAction, Tracer};
use dima_sim::{Envelope, NodeSeed, NodeStatus, Protocol, RoundCtx, RunStats, Topology};

use crate::automata::{choose_role, pick_index, Phase, Role};
use crate::config::ColoringConfig;
use crate::error::CoreError;
use crate::runner::run_protocol;

/// Messages of the matching protocol.
///
/// `Invite` and `Accept` are *addressed*: each goes to its one receiver
/// ([`RoundCtx::send`]), as the paper's listener only keeps invitations
/// addressed to it — a broadcast copy at any other neighbor would be read
/// only to be discarded. The receiver is the envelope's addressee, so
/// neither message names it. `Matched` is a broadcast: every neighbor
/// drops the sender from its pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatchMsg {
    /// `I` state: the sender proposes to match with the receiver.
    Invite,
    /// `R` state: the sender accepts the receiver's invitation.
    Accept,
    /// `E`-like announce: the sender is now matched and leaves the pool.
    Matched,
}

/// Per-vertex automata state for matching discovery.
#[derive(Debug)]
pub struct MatchingNode {
    me: VertexId,
    /// Sorted neighbor ids.
    neighbors: Vec<VertexId>,
    /// Parallel to `neighbors`: still unmatched (as announced).
    available: Vec<bool>,
    /// Matched partner, once paired.
    matched_with: Option<VertexId>,
    /// Computation round (0-based) in which the pair formed.
    matched_round: Option<u64>,
    /// Role taken this computation round.
    role: Role,
    /// Neighbor invited this computation round (invitors only).
    invited: Option<VertexId>,
    invite_probability: f64,
}

impl MatchingNode {
    fn new(seed: &NodeSeed<'_>, cfg: &ColoringConfig) -> Self {
        MatchingNode {
            me: seed.node,
            neighbors: seed.neighbors.to_vec(),
            available: vec![true; seed.neighbors.len()],
            matched_with: None,
            matched_round: None,
            role: Role::Listener,
            invited: None,
            invite_probability: cfg.invite_probability,
        }
    }

    fn port_of(&self, v: VertexId) -> Option<usize> {
        self.neighbors.binary_search(&v).ok()
    }

    /// Neighbors still believed unmatched.
    fn available_neighbors(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbors.iter().zip(&self.available).filter(|&(_, &a)| a).map(|(&v, _)| v)
    }
}

/// Senders of the invitations in `inbox`.
fn invitors(inbox: &[Envelope<MatchMsg>]) -> impl Iterator<Item = VertexId> + '_ {
    inbox.iter().filter(|env| *env.msg() == MatchMsg::Invite).map(|env| env.from)
}

impl Protocol for MatchingNode {
    type Msg = MatchMsg;

    fn kind_of(msg: &MatchMsg) -> &'static str {
        match msg {
            MatchMsg::Invite => "invite",
            MatchMsg::Accept => "accept",
            MatchMsg::Matched => "matched",
        }
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, MatchMsg>) -> NodeStatus {
        match Phase::of_round(ctx.round()) {
            Phase::InviteStep => {
                // Ingest `Matched` announcements from the previous
                // exchange step.
                for env in ctx.inbox() {
                    if matches!(*env.msg(), MatchMsg::Matched) {
                        if let Some(p) = self.port_of(env.from) {
                            self.available[p] = false;
                        }
                    }
                }
                debug_assert!(self.matched_with.is_none(), "matched nodes have left");
                let candidates = self.available_neighbors().count();
                if candidates == 0 {
                    // Every neighbor is matched: this node can never pair
                    // again — it leaves unmatched (maximality preserved).
                    ctx.trace_state("D", "isolated");
                    return NodeStatus::Done;
                }
                self.invited = None;
                self.role = choose_role(ctx.rng(), self.invite_probability);
                ctx.trace_state(if self.role == Role::Invitor { "I" } else { "L" }, "coin");
                if self.role == Role::Invitor {
                    let pick = pick_index(ctx.rng(), candidates)
                        .and_then(|i| self.available_neighbors().nth(i));
                    // Unreachable (`candidates > 0`); listen rather than panic.
                    let Some(target) = pick else {
                        self.role = Role::Listener;
                        return NodeStatus::Active;
                    };
                    self.invited = Some(target);
                    ctx.trace_palette(PaletteAction::Proposed, 0, target);
                    ctx.send(target, MatchMsg::Invite);
                }
                NodeStatus::Active
            }
            Phase::RespondStep => {
                if self.role == Role::Listener {
                    // Accept one invitation uniformly at random: count,
                    // draw, then walk to the pick.
                    let kept = invitors(ctx.inbox()).count();
                    let pick =
                        pick_index(ctx.rng(), kept).and_then(|i| invitors(ctx.inbox()).nth(i));
                    if let Some(partner) = pick {
                        ctx.send(partner, MatchMsg::Accept);
                        self.matched_with = Some(partner);
                        self.matched_round = Some(ctx.round() / 3);
                        ctx.trace_palette(PaletteAction::Committed, 0, partner);
                    }
                }
                ctx.trace_state(if self.role == Role::Invitor { "W" } else { "R" }, "await");
                NodeStatus::Active
            }
            Phase::ExchangeStep => {
                if self.role == Role::Invitor && self.matched_with.is_none() {
                    let accepted = ctx.inbox().iter().any(|env| {
                        *env.msg() == MatchMsg::Accept && Some(env.from) == self.invited
                    });
                    if accepted {
                        self.matched_with = self.invited;
                        self.matched_round = Some(ctx.round() / 3);
                        if let Some(partner) = self.matched_with {
                            ctx.trace_palette(PaletteAction::Committed, 0, partner);
                        }
                    }
                }
                if self.matched_with.is_some() {
                    ctx.broadcast(MatchMsg::Matched);
                    ctx.trace_state("D", "paired");
                    return NodeStatus::Done;
                }
                ctx.trace_state("U", "unpaired");
                NodeStatus::Active
            }
        }
    }

    fn on_link_down(&mut self, neighbor: VertexId) {
        // The neighbor can never complete a handshake: treat it like a
        // matched (unavailable) neighbor so this node can still conclude
        // it is isolated among unmatched peers and terminate.
        if let Some(p) = self.port_of(neighbor) {
            self.available[p] = false;
        }
    }
}

/// The outcome of a maximal-matching run.
#[derive(Clone, Debug)]
pub struct MatchingResult {
    /// Matched pairs `(u, v)` with `u < v`.
    pub pairs: Vec<(VertexId, VertexId)>,
    /// Computation round in which each pair formed (parallel to
    /// [`MatchingResult::pairs`]).
    pub pair_round: Vec<u64>,
    /// Computation rounds until global termination.
    pub compute_rounds: u64,
    /// Communication rounds (3 per computation round).
    pub comm_rounds: u64,
    /// Simulator statistics.
    pub stats: RunStats,
    /// `true` iff both endpoints of every pair agree on the pairing
    /// (always true under reliable delivery; with crash faults, checked
    /// between surviving endpoints only).
    pub agreement: bool,
    /// `alive[v]` iff node `v` was not crash-stopped by the fault plan.
    pub alive: Vec<bool>,
    /// Engine rounds spent by the reliable transport on retransmission
    /// and synchronization, on top of [`MatchingResult::comm_rounds`]
    /// (0 under [`crate::Transport::Bare`]). The raw engine round count
    /// is `comm_rounds + transport_overhead_rounds` (= `stats.rounds`).
    pub transport_overhead_rounds: u64,
}

impl MatchingResult {
    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` if the matching is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Run the matching-discovery automata on `g` until every node is matched
/// or isolated among unmatched nodes, returning a **maximal matching**.
pub fn maximal_matching(g: &Graph, cfg: &ColoringConfig) -> Result<MatchingResult, CoreError> {
    maximal_matching_traced(g, cfg, &mut NoopTracer)
}

/// [`maximal_matching`] feeding structured telemetry events to `tracer`
/// (see [`dima_sim::telemetry`]). With [`NoopTracer`] this *is*
/// [`maximal_matching`]: the tracing branches compile away.
pub fn maximal_matching_traced<T: Tracer + Sync>(
    g: &Graph,
    cfg: &ColoringConfig,
    tracer: &mut T,
) -> Result<MatchingResult, CoreError> {
    cfg.validate()?;
    let topo = Topology::from_graph(g);
    let max_rounds = 3 * cfg.compute_round_budget(g.max_degree());
    let factory = |seed: NodeSeed<'_>| MatchingNode::new(&seed, cfg);
    let run = run_protocol(&topo, cfg, max_rounds, &ChurnSchedule::empty(), factory, tracer)?;
    let alive = run.outcome.alive();
    let nodes = &run.outcome.nodes;

    let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
    let mut pair_round = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut agreement = true;
    for (node, &a) in nodes.iter().zip(&alive) {
        if let Some(partner) = node.matched_with {
            // Endpoint agreement is only meaningful between survivors: a
            // crashed partner may have stopped before echoing back.
            if a && alive[partner.index()] {
                agreement &= nodes[partner.index()].matched_with == Some(node.me);
            }
            // Record the pair from either endpoint's view (a crashed
            // invitor may never have learned its invitation was accepted,
            // but the accepting survivor has still left the pool) — but
            // not from a crashed node's view alone when its partner
            // survived without it: an accept lost on a lossy link with no
            // sender left to retransmit it left the survivor in the pool.
            let partner_view = nodes[partner.index()].matched_with;
            if !a && alive[partner.index()] && partner_view != Some(node.me) {
                continue;
            }
            let key = if node.me < partner { (node.me, partner) } else { (partner, node.me) };
            if seen.insert(key) {
                pairs.push(key);
                pair_round.push(node.matched_round.unwrap_or(0));
            }
        }
    }
    let comm_rounds = run.outcome.stats.rounds - run.transport_overhead_rounds;
    Ok(MatchingResult {
        pairs,
        pair_round,
        compute_rounds: Phase::compute_rounds(comm_rounds),
        comm_rounds,
        stats: run.outcome.stats,
        agreement,
        alive,
        transport_overhead_rounds: run.transport_overhead_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Engine, Transport};
    use crate::verify::verify_matching;
    use dima_graph::gen::structured;
    use dima_graph::gen::{erdos_renyi_avg_degree, watts_strogatz};
    use dima_sim::fault::FaultPlan;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn check_maximal(g: &Graph, m: &MatchingResult) {
        assert!(m.agreement);
        verify_matching(g, &m.pairs).unwrap();
        // Maximality: no edge joins two unmatched vertices.
        let mut matched = vec![false; g.num_vertices()];
        for &(u, v) in &m.pairs {
            matched[u.index()] = true;
            matched[v.index()] = true;
        }
        for (_, (u, v)) in g.edges() {
            assert!(
                matched[u.index()] || matched[v.index()],
                "edge ({u},{v}) joins two unmatched vertices"
            );
        }
    }

    #[test]
    fn single_edge_matches() {
        let g = structured::path(2);
        let m = maximal_matching(&g, &ColoringConfig::seeded(1)).unwrap();
        assert_eq!(m.pairs, vec![(VertexId(0), VertexId(1))]);
        assert_eq!(m.pair_round, vec![0]);
        check_maximal(&g, &m);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = Graph::empty(5);
        let m = maximal_matching(&g, &ColoringConfig::seeded(1)).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.compute_rounds, 1); // one round to notice isolation
        let g = Graph::empty(0);
        let m = maximal_matching(&g, &ColoringConfig::seeded(1)).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.comm_rounds, 0);
    }

    #[test]
    fn maximal_on_structured_families() {
        for (name, g) in [
            ("complete", structured::complete(9)),
            ("cycle", structured::cycle(11)),
            ("star", structured::star(8)),
            ("grid", structured::grid(5, 6)),
            ("petersen", structured::petersen()),
            ("tree", structured::balanced_binary_tree(4)),
        ] {
            let m = maximal_matching(&g, &ColoringConfig::seeded(7)).unwrap();
            check_maximal(&g, &m);
            assert!(!m.is_empty(), "{name}");
        }
    }

    #[test]
    fn maximal_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(3);
        for seed in 0..5 {
            let g = erdos_renyi_avg_degree(100, 6.0, &mut rng).unwrap();
            let m = maximal_matching(&g, &ColoringConfig::seeded(seed)).unwrap();
            check_maximal(&g, &m);
        }
        let g = watts_strogatz(64, 6, 0.2, &mut rng).unwrap();
        let m = maximal_matching(&g, &ColoringConfig::seeded(9)).unwrap();
        check_maximal(&g, &m);
    }

    #[test]
    fn star_matches_exactly_one_pair() {
        let g = structured::star(10);
        let m = maximal_matching(&g, &ColoringConfig::seeded(5)).unwrap();
        assert_eq!(m.len(), 1);
        let (u, _) = m.pairs[0];
        assert_eq!(u, VertexId(0)); // hub is in every edge
    }

    #[test]
    fn parallel_engine_matches_sequential() {
        let g = structured::grid(7, 7);
        let seq = maximal_matching(&g, &ColoringConfig::seeded(13)).unwrap();
        let par = maximal_matching(
            &g,
            &ColoringConfig {
                engine: Engine::Parallel { threads: 4 },
                ..ColoringConfig::seeded(13)
            },
        )
        .unwrap();
        assert_eq!(seq.pairs, par.pairs);
        assert_eq!(seq.pair_round, par.pair_round);
        assert_eq!(seq.comm_rounds, par.comm_rounds);
        assert_eq!(seq.stats.messages_sent, par.stats.messages_sent);
    }

    #[test]
    fn pair_rounds_are_within_run() {
        let g = structured::complete(12);
        let m = maximal_matching(&g, &ColoringConfig::seeded(2)).unwrap();
        for &r in &m.pair_round {
            assert!(r < m.compute_rounds);
        }
    }

    #[test]
    fn rounds_stay_modest_on_complete_graph() {
        // K16: Δ = 15; expect far fewer than the 64Δ+256 budget.
        let g = structured::complete(16);
        let m = maximal_matching(&g, &ColoringConfig::seeded(4)).unwrap();
        assert!(m.compute_rounds < 200, "took {} rounds", m.compute_rounds);
    }

    #[test]
    fn reliable_transport_is_transparent_without_faults() {
        let g = structured::grid(5, 5);
        let bare = maximal_matching(&g, &ColoringConfig::seeded(21)).unwrap();
        let arq = maximal_matching(
            &g,
            &ColoringConfig { transport: Transport::reliable(), ..ColoringConfig::seeded(21) },
        )
        .unwrap();
        // Same RNG streams, same inboxes: the identical matching, in the
        // same number of protocol rounds.
        assert_eq!(bare.pairs, arq.pairs);
        assert_eq!(bare.pair_round, arq.pair_round);
        assert_eq!(bare.comm_rounds, arq.comm_rounds);
        assert!(arq.transport_overhead_rounds <= 3, "{}", arq.transport_overhead_rounds);
        check_maximal(&g, &arq);
    }

    #[test]
    fn reliable_transport_survives_loss() {
        let g = structured::complete(10);
        let bare = maximal_matching(&g, &ColoringConfig::seeded(29)).unwrap();
        let cfg = ColoringConfig {
            faults: FaultPlan::uniform(0.2),
            transport: Transport::reliable(),
            ..ColoringConfig::seeded(29)
        };
        let m = maximal_matching(&g, &cfg).unwrap();
        assert!(m.stats.dropped > 0, "the plan should actually drop messages");
        assert_eq!(m.pairs, bare.pairs);
        assert!(m.transport_overhead_rounds > 0);
        check_maximal(&g, &m);
    }

    #[test]
    fn crashes_leave_residual_maximal_matching() {
        let g = structured::complete(14);
        let cfg = ColoringConfig {
            faults: FaultPlan { crash_spread: 1, ..FaultPlan::crashing(0.3, 0) },
            transport: Transport::reliable(),
            ..ColoringConfig::seeded(33)
        };
        let m = maximal_matching(&g, &cfg).unwrap();
        assert!(m.alive.iter().any(|&a| !a), "the plan should crash someone");
        assert!(m.agreement);
        crate::verify::verify_residual_matching(&g, &m.pairs, &m.alive).unwrap();
    }

    #[test]
    fn invalid_config_rejected() {
        let g = structured::path(3);
        let cfg = ColoringConfig { invite_probability: 0.0, ..Default::default() };
        assert!(matches!(maximal_matching(&g, &cfg), Err(CoreError::Config(_))));
    }
}
