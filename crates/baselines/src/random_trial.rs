//! A distributed randomized edge-coloring baseline on the same simulator.
//!
//! The folklore simplification of randomized distributed edge coloring
//! (cf. Panconesi–Srinivasan and the experimental study of Marathe,
//! Panconesi & Risinger cited by the paper): every round, the *owner*
//! (lower endpoint) of each uncolored edge samples a uniformly random
//! color that is legal for both endpoints from a `2Δ`-palette; the
//! proposal commits iff its color is unique among the proposals incident
//! to **both** endpoints and still legal there. Per computation round this
//! takes three communication rounds (propose → grant → commit), mirroring
//! DiMa's invite → respond → exchange, so rounds and messages are
//! directly comparable.
//!
//! The contrast with DiMaEC: here every uncolored edge is active every
//! round (more messages, colors spread across the whole `2Δ` palette),
//! while DiMa serialises work through matchings (one edge per node per
//! round, lowest-color rule keeps the palette near `Δ`).

use dima_core::palette::{Color, ColorSet};
use dima_core::{ColoringConfig, CoreError};
use dima_graph::{EdgeId, Graph, VertexId};
use dima_sim::telemetry::NoopTracer;
use dima_sim::{
    run, ChurnSchedule, NodeSeed, NodeStatus, Protocol, RoundCtx, RunOutcome, RunStats, Topology,
};

use dima_core::automata::Phase;

/// Messages of the random-trial protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RtMsg {
    /// Owner proposes `color` for the edge `(sender, to)`.
    Propose {
        /// The non-owner endpoint.
        to: VertexId,
        /// Sampled color.
        color: Color,
    },
    /// Non-owner approves the proposal for edge `(to, sender)`.
    Grant {
        /// The owner whose proposal is granted.
        to: VertexId,
        /// The approved color.
        color: Color,
    },
    /// Owner commits the edge `(sender, other)` with `color`.
    Commit {
        /// The other endpoint of the committed edge.
        other: VertexId,
        /// The committed color.
        color: Color,
    },
}

/// Per-vertex state.
#[derive(Debug)]
pub struct RandomTrialNode {
    me: VertexId,
    neighbors: Vec<VertexId>,
    edge_ids: Vec<EdgeId>,
    edge_color: Vec<Option<Color>>,
    used_self: ColorSet,
    used_nbr: Vec<ColorSet>,
    /// (port, color) proposals I own this round.
    my_proposals: Vec<(usize, Color)>,
    /// Colors of all proposals incident to me this round (mine +
    /// addressed to me), for the uniqueness checks.
    incident_colors: Vec<Color>,
    /// Grants received this round as (from, color).
    palette: u32,
}

impl RandomTrialNode {
    fn new(seed: &NodeSeed<'_>, g: &Graph, palette: u32) -> Self {
        let edge_ids = seed
            .neighbors
            .iter()
            .map(|&w| g.edge_between(seed.node, w).expect("topology mirrors graph"))
            .collect();
        let degree = seed.neighbors.len();
        RandomTrialNode {
            me: seed.node,
            neighbors: seed.neighbors.to_vec(),
            edge_ids,
            edge_color: vec![None; degree],
            used_self: ColorSet::new(),
            used_nbr: vec![ColorSet::new(); degree],
            my_proposals: Vec::new(),
            incident_colors: Vec::new(),
            palette,
        }
    }

    fn port_of(&self, v: VertexId) -> Option<usize> {
        self.neighbors.binary_search(&v).ok()
    }

    fn owns(&self, port: usize) -> bool {
        self.me < self.neighbors[port]
    }

    fn all_colored(&self) -> bool {
        self.edge_color.iter().all(Option::is_some)
    }

    fn commit(&mut self, port: usize, color: Color) {
        debug_assert!(self.edge_color[port].is_none());
        self.edge_color[port] = Some(color);
        self.used_self.insert(color);
    }

    /// How many incident proposals carry `color` this round.
    fn color_multiplicity(&self, color: Color) -> usize {
        self.incident_colors.iter().filter(|&&c| c == color).count()
    }
}

impl Protocol for RandomTrialNode {
    type Msg = RtMsg;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, RtMsg>) -> NodeStatus {
        match Phase::of_round(ctx.round()) {
            // Propose.
            Phase::InviteStep => {
                for env in ctx.inbox() {
                    if let RtMsg::Commit { other, color } = *env.msg() {
                        if let Some(p) = self.port_of(env.from) {
                            self.used_nbr[p].insert(color);
                            if other == self.me && self.edge_color[p].is_none() {
                                self.commit(p, color);
                            }
                        }
                    }
                }
                if self.all_colored() {
                    return NodeStatus::Done;
                }
                self.my_proposals.clear();
                self.incident_colors.clear();
                for port in 0..self.neighbors.len() {
                    if self.edge_color[port].is_some() || !self.owns(port) {
                        continue;
                    }
                    let legal: Vec<Color> = (0..self.palette)
                        .map(Color)
                        .filter(|&c| {
                            !self.used_self.contains(c) && !self.used_nbr[port].contains(c)
                        })
                        .collect();
                    debug_assert!(!legal.is_empty(), "2Δ palette always has a legal color");
                    let color = legal[rand::Rng::random_range(ctx.rng(), 0..legal.len())];
                    self.my_proposals.push((port, color));
                    self.incident_colors.push(color);
                    ctx.broadcast(RtMsg::Propose { to: self.neighbors[port], color });
                }
                NodeStatus::Active
            }
            // Grant.
            Phase::RespondStep => {
                let me = self.me;
                let addressed: Vec<(VertexId, Color)> = ctx
                    .inbox()
                    .iter()
                    .filter_map(|env| match *env.msg() {
                        RtMsg::Propose { to, color } if to == me => Some((env.from, color)),
                        _ => None,
                    })
                    .collect();
                self.incident_colors.extend(addressed.iter().map(|&(_, c)| c));
                for &(from, color) in &addressed {
                    let legal = !self.used_self.contains(color);
                    let unique = self.color_multiplicity(color) == 1;
                    let port_open =
                        self.port_of(from).is_some_and(|p| self.edge_color[p].is_none());
                    if legal && unique && port_open {
                        ctx.broadcast(RtMsg::Grant { to: from, color });
                    }
                }
                NodeStatus::Active
            }
            // Commit.
            Phase::ExchangeStep => {
                let me = self.me;
                let grants: Vec<(VertexId, Color)> = ctx
                    .inbox()
                    .iter()
                    .filter_map(|env| match *env.msg() {
                        RtMsg::Grant { to, color } if to == me => Some((env.from, color)),
                        _ => None,
                    })
                    .collect();
                let proposals = std::mem::take(&mut self.my_proposals);
                for (port, color) in proposals {
                    let granted =
                        grants.iter().any(|&(from, c)| from == self.neighbors[port] && c == color);
                    let unique_here = self.color_multiplicity(color) == 1;
                    if granted && unique_here {
                        self.commit(port, color);
                        ctx.broadcast(RtMsg::Commit { other: self.neighbors[port], color });
                    }
                }
                if self.all_colored() {
                    NodeStatus::Done
                } else {
                    NodeStatus::Active
                }
            }
        }
    }
}

/// The outcome of a random-trial run (mirrors
/// [`dima_core::EdgeColoringResult`]; see also [`crate::greedy`] for the
/// centralised analogue).
#[derive(Clone, Debug)]
pub struct RandomTrialResult {
    /// Color per edge.
    pub colors: Vec<Option<Color>>,
    /// Number of distinct colors used.
    pub colors_used: usize,
    /// Computation rounds until termination.
    pub compute_rounds: u64,
    /// Communication rounds.
    pub comm_rounds: u64,
    /// `true` iff both endpoints agree on every edge color.
    pub endpoint_agreement: bool,
    /// Simulator statistics.
    pub stats: RunStats,
}

/// Run the random-trial protocol. Only the `seed`, `engine`,
/// `max_compute_rounds`, `collect_round_stats` and `faults` fields of the
/// config are consulted (the DiMa-specific policies have no analogue
/// here).
pub fn random_trial_coloring(
    g: &Graph,
    cfg: &ColoringConfig,
) -> Result<RandomTrialResult, CoreError> {
    cfg.validate()?;
    let delta = g.max_degree();
    let palette = (2 * delta).max(1) as u32;
    let topo = Topology::from_graph(g);
    let engine_cfg = cfg.engine_config(3 * cfg.compute_round_budget(delta));
    let factory = |seed: NodeSeed<'_>| RandomTrialNode::new(&seed, g, palette);
    let threads = cfg.engine.threads();
    let outcome: RunOutcome<RandomTrialNode> =
        run(&topo, &engine_cfg, threads, &ChurnSchedule::empty(), factory, &mut NoopTracer)?;

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
    let mut palette_used = ColorSet::new();
    for c in colors.iter().flatten() {
        palette_used.insert(*c);
    }
    let comm_rounds = outcome.stats.rounds;
    Ok(RandomTrialResult {
        colors_used: palette_used.len(),
        colors,
        compute_rounds: Phase::compute_rounds(comm_rounds),
        comm_rounds,
        endpoint_agreement: agreement,
        stats: outcome.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dima_core::verify::verify_edge_coloring;
    use dima_core::Engine;
    use dima_graph::gen::{erdos_renyi_avg_degree, structured};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn check(g: &Graph, seed: u64) -> RandomTrialResult {
        let r = random_trial_coloring(g, &ColoringConfig::seeded(seed)).unwrap();
        assert!(r.endpoint_agreement);
        verify_edge_coloring(g, &r.colors).unwrap();
        let delta = g.max_degree();
        if delta > 0 {
            assert!(r.colors_used <= 2 * delta, "palette bound");
        }
        r
    }

    #[test]
    fn structured_families() {
        for g in [
            structured::complete(8),
            structured::cycle(9),
            structured::star(10),
            structured::grid(5, 5),
            structured::petersen(),
        ] {
            check(&g, 3);
        }
    }

    #[test]
    fn empty_and_single_edge() {
        let r = check(&Graph::empty(3), 1);
        assert_eq!(r.colors_used, 0);
        let r = check(&structured::path(2), 1);
        assert_eq!(r.colors_used, 1);
    }

    #[test]
    fn random_graphs() {
        let mut rng = SmallRng::seed_from_u64(7);
        for seed in 0..4 {
            let g = erdos_renyi_avg_degree(100, 8.0, &mut rng).unwrap();
            check(&g, seed);
        }
    }

    #[test]
    fn converges_fast_on_sparse_graphs() {
        let mut rng = SmallRng::seed_from_u64(8);
        let g = erdos_renyi_avg_degree(200, 4.0, &mut rng).unwrap();
        let r = check(&g, 5);
        // Every edge is active every round: convergence is much faster
        // than the round budget (typically ~log n rounds).
        assert!(r.compute_rounds < 60, "{} rounds", r.compute_rounds);
    }

    #[test]
    fn parallel_engine_bit_identical() {
        let g = structured::grid(6, 6);
        let seq = random_trial_coloring(&g, &ColoringConfig::seeded(11)).unwrap();
        let par = random_trial_coloring(
            &g,
            &ColoringConfig {
                engine: Engine::Parallel { threads: 3 },
                ..ColoringConfig::seeded(11)
            },
        )
        .unwrap();
        assert_eq!(seq.colors, par.colors);
        assert_eq!(seq.comm_rounds, par.comm_rounds);
    }
}
