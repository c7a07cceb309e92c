//! Luby-style distributed maximal matching: local-minimum edge values.
//!
//! The classic alternative to the paper's invitation automata: each
//! round, every live edge draws a random value (at its lower endpoint);
//! an edge enters the matching iff its value is the minimum among all
//! live edges at *both* endpoints (Luby's MIS on the line graph). Matched
//! vertices announce themselves and leave; edges without two live
//! endpoints die. Termination yields a maximal matching in `O(log n)`
//! rounds w.h.p.
//!
//! Comparing this against [`dima_core::matching`] quantifies what the
//! invitation mechanism trades: DiMa sends fewer, smaller messages per
//! round and needs no per-edge randomness, at similar round counts on
//! bounded-degree graphs.

use dima_core::automata::Phase;
use dima_core::{ColoringConfig, CoreError};
use dima_graph::{Graph, VertexId};
use dima_sim::telemetry::NoopTracer;
use dima_sim::{
    run, ChurnSchedule, NodeSeed, NodeStatus, Protocol, RoundCtx, RunOutcome, RunStats, Topology,
};

/// Messages of the Luby matching protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum LubyMsg {
    /// The sender (owner = lower endpoint) drew `value` for its edge to
    /// `to` this round.
    Value {
        /// The other endpoint of the owned edge.
        to: VertexId,
        /// This round's random value.
        value: u64,
    },
    /// The sender's minimum live edge this round points at `partner`.
    Min {
        /// The neighbor across the sender's minimum edge.
        partner: VertexId,
    },
    /// The sender is matched and leaves the pool.
    Matched,
}

/// Per-vertex state.
#[derive(Debug)]
pub struct LubyNode {
    me: VertexId,
    neighbors: Vec<VertexId>,
    /// Neighbor still unmatched (live edge).
    available: Vec<bool>,
    matched_with: Option<VertexId>,
    matched_round: Option<u64>,
    /// Values of live edges incident to me this round, by port.
    values: Vec<Option<u64>>,
    /// My announced minimum partner this round.
    my_min: Option<VertexId>,
}

impl LubyNode {
    fn new(seed: &NodeSeed<'_>) -> Self {
        LubyNode {
            me: seed.node,
            neighbors: seed.neighbors.to_vec(),
            available: vec![true; seed.neighbors.len()],
            matched_with: None,
            matched_round: None,
            values: vec![None; seed.neighbors.len()],
            my_min: None,
        }
    }

    fn port_of(&self, v: VertexId) -> Option<usize> {
        self.neighbors.binary_search(&v).ok()
    }

    fn owns(&self, port: usize) -> bool {
        self.me < self.neighbors[port]
    }
}

impl Protocol for LubyNode {
    type Msg = LubyMsg;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, LubyMsg>) -> NodeStatus {
        match Phase::of_round(ctx.round()) {
            // Draw and broadcast edge values.
            Phase::InviteStep => {
                for env in ctx.inbox() {
                    if matches!(*env.msg(), LubyMsg::Matched) {
                        if let Some(p) = self.port_of(env.from) {
                            self.available[p] = false;
                        }
                    }
                }
                debug_assert!(self.matched_with.is_none());
                if !self.available.iter().any(|&a| a) {
                    return NodeStatus::Done; // no live edge can ever match me
                }
                self.values.iter_mut().for_each(|v| *v = None);
                self.my_min = None;
                for port in 0..self.neighbors.len() {
                    if self.available[port] && self.owns(port) {
                        let value: u64 = rand::Rng::random(ctx.rng());
                        self.values[port] = Some(value);
                        ctx.broadcast(LubyMsg::Value { to: self.neighbors[port], value });
                    }
                }
                NodeStatus::Active
            }
            // Compute and announce the local minimum.
            Phase::RespondStep => {
                let me = self.me;
                for env in ctx.inbox() {
                    if let LubyMsg::Value { to, value } = *env.msg() {
                        if to == me {
                            if let Some(p) = self.port_of(env.from) {
                                if self.available[p] {
                                    self.values[p] = Some(value);
                                }
                            }
                        }
                    }
                }
                // Minimum over live incident edges; ties broken by
                // neighbor id (values are 64-bit, ties are negligible but
                // must still be deterministic).
                let min = self
                    .values
                    .iter()
                    .enumerate()
                    .filter_map(|(p, &v)| v.map(|v| (v, self.neighbors[p])))
                    .min();
                if let Some((_, partner)) = min {
                    self.my_min = Some(partner);
                    ctx.broadcast(LubyMsg::Min { partner });
                }
                NodeStatus::Active
            }
            // An edge is matched iff both endpoints named each other.
            Phase::ExchangeStep => {
                if let Some(partner) = self.my_min {
                    let reciprocated = ctx.inbox().iter().any(|env| {
                        env.from == partner
                            && matches!(*env.msg(), LubyMsg::Min { partner: p } if p == self.me)
                    });
                    if reciprocated {
                        self.matched_with = Some(partner);
                        self.matched_round = Some(ctx.round() / 3);
                        ctx.broadcast(LubyMsg::Matched);
                        return NodeStatus::Done;
                    }
                }
                NodeStatus::Active
            }
        }
    }
}

/// Result of a Luby matching run (mirrors
/// [`dima_core::MatchingResult`]).
#[derive(Clone, Debug)]
pub struct LubyMatchingResult {
    /// Matched pairs `(u, v)`, `u < v`.
    pub pairs: Vec<(VertexId, VertexId)>,
    /// Computation round of each pair.
    pub pair_round: Vec<u64>,
    /// Computation rounds until termination.
    pub compute_rounds: u64,
    /// Communication rounds.
    pub comm_rounds: u64,
    /// Simulator statistics.
    pub stats: RunStats,
    /// Endpoint agreement (always true under reliable delivery).
    pub agreement: bool,
}

/// Run Luby-style maximal matching on `g`. Only `seed`, `engine`,
/// `max_compute_rounds`, `collect_round_stats` and `faults` of the config
/// are consulted.
pub fn luby_matching(g: &Graph, cfg: &ColoringConfig) -> Result<LubyMatchingResult, CoreError> {
    cfg.validate()?;
    let topo = Topology::from_graph(g);
    let engine_cfg = cfg.engine_config(3 * cfg.compute_round_budget(g.max_degree()));
    let factory = |seed: NodeSeed<'_>| LubyNode::new(&seed);
    let threads = cfg.engine.threads();
    let outcome: RunOutcome<LubyNode> =
        run(&topo, &engine_cfg, threads, &ChurnSchedule::empty(), factory, &mut NoopTracer)?;

    let mut pairs = Vec::new();
    let mut pair_round = Vec::new();
    let mut agreement = true;
    for node in &outcome.nodes {
        if let Some(partner) = node.matched_with {
            agreement &= outcome.nodes[partner.index()].matched_with == Some(node.me);
            if node.me < partner {
                pairs.push((node.me, partner));
                pair_round.push(node.matched_round.unwrap_or(0));
            }
        }
    }
    let comm_rounds = outcome.stats.rounds;
    Ok(LubyMatchingResult {
        pairs,
        pair_round,
        compute_rounds: Phase::compute_rounds(comm_rounds),
        comm_rounds,
        stats: outcome.stats,
        agreement,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dima_core::verify::verify_matching;
    use dima_core::Engine;
    use dima_graph::gen::{erdos_renyi_avg_degree, structured};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn check_maximal(g: &Graph, m: &LubyMatchingResult) {
        assert!(m.agreement);
        verify_matching(g, &m.pairs).unwrap();
        let mut matched = vec![false; g.num_vertices()];
        for &(u, v) in &m.pairs {
            matched[u.index()] = true;
            matched[v.index()] = true;
        }
        for (_, (u, v)) in g.edges() {
            assert!(matched[u.index()] || matched[v.index()], "edge ({u},{v}) uncovered");
        }
    }

    #[test]
    fn structured_families() {
        for g in [
            structured::complete(9),
            structured::cycle(11),
            structured::star(8),
            structured::grid(5, 6),
            structured::petersen(),
        ] {
            let m = luby_matching(&g, &ColoringConfig::seeded(3)).unwrap();
            check_maximal(&g, &m);
            assert!(!m.pairs.is_empty());
        }
    }

    #[test]
    fn single_edge_matches_in_one_round() {
        let g = structured::path(2);
        let m = luby_matching(&g, &ColoringConfig::seeded(1)).unwrap();
        assert_eq!(m.pairs, vec![(VertexId(0), VertexId(1))]);
        assert_eq!(m.compute_rounds, 1);
    }

    #[test]
    fn random_graphs() {
        let mut rng = SmallRng::seed_from_u64(5);
        for seed in 0..4 {
            let g = erdos_renyi_avg_degree(100, 6.0, &mut rng).unwrap();
            let m = luby_matching(&g, &ColoringConfig::seeded(seed)).unwrap();
            check_maximal(&g, &m);
        }
    }

    #[test]
    fn empty_and_edgeless() {
        let m = luby_matching(&Graph::empty(4), &ColoringConfig::seeded(1)).unwrap();
        assert!(m.pairs.is_empty());
        let m = luby_matching(&Graph::empty(0), &ColoringConfig::seeded(1)).unwrap();
        assert_eq!(m.comm_rounds, 0);
    }

    #[test]
    fn parallel_engine_bit_identical() {
        let g = structured::grid(6, 6);
        let seq = luby_matching(&g, &ColoringConfig::seeded(8)).unwrap();
        let par = luby_matching(
            &g,
            &ColoringConfig {
                engine: Engine::Parallel { threads: 4 },
                ..ColoringConfig::seeded(8)
            },
        )
        .unwrap();
        assert_eq!(seq.pairs, par.pairs);
        assert_eq!(seq.comm_rounds, par.comm_rounds);
    }

    #[test]
    fn converges_quickly() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = erdos_renyi_avg_degree(200, 8.0, &mut rng).unwrap();
        let m = luby_matching(&g, &ColoringConfig::seeded(2)).unwrap();
        // O(log n)-ish: far below the O(Δ) budget.
        assert!(m.compute_rounds < 40, "{} rounds", m.compute_rounds);
    }
}
