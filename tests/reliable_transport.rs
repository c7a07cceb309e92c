//! Acceptance tests for the reliable-link (ARQ) layer: lossy links
//! become invisible to the DiMa protocols — the inner run is
//! bit-identical to a fault-free bare run, with retransmission cost
//! reported separately — and crash-stopped peers degrade gracefully
//! into verified residual outputs instead of hangs or garbage. A link
//! is declared dead only when its peer really crashed: the
//! `arq/false_deaths` counter stays 0.

use dima::core::verify::{
    verify_edge_coloring, verify_residual_edge_coloring, verify_residual_matching,
    verify_residual_strong_coloring,
};
use dima::core::{
    color_edges, maximal_matching, strong_color_digraph, ColoringConfig, CoreError, Transport,
};
use dima::graph::gen::{erdos_renyi_avg_degree, random_geometric, structured};
use dima::graph::{Digraph, Graph};
use dima::sim::fault::FaultPlan;
use dima::sim::RunStats;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const LOSS: f64 = 0.2;

fn lossy(seed: u64, transport: Transport) -> ColoringConfig {
    ColoringConfig { faults: FaultPlan::uniform(LOSS), transport, ..ColoringConfig::seeded(seed) }
}

#[test]
fn fifty_of_fifty_lossy_runs_are_clean_under_arq() {
    // The ISSUE acceptance bar: 20% uniform loss on K12, 50 seeded
    // runs, every single one must agree endpoint-to-endpoint and
    // verify — and must equal the fault-free bare run bit for bit
    // (the ARQ wrapper draws nothing from the node RNG streams).
    let g = structured::complete(12);
    let (mut dropped, mut overhead) = (0u64, 0u64);
    for seed in 0..50 {
        let r = color_edges(&g, &lossy(seed, Transport::reliable())).unwrap();
        assert!(r.endpoint_agreement, "seed {seed}");
        verify_edge_coloring(&g, &r.colors).unwrap_or_else(|v| panic!("seed {seed}: {v}"));

        let clean = color_edges(&g, &ColoringConfig::seeded(seed)).unwrap();
        assert_eq!(r.colors, clean.colors, "seed {seed}: inner run perturbed by loss");
        assert_eq!(r.comm_rounds, clean.comm_rounds, "seed {seed}");
        assert_eq!(
            r.comm_rounds + r.transport_overhead_rounds,
            r.stats.rounds,
            "seed {seed}: overhead accounting"
        );
        dropped += r.stats.dropped;
        overhead += r.transport_overhead_rounds;
    }
    assert!(dropped > 0, "20% loss must actually drop deliveries");
    assert!(overhead > 0, "recovering from loss must cost engine rounds");
}

#[test]
fn bare_transport_at_the_same_loss_rate_is_corrupted() {
    // Counterpoint to the test above: without the ARQ layer the same
    // loss rate must visibly corrupt at least one of the 50 runs
    // (desynchronised endpoints or a round-budget abort).
    let g = structured::complete(12);
    let mut corrupted = 0;
    for seed in 0..50 {
        let cfg = ColoringConfig { max_compute_rounds: Some(300), ..lossy(seed, Transport::Bare) };
        match color_edges(&g, &cfg) {
            Ok(r) => {
                if !r.endpoint_agreement || verify_edge_coloring(&g, &r.colors).is_err() {
                    corrupted += 1;
                }
            }
            Err(CoreError::Sim(_)) => corrupted += 1,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(corrupted >= 1, "bare links at 20% loss never corrupted any of 50 runs");
}

#[test]
fn lossy_matching_and_strong_coloring_are_clean_under_arq() {
    let g = structured::complete(12);
    let d = Digraph::symmetric_closure(&g);
    for seed in 0..10 {
        let m = maximal_matching(&g, &lossy(seed, Transport::reliable())).unwrap();
        assert!(m.agreement, "matching seed {seed}");
        assert_eq!(m.pairs, maximal_matching(&g, &ColoringConfig::seeded(seed)).unwrap().pairs);

        let s = strong_color_digraph(&d, &lossy(seed, Transport::reliable())).unwrap();
        assert!(s.endpoint_agreement, "strong seed {seed}");
        let clean = strong_color_digraph(&d, &ColoringConfig::seeded(seed)).unwrap();
        assert_eq!(s.colors, clean.colors, "strong seed {seed}");
    }
}

#[test]
fn crash_stop_runs_terminate_with_proper_residual_outputs() {
    // 10% crash fraction arming mid-run (computation rounds 2..4-ish):
    // every protocol must still terminate, and the survivors' outputs
    // must pass the residual verifiers — proper where both endpoints
    // live, maximal/complete on the residual graph.
    let g = structured::complete(12);
    let d = Digraph::symmetric_closure(&g);
    let mut crashes = 0usize;
    for seed in 0..8 {
        let cfg = ColoringConfig {
            faults: FaultPlan::crashing(0.1, 4),
            transport: Transport::reliable(),
            ..ColoringConfig::seeded(seed)
        };

        let m = maximal_matching(&g, &cfg).unwrap();
        assert!(m.agreement, "matching seed {seed}");
        verify_residual_matching(&g, &m.pairs, &m.alive)
            .unwrap_or_else(|v| panic!("matching seed {seed}: {v}"));

        let r = color_edges(&g, &cfg).unwrap();
        assert!(r.endpoint_agreement, "edge seed {seed}");
        verify_residual_edge_coloring(&g, &r.colors, &r.alive)
            .unwrap_or_else(|v| panic!("edge seed {seed}: {v}"));

        let s = strong_color_digraph(&d, &cfg).unwrap();
        assert!(s.endpoint_agreement, "strong seed {seed}");
        verify_residual_strong_coloring(&d, &s.colors, &s.alive)
            .unwrap_or_else(|v| panic!("strong seed {seed}: {v}"));

        crashes += r.stats.crashed + m.stats.crashed + s.stats.crashed;
    }
    assert!(crashes > 0, "a 10% crash fraction must fell somebody across 8 seeds");
}

#[test]
fn arq_is_transparent_on_reliable_links() {
    // No faults: wrapping costs a few synchronisation rounds but must
    // not change a single output bit.
    let g = structured::grid(5, 5);
    for seed in [7, 19] {
        let bare = color_edges(&g, &ColoringConfig::seeded(seed)).unwrap();
        let arq = color_edges(
            &g,
            &ColoringConfig { transport: Transport::reliable(), ..ColoringConfig::seeded(seed) },
        )
        .unwrap();
        assert_eq!(bare.colors, arq.colors, "seed {seed}");
        assert_eq!(bare.comm_rounds, arq.comm_rounds, "seed {seed}");
        assert!(
            arq.transport_overhead_rounds <= 3,
            "seed {seed}: fault-free overhead should be a handful of rounds, got {}",
            arq.transport_overhead_rounds
        );
    }
}

/// `arq/false_deaths` of a metered reliable run: links declared dead
/// whose peer never crashed.
fn false_deaths(stats: &RunStats) -> u64 {
    stats.metrics.as_ref().expect("metrics were requested").counter("arq/false_deaths")
}

/// The graphs of `dima-cli gen geometric --n 500 --radius 0.08 --seed 3`
/// and `dima-cli gen er --n 500 --avg-degree 8 --seed 3`: dense enough
/// for a node to stall behind a crashed neighbor while its own
/// neighbors wait on it.
fn crash_graphs() -> [(&'static str, Graph); 2] {
    let rng = || SmallRng::seed_from_u64(3);
    [
        ("geo500", random_geometric(500, 0.08, &mut rng()).unwrap()),
        ("er500", erdos_renyi_avg_degree(500, 8.0, &mut rng()).unwrap()),
    ]
}

#[test]
fn stalled_live_nodes_are_never_declared_dead_under_crashes() {
    // 5% of the nodes crash-stop in the first rounds. Survivors stall
    // behind their crashed neighbors, and their own neighbors wait on
    // them: the stall must not read as a crash, or the residual graph
    // shrinks wrongly (an uncolored edge, endpoints that disagree, two
    // adjacent unmatched survivors).
    for (name, g) in crash_graphs() {
        let d = Digraph::symmetric_closure(&g);
        let mut crashes = 0;
        for seed in 1..=4 {
            let cfg = ColoringConfig {
                faults: FaultPlan::crashing(0.05, 0),
                transport: Transport::reliable(),
                collect_metrics: true,
                ..ColoringConfig::seeded(seed)
            };
            let at = |what: &str| format!("{name} seed {seed} {what}");

            let r = color_edges(&g, &cfg).unwrap();
            assert!(r.endpoint_agreement, "{}", at("color"));
            verify_residual_edge_coloring(&g, &r.colors, &r.alive)
                .unwrap_or_else(|v| panic!("{}: {v}", at("color")));
            assert_eq!(false_deaths(&r.stats), 0, "{}", at("color"));

            let s = strong_color_digraph(&d, &cfg).unwrap();
            assert!(s.endpoint_agreement, "{}", at("strong-color"));
            verify_residual_strong_coloring(&d, &s.colors, &s.alive)
                .unwrap_or_else(|v| panic!("{}: {v}", at("strong-color")));
            assert_eq!(false_deaths(&s.stats), 0, "{}", at("strong-color"));

            let m = maximal_matching(&g, &cfg).unwrap();
            assert!(m.agreement, "{}", at("matching"));
            verify_residual_matching(&g, &m.pairs, &m.alive)
                .unwrap_or_else(|v| panic!("{}: {v}", at("matching")));
            assert_eq!(false_deaths(&m.stats), 0, "{}", at("matching"));

            crashes += r.stats.crashed;
        }
        assert!(crashes > 0, "{name}: a 5% crash fraction must fell somebody");
    }
}

#[test]
fn no_live_peer_is_declared_dead_under_loss_alone() {
    // `dima-cli gen er --n 300 --avg-degree 8 --seed 1`, colored at seed
    // 6 over 2% loss: a node that finished must not be mistaken for a
    // crashed one because its last words were lost. And `complete(12)`
    // at 50% loss, seed 0: a bundle that needs many retransmissions to a
    // peer whose words keep arriving must not kill the link.
    let er = erdos_renyi_avg_degree(300, 8.0, &mut SmallRng::seed_from_u64(1)).unwrap();
    for (g, loss, seed) in [(er, 0.02, 6), (structured::complete(12), 0.5, 0)] {
        let cfg = ColoringConfig {
            faults: FaultPlan::uniform(loss),
            transport: Transport::reliable(),
            collect_metrics: true,
            ..ColoringConfig::seeded(seed)
        };
        let r = color_edges(&g, &cfg).unwrap();
        let metrics = r.stats.metrics.as_ref().unwrap();
        assert_eq!(false_deaths(&r.stats), 0, "loss {loss}");
        assert_eq!(metrics.counter("arq/link_down_silent"), 0, "loss {loss}");
        let bare = color_edges(&g, &ColoringConfig::seeded(seed)).unwrap();
        assert_eq!(r.colors, bare.colors, "loss {loss}");
    }
}

#[test]
fn a_crashed_acceptors_lost_accept_does_not_pair_a_survivor_twice() {
    // 5% loss and 10% crashes from round 3 on ER n=150: an acceptor that
    // crashes before its lost accept can be retransmitted leaves the
    // invitor unpaired and in the pool. The crashed node's stale view of
    // that pair must not count beside the survivor's later pair.
    let g = erdos_renyi_avg_degree(150, 6.0, &mut SmallRng::seed_from_u64(0)).unwrap();
    for seed in 0..5 {
        let cfg = ColoringConfig {
            faults: FaultPlan { drop_probability: 0.05, ..FaultPlan::crashing(0.1, 3) },
            transport: Transport::reliable(),
            collect_metrics: true,
            ..ColoringConfig::seeded(seed)
        };
        let m = maximal_matching(&g, &cfg).unwrap();
        verify_residual_matching(&g, &m.pairs, &m.alive)
            .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        assert_eq!(false_deaths(&m.stats), 0, "seed {seed}");
    }
}
