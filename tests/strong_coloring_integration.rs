//! Cross-crate integration: DiMa2ED (Algorithm 2) end-to-end, with the
//! conflict-graph cross-check and the strong-greedy baseline.

use dima::baselines::strong_greedy_coloring;
use dima::core::verify::{count_colors, verify_strong_coloring};
use dima::core::{strong_color_digraph, ColoringConfig, CoreError, Engine, Rejection};
use dima::graph::conflict::digraph_strong_conflicts;
use dima::graph::gen::{random_geometric, structured, GraphFamily};
use dima::graph::Digraph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Cross-check: the coloring is a proper vertex coloring of the
/// Definition-2 conflict graph.
fn assert_proper_via_conflict_graph(d: &Digraph, colors: &[Option<dima::core::Color>]) {
    let cg = digraph_strong_conflicts(d);
    for (_, (a, b)) in cg.edges() {
        assert_ne!(
            colors[a.index()],
            colors[b.index()],
            "conflicting arcs {a} and {b} share a channel"
        );
    }
}

fn full_check(d: &Digraph, seed: u64) -> dima::core::StrongColoringResult {
    let r = strong_color_digraph(d, &ColoringConfig::seeded(seed)).expect("run failed");
    assert!(r.endpoint_agreement);
    verify_strong_coloring(d, &r.colors).expect("direct verifier");
    assert_proper_via_conflict_graph(d, &r.colors);
    assert_eq!(count_colors(&r.colors), r.colors_used);
    r
}

#[test]
fn structured_fixtures_end_to_end() {
    for g in [
        structured::path(10),
        structured::cycle(12),
        structured::star(10),
        structured::grid(5, 5),
        structured::complete(8),
        structured::petersen(),
        structured::balanced_binary_tree(4),
    ] {
        let d = Digraph::symmetric_closure(&g);
        full_check(&d, 3);
    }
}

#[test]
fn random_families_end_to_end() {
    let mut rng = SmallRng::seed_from_u64(2);
    let families = [
        GraphFamily::ErdosRenyiAvgDegree { n: 80, avg_degree: 4.0 },
        GraphFamily::ErdosRenyiAvgDegree { n: 80, avg_degree: 8.0 },
        GraphFamily::Geometric { n: 60, radius: 0.2 },
        GraphFamily::SmallWorld { n: 64, k: 4, beta: 0.2 },
    ];
    for (i, fam) in families.iter().enumerate() {
        let g = fam.sample(&mut rng).unwrap();
        let d = Digraph::symmetric_closure(&g);
        full_check(&d, 50 + i as u64);
    }
}

#[test]
fn smallest_budget_overrun_found_on_geometric_graphs_now_terminates() {
    // `dima-cli gen geometric --n 30 --radius 0.5 --seed 1` (Δ = 23), the
    // smallest geometric graph found on which Algorithm 2 at seed 1
    // overran the default budget of 64Δ+256 computation rounds under the
    // pseudocode's silent rejection. With Reject hints it terminates and
    // verifies.
    let g = random_geometric(30, 0.5, &mut SmallRng::seed_from_u64(1)).unwrap();
    let d = Digraph::symmetric_closure(&g);
    let r = full_check(&d, 1);
    assert!(r.colors.iter().all(Option::is_some));
    let budget = ColoringConfig::seeded(1).compute_round_budget(r.max_degree);
    assert!(r.compute_rounds <= budget, "{} rounds over the budget {budget}", r.compute_rounds);
    let silent = strong_color_digraph(
        &d,
        &ColoringConfig { rejection: Rejection::Silent, ..ColoringConfig::seeded(1) },
    );
    assert!(
        matches!(silent, Err(CoreError::Sim(dima::sim::SimError::MaxRoundsExceeded { .. }))),
        "silent rejection was expected to overrun the budget: {silent:?}"
    );
}

#[test]
fn dima2ed_quality_is_comparable_to_greedy() {
    // Distributed one-hop coloring cannot beat centralised greedy on the
    // full conflict graph, but it should stay within a small factor.
    let mut rng = SmallRng::seed_from_u64(4);
    let g = GraphFamily::ErdosRenyiAvgDegree { n: 100, avg_degree: 6.0 }.sample(&mut rng).unwrap();
    let d = Digraph::symmetric_closure(&g);
    let dist = full_check(&d, 9);
    let greedy = strong_greedy_coloring(&d);
    verify_strong_coloring(&d, &greedy).unwrap();
    let greedy_used = count_colors(&greedy);
    assert!(
        dist.colors_used <= 4 * greedy_used.max(1),
        "DiMa2ED used {} channels vs greedy {greedy_used}",
        dist.colors_used
    );
}

#[test]
fn rounds_track_delta_not_n() {
    let mut rng = SmallRng::seed_from_u64(6);
    let mean_rounds = |n: usize, d: f64, rng: &mut SmallRng| -> f64 {
        let trials = 6;
        let mut total = 0u64;
        for seed in 0..trials {
            let g = GraphFamily::ErdosRenyiAvgDegree { n, avg_degree: d }.sample(rng).unwrap();
            let dg = Digraph::symmetric_closure(&g);
            total +=
                strong_color_digraph(&dg, &ColoringConfig::seeded(seed)).unwrap().compute_rounds;
        }
        total as f64 / trials as f64
    };
    let small = mean_rounds(100, 4.0, &mut rng);
    let large = mean_rounds(300, 4.0, &mut rng);
    let denser = mean_rounds(100, 8.0, &mut rng);
    let ratio = large / small;
    assert!((0.6..=1.7).contains(&ratio), "rounds should not scale with n: {small} vs {large}");
    assert!(denser > small * 1.3, "rounds should grow with Δ: {small} vs {denser}");
}

#[test]
fn parallel_engine_equivalent() {
    let mut rng = SmallRng::seed_from_u64(8);
    let g = GraphFamily::ErdosRenyiAvgDegree { n: 120, avg_degree: 6.0 }.sample(&mut rng).unwrap();
    let d = Digraph::symmetric_closure(&g);
    let seq = strong_color_digraph(&d, &ColoringConfig::seeded(21)).unwrap();
    let par = strong_color_digraph(
        &d,
        &ColoringConfig { engine: Engine::Parallel { threads: 3 }, ..ColoringConfig::seeded(21) },
    )
    .unwrap();
    assert_eq!(seq.colors, par.colors);
    assert_eq!(seq.comm_rounds, par.comm_rounds);
}

#[test]
fn asymmetric_input_is_rejected() {
    let d = Digraph::from_arcs(
        3,
        [
            (dima::graph::VertexId(0), dima::graph::VertexId(1)),
            (dima::graph::VertexId(1), dima::graph::VertexId(0)),
            (dima::graph::VertexId(1), dima::graph::VertexId(2)),
        ],
    )
    .unwrap();
    assert!(strong_color_digraph(&d, &ColoringConfig::seeded(1)).is_err());
}
