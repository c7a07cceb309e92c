//! Property-based tests of the core invariants: every run of every
//! algorithm produces verified output with the paper's bounds, on
//! arbitrary random graphs.

use dima::baselines::{greedy_edge_coloring, misra_gries_edge_coloring, EdgeOrder};
use dima::core::verify::{
    count_colors, verify_edge_coloring, verify_matching, verify_strong_coloring,
};
use dima::core::{
    color_edges, maximal_matching, strong_color_digraph, ColorPolicy, ColoringConfig,
};
use dima::graph::gen::erdos_renyi_gnm;
use dima::graph::{Digraph, Graph};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..36, 0usize..70, any::<u64>()).prop_map(|(n, m_pct, seed)| {
        let max = n * (n - 1) / 2;
        let m = (max * m_pct / 100).min(max);
        let mut rng = SmallRng::seed_from_u64(seed);
        erdos_renyi_gnm(n, m, &mut rng).expect("valid parameters")
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Proposition 2 + Proposition 3: DiMaEC colorings are always proper,
    /// complete, and within 2Δ−1 colors.
    #[test]
    fn dimaec_always_proper_and_bounded(g in arb_graph(), seed in any::<u64>()) {
        let r = color_edges(&g, &ColoringConfig::seeded(seed)).unwrap();
        prop_assert!(r.endpoint_agreement);
        prop_assert!(verify_edge_coloring(&g, &r.colors).is_ok());
        let delta = g.max_degree();
        if delta > 0 {
            prop_assert!(r.colors_used < 2 * delta);
        }
    }

    /// The matching automata always yields a valid *maximal* matching.
    #[test]
    fn matching_always_valid_and_maximal(g in arb_graph(), seed in any::<u64>()) {
        let m = maximal_matching(&g, &ColoringConfig::seeded(seed)).unwrap();
        prop_assert!(m.agreement);
        prop_assert!(verify_matching(&g, &m.pairs).is_ok());
        let mut matched = vec![false; g.num_vertices()];
        for &(u, v) in &m.pairs {
            matched[u.index()] = true;
            matched[v.index()] = true;
        }
        for (_, (u, v)) in g.edges() {
            prop_assert!(matched[u.index()] || matched[v.index()], "not maximal at ({u},{v})");
        }
    }

    /// Proposition 5: DiMa2ED colorings satisfy Definition 2, always.
    #[test]
    fn dima2ed_always_proper(g in arb_graph(), seed in any::<u64>()) {
        let d = Digraph::symmetric_closure(&g);
        let r = strong_color_digraph(&d, &ColoringConfig::seeded(seed)).unwrap();
        prop_assert!(r.endpoint_agreement);
        prop_assert!(verify_strong_coloring(&d, &r.colors).is_ok());
    }

    /// Misra–Gries is always within Vizing's bound, and never worse than
    /// greedy's worst case.
    #[test]
    fn misra_gries_always_within_vizing(g in arb_graph()) {
        let colors = misra_gries_edge_coloring(&g);
        prop_assert!(verify_edge_coloring(&g, &colors).is_ok());
        prop_assert!(count_colors(&colors) <= g.max_degree() + 1);
    }

    /// Greedy first-fit is proper and within 2Δ−1 for any order seed.
    #[test]
    fn greedy_always_proper(g in arb_graph(), order_seed in any::<u64>()) {
        let colors = greedy_edge_coloring(&g, &EdgeOrder::Random { seed: order_seed });
        prop_assert!(verify_edge_coloring(&g, &colors).is_ok());
        let delta = g.max_degree();
        if delta > 0 {
            prop_assert!(count_colors(&colors) < 2 * delta);
        }
    }

    /// DiMaEC never does worse than the worst-case bound even with biased
    /// coins and either inviter color policy (the random-legal ablation
    /// draws from `0..2Δ−1`, so it must stay under the bound too).
    #[test]
    fn dimaec_bounds_hold_under_config_sweep(
        g in arb_graph(),
        seed in any::<u64>(),
        p_step in 1u32..10,
        random_legal in any::<bool>(),
    ) {
        let color_policy =
            if random_legal { ColorPolicy::RandomLegal } else { ColorPolicy::LowestIndex };
        let cfg = ColoringConfig {
            invite_probability: p_step as f64 / 10.0,
            color_policy,
            ..ColoringConfig::seeded(seed)
        };
        let r = color_edges(&g, &cfg).unwrap();
        prop_assert!(verify_edge_coloring(&g, &r.colors).is_ok());
        let delta = g.max_degree();
        if delta > 0 {
            prop_assert!(r.colors_used < 2 * delta);
        }
    }
}
