//! Property tests of the graph substrate's structural invariants.

use dima_graph::analysis::{connected_components, DegreeStats};
use dima_graph::conflict::line_graph;
use dima_graph::gen::erdos_renyi_gnm;
use dima_graph::{io, Digraph, Graph, VertexId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..40, 0usize..80, any::<u64>()).prop_map(|(n, m_pct, seed)| {
        let max = n * (n - 1) / 2;
        let m = (max * m_pct / 100).min(max);
        let mut rng = SmallRng::seed_from_u64(seed);
        erdos_renyi_gnm(n, m, &mut rng).expect("valid parameters")
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Handshake lemma: degree sum equals 2m, and the stats agree.
    #[test]
    fn handshake_lemma(g in arb_graph()) {
        let deg_sum: usize = g.degree_sequence().iter().sum();
        prop_assert_eq!(deg_sum, 2 * g.num_edges());
        let stats = DegreeStats::of(&g);
        prop_assert_eq!(stats.max, g.max_degree());
        prop_assert_eq!(stats.min, g.min_degree());
    }

    /// Adjacency is symmetric and consistent with `edge_between`.
    #[test]
    fn adjacency_consistency(g in arb_graph()) {
        for v in g.vertices() {
            for &(w, e) in g.neighbors(v) {
                prop_assert_eq!(g.other_endpoint(e, v), w);
                prop_assert_eq!(g.edge_between(v, w), Some(e));
                prop_assert_eq!(g.edge_between(w, v), Some(e));
                prop_assert!(g.has_edge(v, w));
            }
        }
        for (e, (u, v)) in g.edges() {
            prop_assert!(u < v);
            prop_assert_eq!(g.edge_between(u, v), Some(e));
        }
    }

    /// Edge-list serialisation round-trips exactly.
    #[test]
    fn edge_list_roundtrip(g in arb_graph()) {
        let back = io::from_edge_list(&io::to_edge_list(&g)).unwrap();
        prop_assert_eq!(g, back);
    }

    /// Components: count in [1, n]; singletons isolated; endpoints share.
    #[test]
    fn component_labels_consistent(g in arb_graph()) {
        let (count, labels) = connected_components(&g);
        prop_assert!(count >= 1 || g.num_vertices() == 0);
        prop_assert!(count <= g.num_vertices().max(1));
        for (_, (u, v)) in g.edges() {
            prop_assert_eq!(labels[u.index()], labels[v.index()]);
        }
        prop_assert!(labels.iter().all(|&l| l < count.max(1)));
    }

    /// Line graph: vertex count = m; degree of a line-vertex is
    /// deg(u) + deg(v) − 2 for its edge (u, v).
    #[test]
    fn line_graph_degrees(g in arb_graph()) {
        let l = line_graph(&g);
        prop_assert_eq!(l.num_vertices(), g.num_edges());
        for (e, (u, v)) in g.edges() {
            let expect = g.degree(u) + g.degree(v) - 2;
            prop_assert_eq!(l.degree(VertexId(e.0)), expect);
        }
    }

    /// Symmetric closure invariants: 2m arcs, symmetric, underlying
    /// graph round-trips.
    #[test]
    fn symmetric_closure_roundtrip(g in arb_graph()) {
        let d = Digraph::symmetric_closure(&g);
        prop_assert_eq!(d.num_arcs(), 2 * g.num_edges());
        prop_assert!(d.is_symmetric());
        prop_assert_eq!(d.max_underlying_degree(), g.max_degree());
        let u = d.underlying_graph();
        prop_assert_eq!(u.num_edges(), g.num_edges());
        for (_, (a, b)) in g.edges() {
            prop_assert!(u.has_edge(a, b));
        }
        // Arc pairing layout: 2e / 2e+1 are mutual reverses.
        for (e, _) in g.edges() {
            let a = dima_graph::ArcId(2 * e.0);
            let b = dima_graph::ArcId(2 * e.0 + 1);
            prop_assert_eq!(d.reverse_arc(a), Some(b));
            prop_assert_eq!(d.reverse_arc(b), Some(a));
        }
    }

    /// Induced subgraphs keep exactly the internal edges.
    #[test]
    fn induced_subgraph_edge_count(g in arb_graph(), keep_mask in any::<u64>()) {
        let keep: Vec<VertexId> = g
            .vertices()
            .filter(|v| keep_mask >> (v.index() % 64) & 1 == 1)
            .collect();
        let (sub, map) = g.induced_subgraph(&keep);
        prop_assert_eq!(sub.num_vertices(), keep.len());
        let expected = g
            .edges()
            .filter(|(_, (u, v))| keep.contains(u) && keep.contains(v))
            .count();
        prop_assert_eq!(sub.num_edges(), expected);
        prop_assert_eq!(map, keep);
    }
}
