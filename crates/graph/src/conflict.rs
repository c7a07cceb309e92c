//! Conflict-graph constructions: line graphs and strong (distance-2)
//! conflict graphs.
//!
//! Edge coloring a graph `G` is exactly vertex coloring its line graph
//! `L(G)`.
//! The DiMa verifiers check colorings *directly* on `G` for speed, and the
//! test suite cross-checks against these constructions — two independent
//! implementations of the same constraint, so a bug in one is caught by
//! the other.
//!
//! For the paper's directed Definition 2, [`digraph_strong_conflicts`]
//! builds the symmetrised conflict relation of arcs:
//! for `e = (u → v)`, the conflict set is the reverse arc `(v → u)`, every
//! arc entering `v`, and every arc leaving an in-neighbor of `v` — i.e.
//! every transmission whose *sender* lies in the interference range of
//! `e`'s *receiver* (plus the reverse link). The relation is symmetrised
//! because a coloring constraint is symmetric.

use crate::digraph::Digraph;
use crate::graph::Graph;
use crate::ids::{ArcId, VertexId};

/// The line graph `L(G)`: one vertex per edge of `g`; two vertices
/// adjacent iff the corresponding edges share an endpoint.
pub fn line_graph(g: &Graph) -> Graph {
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
    for v in g.vertices() {
        let inc = g.neighbors(v);
        for i in 0..inc.len() {
            for j in (i + 1)..inc.len() {
                let (e1, e2) = (inc[i].1, inc[j].1);
                let (a, b) = if e1 < e2 { (e1, e2) } else { (e2, e1) };
                pairs.push((VertexId(a.0), VertexId(b.0)));
            }
        }
    }
    // In a simple graph two edges share at most one endpoint, so every
    // pair is generated exactly once; no dedup needed.
    Graph::from_edges(g.num_edges(), pairs).expect("line graph of a simple graph is simple")
}

/// The symmetrised conflict graph of the paper's Definition 2 over the
/// arcs of a symmetric digraph: one vertex per arc, adjacency iff the two
/// arcs may not share a color.
///
/// For arc `e = (u → v)` the directed conflict set is
/// `{(v → u)} ∪ {arcs entering v} ∪ {arcs leaving in-neighbors of v}`;
/// the returned undirected graph joins `e` and `f` iff either is in the
/// other's conflict set.
pub fn digraph_strong_conflicts(d: &Digraph) -> Graph {
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
    let mut push = |a: ArcId, b: ArcId| {
        if a != b {
            let (x, y) = if a < b { (a, b) } else { (b, a) };
            pairs.push((VertexId(x.0), VertexId(y.0)));
        }
    };
    for (e, (u, v)) in d.arcs() {
        // Reverse arc.
        if let Some(r) = d.arc_between(v, u) {
            push(e, r);
        }
        // Arcs entering v.
        for &(_, f) in d.in_neighbors(v) {
            push(e, f);
        }
        // Arcs leaving in-neighbors of v (senders in range of receiver v).
        for &(w, _) in d.in_neighbors(v) {
            for &(_, f) in d.out_neighbors(w) {
                push(e, f);
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    Graph::from_edges(d.num_arcs(), pairs).expect("conflict graph is simple")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::structured;
    use crate::ids::EdgeId;

    #[test]
    fn line_graph_of_path() {
        // P4 has 3 edges in a path; its line graph is P3.
        let g = structured::path(4);
        let l = line_graph(&g);
        assert_eq!(l.num_vertices(), 3);
        assert_eq!(l.num_edges(), 2);
        assert!(l.has_edge(VertexId(0), VertexId(1)));
        assert!(l.has_edge(VertexId(1), VertexId(2)));
        assert!(!l.has_edge(VertexId(0), VertexId(2)));
    }

    #[test]
    fn line_graph_of_star_is_complete() {
        let g = structured::star(5); // 4 edges all sharing the hub
        let l = line_graph(&g);
        assert_eq!(l.num_vertices(), 4);
        assert_eq!(l.num_edges(), 6); // K4
    }

    #[test]
    fn line_graph_of_triangle_is_triangle() {
        let g = structured::complete(3);
        let l = line_graph(&g);
        assert_eq!(l.num_vertices(), 3);
        assert_eq!(l.num_edges(), 3);
    }

    #[test]
    fn digraph_conflicts_of_symmetric_path() {
        // Path u0-u1-u2 symmetric: arcs 0:(0->1) 1:(1->0) 2:(1->2) 3:(2->1).
        let g = structured::path(3);
        let d = Digraph::symmetric_closure(&g);
        let c = digraph_strong_conflicts(&d);
        assert_eq!(c.num_vertices(), 4);
        // (0->1) conflicts with its reverse (1->0).
        assert!(c.has_edge(VertexId(0), VertexId(1)));
        // (0->1) and (2->1) share receiver 1.
        assert!(c.has_edge(VertexId(0), VertexId(3)));
        // (0->1) and (1->2): sender 1 is a neighbor of receiver 1? arcs
        // leaving in-neighbors of receiver(0->1)=1: in-neighbors {0,2};
        // arcs leaving 2 = (2->1); arcs leaving 0 = (0->1). And for
        // (1->2): in-neighbors of 2 = {1}; arcs leaving 1 include (1->0)
        // and (1->2). Symmetrised: does (0->1) conflict (1->2)? Via
        // (1->2)'s set: arcs entering 2: (1->2) only... arcs leaving
        // in-neighbors of 2 = arcs leaving 1 = {(1->0), (1->2)}. So no
        // direct conflict from that side; from (0->1)'s side the set is
        // reverse (1->0), entering 1 = {(0->1),(2->1)}, leaving
        // in-neighbors of 1 = leaving {0, 2} = {(0->1), (2->1)}.
        // So (0->1) and (1->2) do NOT conflict under Definition 2.
        assert!(!c.has_edge(VertexId(0), VertexId(2)));
        // (1->0) and (1->2) share sender 1: (1->0)'s receiver 0 has
        // in-neighbor 1 whose out-arcs include (1->2) -> conflict.
        assert!(c.has_edge(VertexId(1), VertexId(2)));
    }

    #[test]
    fn conflict_relation_is_symmetric_graph() {
        let g = structured::cycle(6);
        let d = Digraph::symmetric_closure(&g);
        let c = digraph_strong_conflicts(&d);
        // Graph type is inherently symmetric; spot-check degree sanity:
        // every arc conflicts with at least its reverse.
        for a in 0..d.num_arcs() {
            assert!(c.degree(VertexId(a as u32)) >= 1);
        }
    }

    #[test]
    fn edgeless_inputs() {
        let g = Graph::empty(3);
        assert_eq!(line_graph(&g).num_vertices(), 0);
        let d = Digraph::symmetric_closure(&g);
        assert_eq!(digraph_strong_conflicts(&d).num_vertices(), 0);
    }

    #[test]
    fn line_graph_edge_ids_match_source_edges() {
        let g = structured::cycle(4);
        let l = line_graph(&g);
        // Every source edge becomes a line-graph vertex with degree 2
        // (each edge of C4 touches two others).
        for (e, _) in g.edges() {
            assert_eq!(l.degree(VertexId(e.0)), 2, "edge {e:?}");
        }
        let _ = EdgeId(0); // silence unused import in some cfg combos
    }
}
