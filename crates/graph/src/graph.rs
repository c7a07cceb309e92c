//! Simple undirected graphs with stable vertex/edge identifiers.
//!
//! [`Graph`] is the central input type of the DiMa algorithms. It is
//! immutable once built; construction goes through [`GraphBuilder`], which
//! validates that the graph is *simple* (no self-loops, no parallel edges)
//! — both DiMa algorithms assume simple graphs, as does the paper.

use crate::error::GraphError;
use crate::ids::{EdgeId, VertexId};

/// An immutable simple undirected graph.
///
/// Vertices are `VertexId(0) .. VertexId(n-1)`; edges are
/// `EdgeId(0) .. EdgeId(m-1)` in insertion order. Endpoints of an edge are
/// stored canonically with the smaller vertex first, but adjacency queries
/// are symmetric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// `adj[v]` lists `(neighbor, edge)` pairs sorted by neighbor id.
    adj: Vec<Vec<(VertexId, EdgeId)>>,
    /// `edges[e] = (u, v)` with `u < v`.
    edges: Vec<(VertexId, VertexId)>,
}

impl Graph {
    /// Build a graph directly from an edge list over `n` vertices.
    ///
    /// Equivalent to pushing every pair into a [`GraphBuilder`].
    pub fn from_edges(
        n: usize,
        pairs: impl IntoIterator<Item = (VertexId, VertexId)>,
    ) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::new(n);
        for (u, v) in pairs {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// An empty graph on `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Graph { adj: vec![Vec::new(); n], edges: Vec::new() }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.adj.len() as u32).map(VertexId)
    }

    /// Iterator over `(EdgeId, (u, v))` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, (VertexId, VertexId))> + '_ {
        self.edges.iter().enumerate().map(|(i, &uv)| (EdgeId(i as u32), uv))
    }

    /// Endpoints of edge `e`, canonical order (`u < v`).
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e.index()]
    }

    /// The endpoint of `e` that is not `v`.
    ///
    /// # Panics
    /// Panics if `v` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: VertexId) -> VertexId {
        let (a, b) = self.endpoints(e);
        if v == a {
            b
        } else if v == b {
            a
        } else {
            panic!("vertex {v} is not an endpoint of edge {e}");
        }
    }

    /// `(neighbor, edge)` pairs incident to `v`, sorted by neighbor id.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        &self.adj[v.index()]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v.index()].len()
    }

    /// Maximum degree Δ of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Minimum degree δ of the graph (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Average degree `2m / n` (0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.edges.len() as f64 / self.adj.len() as f64
        }
    }

    /// The degree of every vertex, indexed by vertex id.
    pub fn degree_sequence(&self) -> Vec<usize> {
        self.adj.iter().map(Vec::len).collect()
    }

    /// `true` if `u` and `v` are adjacent. `O(log degree)`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// The edge joining `u` and `v`, if any. `O(log degree)`, searching
    /// from the lower-degree endpoint.
    pub fn edge_between(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if u.index() >= self.adj.len() || v.index() >= self.adj.len() {
            return None;
        }
        let (from, to) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        let list = &self.adj[from.index()];
        list.binary_search_by_key(&to, |&(w, _)| w).ok().map(|i| list[i].1)
    }

    /// The induced subgraph on `keep`, with vertices renumbered in the
    /// order given. Returns the subgraph and the mapping from new vertex
    /// ids to original ids.
    pub fn induced_subgraph(&self, keep: &[VertexId]) -> (Graph, Vec<VertexId>) {
        let mut new_id = vec![u32::MAX; self.num_vertices()];
        for (i, &v) in keep.iter().enumerate() {
            new_id[v.index()] = i as u32;
        }
        let mut b = GraphBuilder::new(keep.len());
        for (_, (u, v)) in self.edges() {
            let (nu, nv) = (new_id[u.index()], new_id[v.index()]);
            if nu != u32::MAX && nv != u32::MAX {
                b.add_edge(VertexId(nu), VertexId(nv));
            }
        }
        (b.build().expect("subgraph of a simple graph is simple"), keep.to_vec())
    }
}

/// Incremental, validating builder for [`Graph`].
///
/// Duplicate edges and self-loops are rejected at [`GraphBuilder::build`]
/// time (or immediately via [`GraphBuilder::try_add_edge`]).
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    pairs: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, pairs: Vec::new() }
    }

    /// A builder with pre-reserved capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder { n, pairs: Vec::with_capacity(m) }
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges added so far (before validation).
    pub fn num_edges(&self) -> usize {
        self.pairs.len()
    }

    /// Queue an undirected edge; endpoint order is irrelevant.
    /// Validation happens in [`GraphBuilder::build`].
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.pairs.push((u, v));
        self
    }

    /// Add an edge, validating range/self-loop immediately.
    /// (Duplicates are still only caught at build time.)
    pub fn try_add_edge(&mut self, u: VertexId, v: VertexId) -> Result<&mut Self, GraphError> {
        if u.index() >= self.n {
            return Err(GraphError::VertexOutOfRange { vertex: u, num_vertices: self.n });
        }
        if v.index() >= self.n {
            return Err(GraphError::VertexOutOfRange { vertex: v, num_vertices: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        self.pairs.push((u, v));
        Ok(self)
    }

    /// Validate and produce the immutable [`Graph`].
    pub fn build(self) -> Result<Graph, GraphError> {
        let n = self.n;
        let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(self.pairs.len());
        for &(a, b) in &self.pairs {
            if a.index() >= n {
                return Err(GraphError::VertexOutOfRange { vertex: a, num_vertices: n });
            }
            if b.index() >= n {
                return Err(GraphError::VertexOutOfRange { vertex: b, num_vertices: n });
            }
            if a == b {
                return Err(GraphError::SelfLoop(a));
            }
            let (u, v) = if a < b { (a, b) } else { (b, a) };
            edges.push((u, v));
        }
        // Duplicate detection via a sorted copy (keeps insertion order in
        // `edges` itself, which defines edge ids).
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(GraphError::DuplicateEdge(w[0].0, w[0].1));
            }
        }
        let mut adj: Vec<Vec<(VertexId, EdgeId)>> = vec![Vec::new(); n];
        for (i, &(u, v)) in edges.iter().enumerate() {
            let e = EdgeId(i as u32);
            adj[u.index()].push((v, e));
            adj[v.index()].push((u, e));
        }
        for list in &mut adj {
            list.sort_unstable_by_key(|&(w, _)| w);
        }
        Ok(Graph { adj, edges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(
            3,
            [(VertexId(0), VertexId(1)), (VertexId(1), VertexId(2)), (VertexId(0), VertexId(2))],
        )
        .unwrap()
    }

    #[test]
    fn empty_graph_properties() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.min_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.vertices().count(), 0);
    }

    #[test]
    fn triangle_basic_queries() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn endpoints_are_canonical() {
        let g = Graph::from_edges(3, [(VertexId(2), VertexId(0))]).unwrap();
        assert_eq!(g.endpoints(EdgeId(0)), (VertexId(0), VertexId(2)));
    }

    #[test]
    fn other_endpoint_works() {
        let g = triangle();
        let e = g.edge_between(VertexId(0), VertexId(1)).unwrap();
        assert_eq!(g.other_endpoint(e, VertexId(0)), VertexId(1));
        assert_eq!(g.other_endpoint(e, VertexId(1)), VertexId(0));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_endpoint_panics_for_non_endpoint() {
        let g = triangle();
        let e = g.edge_between(VertexId(0), VertexId(1)).unwrap();
        let _ = g.other_endpoint(e, VertexId(2));
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = Graph::from_edges(
            4,
            [(VertexId(3), VertexId(0)), (VertexId(1), VertexId(3)), (VertexId(3), VertexId(2))],
        )
        .unwrap();
        let nbrs: Vec<VertexId> = g.neighbors(VertexId(3)).iter().map(|&(w, _)| w).collect();
        assert_eq!(nbrs, vec![VertexId(0), VertexId(1), VertexId(2)]);
        for &(w, e) in g.neighbors(VertexId(3)) {
            assert_eq!(g.other_endpoint(e, VertexId(3)), w);
        }
    }

    #[test]
    fn edge_between_and_has_edge() {
        let g = triangle();
        assert!(g.has_edge(VertexId(0), VertexId(2)));
        assert!(g.has_edge(VertexId(2), VertexId(0)));
        let g2 = Graph::from_edges(4, [(VertexId(0), VertexId(1))]).unwrap();
        assert!(!g2.has_edge(VertexId(2), VertexId(3)));
        assert_eq!(g2.edge_between(VertexId(0), VertexId(1)), Some(EdgeId(0)));
        assert_eq!(g2.edge_between(VertexId(9), VertexId(1)), None);
    }

    #[test]
    fn self_loop_rejected() {
        let r = Graph::from_edges(3, [(VertexId(1), VertexId(1))]);
        assert_eq!(r.unwrap_err(), GraphError::SelfLoop(VertexId(1)));
    }

    #[test]
    fn duplicate_edge_rejected_regardless_of_orientation() {
        let r = Graph::from_edges(3, [(VertexId(0), VertexId(1)), (VertexId(1), VertexId(0))]);
        assert_eq!(r.unwrap_err(), GraphError::DuplicateEdge(VertexId(0), VertexId(1)));
    }

    #[test]
    fn out_of_range_rejected() {
        let r = Graph::from_edges(2, [(VertexId(0), VertexId(5))]);
        assert!(matches!(r.unwrap_err(), GraphError::VertexOutOfRange { .. }));
    }

    #[test]
    fn try_add_edge_validates_eagerly() {
        let mut b = GraphBuilder::new(2);
        assert!(b.try_add_edge(VertexId(0), VertexId(1)).is_ok());
        assert!(matches!(b.try_add_edge(VertexId(0), VertexId(0)), Err(GraphError::SelfLoop(_))));
        assert!(matches!(
            b.try_add_edge(VertexId(0), VertexId(7)),
            Err(GraphError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn edge_ids_follow_insertion_order() {
        let g =
            Graph::from_edges(4, [(VertexId(2), VertexId(3)), (VertexId(0), VertexId(1))]).unwrap();
        assert_eq!(g.endpoints(EdgeId(0)), (VertexId(2), VertexId(3)));
        assert_eq!(g.endpoints(EdgeId(1)), (VertexId(0), VertexId(1)));
    }

    #[test]
    fn degree_sequence_matches_degrees() {
        let g =
            Graph::from_edges(4, [(VertexId(0), VertexId(1)), (VertexId(0), VertexId(2))]).unwrap();
        assert_eq!(g.degree_sequence(), vec![2, 1, 1, 0]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = Graph::from_edges(
            5,
            [
                (VertexId(0), VertexId(1)),
                (VertexId(1), VertexId(2)),
                (VertexId(2), VertexId(3)),
                (VertexId(3), VertexId(4)),
            ],
        )
        .unwrap();
        let (sub, map) = g.induced_subgraph(&[VertexId(1), VertexId(2), VertexId(3)]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(map, vec![VertexId(1), VertexId(2), VertexId(3)]);
        assert!(sub.has_edge(VertexId(0), VertexId(1))); // old 1-2
        assert!(sub.has_edge(VertexId(1), VertexId(2))); // old 2-3
    }

    #[test]
    fn builder_with_capacity_builds_same_graph() {
        let mut b = GraphBuilder::with_capacity(3, 2);
        b.add_edge(VertexId(0), VertexId(1)).add_edge(VertexId(1), VertexId(2));
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 2);
    }
}
