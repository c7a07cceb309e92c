//! Communication topology: who can talk to whom.
//!
//! A [`Topology`] is a flattened (CSR) neighbor table. For undirected
//! graphs it mirrors the graph's adjacency. For the strong-coloring
//! algorithm on a *symmetric digraph*, radio neighborhood = the underlying
//! undirected adjacency (a bidirectional link is one radio neighbor), so
//! [`Topology::from_digraph`] uses the underlying graph.

use dima_graph::{Digraph, Graph, VertexId};

/// An immutable neighbor table for the simulator.
#[derive(Clone, Debug)]
pub struct Topology {
    offsets: Vec<u32>,
    neighbors: Vec<VertexId>,
}

impl Topology {
    /// Topology of an undirected graph: neighbors = adjacency.
    pub fn from_graph(g: &Graph) -> Self {
        let mut offsets = Vec::with_capacity(g.num_vertices() + 1);
        let mut neighbors = Vec::with_capacity(2 * g.num_edges());
        offsets.push(0);
        for v in g.vertices() {
            neighbors.extend(g.neighbors(v).iter().map(|&(w, _)| w));
            offsets.push(neighbors.len() as u32);
        }
        Topology { offsets, neighbors }
    }

    /// Topology of a digraph: radio neighbors are the union of in- and
    /// out-neighbors (for a symmetric digraph this is exactly the
    /// underlying undirected adjacency).
    pub fn from_digraph(d: &Digraph) -> Self {
        Topology::from_graph(&d.underlying_graph())
    }

    /// Number of compute nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbors of `v`, sorted by id.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes()).map(|v| self.degree(VertexId(v as u32))).max().unwrap_or(0)
    }

    /// `true` if `a` and `b` are neighbors. `O(log degree)`.
    pub fn are_neighbors(&self, a: VertexId, b: VertexId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dima_graph::gen::structured;

    #[test]
    fn from_graph_mirrors_adjacency() {
        let g = structured::cycle(5);
        let t = Topology::from_graph(&g);
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.max_degree(), 2);
        for v in g.vertices() {
            let expect: Vec<VertexId> = g.neighbors(v).iter().map(|&(w, _)| w).collect();
            assert_eq!(t.neighbors(v), expect.as_slice());
            assert_eq!(t.degree(v), 2);
        }
        assert!(t.are_neighbors(VertexId(0), VertexId(1)));
        assert!(!t.are_neighbors(VertexId(0), VertexId(2)));
    }

    #[test]
    fn from_digraph_uses_underlying_graph() {
        let g = structured::path(4);
        let d = Digraph::symmetric_closure(&g);
        let t = Topology::from_digraph(&d);
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.degree(VertexId(1)), 2);
        assert!(t.are_neighbors(VertexId(2), VertexId(3)));
        assert!(!t.are_neighbors(VertexId(0), VertexId(2)));
    }

    #[test]
    fn empty_topology() {
        let t = Topology::from_graph(&Graph::empty(0));
        assert_eq!(t.num_nodes(), 0);
        assert_eq!(t.max_degree(), 0);
    }

    #[test]
    fn isolated_nodes_have_no_neighbors() {
        let t = Topology::from_graph(&Graph::empty(3));
        assert_eq!(t.neighbors(VertexId(1)), &[]);
        assert_eq!(t.degree(VertexId(1)), 0);
    }
}
