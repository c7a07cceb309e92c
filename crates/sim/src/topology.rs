//! Communication topology: who can talk to whom.
//!
//! A [`Topology`] is a flattened (CSR) neighbor table. For undirected
//! graphs it mirrors the graph's adjacency. For the strong-coloring
//! algorithm on a *symmetric digraph*, radio neighborhood = the underlying
//! undirected adjacency (a bidirectional link is one radio neighbor), so
//! [`Topology::from_digraph`] uses the underlying graph. Under churn the
//! engine patches its table from each batch's diff
//! ([`Topology::apply`]).
//!
//! The table is shared: a clone (every engine [`crate::Stepper`] holds
//! one of its caller's topology) bumps two reference counts, and
//! [`Topology::apply`] writes a fresh table, leaving other holders of
//! the old one as they were.

use std::sync::Arc;

use dima_graph::{Digraph, Graph, VertexId};

use crate::churn::ChurnBatch;

/// A neighbor table for the simulator. Cloning it shares the table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    offsets: Arc<Vec<u32>>,
    neighbors: Arc<Vec<VertexId>>,
    /// The largest row length, kept by every constructor and
    /// [`Topology::apply`] so reading it costs nothing.
    max_degree: usize,
}

impl Topology {
    /// Topology of an undirected graph: neighbors = adjacency.
    pub fn from_graph(g: &Graph) -> Self {
        let mut offsets = Vec::with_capacity(g.num_vertices() + 1);
        let mut neighbors = Vec::with_capacity(2 * g.num_edges());
        let mut max_degree = 0;
        offsets.push(0);
        for v in g.vertices() {
            neighbors.extend(g.neighbors(v).iter().map(|&(w, _)| w));
            offsets.push(neighbors.len() as u32);
            max_degree = max_degree.max(g.degree(v));
        }
        Topology { offsets: Arc::new(offsets), neighbors: Arc::new(neighbors), max_degree }
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

    /// The directed links out of `v` as positions in the flat table:
    /// link `(v, port)` is `arcs(v).start + port`.
    #[inline]
    pub(crate) fn arcs(&self, v: VertexId) -> std::ops::Range<usize> {
        self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize
    }

    /// For every directed link `(u, v)`, the position of its reverse
    /// `(v, u)`, indexed like [`Topology::arcs`]. Needs a symmetric
    /// table, which every constructor and [`Topology::apply`] keep.
    pub(crate) fn reverse_arcs(&self) -> Vec<u32> {
        let mut reverse = vec![0u32; self.neighbors.len()];
        for u in 0..self.num_nodes() {
            let u = VertexId(u as u32);
            for (a, &v) in self.arcs(u).zip(self.neighbors(u)) {
                let back = self.neighbors(v).binary_search(&u).expect("links are symmetric");
                reverse[a] = (self.arcs(v).start + back) as u32;
            }
        }
        reverse
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Maximum degree over all nodes. `O(1)`.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Number of links (each listed once from either end). `O(1)`.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// `true` if `a` and `b` are neighbors. `O(log degree)`.
    pub fn are_neighbors(&self, a: VertexId, b: VertexId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Patch the table with `batch`'s net diff: a leaver's row empties,
    /// and every changed node's row drops its `removed` neighbors and
    /// merges in its `added` ones (a joiner's row is empty before, so it
    /// becomes its `added` list). Rows stay sorted; untouched rows are
    /// copied as they are. The maximum degree is taken on the way. The
    /// patched table is a new one: clones taken before keep the old.
    pub fn apply(&mut self, batch: &ChurnBatch) {
        let (old_offsets, old) = (&self.offsets, &self.neighbors);
        let mut max_degree = 0;
        let grown: usize = batch.changes.iter().map(|(_, c)| c.added.len()).sum();
        let mut offsets = Vec::with_capacity(old_offsets.len());
        let mut neighbors = Vec::with_capacity(old.len() + grown);
        offsets.push(0);
        let mut leaves = batch.leaves.iter().peekable();
        let mut changes = batch.changes.iter().peekable();
        for (v, span) in old_offsets.windows(2).enumerate() {
            let row = &old[span[0] as usize..span[1] as usize];
            if leaves.next_if(|u| u.index() == v).is_some() {
                // A leaver keeps no links.
            } else if let Some((_, change)) = changes.next_if(|(u, _)| u.index() == v) {
                let mut added = change.added.iter().copied().peekable();
                for &w in row.iter().filter(|w| change.removed.binary_search(w).is_err()) {
                    while let Some(a) = added.next_if(|&a| a < w) {
                        neighbors.push(a);
                    }
                    neighbors.push(w);
                }
                neighbors.extend(added);
            } else {
                neighbors.extend_from_slice(row);
            }
            let end = neighbors.len() as u32;
            max_degree = max_degree.max((end - offsets[v]) as usize);
            offsets.push(end);
        }
        *self = Topology { offsets: Arc::new(offsets), neighbors: Arc::new(neighbors), max_degree };
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
    fn clones_share_the_table_until_one_is_patched() {
        use crate::churn::NeighborhoodChange;
        let t = Topology::from_graph(&structured::path(3)); // 0-1-2
        let mut u = t.clone();
        assert!(Arc::ptr_eq(&t.neighbors, &u.neighbors) && Arc::ptr_eq(&t.offsets, &u.offsets));
        let removed = NeighborhoodChange { added: vec![], removed: vec![VertexId(2)] };
        let batch = ChurnBatch {
            round: 0,
            events: vec![],
            joins: vec![],
            leaves: vec![VertexId(2)],
            changes: vec![(VertexId(1), removed)],
        };
        u.apply(&batch);
        assert_eq!(u.neighbors(VertexId(1)), &[VertexId(0)]);
        assert_eq!((u.num_links(), u.max_degree()), (1, 1));
        assert_eq!(t, Topology::from_graph(&structured::path(3)), "the clone kept the old table");
    }

    #[test]
    fn isolated_nodes_have_no_neighbors() {
        let t = Topology::from_graph(&Graph::empty(3));
        assert_eq!(t.neighbors(VertexId(1)), &[]);
        assert_eq!(t.degree(VertexId(1)), 0);
    }
}
