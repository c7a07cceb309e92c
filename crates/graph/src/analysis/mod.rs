//! Structural analysis: components, clustering, degree statistics and a
//! power-law tail estimate.
//!
//! `dima-cli info` reports these for an input graph, and the generators'
//! tests use them to check that a corpus has the shape it claims (e.g.
//! that Watts–Strogatz graphs really are high-clustering).

mod clustering;
mod degree;
mod dsu;
mod spectrum;

pub use clustering::{average_clustering, local_clustering};
pub use degree::DegreeStats;
pub use dsu::DisjointSets;
pub use spectrum::power_law_exponent;

use crate::graph::Graph;

/// Label every vertex with a component id in `0..count`; returns
/// `(count, labels)`. Runs union-find over the edge list.
pub fn connected_components(g: &Graph) -> (usize, Vec<usize>) {
    let mut dsu = DisjointSets::new(g.num_vertices());
    for (_, (u, v)) in g.edges() {
        dsu.union(u.index(), v.index());
    }
    dsu.component_labels()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::structured;
    use crate::ids::VertexId;

    #[test]
    fn components_of_disjoint_union() {
        let g = Graph::from_edges(
            6,
            [(VertexId(0), VertexId(1)), (VertexId(1), VertexId(2)), (VertexId(3), VertexId(4))],
        )
        .unwrap();
        let (count, labels) = connected_components(&g);
        assert_eq!(count, 3); // {0,1,2}, {3,4}, {5}
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[0], labels[5]);
    }

    #[test]
    fn connectivity_of_structured_families() {
        let count = |g: &Graph| connected_components(g).0;
        assert_eq!(count(&structured::complete(5)), 1);
        assert_eq!(count(&structured::cycle(9)), 1);
        assert_eq!(count(&structured::grid(4, 4)), 1);
        assert_eq!(count(&structured::balanced_binary_tree(4)), 1);
        assert_eq!(count(&Graph::empty(1)), 1);
        assert_eq!(count(&Graph::empty(0)), 0);
        assert_eq!(count(&Graph::empty(2)), 2);
    }
}
