//! Clustering coefficients, used to sanity-check the small-world corpus.

use crate::graph::Graph;
use crate::ids::VertexId;

/// Local clustering coefficient of `v`: fraction of neighbor pairs that
/// are themselves adjacent. Zero for degree < 2.
pub fn local_clustering(g: &Graph, v: VertexId) -> f64 {
    let nbrs = g.neighbors(v);
    let d = nbrs.len();
    if d < 2 {
        return 0.0;
    }
    let mut links = 0usize;
    for i in 0..d {
        for j in (i + 1)..d {
            if g.has_edge(nbrs[i].0, nbrs[j].0) {
                links += 1;
            }
        }
    }
    2.0 * links as f64 / (d * (d - 1)) as f64
}

/// Average of the local clustering coefficients (the Watts–Strogatz `C`).
pub fn average_clustering(g: &Graph) -> f64 {
    if g.num_vertices() == 0 {
        return 0.0;
    }
    g.vertices().map(|v| local_clustering(g, v)).sum::<f64>() / g.num_vertices() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::structured;

    #[test]
    fn triangle_is_fully_clustered() {
        let g = structured::complete(3);
        for v in g.vertices() {
            assert_eq!(local_clustering(&g, v), 1.0);
        }
        assert_eq!(average_clustering(&g), 1.0);
    }

    #[test]
    fn star_has_zero_clustering() {
        let g = structured::star(6);
        assert_eq!(average_clustering(&g), 0.0);
    }

    #[test]
    fn path_endpoints_and_middles() {
        let g = structured::path(4);
        assert_eq!(local_clustering(&g, VertexId(0)), 0.0); // degree 1
        assert_eq!(local_clustering(&g, VertexId(1)), 0.0); // neighbors not adjacent
    }

    #[test]
    fn paw_graph_mixed_values() {
        // Triangle 0-1-2 plus pendant 3 attached to 0.
        let g = Graph::from_edges(
            4,
            [
                (VertexId(0), VertexId(1)),
                (VertexId(1), VertexId(2)),
                (VertexId(0), VertexId(2)),
                (VertexId(0), VertexId(3)),
            ],
        )
        .unwrap();
        assert!((local_clustering(&g, VertexId(0)) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(local_clustering(&g, VertexId(1)), 1.0);
        assert_eq!(local_clustering(&g, VertexId(3)), 0.0);
    }

    #[test]
    fn empty_graph_is_zero() {
        let g = Graph::empty(0);
        assert_eq!(average_clustering(&g), 0.0);
    }
}
