//! Sequential greedy strong (distance-2) edge coloring.
//!
//! [`strong_greedy_coloring`]: first-fit vertex coloring of the
//! Definition-2 conflict graph built by
//! [`dima_graph::conflict::digraph_strong_conflicts`] — the centralised
//! quality yardstick for DiMa2ED.

use dima_core::palette::{Color, ColorSet};
use dima_graph::conflict::digraph_strong_conflicts;
use dima_graph::{Digraph, VertexId};

/// First-fit strong coloring of `d`'s arcs in arc-id order. Always
/// complete and proper with respect to the paper's Definition 2.
pub fn strong_greedy_coloring(d: &Digraph) -> Vec<Option<Color>> {
    let conflicts = digraph_strong_conflicts(d);
    let mut colors: Vec<Option<Color>> = vec![None; d.num_arcs()];
    for a in 0..d.num_arcs() {
        let mut forbidden = ColorSet::new();
        for &(b, _) in conflicts.neighbors(VertexId(a as u32)) {
            if let Some(c) = colors[b.index()] {
                forbidden.insert(c);
            }
        }
        colors[a] = Some(forbidden.first_absent());
    }
    colors
}

#[cfg(test)]
mod tests {
    use super::*;
    use dima_core::verify::{count_colors, verify_strong_coloring};
    use dima_graph::gen::{erdos_renyi_avg_degree, structured};
    use dima_graph::Graph;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn check(d: &Digraph) -> usize {
        let colors = strong_greedy_coloring(d);
        verify_strong_coloring(d, &colors).unwrap();
        count_colors(&colors)
    }

    #[test]
    fn structured_families() {
        for g in [
            structured::path(6),
            structured::cycle(7),
            structured::star(6),
            structured::grid(4, 5),
            structured::complete(6),
            structured::petersen(),
        ] {
            let d = Digraph::symmetric_closure(&g);
            let used = check(&d);
            assert!(used >= 1);
        }
    }

    #[test]
    fn single_edge_needs_two_channels() {
        let d = Digraph::symmetric_closure(&structured::path(2));
        assert_eq!(check(&d), 2);
    }

    #[test]
    fn empty_digraph() {
        let d = Digraph::symmetric_closure(&Graph::empty(4));
        assert!(strong_greedy_coloring(&d).is_empty());
    }

    #[test]
    fn random_er_digraphs() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..4 {
            let g = erdos_renyi_avg_degree(80, 6.0, &mut rng).unwrap();
            let d = Digraph::symmetric_closure(&g);
            check(&d);
        }
    }

    #[test]
    fn greedy_bound_on_conflict_degree() {
        // First-fit never exceeds (conflict-graph max degree) + 1.
        let g = structured::grid(5, 5);
        let d = Digraph::symmetric_closure(&g);
        let conflicts = digraph_strong_conflicts(&d);
        let used = check(&d);
        assert!(used <= conflicts.max_degree() + 1);
    }
}
