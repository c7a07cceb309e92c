//! Degree statistics.

use crate::graph::Graph;

/// Summary statistics of a graph's degree sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree δ.
    pub min: usize,
    /// Maximum degree Δ.
    pub max: usize,
    /// Mean degree `2m/n`.
    pub mean: f64,
    /// Population standard deviation of the degree sequence.
    pub stddev: f64,
}

impl DegreeStats {
    /// Compute the statistics of `g`'s degree sequence.
    pub fn of(g: &Graph) -> DegreeStats {
        let n = g.num_vertices();
        if n == 0 {
            return DegreeStats { min: 0, max: 0, mean: 0.0, stddev: 0.0 };
        }
        let degs = g.degree_sequence();
        let min = *degs.iter().min().unwrap();
        let max = *degs.iter().max().unwrap();
        let mean = degs.iter().sum::<usize>() as f64 / n as f64;
        let var = degs.iter().map(|&d| (d as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        DegreeStats { min, max, mean, stddev: var.sqrt() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::structured;

    #[test]
    fn regular_graph_stats() {
        let g = structured::cycle(10);
        let s = DegreeStats::of(&g);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    fn star_stats() {
        let g = structured::star(5); // center degree 4, leaves degree 1
        let s = DegreeStats::of(&g);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
        assert!(s.stddev > 1.0);
    }

    #[test]
    fn empty_graph_stats() {
        let g = Graph::empty(0);
        let s = DegreeStats::of(&g);
        assert_eq!(s, DegreeStats { min: 0, max: 0, mean: 0.0, stddev: 0.0 });
    }
}
