//! Degree-structure diagnostic: a power-law tail estimate.
//!
//! `dima-cli info` prints it for an input graph: Barabási–Albert draws
//! show heavy tails (small estimated exponent), Watts–Strogatz draws stay
//! near-regular (large exponent), Erdős–Rényi sits in between.

use crate::graph::Graph;

/// Maximum-likelihood estimate of a power-law exponent for the degree
/// tail (Clauset–Shalizi–Newman discrete approximation), over degrees
/// `>= d_min`. Returns `None` if fewer than 10 vertices qualify.
pub fn power_law_exponent(g: &Graph, d_min: usize) -> Option<f64> {
    let d_min = d_min.max(1);
    let tail: Vec<f64> =
        g.degree_sequence().into_iter().filter(|&d| d >= d_min).map(|d| d as f64).collect();
    if tail.len() < 10 {
        return None;
    }
    let xm = d_min as f64 - 0.5;
    let s: f64 = tail.iter().map(|&d| (d / xm).ln()).sum();
    Some(1.0 + tail.len() as f64 / s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{barabasi_albert, structured, watts_strogatz};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn power_law_estimate_separates_families() {
        let mut rng = SmallRng::seed_from_u64(2);
        let ba = barabasi_albert(800, 2, 1.0, &mut rng).unwrap();
        let ws = watts_strogatz(800, 4, 0.1, &mut rng).unwrap();
        let a_ba = power_law_exponent(&ba, 3).expect("enough tail");
        let a_ws = power_law_exponent(&ws, 3).expect("enough tail");
        // BA tails are heavy (exponent ~3); WS degrees are concentrated,
        // which the MLE reads as a much steeper (larger) exponent.
        assert!(a_ba < a_ws, "BA {a_ba} should be heavier-tailed than WS {a_ws}");
        assert!(a_ba > 1.5 && a_ba < 4.5, "BA exponent {a_ba} out of plausible range");
    }

    #[test]
    fn power_law_estimate_needs_data() {
        let g = structured::path(5);
        assert!(power_law_exponent(&g, 10).is_none());
    }
}
