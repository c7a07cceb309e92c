//! Deterministic RNG derivation.
//!
//! Every stochastic choice a node makes is drawn from a `SmallRng` whose
//! seed depends only on `(master_seed, node_id)`. The engine therefore
//! produces identical random streams for every node, regardless of
//! scheduling or shard count — the foundation of its shard-count
//! invariance.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 step — the standard 64-bit seed scrambler (Steele et al.),
/// used to decorrelate per-node seeds derived from a shared master seed.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG for node `node_id` under `master_seed`.
pub fn node_rng(master_seed: u64, node_id: u32) -> SmallRng {
    // Two scrambling rounds so that nearby (seed, id) pairs land far
    // apart; a single xor would correlate node 0 with the master stream.
    let s = splitmix64(splitmix64(master_seed) ^ splitmix64(node_id as u64 + 1));
    SmallRng::seed_from_u64(s)
}

/// An auxiliary engine-level RNG (used e.g. by fault injection) that is
/// independent of every node RNG.
pub fn engine_rng(master_seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(splitmix64(master_seed ^ 0xD1A2_C0DE_5EED_F00D))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_is_deterministic_and_scrambles() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Avalanche sanity: flipping the low bit changes many bits.
        let d = (splitmix64(42) ^ splitmix64(43)).count_ones();
        assert!(d > 16, "only {d} bits differ");
    }

    #[test]
    fn node_rngs_reproducible() {
        let mut a = node_rng(7, 3);
        let mut b = node_rng(7, 3);
        for _ in 0..16 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn node_rngs_distinct_across_nodes_and_seeds() {
        let x: u64 = node_rng(7, 3).random();
        let y: u64 = node_rng(7, 4).random();
        let z: u64 = node_rng(8, 3).random();
        assert_ne!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn engine_rng_independent_of_node_zero() {
        let e: u64 = engine_rng(7).random();
        let n: u64 = node_rng(7, 0).random();
        assert_ne!(e, n);
    }
}
