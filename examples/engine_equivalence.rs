//! The engine is bit-identical at every shard count — demonstrated live
//! on a non-trivial workload, with timings.
//!
//! Determinism matters for a probabilistic algorithm's science: every
//! number in EXPERIMENTS.md can be regenerated from a seed, regardless of
//! the executing machine's core count.
//!
//! ```text
//! cargo run --release --example engine_equivalence
//! ```

use dima::core::{color_edges, ColoringConfig, Engine};
use dima::graph::gen::erdos_renyi_avg_degree;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let mut rng = SmallRng::seed_from_u64(3);
    let g = erdos_renyi_avg_degree(5_000, 16.0, &mut rng).expect("valid parameters");
    println!(
        "workload: Erdős–Rényi, {} vertices, {} edges, Δ = {}",
        g.num_vertices(),
        g.num_edges(),
        g.max_degree()
    );

    let t0 = Instant::now();
    let one = color_edges(&g, &ColoringConfig::seeded(11)).expect("1-shard run failed");
    let t_one = t0.elapsed();
    println!("1 shard: {} colors, {} rounds, {:?}", one.colors_used, one.compute_rounds, t_one);

    for threads in [2, 4, 8] {
        let cfg =
            ColoringConfig { engine: Engine::Parallel { threads }, ..ColoringConfig::seeded(11) };
        let t0 = Instant::now();
        let many = color_edges(&g, &cfg).expect("multi-shard run failed");
        let t_many = t0.elapsed();
        assert_eq!(many.colors, one.colors, "colorings must be bit-identical");
        assert_eq!(many.comm_rounds, one.comm_rounds);
        assert_eq!(many.stats.messages_sent, one.stats.messages_sent);
        println!(
            "{threads} shards: identical coloring, {:?} ({:.2}x vs 1 shard)",
            t_many,
            t_one.as_secs_f64() / t_many.as_secs_f64()
        );
    }
    println!("\nevery shard count produced the exact same coloring from seed 11.");
}
