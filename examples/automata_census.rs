//! Watch the paper's Figure-1 automata run: a per-round census of how
//! the node population distributes over the states C/I/L/R/W/U/E/D while
//! DiMaEC colors a graph.
//!
//! ```text
//! cargo run --release --example automata_census
//! ```

use dima::core::{color_edges_traced, ColoringConfig};
use dima::graph::gen::erdos_renyi_avg_degree;
use dima::sim::telemetry::{StateTimeline, STATES};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let mut rng = SmallRng::seed_from_u64(2);
    let g = erdos_renyi_avg_degree(60, 6.0, &mut rng).expect("valid parameters");
    println!(
        "coloring an Erdős–Rényi graph: n = {}, m = {}, Δ = {}\n",
        g.num_vertices(),
        g.num_edges(),
        g.max_degree()
    );
    let mut timeline = StateTimeline::new(g.num_vertices());
    let result =
        color_edges_traced(&g, &ColoringConfig::seeded(7), &mut timeline).expect("run failed");
    dima::core::verify::verify_edge_coloring(&g, &result.colors).expect("proper coloring");

    println!("automata state census (communication rounds; 3 per computation round):");
    print_census(&timeline);
    println!(
        "columns: I invitors / L listeners (invite step), W waiting / R responding\n\
         (respond step), E exchanging, D done. Watch D grow by roughly a constant\n\
         fraction per computation round — that is Proposition 1 in action.\n"
    );
    println!(
        "result: {} colors in {} computation rounds",
        result.colors_used, result.compute_rounds
    );
}

/// One row per communication round, one column per state that some node
/// occupied at some point, in the automata's canonical state order.
fn print_census(timeline: &StateTimeline) {
    let rounds = timeline.rounds();
    let columns: Vec<usize> =
        (0..STATES.len()).filter(|&s| rounds.iter().any(|r| r.census[s] > 0)).collect();
    let header: String = columns.iter().map(|&s| format!(" {:>6}", STATES[s])).collect();
    println!("round{header}");
    for (r, snap) in rounds.iter().enumerate() {
        let row: String = columns.iter().map(|&s| format!(" {:>6}", snap.census[s])).collect();
        println!("{r:>5}{row}");
    }
    println!();
}
