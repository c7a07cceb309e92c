//! Memory gate for Algorithm 1 (DiMaEC) on the engine.
//!
//! This test binary installs [`CountingAlloc`] as its global allocator
//! and runs `color_edges` on an Erdős–Rényi graph (n = 20,000, average
//! degree 8) at one and two shards, then once more with the Kempe pass
//! on. It gates these figures of the runs:
//!
//! * the heap peak during the call, per node, above what was live
//!   before it — node state, topology and mail;
//! * heap allocation calls per message sent. Each node's state is one
//!   heap block allocated at construction, and steady-state rounds
//!   reuse the mail plane's buffers, so this stays far below one;
//! * the heap peak per node of the reduced run, whose pass keeps every
//!   finished automaton alive beside its own.
//!
//! The constants were measured on this graph and carry about 10%
//! headroom: a change that adds per-port or per-message heap state
//! fails here. The file holds exactly one test so no other test's
//! allocations land in the global counters while it measures.

use dima_core::{color_edges, ColorReduction, ColoringConfig, Engine, KempeConfig};
use dima_graph::gen::erdos_renyi_avg_degree;
use dima_sim::telemetry::{mem, CountingAlloc};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap peak during `color_edges`, above the live heap before it, per
/// node. Measured: 416.8 at one and two shards.
const MAX_PEAK_BYTES_PER_NODE: f64 = 460.0;
/// Heap allocation calls during `color_edges` per message sent.
/// Measured: 0.0457 at one shard, 0.0460 at two.
const MAX_ALLOCS_PER_MESSAGE: f64 = 0.051;
/// [`MAX_PEAK_BYTES_PER_NODE`] for a run whose Kempe pass aims at ten
/// colors, far below this graph's Δ = 22, so that it builds about half
/// the nodes. Measured: 632.2 at one shard.
const MAX_REDUCED_PEAK_BYTES_PER_NODE: f64 = 700.0;

#[test]
fn dimaec_heap_peak_and_allocations_stay_gated() {
    const N: usize = 20_000;
    let g = erdos_renyi_avg_degree(N, 8.0, &mut SmallRng::seed_from_u64(7)).unwrap();
    let mut colorings = Vec::new();
    for threads in [1, 2] {
        let cfg = ColoringConfig {
            engine: Engine::Parallel { threads },
            ..ColoringConfig::for_measurement(11)
        };
        let live = mem::live_bytes();
        mem::reset_peak();
        let calls = mem::alloc_calls();
        let r = color_edges(&g, &cfg).unwrap();
        let allocs = mem::alloc_calls() - calls;
        let peak_per_node = (mem::peak_bytes() - live) as f64 / N as f64;
        let per_message = allocs as f64 / r.stats.messages_sent as f64;
        eprintln!(
            "threads {threads}: {peak_per_node:.1} B/node peak, {allocs} allocation calls for {} \
             messages = {per_message:.4} per message",
            r.stats.messages_sent
        );
        assert!(r.endpoint_agreement && r.colors.iter().all(Option::is_some), "threads {threads}");
        assert!(
            peak_per_node <= MAX_PEAK_BYTES_PER_NODE,
            "threads {threads}: heap peak {peak_per_node:.1} B/node over the gate \
             {MAX_PEAK_BYTES_PER_NODE}"
        );
        assert!(
            per_message <= MAX_ALLOCS_PER_MESSAGE,
            "threads {threads}: {per_message:.4} allocation calls per message over the gate \
             {MAX_ALLOCS_PER_MESSAGE}"
        );
        colorings.push(r.colors);
    }
    assert_eq!(colorings[0], colorings[1], "one and two shards must color identically");

    // The Kempe pass holds every finished automaton while it runs, so
    // its peak is the run's node state with the pass's engine on top.
    let cfg = ColoringConfig {
        reduction: ColorReduction::Kempe(KempeConfig { target_colors: Some(10) }),
        ..ColoringConfig::for_measurement(11)
    };
    let live = mem::live_bytes();
    mem::reset_peak();
    let r = color_edges(&g, &cfg).unwrap();
    let peak_per_node = (mem::peak_bytes() - live) as f64 / N as f64;
    let pass = r.reduction.expect("the Kempe pass ran");
    eprintln!("kempe: {peak_per_node:.1} B/node peak, {} nodes built", pass.nodes_built);
    assert!(pass.nodes_built > 0, "the pass must do work for the gate to measure it");
    assert!(
        peak_per_node <= MAX_REDUCED_PEAK_BYTES_PER_NODE,
        "kempe: heap peak {peak_per_node:.1} B/node over the gate {MAX_REDUCED_PEAK_BYTES_PER_NODE}"
    );
}
