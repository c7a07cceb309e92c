//! Memory gate for Algorithm 2 (DiMa2ED) on the engine.
//!
//! This test binary installs [`CountingAlloc`] as its global allocator
//! and runs `strong_color_digraph` on the symmetric closure of a random
//! geometric graph (n = 2,000, radius 0.05) at one and two shards. It
//! gates two figures of the run:
//!
//! * the heap peak during the call, per node, above what was live
//!   before it — node state, topology and mail;
//! * heap allocation calls per message sent. Invitations carry their
//!   channels inline and the responder's scratch is node-owned, so the
//!   calls left are the `Reject` hints (one `ColorSet` each) and the
//!   growth of per-port retry sets and mail buffers.
//!
//! The constants were measured on this graph and carry about 10%
//! headroom: a change that adds per-message heap state fails here. The
//! file holds exactly one test so no other test's allocations land in
//! the global counters while it measures.

use dima_core::{strong_color_digraph, ColoringConfig, Engine};
use dima_graph::gen::random_geometric;
use dima_graph::Digraph;
use dima_sim::telemetry::{mem, CountingAlloc};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap peak during `strong_color_digraph`, above the live heap before
/// it, per node. Measured: 2,790 at one shard, 2,868 at two.
const MAX_PEAK_BYTES_PER_NODE: f64 = 3_150.0;
/// Heap allocation calls during `strong_color_digraph` per message sent.
/// Measured: 0.227 at one and two shards, of which 0.126 are the
/// `Reject` hints.
const MAX_ALLOCS_PER_MESSAGE: f64 = 0.25;

#[test]
fn dima2ed_heap_peak_and_allocations_stay_gated() {
    const N: usize = 2_000;
    let g = random_geometric(N, 0.05, &mut SmallRng::seed_from_u64(1)).unwrap();
    let d = Digraph::symmetric_closure(&g);
    let mut colorings = Vec::new();
    for threads in [1, 2] {
        let cfg = ColoringConfig {
            engine: Engine::Parallel { threads },
            ..ColoringConfig::for_measurement(1)
        };
        let live = mem::live_bytes();
        mem::reset_peak();
        let calls = mem::alloc_calls();
        let r = strong_color_digraph(&d, &cfg).unwrap();
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
}
