//! Count gate for the event feed's commit: the work one commit does
//! follows the batch, not the graph.
//!
//! Batches of two double-edge swaps (8 link events, every degree kept at
//! 8) are staged on random 8-regular graphs of 2,000 and 20,000 nodes.
//! Per commit, heap allocation calls and peak heap growth must stay under
//! one bound that is the same at both sizes. A commit that copies,
//! snapshots or walks the whole graph grows tenfold between the two and
//! fails it.
//!
//! This test binary installs [`CountingAlloc`] as its global allocator
//! and holds exactly one test, so no other test's allocations land in the
//! global counters while it measures.

use dima_graph::gen::random_regular;
use dima_graph::{DynGraph, VertexId};
use dima_sim::telemetry::{mem, CountingAlloc};
use dima_sim::{ChurnEvent, EventFeed};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BATCHES: u64 = 6;
/// Most allocation calls one commit may make, at any graph size. The
/// measured count is 18 at both sizes: the batch's diff vectors. A
/// commit that clones and snapshots the graph makes 6,027 at n = 2,000.
const MAX_CALLS: u64 = 64;
/// Most heap bytes one commit may add at its peak, at any graph size.
/// The measured peak is 704 B at both sizes; one that clones and
/// snapshots the graph peaks 427 kB higher at n = 2,000.
const MAX_PEAK_BYTES: u64 = 4 * 1024;

/// A double-edge swap on `g`, applied there: live links (a, b) and
/// (c, d) with four distinct endpoints go down, (a, c) and (b, d) come
/// up.
fn swap(g: &mut DynGraph, rng: &mut SmallRng) -> [ChurnEvent; 4] {
    let n = g.num_vertices() as u32;
    let link = |rng: &mut SmallRng| {
        let u = VertexId(rng.random_range(0..n));
        (u, g.neighbors(u)[rng.random_range(0..g.degree(u))])
    };
    loop {
        let ((a, b), (c, d)) = (link(rng), link(rng));
        let distinct = a != c && a != d && b != c && b != d;
        if !distinct || g.has_edge(a, c) || g.has_edge(b, d) {
            continue;
        }
        g.remove_edge(a, b);
        g.remove_edge(c, d);
        g.insert_edge(a, c);
        g.insert_edge(b, d);
        return [
            ChurnEvent::LinkDown(a, b),
            ChurnEvent::LinkDown(c, d),
            ChurnEvent::LinkUp(a, c),
            ChurnEvent::LinkUp(b, d),
        ];
    }
}

/// Per commit: (allocation calls, peak heap bytes above the live count
/// before it).
fn commit_costs(n: usize) -> Vec<(u64, u64)> {
    let g = random_regular(n, 8, &mut SmallRng::seed_from_u64(7)).expect("regular graph");
    let mut feed = EventFeed::new(&g);
    let mut mirror = DynGraph::from_graph(&g);
    let mut rng = SmallRng::seed_from_u64(13);
    let mut costs = Vec::new();
    for round in 1..=BATCHES {
        for ev in [swap(&mut mirror, &mut rng), swap(&mut mirror, &mut rng)].into_iter().flatten() {
            feed.stage(ev).unwrap_or_else(|e| panic!("{ev:?} rejected: {e}"));
        }
        let (calls, live) = (mem::alloc_calls(), mem::live_bytes());
        mem::reset_peak();
        let batch = feed.commit(round).expect("staged events");
        costs.push((mem::alloc_calls() - calls, mem::peak_bytes() - live));
        assert_eq!(batch.changes.len(), 8, "two swaps change eight rows");
    }
    costs
}

#[test]
fn per_commit_work_does_not_grow_with_n() {
    for n in [2_000, 20_000] {
        let costs = commit_costs(n);
        for &(calls, peak) in &costs {
            assert!(calls <= MAX_CALLS, "n = {n}: a commit made {calls} allocations: {costs:?}");
            assert!(peak <= MAX_PEAK_BYTES, "n = {n}: a commit peaked {peak} B higher: {costs:?}");
        }
    }
}
