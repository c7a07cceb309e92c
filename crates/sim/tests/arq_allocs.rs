//! Allocation gate for the reliable (ARQ) layer.
//!
//! This test binary installs [`CountingAlloc`] as its global allocator
//! and runs a protocol that broadcasts every round under ARQ at 2%
//! loss. In steady state the layer allocates per inner round (the
//! shared broadcast payload, the inner inbox), never per link or per
//! frame, so heap allocation calls stay well under half a call per
//! frame on the wire.
//!
//! The file holds exactly one test so no other test's allocations land
//! in the global counter while it measures.

use dima_graph::gen::structured;
use dima_sim::churn::ChurnSchedule;
use dima_sim::fault::FaultPlan;
use dima_sim::telemetry::{mem, CountingAlloc, NoopTracer};
use dima_sim::{
    run, EngineConfig, NodeSeed, NodeStatus, Protocol, ReliableNode, RoundCtx, Topology,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Broadcasts its id for a fixed number of rounds.
#[derive(Debug)]
struct Chatter {
    rounds_left: u32,
    heard: u64,
}

impl Protocol for Chatter {
    type Msg = u32;
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, u32>) -> NodeStatus {
        self.heard += ctx.inbox().len() as u64;
        if self.rounds_left == 0 {
            return NodeStatus::Done;
        }
        self.rounds_left -= 1;
        ctx.broadcast(ctx.node().0);
        NodeStatus::Active
    }
}

#[test]
fn arq_allocates_well_under_half_a_call_per_frame() {
    const ROUNDS: u32 = 60;
    let topo = Topology::from_graph(&structured::hypercube(7));
    let cfg = EngineConfig {
        faults: FaultPlan::uniform(0.02),
        max_rounds: 10_000,
        validate_sends: false,
        ..EngineConfig::seeded(3)
    };
    let factory =
        ReliableNode::factory(|_: NodeSeed<'_>| Chatter { rounds_left: ROUNDS, heard: 0 });
    let before = mem::alloc_calls();
    let out = run(&topo, &cfg, 1, &ChurnSchedule::empty(), factory, &mut NoopTracer).unwrap();
    let allocs = mem::alloc_calls() - before;

    // The run is real: every node ran every inner round and heard every
    // neighbor's every broadcast despite the loss.
    assert!(out.stats.dropped > 0, "the plan should actually drop frames");
    for (i, node) in out.nodes.iter().enumerate() {
        assert_eq!(node.inner_rounds(), u64::from(ROUNDS) + 1, "node {i}");
        assert_eq!(node.inner().heard, 7 * u64::from(ROUNDS), "node {i}");
    }
    let per_frame = allocs as f64 / out.stats.messages_sent as f64;
    assert!(
        per_frame <= 0.4,
        "{allocs} allocation calls for {} frames = {per_frame:.3} per frame (gate 0.4)",
        out.stats.messages_sent
    );
}
