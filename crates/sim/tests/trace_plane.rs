//! Trace-equality tests: a multi-shard run must replay, event for
//! event, the telemetry sequence the one-shard run emits — across
//! faults, churn, sampling and the reliable (ARQ) transport.

use dima_graph::gen::structured;
use dima_sim::telemetry::{BufferTracer, Event, NoopTracer, PaletteAction, Tracer};
use dima_sim::{
    run, ChurnPlan, ChurnSchedule, EngineConfig, NodeSeed, NodeStatus, Protocol, ReliableNode,
    RoundCtx, Topology,
};

/// A static traced run over `threads` shards.
fn traced<P, F, T>(topo: &Topology, cfg: &EngineConfig, threads: usize, factory: F, tracer: &mut T)
where
    P: Protocol,
    F: Fn(NodeSeed<'_>) -> P + Sync,
    T: Tracer + Sync,
{
    run(topo, cfg, threads, &ChurnSchedule::empty(), factory, tracer).unwrap();
}

/// A protocol exercising every event class: each node broadcasts a
/// greeting, records a state transition per round, and "commits" a
/// pseudo-color with its smallest-id neighbor.
#[derive(Debug)]
struct Chatty {
    rounds_left: u64,
    first_peer: Option<dima_graph::VertexId>,
}

impl Protocol for Chatty {
    type Msg = u32;

    fn kind_of(msg: &u32) -> &'static str {
        if (*msg).is_multiple_of(2) {
            "even"
        } else {
            "odd"
        }
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, u32>) -> NodeStatus {
        ctx.broadcast(ctx.node().0);
        ctx.trace_state("I", "coin");
        if let Some(peer) = self.first_peer {
            ctx.trace_palette(PaletteAction::Committed, ctx.round() as u32, peer);
        }
        self.rounds_left = self.rounds_left.saturating_sub(1);
        if self.rounds_left == 0 {
            ctx.trace_state("D", "budget");
            NodeStatus::Done
        } else {
            NodeStatus::Active
        }
    }

    fn on_topology_change(
        &mut self,
        seed: NodeSeed<'_>,
        _change: &dima_sim::NeighborhoodChange,
    ) -> NodeStatus {
        self.first_peer = seed.neighbors.first().copied();
        self.rounds_left = 2;
        NodeStatus::Active
    }
}

fn chatty_factory(seed: NodeSeed<'_>) -> Chatty {
    Chatty { rounds_left: 4, first_peer: seed.neighbors.first().copied() }
}

/// A tracer that samples only even node ids, both at handle-creation and
/// in its own emit (the contract for composable sinks).
#[derive(Default)]
struct EvenSampler {
    events: Vec<Event>,
}

impl Tracer for EvenSampler {
    fn emit(&mut self, ev: Event) {
        if ev.class() == 1 && !ev.node().is_multiple_of(2) {
            return;
        }
        self.events.push(ev);
    }

    fn sample(&self, node: u32) -> bool {
        node.is_multiple_of(2)
    }
}

#[test]
fn multi_shard_trace_matches_one_shard() {
    let topo = Topology::from_graph(&structured::grid(5, 4));
    let cfg = EngineConfig::seeded(42);
    let mut one = BufferTracer::default();
    traced(&topo, &cfg, 1, chatty_factory, &mut one);
    assert!(one.events.iter().any(|e| matches!(e, Event::State { .. })));
    assert!(one.events.iter().any(|e| matches!(e, Event::Palette { .. })));
    assert!(one.events.iter().any(|e| matches!(e, Event::MsgKind { kind: "even", .. })));
    assert!(one.events.iter().any(|e| matches!(e, Event::Round { .. })));
    for threads in [2, 3, 7] {
        let mut many = BufferTracer::default();
        traced(&topo, &cfg, threads, chatty_factory, &mut many);
        assert_eq!(one.events, many.events, "threads = {threads}");
    }
}

#[test]
fn faulty_trace_matches_one_shard() {
    let topo = Topology::from_graph(&structured::grid(4, 4));
    let cfg = EngineConfig {
        faults: dima_sim::fault::FaultPlan {
            duplicate_probability: 0.1,
            ..dima_sim::fault::FaultPlan::uniform(0.2)
        },
        max_rounds: 50,
        ..EngineConfig::seeded(7)
    };
    let mut one = BufferTracer::default();
    traced(&topo, &cfg, 1, chatty_factory, &mut one);
    let has_dropped =
        one.events.iter().any(|e| matches!(e, Event::MsgKind { dropped, .. } if *dropped > 0));
    assert!(has_dropped, "fault plan should actually drop something");
    for threads in [2, 5] {
        let mut many = BufferTracer::default();
        traced(&topo, &cfg, threads, chatty_factory, &mut many);
        assert_eq!(one.events, many.events, "threads = {threads}");
    }
}

#[test]
fn churn_trace_matches_one_shard() {
    let g = structured::grid(4, 5);
    let topo = Topology::from_graph(&g);
    let schedule = ChurnSchedule::generate(&g, &ChurnPlan::new(99, 0.3));
    let last_batch = schedule.batches().last().map_or(0, |b| b.round);
    let cfg = EngineConfig { max_rounds: last_batch + 64, ..EngineConfig::seeded(5) };
    let mut one = BufferTracer::default();
    run(&topo, &cfg, 1, &schedule, chatty_factory, &mut one).unwrap();
    assert!(one.events.iter().any(|e| matches!(e, Event::Churn { .. })));
    for threads in [2, 4] {
        let mut many = BufferTracer::default();
        run(&topo, &cfg, threads, &schedule, chatty_factory, &mut many).unwrap();
        assert_eq!(one.events, many.events, "threads = {threads}");
    }
}

#[test]
fn sampled_trace_matches_one_shard() {
    let topo = Topology::from_graph(&structured::grid(5, 5));
    let cfg = EngineConfig::seeded(13);
    let mut one = EvenSampler::default();
    traced(&topo, &cfg, 1, chatty_factory, &mut one);
    assert!(one.events.iter().all(|e| e.class() != 1 || e.node() % 2 == 0));
    assert!(one.events.iter().any(|e| e.class() == 1));
    let mut many = EvenSampler::default();
    traced(&topo, &cfg, 3, chatty_factory, &mut many);
    assert_eq!(one.events, many.events);
}

#[test]
fn arq_trace_matches_one_shard_and_stamps_inner_rounds() {
    // Heavy loss forces retransmissions; the protocol under the ARQ
    // layer observes inner rounds that lag the engine round.
    let topo = Topology::from_graph(&structured::grid(3, 4));
    let cfg = EngineConfig {
        faults: dima_sim::fault::FaultPlan::uniform(0.3),
        max_rounds: 400,
        ..EngineConfig::seeded(17)
    };
    let factory = || ReliableNode::factory(chatty_factory);
    let mut one = BufferTracer::default();
    traced(&topo, &cfg, 1, factory(), &mut one);
    assert!(
        one.events.iter().any(|e| matches!(e, Event::Arq { .. })),
        "loss this heavy should force at least one retransmission"
    );
    // Acks ride the control plane: data bundles are the only frame kind.
    assert!(one.events.iter().any(|e| matches!(e, Event::MsgKind { kind: "arq-data", .. })));
    assert!(one
        .events
        .iter()
        .all(|e| !matches!(e, Event::MsgKind { kind, .. } if *kind != "arq-data")));
    for threads in [2, 3] {
        let mut many = BufferTracer::default();
        traced(&topo, &cfg, threads, factory(), &mut many);
        assert_eq!(one.events, many.events, "threads = {threads}");
    }
}

#[test]
fn tracing_does_not_change_run_results() {
    // A traced run and a plain run of the same config are bit-identical
    // in everything but the trace (spot check; the cross-protocol
    // proptest lives in dima-core).
    let topo = Topology::from_graph(&structured::grid(5, 4));
    let cfg = EngineConfig { collect_round_stats: true, ..EngineConfig::seeded(3) };
    let empty = ChurnSchedule::empty();
    let plain = run(&topo, &cfg, 1, &empty, chatty_factory, &mut NoopTracer).unwrap();
    let mut buf = BufferTracer::default();
    let traced = run(&topo, &cfg, 1, &empty, chatty_factory, &mut buf).unwrap();
    assert_eq!(plain.stats, traced.stats);
    let round_footers = buf.events.iter().filter(|e| matches!(e, Event::Round { .. })).count();
    assert_eq!(round_footers as u64, traced.stats.rounds);
}
