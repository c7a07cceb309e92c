//! Dedicated tests for [`dima_sim::trace::StateCensus`]: the per-round
//! state histogram collected through the observed engine entrypoints.
//!
//! The unit tests in `trace.rs` cover the histogram arithmetic in
//! isolation; these exercise the full collection path — a real protocol
//! driven tick by tick through a [`Stepper`], one census row per round
//! read off [`Stepper::view`], including parked (done) nodes, which the
//! view still shows.

use dima_graph::gen::structured::cycle;
use dima_sim::telemetry::NoopTracer;
use dima_sim::trace::{StateCensus, StateLabel};
use dima_sim::{EngineConfig, NodeSeed, NodeStatus, Protocol, RoundCtx, Stepper, Topology};

/// A node counts down from its own id: node `i` is in state `C` for `i`
/// rounds, then parks in `D`. Deterministic, message-free, and gives
/// every round a distinct census row.
struct Countdown {
    remaining: usize,
    parked: bool,
}

impl Protocol for Countdown {
    type Msg = ();

    fn on_round(&mut self, _ctx: &mut RoundCtx<'_, ()>) -> NodeStatus {
        if self.remaining == 0 {
            self.parked = true;
            return NodeStatus::Done;
        }
        self.remaining -= 1;
        NodeStatus::Active
    }
}

impl StateLabel for Countdown {
    fn state_label(&self) -> &'static str {
        if self.parked {
            "D"
        } else {
            "C"
        }
    }
}

fn run_census(n: usize) -> StateCensus {
    let g = cycle(n);
    let topo = Topology::from_graph(&g);
    let mut census = StateCensus::new();
    let mut stepper = Stepper::new(&topo, &EngineConfig::default(), 1, |seed: NodeSeed<'_>| {
        Countdown { remaining: seed.node.index(), parked: false }
    });
    while !stepper.is_quiescent() {
        let rs = stepper.tick(None, &mut NoopTracer).expect("countdown steps");
        census.record(stepper.view(rs).nodes.iter().map(|p| p.state_label()));
    }
    assert_eq!(stepper.stats().rounds as usize, census.len(), "one census row per round");
    census
}

#[test]
fn census_tracks_population_round_by_round() {
    let n = 6;
    let census = run_census(n);
    // Node i parks at the end of round i: after round r, nodes 0..=r are
    // in D and the rest still count down in C.
    assert_eq!(census.len(), n, "node n-1 parks in round n-1");
    for r in 0..n {
        assert_eq!(census.count(r, "D"), r + 1, "round {r}");
        assert_eq!(census.count(r, "C"), n - r - 1, "round {r}");
    }
}

#[test]
fn census_conserves_the_node_count() {
    let n = 9;
    let census = run_census(n);
    for r in 0..census.len() {
        assert_eq!(census.count(r, "C") + census.count(r, "D"), n, "round {r}");
    }
}

#[test]
fn done_population_is_monotone() {
    let census = run_census(8);
    let mut last = 0;
    for r in 0..census.len() {
        let d = census.count(r, "D");
        assert!(d >= last, "D shrank at round {r}");
        last = d;
    }
    assert_eq!(last, 8, "everyone parked at the end");
}

#[test]
fn render_reports_every_round() {
    let n = 4;
    let census = run_census(n);
    let table = census.render();
    let mut lines = table.lines();
    let header = lines.next().expect("header row");
    assert!(header.contains('C') && header.contains('D'), "{header}");
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), census.len(), "one table row per round");
    // Final round: all n nodes in the D column (rightmost).
    let last = rows.last().unwrap();
    assert!(last.trim_end().ends_with(&n.to_string()), "{last}");
}

#[test]
fn empty_census_is_empty() {
    let census = StateCensus::new();
    assert!(census.is_empty());
    assert_eq!(census.len(), 0);
    assert_eq!(census.count(0, "C"), 0);
    assert_eq!(census.render(), "round\n");
}
