//! Node joins and leaves under serve mode's Kempe post-pass.
//!
//! The pass reads each row straight from the Algorithm 1 automata along
//! the live topology, and a departed node keeps its ports while the
//! topology lists none. A service with the pass on and its target at Δ
//! (so the pass runs in most batches) serves batches that draw all four
//! event kinds on random 8-regular graphs. Every batch must settle with
//! a proper coloring, and a restore from the service's snapshot must
//! reproduce its hash.

use std::collections::HashSet;

use dima_core::{
    ColorReduction, ColoredEdge, ColoringService, Engine, KempeConfig, ServeProtocol, ServiceConfig,
};
use dima_graph::gen::random_regular;
use dima_graph::VertexId;
use dima_sim::ChurnEvent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const N: usize = 160;
const DEGREE: usize = 8;
const BATCHES: usize = 24;
const EVENTS: usize = 8;

/// Stage `EVENTS` accepted events, each of a uniformly drawn kind:
/// a link up or down between random nodes (down over a live link), a
/// node leaving or joining.
fn stage_mixed(svc: &mut ColoringService, rng: &mut SmallRng) {
    let mut staged = 0;
    while staged < EVENTS {
        let mut node = || VertexId(rng.random_range(0..N as u32));
        let ev = match node().0 % 4 {
            0 => {
                let (a, b) = (node(), node());
                ChurnEvent::LinkUp(a.min(b), a.max(b))
            }
            1 => {
                let live = svc.coloring();
                if live.is_empty() {
                    continue;
                }
                let e = &live[node().index() % live.len()];
                ChurnEvent::LinkDown(e.u, e.v)
            }
            2 => ChurnEvent::NodeLeave(node()),
            _ => ChurnEvent::NodeJoin(node()),
        };
        if svc.stage(ev).is_ok() {
            staged += 1;
        }
    }
}

/// Every live edge colored, both ends agreeing, no color twice at a node.
fn assert_proper(coloring: &[ColoredEdge], what: &str) {
    let mut seen = HashSet::new();
    for e in coloring {
        let c = e.forward.unwrap_or_else(|| panic!("{what}: edge {e:?} uncolored"));
        assert_eq!(e.reverse, Some(c), "{what}: endpoints of {e:?} disagree");
        for end in [e.u, e.v] {
            assert!(seen.insert((end, c)), "{what}: color {c} twice at node {}", end.0);
        }
    }
}

#[test]
fn joins_and_leaves_under_the_pass_keep_the_coloring_proper() {
    let mut passes = 0;
    for seed in 0..3u64 {
        let g = random_regular(N, DEGREE, &mut SmallRng::seed_from_u64(seed)).expect("graph");
        let mut cfg = ServiceConfig::new(ServeProtocol::EdgeColoring, seed);
        let target = Some(DEGREE as u32);
        cfg.coloring.reduction = ColorReduction::Kempe(KempeConfig { target_colors: target });
        cfg.coloring.engine = Engine::Sequential;
        let mut svc = ColoringService::new(&g, cfg).expect("service");
        svc.run_to_quiescence(svc.tick_budget()).expect("initial coloring");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        for batch in 0..BATCHES {
            stage_mixed(&mut svc, &mut rng);
            svc.commit().expect("commit").expect("settled with staged events");
            let what = format!("seed {seed}, batch {batch}");
            svc.run_to_quiescence(svc.tick_budget()).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_proper(&svc.coloring(), &what);
            let reports = svc.take_reports();
            passes +=
                reports.iter().filter(|r| r.reduction.is_some_and(|k| k.comm_rounds > 0)).count();
        }
        let (restored, _) =
            ColoringService::restore_chain(&svc.snapshot_text(), &[], None, Engine::Sequential)
                .unwrap_or_else(|e| panic!("seed {seed}: restore: {e}"));
        assert_eq!(restored.coloring_hash(), svc.coloring_hash(), "seed {seed}: restored hash");
    }
    assert!(passes * 2 > 3 * BATCHES, "the pass ran in only {passes} of {} batches", 3 * BATCHES);
}
