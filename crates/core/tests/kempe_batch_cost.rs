//! Count gate for serve mode's Kempe post-pass: the work one batch's pass
//! does follows the batch, not the graph.
//!
//! A service with the Kempe pass on serves batches of two double-edge
//! swaps (8 link events, every degree kept at 8) on random 8-regular
//! graphs of 2,000 and 20,000 nodes. Per batch, the pass's built nodes
//! and messages must stay under one bound that is the same at both
//! sizes. A pass that builds or greets every node grows tenfold between
//! the two and fails it.

use std::collections::HashSet;

use dima_core::{
    ColorReduction, ColoringService, Engine, KempeConfig, ServeProtocol, ServiceConfig,
};
use dima_graph::gen::random_regular;
use dima_graph::VertexId;
use dima_sim::ChurnEvent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const BATCHES: usize = 6;
/// Most nodes one batch's pass may build, at any graph size. The
/// measured worst is 87 (a batch at n = 2,000); the bound stays below
/// the smaller graph's node count, which a per-node pass reaches.
const MAX_NODES_BUILT: u64 = 200;
/// Most messages one batch's pass may send, at any graph size. The
/// measured worst is 529; one greeting per node would add 2,000 at the
/// smaller size alone.
const MAX_MESSAGES: u64 = 1_200;

/// The live links (`u < v`), in a vector to draw from and a set to
/// test membership.
struct Links {
    list: Vec<(u32, u32)>,
    set: HashSet<(u32, u32)>,
}

impl Links {
    fn key(a: u32, b: u32) -> (u32, u32) {
        (a.min(b), a.max(b))
    }

    fn remove(&mut self, l: (u32, u32)) {
        self.set.remove(&l);
        let i = self.list.iter().position(|&x| x == l).expect("live link");
        self.list.swap_remove(i);
    }

    fn insert(&mut self, l: (u32, u32)) {
        self.set.insert(l);
        self.list.push(l);
    }

    /// A double-edge swap, applied here: live links (a, b) and (c, d)
    /// with four distinct endpoints go down, (a, c) and (b, d) come up.
    fn swap(&mut self, rng: &mut SmallRng) -> [ChurnEvent; 4] {
        loop {
            let (a, b) = self.list[rng.random_range(0..self.list.len())];
            let (c, d) = self.list[rng.random_range(0..self.list.len())];
            let distinct = a != c && a != d && b != c && b != d;
            let (ac, bd) = (Self::key(a, c), Self::key(b, d));
            if !distinct || self.set.contains(&ac) || self.set.contains(&bd) {
                continue;
            }
            self.remove((a, b));
            self.remove((c, d));
            self.insert(ac);
            self.insert(bd);
            let id = |(u, v): (u32, u32)| (VertexId(u), VertexId(v));
            let (ab, cd, ac, bd) = (id((a, b)), id((c, d)), id(ac), id(bd));
            return [
                ChurnEvent::LinkDown(ab.0, ab.1),
                ChurnEvent::LinkDown(cd.0, cd.1),
                ChurnEvent::LinkUp(ac.0, ac.1),
                ChurnEvent::LinkUp(bd.0, bd.1),
            ];
        }
    }
}

/// Per batch: (nodes the pass built, messages it sent).
fn batch_costs(n: usize) -> Vec<(u64, u64)> {
    let g = random_regular(n, 8, &mut SmallRng::seed_from_u64(7)).expect("regular graph");
    let mut cfg = ServiceConfig::new(ServeProtocol::EdgeColoring, 3);
    cfg.coloring.reduction = ColorReduction::Kempe(KempeConfig::default());
    cfg.coloring.engine = Engine::Sequential;
    let mut svc = ColoringService::new(&g, cfg).expect("service");
    svc.run_to_quiescence(svc.tick_budget()).expect("initial coloring");
    let list: Vec<(u32, u32)> = g.edges().map(|(_, (u, v))| Links::key(u.0, v.0)).collect();
    let mut links = Links { set: list.iter().copied().collect(), list };
    let mut rng = SmallRng::seed_from_u64(13);
    let mut costs = Vec::new();
    for _ in 0..BATCHES {
        for ev in [links.swap(&mut rng), links.swap(&mut rng)].into_iter().flatten() {
            svc.stage(ev).unwrap_or_else(|e| panic!("{ev:?} rejected: {e}"));
        }
        svc.commit().expect("commit").expect("settled with staged events");
        svc.run_to_quiescence(svc.tick_budget()).expect("repair converges");
        for r in svc.take_reports() {
            let k = r.reduction.expect("Kempe is on");
            assert!(k.max_color_after.is_none_or(|c| c.0 < k.target_colors), "{k:?}");
            costs.push((k.nodes_built, k.messages_sent));
        }
    }
    costs
}

#[test]
fn per_batch_kempe_work_does_not_grow_with_n() {
    let mut ran = 0;
    for n in [2_000, 20_000] {
        let costs = batch_costs(n);
        assert_eq!(costs.len(), BATCHES, "n = {n}: one report per batch");
        for &(built, messages) in &costs {
            assert!(built <= MAX_NODES_BUILT, "n = {n}: a pass built {built} nodes: {costs:?}");
            assert!(messages <= MAX_MESSAGES, "n = {n}: a pass sent {messages}: {costs:?}");
        }
        ran += costs.iter().filter(|&&(built, _)| built > 0).count();
    }
    assert!(ran > 0, "no batch needed the pass: the gate measured nothing");
}
