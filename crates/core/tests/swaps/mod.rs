//! The serve workload the batch-cost gates share: a service with the
//! Kempe pass on serves batches of two double-edge swaps (8 link
//! events, every degree kept at 8) on a random 8-regular graph.

use std::collections::HashSet;

use dima_core::{
    ColorReduction, ColoringService, Engine, KempeConfig, ServeBatchReport, ServeProtocol,
    ServiceConfig,
};
use dima_graph::gen::random_regular;
use dima_graph::{Graph, VertexId};
use dima_sim::ChurnEvent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

/// The service on the 8-regular graph of `n` nodes, settled after its
/// initial coloring and the set-up compaction.
pub fn settled_service(n: usize) -> (Graph, ColoringService) {
    let g = random_regular(n, 8, &mut SmallRng::seed_from_u64(7)).expect("regular graph");
    let mut cfg = ServiceConfig::new(ServeProtocol::EdgeColoring, 3);
    cfg.coloring.reduction = ColorReduction::Kempe(KempeConfig::default());
    cfg.coloring.engine = Engine::Sequential;
    let mut svc = ColoringService::new(&g, cfg).expect("service");
    svc.run_to_quiescence(svc.tick_budget()).expect("initial coloring");
    (g, svc)
}

/// The reports of `batches` swap batches on the settled service of
/// `n` nodes, one per batch.
#[allow(dead_code)] // each gate that includes this module uses a part of it
pub fn swap_batch_reports(n: usize, batches: usize) -> Vec<ServeBatchReport> {
    let (g, mut svc) = settled_service(n);
    let list: Vec<(u32, u32)> = g.edges().map(|(_, (u, v))| Links::key(u.0, v.0)).collect();
    let mut links = Links { set: list.iter().copied().collect(), list };
    let mut rng = SmallRng::seed_from_u64(13);
    let mut reports = Vec::new();
    for _ in 0..batches {
        for ev in [links.swap(&mut rng), links.swap(&mut rng)].into_iter().flatten() {
            svc.stage(ev).unwrap_or_else(|e| panic!("{ev:?} rejected: {e}"));
        }
        svc.commit().expect("commit").expect("settled with staged events");
        svc.run_to_quiescence(svc.tick_budget()).expect("repair converges");
        reports.extend(svc.take_reports());
    }
    assert_eq!(reports.len(), batches, "n = {n}: one report per batch");
    reports
}
