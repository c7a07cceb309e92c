//! Golden trajectory test for the serve-mode [`ColoringService`].
//!
//! A service with the Kempe post-pass on runs a seeded session on a
//! random 8-regular graph: double-edge-swap batches, one batch that
//! removes a node and one that removes another while bringing the first
//! back. The watchdog is set low enough to escalate, so its progress
//! count decides when full recolors happen. Per batch the test pins the
//! coloring hash, every [`ServeBatchReport`] field (the Kempe report
//! included) and the rounds of the recolors the batch recorded. Any
//! change to the repair, the watchdog's progress count, the
//! churn-amplification diff, the palette count or the Kempe write-back
//! moves at least one of them; a pure speed-up of the service must move
//! none.

use std::collections::BTreeSet;

use dima_core::{
    ColorReduction, ColoringService, Engine, HistoryEntry, KempeConfig, ServeBatchReport,
    ServeProtocol, ServiceConfig,
};
use dima_graph::gen::random_regular;
use dima_graph::VertexId;
use dima_sim::ChurnEvent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const N: u32 = 400;
const SWAP_BATCHES: usize = 16;
/// The node that leaves mid-session and rejoins in the last batch.
const ROAMER: u32 = 17;
/// The node that leaves in the last batch.
const LEAVER: u32 = 233;

/// The live links, to draw valid swaps from (`u < v`).
struct Links(BTreeSet<(u32, u32)>);

impl Links {
    fn key(a: u32, b: u32) -> (u32, u32) {
        (a.min(b), a.max(b))
    }

    /// A double-edge swap: live links (a, b) and (c, d) with four
    /// distinct endpoints go down, (a, c) and (b, d) come up.
    fn draw_swap(&self, rng: &mut SmallRng) -> Option<[ChurnEvent; 4]> {
        let pick = |rng: &mut SmallRng| {
            *self.0.iter().nth(rng.random_range(0..self.0.len())).expect("index in range")
        };
        let (a, b) = pick(rng);
        let (mut c, mut d) = pick(rng);
        if rng.random_range(0..2u32) == 0 {
            (c, d) = (d, c);
        }
        let distinct = a != c && a != d && b != c && b != d;
        if !distinct || self.0.contains(&Self::key(a, c)) || self.0.contains(&Self::key(b, d)) {
            return None;
        }
        let link = |x: u32, y: u32| {
            let (x, y) = Self::key(x, y);
            (VertexId(x), VertexId(y))
        };
        let (ab, cd, ac, bd) = (link(a, b), link(c, d), link(a, c), link(b, d));
        Some([
            ChurnEvent::LinkDown(ab.0, ab.1),
            ChurnEvent::LinkDown(cd.0, cd.1),
            ChurnEvent::LinkUp(ac.0, ac.1),
            ChurnEvent::LinkUp(bd.0, bd.1),
        ])
    }

    fn apply(&mut self, ev: ChurnEvent) {
        match ev {
            ChurnEvent::LinkUp(u, v) => {
                self.0.insert(Self::key(u.0, v.0));
            }
            ChurnEvent::LinkDown(u, v) => {
                self.0.remove(&Self::key(u.0, v.0));
            }
            ChurnEvent::NodeLeave(v) => self.0.retain(|&(a, b)| a != v.0 && b != v.0),
            ChurnEvent::NodeJoin(_) => {}
        }
    }
}

/// Two double-edge swaps.
fn swap_batch(links: &Links, rng: &mut SmallRng) -> Vec<ChurnEvent> {
    let mut events = Vec::new();
    while events.len() < 8 {
        if let Some(swap) = links.draw_swap(rng) {
            if swap.iter().all(|ev| !events.contains(ev)) {
                events.extend(swap);
            }
        }
    }
    events
}

/// One batch as pinned: the report, the hash after it settled and the
/// rounds of the recolors it recorded.
fn line(r: &ServeBatchReport, hash: u64, recolors: &[u64]) -> String {
    let k = r.reduction.expect("Kempe is on");
    let color = |c: Option<dima_core::Color>| c.map_or(-1, |c| i64::from(c.0));
    format!(
        "seq {} round {} events {} repair {} changed {} used {} | kempe {}->{} max {}->{} \
         target {} rounds {} msgs {} trivial {} chains {} longest {} aborts {} | \
         hash {hash:#018x} recolors {recolors:?}",
        r.seq,
        r.round,
        r.events,
        r.repair_rounds,
        r.colors_changed,
        r.colors_used,
        k.colors_before,
        k.colors_after,
        color(k.max_color_before),
        color(k.max_color_after),
        k.target_colors,
        k.comm_rounds,
        k.messages_sent,
        k.trivial_recolors,
        k.chains_flipped,
        k.max_chain_len,
        k.aborts,
    )
}

/// The session: initial coloring, then every batch, one line each.
fn session() -> (Vec<String>, u64) {
    let g = random_regular(N as usize, 8, &mut SmallRng::seed_from_u64(3)).expect("regular graph");
    let mut cfg = ServiceConfig::new(ServeProtocol::EdgeColoring, 5);
    cfg.coloring.reduction = ColorReduction::Kempe(KempeConfig::default());
    cfg.coloring.engine = Engine::Sequential;
    cfg.watchdog_ticks = 4;
    let mut svc = ColoringService::new(&g, cfg).expect("service");
    svc.run_to_quiescence(svc.tick_budget()).expect("initial coloring");
    let mut links = Links(g.edges().map(|(_, (u, v))| Links::key(u.0, v.0)).collect());
    let mut rng = SmallRng::seed_from_u64(11);
    let mut lines = Vec::new();
    for b in 0..SWAP_BATCHES + 2 {
        let events = if b == SWAP_BATCHES + 1 {
            let partners = [3, 101, 250, 399].map(|w| {
                let (u, v) = Links::key(ROAMER, w);
                ChurnEvent::LinkUp(VertexId(u), VertexId(v))
            });
            let mut events = vec![
                ChurnEvent::NodeLeave(VertexId(LEAVER)),
                ChurnEvent::NodeJoin(VertexId(ROAMER)),
            ];
            events.extend(partners);
            events
        } else {
            let mut events = swap_batch(&links, &mut rng);
            if b == SWAP_BATCHES / 2 {
                events.push(ChurnEvent::NodeLeave(VertexId(ROAMER)));
            }
            events
        };
        let h0 = svc.history_len() as usize;
        for &ev in &events {
            svc.stage(ev).unwrap_or_else(|e| panic!("batch {b}: {ev:?} rejected: {e}"));
            links.apply(ev);
        }
        svc.commit().expect("commit").expect("settled with staged events");
        svc.run_to_quiescence(svc.tick_budget()).expect("repair converges");
        let recolors: Vec<u64> = svc.history()[h0..]
            .iter()
            .filter_map(|e| match e {
                HistoryEntry::Recolor { round } => Some(*round),
                HistoryEntry::Batch { .. } => None,
            })
            .collect();
        let reports = svc.take_reports();
        assert_eq!(reports.len(), 1, "batch {b}: one report per batch");
        lines.push(line(&reports[0], svc.coloring_hash(), &recolors));
    }
    (lines, svc.escalations())
}

#[test]
fn serve_trajectory_matches_golden() {
    let (lines, escalations) = session();
    assert!(escalations > 0, "the watchdog never escalated: its progress count is not exercised");
    assert_eq!(lines, GOLDEN);
}

/// Captured from the service at the time this test was written.
const GOLDEN: &[&str] = &[
    "seq 1 round 90 events 8 repair 108 changed 1436 used 9 | kempe 11->9 max 10->8 target 9 rounds 1000 msgs 5221 trivial 3 chains 64 longest 46 aborts 232 | hash 0xb647c5710d7ca9cf recolors [106]",
    "seq 2 round 198 events 8 repair 6 changed 4 used 9 | kempe 9->9 max 8->8 target 9 rounds 0 msgs 0 trivial 0 chains 0 longest 0 aborts 0 | hash 0xc99a81184779dab3 recolors []",
    "seq 3 round 204 events 8 repair 102 changed 1441 used 9 | kempe 11->9 max 10->8 target 9 rounds 2175 msgs 5915 trivial 2 chains 56 longest 56 aborts 226 | hash 0x184a922223b86863 recolors [214]",
    "seq 4 round 306 events 8 repair 102 changed 1421 used 9 | kempe 11->9 max 10->8 target 9 rounds 1839 msgs 6094 trivial 3 chains 63 longest 46 aborts 252 | hash 0xe88a0e018a58008f recolors [319]",
    "seq 5 round 408 events 8 repair 9 changed 4 used 9 | kempe 10->9 max 9->8 target 9 rounds 34 msgs 50 trivial 0 chains 1 longest 9 aborts 0 | hash 0x4fb2e68c3a49e741 recolors []",
    "seq 6 round 417 events 8 repair 108 changed 1436 used 9 | kempe 11->9 max 10->8 target 9 rounds 1722 msgs 6873 trivial 3 chains 59 longest 58 aborts 270 | hash 0xc2e45268496fb6b3 recolors [433]",
    "seq 7 round 525 events 8 repair 96 changed 1447 used 9 | kempe 11->9 max 10->8 target 9 rounds 1844 msgs 5554 trivial 3 chains 54 longest 54 aborts 219 | hash 0x355632c91626fdad recolors [538]",
    "seq 8 round 621 events 8 repair 12 changed 4 used 9 | kempe 10->9 max 9->8 target 9 rounds 94 msgs 230 trivial 0 chains 4 longest 29 aborts 0 | hash 0x8d8c526ddc6e96ef recolors []",
    "seq 9 round 633 events 9 repair 9 changed 4 used 9 | kempe 10->9 max 9->8 target 9 rounds 61 msgs 135 trivial 0 chains 2 longest 18 aborts 0 | hash 0x56bbff50f32a7f68 recolors []",
    "seq 10 round 642 events 8 repair 105 changed 1447 used 9 | kempe 11->9 max 10->8 target 9 rounds 2378 msgs 6637 trivial 3 chains 63 longest 72 aborts 260 | hash 0x5c47ee67a5442088 recolors [655]",
    "seq 11 round 747 events 8 repair 12 changed 4 used 9 | kempe 10->9 max 9->8 target 9 rounds 73 msgs 239 trivial 0 chains 3 longest 14 aborts 1 | hash 0x5d643e007279610a recolors []",
    "seq 12 round 759 events 8 repair 6 changed 4 used 9 | kempe 10->9 max 9->8 target 9 rounds 22 msgs 36 trivial 0 chains 2 longest 4 aborts 0 | hash 0xa283f51c3447ba9a recolors []",
    "seq 13 round 765 events 8 repair 9 changed 4 used 9 | kempe 10->9 max 9->8 target 9 rounds 237 msgs 488 trivial 0 chains 3 longest 34 aborts 4 | hash 0x4594f648388dde8c recolors []",
    "seq 14 round 774 events 8 repair 6 changed 4 used 9 | kempe 10->9 max 9->8 target 9 rounds 70 msgs 135 trivial 0 chains 2 longest 21 aborts 0 | hash 0x0311011bf3ee998c recolors []",
    "seq 15 round 780 events 8 repair 9 changed 4 used 9 | kempe 10->9 max 9->8 target 9 rounds 31 msgs 45 trivial 0 chains 1 longest 8 aborts 0 | hash 0xbb31b3b03e5d7fd6 recolors []",
    "seq 16 round 789 events 8 repair 12 changed 4 used 9 | kempe 10->9 max 9->8 target 9 rounds 25 msgs 45 trivial 0 chains 2 longest 6 aborts 0 | hash 0x0a71d549da50209e recolors []",
    "seq 17 round 801 events 8 repair 9 changed 4 used 9 | kempe 10->9 max 9->8 target 9 rounds 143 msgs 394 trivial 0 chains 3 longest 16 aborts 4 | hash 0x843de424c835a68e recolors []",
    "seq 18 round 810 events 6 repair 12 changed 4 used 10 | kempe 10->10 max 9->9 target 10 rounds 0 msgs 0 trivial 0 chains 0 longest 0 aborts 0 | hash 0x2072643c775d4958 recolors []",
];
