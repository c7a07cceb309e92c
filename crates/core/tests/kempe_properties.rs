//! Property tests for the Kempe-chain palette-reduction pass.
//!
//! Three invariants hold for *any* proper input coloring, so they are
//! checked over randomized graphs and thresholds rather than curated
//! cases: the pass (1) preserves propriety, (2) never grows the
//! palette, and (3) is bit-identical across the sequential and parallel
//! engines. A fourth, non-property test drives the churn pipeline over
//! 50 seeds and checks the post-repair compaction actually re-compacts.

use dima_core::verify::{count_colors, verify_edge_coloring, verify_residual_edge_coloring};
use dima_core::{
    color_edges, color_edges_churn, ChurnPlan, ChurnSchedule, ColorReduction, ColoringConfig,
    ColoringService, Engine, KempeConfig, ServeProtocol, ServiceConfig,
};
use dima_graph::gen::{erdos_renyi_avg_degree, random_regular};
use dima_graph::{GraphBuilder, VertexId};
use dima_sim::ChurnEvent;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random graph and its Algorithm 1 coloring at `seed`, reduction off.
fn colored_instance(
    seed: u64,
    n: usize,
    avg_degree: f64,
) -> (dima_graph::Graph, Vec<Option<dima_core::Color>>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = erdos_renyi_avg_degree(n, avg_degree, &mut rng).expect("valid ER parameters");
    let r = color_edges(&g, &ColoringConfig::seeded(seed)).expect("base coloring");
    verify_edge_coloring(&g, &r.colors).expect("base coloring proper");
    (g, r.colors)
}

/// `color_edges` at `seed` on `engine` with the Kempe pass at `kcfg`.
fn reduced(
    g: &dima_graph::Graph,
    seed: u64,
    engine: Engine,
    kcfg: KempeConfig,
) -> dima_core::EdgeColoringResult {
    let cfg = ColoringConfig {
        engine,
        reduction: ColorReduction::Kempe(kcfg),
        ..ColoringConfig::seeded(seed)
    };
    color_edges(g, &cfg).expect("reduced coloring")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Propriety is preserved and the palette never grows, for any
    /// target threshold — including aggressive (Vizing-infeasible)
    /// ones, where the pass must degrade gracefully.
    #[test]
    fn preserves_propriety_and_never_grows(
        seed in 0u64..1 << 48,
        n in 20usize..120,
        tenths_degree in 20u32..80,
        target_slack in -3i64..4,
    ) {
        let (g, base) = colored_instance(seed, n, f64::from(tenths_degree) / 10.0);
        let before = count_colors(&base);
        let delta = g.max_degree() as i64;
        let target = u32::try_from((delta + 1 + target_slack).max(1)).unwrap();
        let kcfg = KempeConfig { target_colors: Some(target) };
        let r = reduced(&g, seed, Engine::Sequential, kcfg);
        let report = r.reduction.expect("reduction runs");
        verify_edge_coloring(&g, &r.colors).expect("reduction preserved propriety");
        prop_assert_eq!(report.colors_before, before);
        prop_assert_eq!(report.colors_after, count_colors(&r.colors));
        prop_assert_eq!(r.colors_used, report.colors_after);
        prop_assert!(report.colors_after <= report.colors_before);
        // Every edge keeps *some* color: the pass recolors, it never
        // discards.
        prop_assert!(r.colors.iter().all(|c| c.is_some()));
    }

    /// The sequential and parallel engines produce bit-identical
    /// colorings and reports: the pass consults no RNG and orders all
    /// decisions by round and node id.
    #[test]
    fn engines_bit_identical(
        seed in 0u64..1 << 48,
        n in 20usize..100,
        // Degenerate single shard, multi-node shards, oversubscribed 8.
        threads in (0usize..4).prop_map(|i| [1usize, 2, 3, 8][i]),
    ) {
        let (g, base) = colored_instance(seed, n, 6.0);
        let delta = g.max_degree() as u32;
        // Force work: target one color below what the base run used, so
        // chains actually move (bounded below by Δ-feasibility).
        let target = count_colors(&base).saturating_sub(1).max(delta as usize) as u32;
        let kcfg = KempeConfig { target_colors: Some(target.max(1)) };

        let seq = reduced(&g, seed, Engine::Sequential, kcfg);
        let par = reduced(&g, seed, Engine::Parallel { threads }, kcfg);

        prop_assert_eq!(seq.colors, par.colors);
        prop_assert!(seq.reduction.is_some());
        prop_assert_eq!(seq.reduction, par.reduction);
    }
}

/// 50-seed churn acceptance: with the Kempe post-pass configured, every
/// churn repair re-compacts the palette — the final coloring verifies on
/// the post-churn graph, never uses more colors than the bare repair,
/// and strictly improves every run the bare repair left above Δ+1.
#[test]
fn churn_repair_recompacts_over_fifty_seeds() {
    let mut improved = 0u32;
    let mut opportunities = 0u32;
    for seed in 0u64..50 {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE + seed);
        let g = random_regular(100, 9, &mut rng).expect("regular graph");
        let schedule = ChurnSchedule::generate(&g, &ChurnPlan::new(seed, 0.05));

        let bare = color_edges_churn(&g, &schedule, &ColoringConfig::seeded(seed))
            .expect("bare churn repair");
        verify_residual_edge_coloring(
            &bare.final_graph,
            &bare.coloring.colors,
            &bare.coloring.alive,
        )
        .expect("bare repair proper");

        let cfg = ColoringConfig {
            reduction: ColorReduction::Kempe(KempeConfig::default()),
            ..ColoringConfig::seeded(seed)
        };
        let kempe = color_edges_churn(&g, &schedule, &cfg).expect("kempe churn repair");
        verify_residual_edge_coloring(
            &kempe.final_graph,
            &kempe.coloring.colors,
            &kempe.coloring.alive,
        )
        .expect("compacted repair proper");

        let report = kempe.coloring.reduction.expect("reduction ran after repair");
        assert!(
            report.colors_after <= report.colors_before,
            "seed {seed}: compaction grew the palette"
        );
        assert!(
            kempe.coloring.colors_used <= bare.coloring.colors_used,
            "seed {seed}: kempe repair used more colors ({} > {})",
            kempe.coloring.colors_used,
            bare.coloring.colors_used
        );
        let delta = kempe.final_graph.max_degree();
        if bare.coloring.colors_used > delta + 1 {
            opportunities += 1;
            if kempe.coloring.colors_used < bare.coloring.colors_used {
                improved += 1;
            } else {
                panic!(
                    "seed {seed}: bare repair left {} colors (Δ = {delta}) and the \
                     post-pass failed to improve",
                    bare.coloring.colors_used
                );
            }
        }
    }
    assert_eq!(improved, opportunities);
    assert!(
        opportunities > 0,
        "corpus never exceeded Δ+1 — the acceptance check exercised nothing"
    );
}

/// Regression: with Kempe on, a serve-mode compaction written back
/// after a node left must skip the departed node. Its parked automaton
/// keeps its pre-leave ports while the live topology lists none, and
/// the write-back used to panic on the length mismatch. Mixed-kind
/// 8-event batches (link up/down, leave, join) on a small seeded ER
/// graph; the coloring must verify on the live graph after every batch.
#[test]
fn serve_kempe_write_back_survives_node_leave() {
    let n = 40u32;
    let mut rng = SmallRng::seed_from_u64(2);
    let g = erdos_renyi_avg_degree(n as usize, 6.0, &mut rng).expect("valid ER parameters");
    let mut cfg = ServiceConfig::new(ServeProtocol::EdgeColoring, 9);
    cfg.coloring.reduction = ColorReduction::Kempe(KempeConfig::default());
    let mut svc = ColoringService::new(&g, cfg).expect("service");
    svc.run_to_quiescence(svc.tick_budget()).expect("initial coloring");
    let mut ev = SmallRng::seed_from_u64(5);
    let mut leaves = 0;
    for batch in 0..12 {
        let mut staged = 0;
        while staged < 8 {
            let (a, b) = (VertexId(ev.random_range(0..n)), VertexId(ev.random_range(0..n)));
            let event = match ev.random_range(0..4u32) {
                0 => ChurnEvent::LinkUp(a.min(b), a.max(b)),
                1 => ChurnEvent::LinkDown(a.min(b), a.max(b)),
                2 => ChurnEvent::NodeLeave(a),
                _ => ChurnEvent::NodeJoin(a),
            };
            if svc.stage(event).is_ok() {
                leaves += u32::from(matches!(event, ChurnEvent::NodeLeave(_)));
                staged += 1;
            }
        }
        svc.commit().expect("commit");
        svc.run_to_quiescence(svc.tick_budget()).expect("repair converges");
        let edges = svc.coloring();
        let mut live = GraphBuilder::with_capacity(n as usize, edges.len());
        for e in &edges {
            assert_eq!(e.forward, e.reverse, "batch {batch}: endpoints disagree on {e:?}");
            live.add_edge(e.u, e.v);
        }
        let colors: Vec<_> = edges.iter().map(|e| e.forward).collect();
        verify_edge_coloring(&live.build().expect("live graph"), &colors)
            .unwrap_or_else(|v| panic!("batch {batch}: {v:?}"));
    }
    assert!(leaves > 0, "the event stream never removed a node");
}

/// Stage two double-edge swaps avoiding `avoid` (links (a, b), (c, d)
/// go down, (a, c), (b, d) come up), so the repair lands new edges
/// between saturated nodes and the Kempe pass has work to do.
fn stage_swaps(svc: &mut ColoringService, rng: &mut SmallRng, avoid: &[u32]) {
    let mut staged = 0;
    while staged < 2 {
        let edges = svc.coloring();
        let pick = |rng: &mut SmallRng| {
            let e = edges[rng.random_range(0..edges.len())];
            (e.u.0, e.v.0)
        };
        let ((a, b), (c, d)) = (pick(rng), pick(rng));
        let ends = [a, b, c, d];
        let distinct = a != c && a != d && b != c && b != d;
        if !distinct || ends.iter().any(|x| avoid.contains(x)) {
            continue;
        }
        let link = |x: u32, y: u32| (VertexId(x.min(y)), VertexId(x.max(y)));
        let (ac, bd) = (link(a, c), link(b, d));
        if svc.edge_color(ac.0, ac.1).is_ok() || svc.edge_color(bd.0, bd.1).is_ok() {
            continue;
        }
        for ev in [
            ChurnEvent::LinkDown(VertexId(a), VertexId(b)),
            ChurnEvent::LinkDown(VertexId(c), VertexId(d)),
            ChurnEvent::LinkUp(ac.0, ac.1),
            ChurnEvent::LinkUp(bd.0, bd.1),
        ] {
            svc.stage(ev).expect("swap events are valid");
        }
        staged += 1;
    }
}

/// Events staged while a repair runs belong to the next batch: the
/// post-repair Kempe pass must not see them. Before this was pinned, a
/// node whose leave was staged mid-repair had its edges pinned by the
/// pass (so the live coloring diverged from what snapshot replay
/// rebuilds), and a staged rejoin of a departed node made the
/// write-back panic on the node's stale ports.
#[test]
fn kempe_pass_ignores_events_staged_mid_repair() {
    let g = random_regular(120, 8, &mut SmallRng::seed_from_u64(3)).expect("regular graph");
    let mut cfg = ServiceConfig::new(ServeProtocol::EdgeColoring, 5);
    cfg.coloring.reduction = ColorReduction::Kempe(KempeConfig::default());
    let mut write_backs = 0;
    for x in 0..12u32 {
        let (roamer, leaver) = (x, x + 60);
        let mut svc = ColoringService::new(&g, cfg.clone()).expect("service");
        svc.run_to_quiescence(svc.tick_budget()).expect("initial coloring");
        let mut rng = SmallRng::seed_from_u64(u64::from(x));
        svc.stage(ChurnEvent::NodeLeave(VertexId(roamer))).expect("leave");
        svc.commit().expect("commit");
        svc.run_to_quiescence(svc.tick_budget()).expect("leave repair");
        stage_swaps(&mut svc, &mut rng, &[roamer, leaver]);
        svc.commit().expect("commit");
        svc.tick().expect("first repair tick");
        svc.stage(ChurnEvent::NodeJoin(VertexId(roamer))).expect("rejoin");
        svc.stage(ChurnEvent::NodeLeave(VertexId(leaver))).expect("leave");
        svc.run_to_quiescence(svc.tick_budget()).expect("repair converges");
        write_backs += svc
            .take_reports()
            .iter()
            .filter_map(|r| r.reduction)
            .filter(|k| k.trivial_recolors + k.chains_flipped > 0)
            .count();
        let (restored, _) =
            ColoringService::restore_chain(&svc.snapshot_text(), &[], None, Engine::Sequential)
                .unwrap_or_else(|e| panic!("x {x}: snapshot replay: {e}"));
        assert_eq!(restored.coloring_hash(), svc.coloring_hash(), "x {x}: replay diverges");
    }
    assert!(write_backs > 0, "no compaction ever moved a color");
}
