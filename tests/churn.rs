//! Dynamic-topology integration tests: churn schedules injected mid-run,
//! repaired incrementally by both coloring algorithms.
//!
//! The acceptance bar for the subsystem: after **every** churn batch the
//! automata converge back to a proper (resp. strong) coloring without a
//! restart, across a wide seed sweep, on both engines, composing with the
//! fault layer. Per-batch quiescence is checked through prefix schedules:
//! generation is sequential in batch order, so the schedule generated
//! with `batches: k` is the first `k` batches of the full one, and
//! running each prefix to completion observes exactly the state the full
//! run passes through at that batch's quiescence.

use dima::core::verify::{
    verify_edge_coloring, verify_residual_edge_coloring, verify_strong_coloring,
};
use dima::core::{
    color_edges, color_edges_churn, strong_color_churn, strong_color_digraph, ChurnKinds,
    ChurnPlan, ChurnSchedule, ColoringConfig, CoreError, Engine, Transport,
};
use dima::graph::gen::erdos_renyi_gnm;
use dima::graph::{Digraph, Graph};
use dima::sim::fault::FaultPlan;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn er(n: usize, m: usize, seed: u64) -> Graph {
    erdos_renyi_gnm(n, m, &mut SmallRng::seed_from_u64(seed)).expect("valid parameters")
}

/// 2Δ−1 palette bound against the largest degree the run ever saw.
fn assert_palette_bound(colors_used: usize, delta: usize) {
    if delta > 0 {
        assert!(colors_used < 2 * delta, "{colors_used} colors > 2Δ−1 for Δ = {delta}");
    }
}

#[test]
fn ec_repairs_to_proper_coloring_across_fifty_seeds() {
    for seed in 0..50u64 {
        let g0 = er(40, 80, seed);
        let plan = ChurnPlan::new(seed.wrapping_mul(7).wrapping_add(1), 0.15);
        let schedule = ChurnSchedule::generate(&g0, &plan);
        let r = color_edges_churn(&g0, &schedule, &ColoringConfig::seeded(seed)).unwrap();
        assert!(r.coloring.endpoint_agreement, "seed {seed}: endpoints disagree");
        assert!(
            r.coloring.colors.iter().all(Option::is_some),
            "seed {seed}: incomplete repair on the final graph"
        );
        verify_edge_coloring(&r.final_graph, &r.coloring.colors)
            .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        let delta = g0.max_degree().max(schedule.max_degree());
        assert_palette_bound(r.coloring.colors_used, delta);
        assert_eq!(r.coloring.stats.churn_batches, schedule.len() as u64);
        assert_eq!(r.batches.len(), schedule.len());
    }
}

#[test]
fn ec_quiesces_to_proper_coloring_after_every_batch() {
    // Prefix schedules observe the coloring at quiescence after each
    // individual batch (a shorter plan generates a prefix).
    for seed in [3u64, 11, 19, 27] {
        let g0 = er(36, 90, seed);
        let plan = ChurnPlan { batches: 5, ..ChurnPlan::new(seed + 100, 0.2) };
        for k in 0..=plan.batches {
            let prefix = ChurnSchedule::generate(&g0, &ChurnPlan { batches: k, ..plan.clone() });
            assert_eq!(prefix.len(), k);
            let r = color_edges_churn(&g0, &prefix, &ColoringConfig::seeded(seed)).unwrap();
            assert!(
                r.coloring.colors.iter().all(Option::is_some),
                "seed {seed}, prefix {k}: incomplete"
            );
            verify_edge_coloring(&r.final_graph, &r.coloring.colors)
                .unwrap_or_else(|v| panic!("seed {seed}, prefix {k}: {v}"));
            // The last batch always has the full round budget after it,
            // so its repair must have quiesced. Earlier windows may
            // legitimately be `None` (the next batch fired first; the
            // cost folds into its window — see `BatchReport`).
            assert!(
                r.batches.last().is_none_or(|b| b.repair_rounds.is_some()),
                "seed {seed}, prefix {k}: final batch never quiesced"
            );
        }
    }
}

#[test]
fn empty_schedule_is_exactly_a_static_run() {
    let g0 = er(30, 70, 5);
    let empty = ChurnSchedule::empty();
    let cfg = ColoringConfig::seeded(9);
    let churn = color_edges_churn(&g0, &empty, &cfg).unwrap();
    let baseline = color_edges(&g0, &cfg).unwrap();
    assert_eq!(churn.coloring.colors, baseline.colors);
    assert_eq!(churn.coloring.comm_rounds, baseline.comm_rounds);
    // The whole statistics block, per-round breakdown included: an empty
    // schedule collects it only when the config asks.
    assert_eq!(churn.coloring.stats, baseline.stats);
    assert_eq!(churn.coloring.stats.per_round, None);
    assert_eq!(churn.final_graph, g0);
    assert!(churn.batches.is_empty());
    assert_eq!(churn.coloring.stats.churn_batches, 0);
    assert_eq!(churn.recolored_fraction(&baseline.colors), 0.0);

    let asked = ColoringConfig { collect_round_stats: true, ..cfg.clone() };
    let churn = color_edges_churn(&g0, &empty, &asked).unwrap();
    let baseline = color_edges(&g0, &asked).unwrap();
    assert!(churn.coloring.stats.per_round.is_some());
    assert_eq!(churn.coloring.stats, baseline.stats);

    // Algorithm 2: the churn entry point on `g0` is the static run on its
    // symmetric closure.
    let strong = strong_color_churn(&g0, &empty, &cfg).unwrap();
    let d0 = Digraph::symmetric_closure(&g0);
    let baseline = strong_color_digraph(&d0, &cfg).unwrap();
    assert_eq!(strong.final_digraph, d0);
    assert_eq!(strong.coloring.colors, baseline.colors);
    assert_eq!(strong.coloring.stats, baseline.stats);
    assert_eq!(strong.coloring.comm_rounds, baseline.comm_rounds);
    assert!(strong.coloring.endpoint_agreement && baseline.endpoint_agreement);
    assert!(strong.batches.is_empty());

    // With nothing churning, the reliable transport is accepted and runs
    // exactly as the static call does (overhead rounds included).
    let reliable = ColoringConfig {
        transport: Transport::reliable(),
        faults: FaultPlan::uniform(0.05),
        ..cfg.clone()
    };
    let churn = color_edges_churn(&g0, &empty, &reliable).unwrap();
    let baseline = color_edges(&g0, &reliable).unwrap();
    assert_eq!(churn.coloring.colors, baseline.colors);
    assert_eq!(churn.coloring.stats, baseline.stats);
    assert!(churn.coloring.transport_overhead_rounds > 0);
    assert_eq!(churn.coloring.transport_overhead_rounds, baseline.transport_overhead_rounds);
    let strong = strong_color_churn(&g0, &empty, &reliable).unwrap();
    let baseline = strong_color_digraph(&d0, &reliable).unwrap();
    assert_eq!(strong.coloring.colors, baseline.colors);
    assert_eq!(strong.coloring.stats, baseline.stats);
}

#[test]
fn links_only_churn_keeps_node_set_and_reports_dirty_edges() {
    let g0 = er(32, 64, 2);
    let plan = ChurnPlan { kinds: ChurnKinds::links_only(), ..ChurnPlan::new(77, 0.25) };
    let schedule = ChurnSchedule::generate(&g0, &plan);
    assert!(!schedule.is_empty());
    let r = color_edges_churn(&g0, &schedule, &ColoringConfig::seeded(13)).unwrap();
    verify_edge_coloring(&r.final_graph, &r.coloring.colors).unwrap();
    assert!(r.batches.iter().all(|b| b.joins == 0 && b.leaves == 0));
    assert!(
        r.batches.iter().map(|b| b.dirty_edges).sum::<usize>() > 0,
        "link churn should dirty some edges"
    );
}

#[test]
fn engines_bit_identical_under_churn() {
    for seed in [1u64, 8, 21] {
        let g0 = er(34, 85, seed);
        let schedule = ChurnSchedule::generate(&g0, &ChurnPlan::new(seed + 500, 0.2));
        let cfg = ColoringConfig::seeded(seed);
        let seq = color_edges_churn(&g0, &schedule, &cfg).unwrap();
        for threads in [2usize, 5] {
            let par = color_edges_churn(
                &g0,
                &schedule,
                &ColoringConfig { engine: Engine::Parallel { threads }, ..cfg.clone() },
            )
            .unwrap();
            assert_eq!(seq.coloring.colors, par.coloring.colors, "seed {seed} threads {threads}");
            assert_eq!(seq.coloring.comm_rounds, par.coloring.comm_rounds);
            assert_eq!(seq.coloring.stats, par.coloring.stats);
            assert_eq!(seq.batches, par.batches);
        }
    }
}

#[test]
fn strong_coloring_repairs_under_churn() {
    for seed in 0..12u64 {
        let g0 = er(24, 40, seed + 40);
        let plan = ChurnPlan { batches: 3, ..ChurnPlan::new(seed + 900, 0.12) };
        let schedule = ChurnSchedule::generate(&g0, &plan);
        let r = strong_color_churn(&g0, &schedule, &ColoringConfig::seeded(seed)).unwrap();
        assert!(r.coloring.endpoint_agreement, "seed {seed}: tail/head disagree");
        assert!(
            r.coloring.colors.iter().all(Option::is_some),
            "seed {seed}: incomplete strong repair"
        );
        verify_strong_coloring(&r.final_digraph, &r.coloring.colors)
            .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn strong_engines_bit_identical_under_churn() {
    let g0 = er(20, 35, 4);
    let schedule =
        ChurnSchedule::generate(&g0, &ChurnPlan { batches: 3, ..ChurnPlan::new(31, 0.15) });
    let cfg = ColoringConfig::seeded(64);
    let seq = strong_color_churn(&g0, &schedule, &cfg).unwrap();
    let par = strong_color_churn(
        &g0,
        &schedule,
        &ColoringConfig { engine: Engine::Parallel { threads: 3 }, ..cfg },
    )
    .unwrap();
    assert_eq!(seq.coloring.colors, par.coloring.colors);
    assert_eq!(seq.coloring.stats, par.coloring.stats);
}

#[test]
fn churn_composes_with_message_loss() {
    // Fault decisions stay pure hashes of (seed, round, edge, k), so loss
    // composes with churn deterministically. Under lossy bare transport a
    // run either converges to a verifiable coloring or detectably fails
    // (round budget exhausted / desynced commits), exactly as in the
    // static loss tests.
    let mut converged = 0usize;
    for seed in 0..8u64 {
        let g0 = er(30, 60, seed + 70);
        let schedule = ChurnSchedule::generate(&g0, &ChurnPlan::new(seed + 11, 0.15));
        let cfg =
            ColoringConfig { faults: FaultPlan::uniform(0.005), ..ColoringConfig::seeded(seed) };
        match color_edges_churn(&g0, &schedule, &cfg) {
            Ok(r) => {
                let complete = r.coloring.colors.iter().all(Option::is_some);
                let proper = verify_edge_coloring(&r.final_graph, &r.coloring.colors).is_ok();
                if r.coloring.endpoint_agreement && complete && proper {
                    converged += 1;
                }
                // Anything else is a *detected* loss-induced desync.
            }
            Err(CoreError::Sim(_)) => {} // detected: budget exhausted
            Err(e) => panic!("seed {seed}: unexpected error {e}"),
        }
    }
    assert!(converged >= 4, "only {converged}/8 lossy churn runs converged");
}

#[test]
fn churn_with_crashes_converges_or_detects() {
    // Churn forces the bare transport, and bare links have no death
    // detection (that is the ARQ layer's probe job): a survivor whose
    // uncolored edge leads to a crashed peer re-invites until the round
    // budget trips. Crash faults therefore compose with churn only up to
    // detection — every run must either produce a verified residual
    // coloring or fail with the simulator's budget error.
    let mut saw_fault = false;
    for seed in 0..8u64 {
        let g0 = er(30, 60, seed + 70);
        let schedule = ChurnSchedule::generate(&g0, &ChurnPlan::new(seed + 11, 0.15));
        let cfg = ColoringConfig {
            faults: FaultPlan { crash_spread: 30, ..FaultPlan::crashing(0.1, 0) },
            ..ColoringConfig::seeded(seed)
        };
        match color_edges_churn(&g0, &schedule, &cfg) {
            Ok(r) => {
                saw_fault |= r.coloring.alive.iter().any(|&a| !a);
                assert!(r.coloring.endpoint_agreement, "seed {seed}");
                verify_residual_edge_coloring(
                    &r.final_graph,
                    &r.coloring.colors,
                    &r.coloring.alive,
                )
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            }
            Err(CoreError::Sim(_)) => saw_fault = true,
            Err(e) => panic!("seed {seed}: unexpected error {e}"),
        }
    }
    assert!(saw_fault, "the fault plan should bite at least once across 8 runs");
}

#[test]
fn churn_requires_bare_transport() {
    let g0 = er(10, 20, 1);
    let schedule = ChurnSchedule::generate(&g0, &ChurnPlan::new(1, 0.2));
    let cfg = ColoringConfig { transport: Transport::reliable(), ..ColoringConfig::seeded(1) };
    assert!(matches!(color_edges_churn(&g0, &schedule, &cfg), Err(CoreError::Config(_))));
    assert!(matches!(strong_color_churn(&g0, &schedule, &cfg), Err(CoreError::Config(_))));
}

#[test]
fn recolored_fraction_against_static_baseline_is_sane() {
    let g0 = er(40, 80, 12);
    let schedule = ChurnSchedule::generate(&g0, &ChurnPlan::new(5, 0.1));
    let cfg = ColoringConfig::seeded(3);
    let r = color_edges_churn(&g0, &schedule, &cfg).unwrap();
    // Same-seed static run on the *final* topology.
    let baseline = color_edges(&r.final_graph, &cfg).unwrap();
    let f = r.recolored_fraction(&baseline.colors);
    assert!((0.0..=1.0).contains(&f), "fraction {f} out of range");
}
