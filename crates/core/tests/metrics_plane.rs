//! The metrics plane shares the trace plane's determinism contract:
//! the merged counters, gauges and histograms of a parallel run are
//! bit-identical to the sequential engine's at every thread count, and
//! turning the plane on cannot change a single bit of any run's
//! results. These property tests pin both, across fault plans, churn
//! schedules, and the Kempe reduction pass (whose registry folds into
//! the run's).

use dima_core::{
    color_edges, color_edges_churn, maximal_matching, strong_color_digraph, ChurnPlan,
    ChurnSchedule, ColorReduction, ColoringConfig, Engine, KempeConfig,
};
use dima_graph::gen::erdos_renyi_avg_degree;
use dima_graph::{Digraph, Graph};
use dima_sim::fault::FaultPlan;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The thread counts the issue pins: degenerate pool, small pools, and
/// one wider than any test graph's shard count is likely to need.
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..40, 1u64..200, 10u32..45).prop_map(|(n, gseed, avg10)| {
        let mut rng = SmallRng::seed_from_u64(gseed);
        let avg = (f64::from(avg10) / 10.0).min(0.8 * (n - 1) as f64);
        erdos_renyi_avg_degree(n, avg, &mut rng).unwrap()
    })
}

fn arb_cfg() -> impl Strategy<Value = ColoringConfig> {
    (1u64..500, 0u8..3, any::<bool>()).prop_map(|(seed, faults, reduce)| ColoringConfig {
        collect_round_stats: true,
        collect_metrics: true,
        faults: match faults {
            0 => FaultPlan::reliable(),
            1 => FaultPlan::uniform(0.05),
            _ => FaultPlan { duplicate_probability: 0.05, ..FaultPlan::uniform(0.1) },
        },
        reduction: if reduce {
            ColorReduction::Kempe(KempeConfig::default())
        } else {
            ColorReduction::Off
        },
        // Lossy runs may legitimately hit the budget; keep it small so
        // the error path is exercised quickly instead of spinning.
        max_compute_rounds: Some(300),
        ..ColoringConfig::seeded(seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The merged registry of an edge-coloring run is bit-identical
    /// between the sequential engine and the worker pool at every
    /// pinned thread count, including under fault injection and with
    /// the Kempe reduction folded in.
    #[test]
    fn edge_coloring_metrics_engine_identical(g in arb_graph(), cfg in arb_cfg()) {
        let seq = color_edges(&g, &ColoringConfig { engine: Engine::Sequential, ..cfg.clone() });
        for threads in THREADS {
            let par = color_edges(
                &g,
                &ColoringConfig { engine: Engine::Parallel { threads }, ..cfg.clone() },
            );
            match (&seq, &par) {
                (Ok(s), Ok(p)) => {
                    prop_assert!(s.stats.metrics.is_some(), "metrics plane was on");
                    // RunStats derives Eq and carries the registry, so
                    // this compares every counter, gauge and histogram
                    // bucket alongside the rest of the stats.
                    prop_assert_eq!(&s.stats, &p.stats, "threads = {}", threads);
                    prop_assert_eq!(&s.colors, &p.colors);
                }
                // A lossy run may fail (budget exhausted); it must fail
                // identically on every engine.
                (s, p) => {
                    prop_assert!(s.is_err(), "threads = {}", threads);
                    prop_assert!(p.is_err(), "threads = {}", threads);
                }
            }
        }
    }

    /// Same for the matching and strong-coloring protocols (ARQ
    /// metrics included when the reliable transport engages under
    /// loss).
    #[test]
    fn matching_and_strong_metrics_engine_identical(g in arb_graph(), cfg in arb_cfg()) {
        let d = Digraph::symmetric_closure(&g);
        let seq_cfg = ColoringConfig { engine: Engine::Sequential, ..cfg.clone() };
        let seq_m = maximal_matching(&g, &seq_cfg);
        let seq_s = strong_color_digraph(&d, &seq_cfg);
        for threads in THREADS {
            let par_cfg = ColoringConfig { engine: Engine::Parallel { threads }, ..cfg.clone() };
            match (&seq_m, &maximal_matching(&g, &par_cfg)) {
                (Ok(s), Ok(p)) => prop_assert_eq!(&s.stats, &p.stats, "threads = {}", threads),
                (s, p) => {
                    prop_assert!(s.is_err());
                    prop_assert!(p.is_err());
                }
            }
            match (&seq_s, &strong_color_digraph(&d, &par_cfg)) {
                (Ok(s), Ok(p)) => prop_assert_eq!(&s.stats, &p.stats, "threads = {}", threads),
                (s, p) => {
                    prop_assert!(s.is_err());
                    prop_assert!(p.is_err());
                }
            }
        }
    }

    /// Same under a churn schedule: topology mutation mid-run must not
    /// break the shard-merge determinism of the counters.
    #[test]
    fn churn_metrics_engine_identical(
        g in arb_graph(),
        seed in 1u64..300,
        churn_seed in 1u64..300,
    ) {
        let schedule = ChurnSchedule::generate(&g, &ChurnPlan::new(churn_seed, 0.25));
        let base = ColoringConfig {
            collect_round_stats: true,
            collect_metrics: true,
            ..ColoringConfig::seeded(seed)
        };
        let seq = color_edges_churn(
            &g,
            &schedule,
            &ColoringConfig { engine: Engine::Sequential, ..base.clone() },
        )
        .unwrap();
        prop_assert!(seq.coloring.stats.metrics.is_some());
        for threads in THREADS {
            let par = color_edges_churn(
                &g,
                &schedule,
                &ColoringConfig { engine: Engine::Parallel { threads }, ..base.clone() },
            )
            .unwrap();
            prop_assert_eq!(&seq.coloring.stats, &par.coloring.stats, "threads = {}", threads);
            prop_assert_eq!(&seq.coloring.colors, &par.coloring.colors);
        }
    }

    /// The plane is a pure observer: collecting metrics changes nothing
    /// but the registry itself.
    #[test]
    fn metrics_collection_is_pure(g in arb_graph(), cfg in arb_cfg()) {
        let with = color_edges(&g, &cfg);
        let without = color_edges(&g, &ColoringConfig { collect_metrics: false, ..cfg.clone() });
        match (with, without) {
            (Ok(w), Ok(wo)) => {
                prop_assert!(w.stats.metrics.is_some());
                prop_assert!(wo.stats.metrics.is_none());
                let mut stripped = w.stats.clone();
                stripped.metrics = None;
                prop_assert_eq!(&stripped, &wo.stats);
                prop_assert_eq!(&w.colors, &wo.colors);
            }
            (w, wo) => {
                prop_assert!(w.is_err());
                prop_assert!(wo.is_err());
            }
        }
    }
}

/// ER n = 200, average degree 6: Δ = 12, and a Kempe target of 10 leaves
/// the reduction pass work to do.
fn reduced_graph() -> Graph {
    let mut rng = SmallRng::seed_from_u64(1);
    erdos_renyi_avg_degree(200, 6.0, &mut rng).unwrap()
}

/// The run's `engine/` counters count Algorithm 1's engine alone, as
/// `RunStats` does, on plain, churn and reduced runs: a Kempe pass keeps
/// its engine's counters under `kempe/engine/` and its message fates
/// under `kempe/kind/`. `engine/rounds` counts executed rounds, so it
/// leaves out the idle rounds a churn run fast-forwards over.
#[test]
fn engine_counters_equal_run_stats() {
    let g = reduced_graph();
    let schedule = ChurnSchedule::generate(&g, &ChurnPlan::new(11, 0.2));
    let kempe = ColorReduction::Kempe(KempeConfig { target_colors: Some(10) });
    for (churn, reduction) in
        [(false, ColorReduction::Off), (true, ColorReduction::Off), (false, kempe), (true, kempe)]
    {
        let cfg = ColoringConfig { collect_metrics: true, reduction, ..ColoringConfig::seeded(5) };
        let r = if churn {
            color_edges_churn(&g, &schedule, &cfg).unwrap().coloring
        } else {
            color_edges(&g, &cfg).unwrap()
        };
        let reduced = cfg.reduction != ColorReduction::Off;
        assert_eq!(r.reduction.is_some(), reduced, "the pass ran when asked");
        let what = format!("churn {churn}, reduced {reduced}");
        let reg = r.stats.metrics.as_ref().expect("metrics were requested");
        assert_eq!(reg.counter("engine/messages_sent"), r.stats.messages_sent, "{what}");
        assert_eq!(reg.counter("engine/deliveries"), r.stats.deliveries, "{what}");
        assert_eq!(
            reg.counter("engine/rounds"),
            r.stats.rounds - r.stats.idle_rounds_skipped,
            "{what}"
        );
        if let Some(pass) = &r.reduction {
            assert!(pass.messages_sent > 0, "{what}: the pass should have work");
            assert_eq!(reg.counter("kempe/engine/messages_sent"), pass.messages_sent, "{what}");
        }
    }
}

/// Algorithm 1's `Used` exchange goes only to neighbors across an
/// uncolored edge, which are never done: on fault-free static and churn
/// runs every copy sent is delivered.
#[test]
fn used_exchange_reaches_only_running_neighbors() {
    let g = reduced_graph();
    let schedule = ChurnSchedule::generate(&g, &ChurnPlan::new(11, 0.2));
    for threads in [1, 3] {
        let cfg = ColoringConfig {
            collect_metrics: true,
            engine: Engine::Parallel { threads },
            ..ColoringConfig::seeded(5)
        };
        let static_run = color_edges(&g, &cfg).unwrap();
        let churn_run = color_edges_churn(&g, &schedule, &cfg).unwrap().coloring;
        for (what, r) in [("static", static_run), ("churn", churn_run)] {
            let reg = r.stats.metrics.as_ref().expect("metrics were requested");
            let sent = reg.counter("kind/used/sent");
            assert!(sent > 0, "{what}, {threads} threads: no exchange");
            assert_eq!(reg.counter("kind/used/delivered"), sent, "{what}, {threads} threads");
        }
    }
}
