//! Integration tests for the beyond-the-paper extensions: vertex cover
//! and TDMA schedule semantics — exercised through the public umbrella
//! API, end to end.

use dima::core::schedule::{
    verify_half_duplex, verify_interference_free, ArcSchedule, EdgeSchedule,
};
use dima::core::vertex_cover::{brute_force_min_cover, verify_vertex_cover};
use dima::core::{color_edges, strong_color_digraph, vertex_cover, ColoringConfig};
use dima::graph::gen::GraphFamily;
use dima::graph::Digraph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn vertex_cover_two_approx_on_random_graphs() {
    // Small random graphs where the brute-force optimum is computable.
    let mut rng = SmallRng::seed_from_u64(41);
    for seed in 0..6 {
        let g =
            GraphFamily::ErdosRenyiAvgDegree { n: 14, avg_degree: 3.0 }.sample(&mut rng).unwrap();
        let r = vertex_cover(&g, &ColoringConfig::seeded(seed)).unwrap();
        verify_vertex_cover(&g, &r.in_cover).unwrap();
        let opt = brute_force_min_cover(&g);
        assert!(r.size <= 2 * opt, "cover {} > 2×OPT {}", r.size, 2 * opt);
    }
}

#[test]
fn dimaec_schedules_are_half_duplex() {
    let mut rng = SmallRng::seed_from_u64(45);
    for seed in 0..3 {
        let g = GraphFamily::Geometric { n: 50, radius: 0.2 }.sample(&mut rng).unwrap();
        let r = color_edges(&g, &ColoringConfig::seeded(seed)).unwrap();
        let sched = EdgeSchedule::from_coloring(&r.colors);
        verify_half_duplex(&g, &sched).unwrap();
        assert_eq!(sched.num_transmissions(), g.num_edges());
        assert_eq!(sched.frame_len(), r.max_color.map_or(0, |c| c.index() + 1));
    }
}

#[test]
fn dima2ed_schedules_are_interference_free() {
    // The semantic (radio-level) property, checked end to end — strictly
    // stronger than the paper's Definition 2 (see core::schedule docs),
    // and still always satisfied by DiMa2ED's conservative palette.
    let mut rng = SmallRng::seed_from_u64(47);
    for seed in 0..3 {
        let g =
            GraphFamily::ErdosRenyiAvgDegree { n: 40, avg_degree: 4.0 }.sample(&mut rng).unwrap();
        let d = Digraph::symmetric_closure(&g);
        let r = strong_color_digraph(&d, &ColoringConfig::seeded(seed)).unwrap();
        let sched = ArcSchedule::from_coloring(&r.colors);
        verify_interference_free(&d, &sched).unwrap();
    }
}

#[test]
fn proposal_width_speeds_up_strong_coloring() {
    // ABL3's headline, as a regression test: width 4 must beat width 1
    // on rounds while staying correct.
    let mut rng = SmallRng::seed_from_u64(49);
    let g = GraphFamily::ErdosRenyiAvgDegree { n: 80, avg_degree: 6.0 }.sample(&mut rng).unwrap();
    let d = Digraph::symmetric_closure(&g);
    let mut narrow_total = 0u64;
    let mut wide_total = 0u64;
    for seed in 0..4 {
        let narrow = strong_color_digraph(&d, &ColoringConfig::seeded(seed)).unwrap();
        let wide = strong_color_digraph(
            &d,
            &ColoringConfig { proposal_width: 4, ..ColoringConfig::seeded(seed) },
        )
        .unwrap();
        dima::core::verify::verify_strong_coloring(&d, &narrow.colors).unwrap();
        dima::core::verify::verify_strong_coloring(&d, &wide.colors).unwrap();
        narrow_total += narrow.compute_rounds;
        wide_total += wide.compute_rounds;
    }
    assert!(
        wide_total * 3 < narrow_total * 2,
        "width 4 ({wide_total}) should cut rounds well below width 1 ({narrow_total})"
    );
}

#[test]
fn worst_case_bound_never_reached_experimentally() {
    // Paper §II-B: "in no experimental case should we ever see the
    // maximum 2Δ−1 colors used". Hammer complete graphs (the Prop-3
    // gadget: every node at degree Δ) with many seeds.
    use dima::graph::gen::structured;
    for delta in [4usize, 7, 10] {
        let g = structured::complete(delta + 1);
        for seed in 0..10 {
            let r = color_edges(&g, &ColoringConfig::seeded(seed)).unwrap();
            assert!(
                r.colors_used < 2 * delta - 1 || delta <= 2,
                "Δ={delta} seed={seed}: hit the worst case {} = 2Δ−1",
                r.colors_used
            );
        }
    }
}

#[test]
fn state_labels_work_for_all_automata_protocols() {
    // The matching protocol also reports its Fig-1 states; record them
    // into a timeline and read each round's census.
    use dima::core::{maximal_matching, maximal_matching_traced};
    use dima::graph::gen::structured;
    use dima::sim::telemetry::StateTimeline;

    let g = structured::cycle(8);
    let cfg = ColoringConfig::seeded(3);
    let mut timeline = StateTimeline::new(g.num_vertices());
    let m = maximal_matching_traced(&g, &cfg, &mut timeline).unwrap();
    let census = timeline.rounds();
    assert!(m.stats.rounds > 0);
    assert_eq!(census.len() as u64, m.comm_rounds, "one snapshot per communication round");
    assert_eq!(census[0].count("I") + census[0].count("L"), 8);
    assert!(census.last().unwrap().count("D") > 0);
    // The census agrees with the plain runner on the result.
    assert_eq!(maximal_matching(&g, &cfg).unwrap().pairs, m.pairs);
}
