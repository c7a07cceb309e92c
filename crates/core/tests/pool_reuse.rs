//! Regression: the parallel stepper draws its workers from the
//! persistent pool, so ticking a service (or running two of them back
//! to back) never spawns threads beyond the pool's high-water mark.
//!
//! The check reads the process-wide pool's spawn counter twice, so it
//! lives in a binary of its own: no concurrent test can grow the pool
//! between the two reads.

use std::collections::HashMap;

use dima_core::{Color, ColoringService, Engine, ServeProtocol, ServiceConfig};
use dima_graph::gen::structured;

/// Every edge is colored, both endpoints agree, and no node repeats a
/// color.
fn assert_proper(s: &ColoringService) {
    let mut per_node: HashMap<u32, Vec<Color>> = HashMap::new();
    for e in s.coloring() {
        let c = e.forward.unwrap_or_else(|| panic!("uncolored edge {}-{}", e.u, e.v));
        assert_eq!(e.forward, e.reverse, "endpoint disagreement on {}-{}", e.u, e.v);
        per_node.entry(e.u.0).or_default().push(c);
        per_node.entry(e.v.0).or_default().push(c);
    }
    for (node, mut colors) in per_node {
        let len = colors.len();
        colors.sort();
        colors.dedup();
        assert_eq!(colors.len(), len, "node {node} repeats a color");
    }
}

#[test]
fn consecutive_service_runs_reuse_the_pool() {
    let g = structured::cycle(12);
    let build = || {
        let mut cfg = ServiceConfig::new(ServeProtocol::EdgeColoring, 7);
        cfg.coloring.engine = Engine::Parallel { threads: 2 };
        let mut s = ColoringService::new(&g, cfg).unwrap();
        s.run_to_quiescence(s.tick_budget()).unwrap();
        assert_proper(&s);
    };
    // Warm the pool to this width.
    build();
    let spawned_before = dima_sim::pool::global().threads_spawned();
    build();
    build();
    assert_eq!(
        dima_sim::pool::global().threads_spawned(),
        spawned_before,
        "repeat service runs must reuse pooled workers, not spawn new ones"
    );
}
