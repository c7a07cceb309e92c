//! Wire-identity golden test for the reliable (ARQ) transport.
//!
//! The fault layer decides each delivery's fate from a hash of the
//! sender's outbox index, and each control word's from its link and
//! round, so the exact sequence of data frames and words the ARQ layer
//! emits — which bundles, retransmissions and words, in which order —
//! determines every drop, duplicate and round. This test runs DiMaEC
//! over `Transport::reliable()` under three fault plans and pins the
//! run counters (data frames and control words apart), the `arq/*`
//! metric counters and a hash of the coloring to constants, at one
//! shard and at three. Any change to the wire moves at least one of
//! them; a pure speed-up of the ARQ layer must move none. The two
//! loss-only plans keep the fault-free coloring, and no plan declares a
//! live peer dead (`arq/false_deaths` is 0).

use dima_core::{color_edges, Color, ColoringConfig, Engine, Transport};
use dima_graph::gen::erdos_renyi_avg_degree;
use dima_graph::Graph;
use dima_sim::fault::FaultPlan;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// What one run pins: the `RunStats` counts, the control words of the
/// registry's `engine/control_*` counters, the `arq/*` counters (sorted
/// by name) and the coloring hash.
#[derive(Debug, PartialEq, Eq)]
struct Wire {
    messages_sent: u64,
    deliveries: u64,
    dropped: u64,
    duplicated: u64,
    rounds: u64,
    control_words: u64,
    control_lost: u64,
    arq: Vec<(String, u64)>,
    coloring: u64,
}

fn graph() -> Graph {
    let mut rng = SmallRng::seed_from_u64(7);
    erdos_renyi_avg_degree(48, 6.0, &mut rng).unwrap()
}

/// FNV-1a over the per-edge colors (`None` hashes as `u32::MAX`).
fn hash_colors(colors: &[Option<Color>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in colors {
        for b in c.map_or(u32::MAX, |c| c.0).to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn wire(plan: FaultPlan, threads: usize) -> Wire {
    let cfg = ColoringConfig {
        faults: plan,
        transport: Transport::reliable(),
        engine: if threads == 1 { Engine::Sequential } else { Engine::Parallel { threads } },
        collect_metrics: true,
        ..ColoringConfig::seeded(13)
    };
    let r = color_edges(&graph(), &cfg).unwrap();
    let metrics = r.stats.metrics.as_ref().expect("metrics were requested");
    Wire {
        messages_sent: r.stats.messages_sent,
        deliveries: r.stats.deliveries,
        dropped: r.stats.dropped,
        duplicated: r.stats.duplicated,
        rounds: r.stats.rounds,
        control_words: metrics.counter("engine/control_words"),
        control_lost: metrics.counter("engine/control_lost"),
        arq: metrics
            .counters()
            .filter(|(name, _)| name.starts_with("arq/"))
            .map(|(name, v)| (name.to_string(), v))
            .collect(),
        coloring: hash_colors(&r.colors),
    }
}

fn arq(counters: &[(&str, u64)]) -> Vec<(String, u64)> {
    counters.iter().map(|&(name, v)| (name.to_string(), v)).collect()
}

fn check(plan: FaultPlan, want: Wire) {
    for threads in [1, 3] {
        let got = wire(plan.clone(), threads);
        // The coloring is checked on its own first: a wire change may
        // move frames and rounds, but a coloring change is a behaviour
        // change of another order.
        assert_eq!(got.coloring, want.coloring, "coloring moved, threads {threads}");
        assert_eq!(got, want, "threads {threads}");
    }
}

#[test]
fn uniform_loss_wire_is_pinned() {
    check(
        FaultPlan::uniform(0.02),
        Wire {
            messages_sent: 1340,
            deliveries: 1306,
            dropped: 34,
            duplicated: 0,
            rounds: 109,
            control_words: 21023,
            control_lost: 446,
            arq: arq(&[("arq/dup_bundles", 2), ("arq/false_deaths", 0), ("arq/retransmits", 36)]),
            coloring: 502170302334765220,
        },
    );
}

#[test]
fn bursty_duplicating_wire_is_pinned() {
    check(
        FaultPlan { duplicate_probability: 0.2, ..FaultPlan::bursty(0.05, 0.9) },
        Wire {
            messages_sent: 1692,
            deliveries: 1547,
            dropped: 384,
            duplicated: 239,
            rounds: 314,
            control_words: 62282,
            control_lost: 13484,
            arq: arq(&[
                ("arq/dup_bundles", 243),
                ("arq/false_deaths", 0),
                ("arq/retransmits", 388),
            ]),
            coloring: 502170302334765220,
        },
    );
}

#[test]
fn crashing_wire_is_pinned() {
    check(
        FaultPlan { drop_probability: 0.02, ..FaultPlan::crashing(0.15, 5) },
        Wire {
            messages_sent: 610,
            deliveries: 587,
            dropped: 15,
            duplicated: 0,
            rounds: 108,
            control_words: 15097,
            control_lost: 327,
            arq: arq(&[
                ("arq/dup_bundles", 2),
                ("arq/false_deaths", 0),
                ("arq/link_down_silent", 69),
                ("arq/retransmits", 17),
            ]),
            coloring: 10818928983984880840,
        },
    );
}
