//! Corpus runners: generate → run → **verify** → record.

use dima_core::verify::{count_colors, verify_edge_coloring, verify_strong_coloring};
use dima_core::{
    color_edges, color_edges_churn, strong_color_digraph, ChurnPlan, ChurnSchedule, ColoringConfig,
    CoreError, Engine, Rejection, Transport,
};
use dima_graph::gen::GraphFamily;
use dima_graph::Digraph;
use dima_sim::fault::FaultPlan;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::corpus::{trial_seed, Config};

/// One run-report line recording that measurement runs skip the engine's
/// per-delivery send validation (a debugging binary search the protocols
/// never trip; tests keep it on). Every corpus runner logs it once so no
/// report silently mixes checked and unchecked timings.
pub fn send_validation_note() -> &'static str {
    "send validation: off (measurement default via ColoringConfig::for_measurement; \
     tests keep the per-delivery check on)"
}

/// Verify `colors` as a proper edge coloring of `g`, then count the
/// distinct colors in use. The quality tournaments (`compare_baselines`,
/// `palette_sweep`) score every algorithm through this one counter so no
/// entry can win on an unverified or differently-counted palette.
/// Panics (naming `algo`) on an invalid coloring — a quality number for
/// a broken coloring would poison the comparison silently.
pub fn verified_colors(
    g: &dima_graph::Graph,
    colors: &[Option<dima_core::Color>],
    algo: &str,
) -> usize {
    verify_edge_coloring(g, colors)
        .unwrap_or_else(|e| panic!("{algo} produced an invalid coloring: {e}"));
    count_colors(colors)
}

/// One Algorithm-1 trial.
#[derive(Clone, Debug)]
pub struct EdgeTrial {
    /// Family label (e.g. `er(n=200,d=8)`).
    pub label: String,
    /// Vertices.
    pub n: usize,
    /// Edges.
    pub m: usize,
    /// Maximum degree of the drawn graph.
    pub delta: usize,
    /// Distinct colors used.
    pub colors_used: usize,
    /// Computation rounds to completion.
    pub compute_rounds: u64,
    /// Communication rounds.
    pub comm_rounds: u64,
    /// Messages sent.
    pub messages: u64,
    /// Seed of this trial.
    pub seed: u64,
}

impl EdgeTrial {
    /// CSV row (matches [`EDGE_HEADERS`]).
    pub fn csv_row(&self) -> Vec<String> {
        vec![
            self.label.clone(),
            self.n.to_string(),
            self.m.to_string(),
            self.delta.to_string(),
            self.colors_used.to_string(),
            self.compute_rounds.to_string(),
            self.comm_rounds.to_string(),
            self.messages.to_string(),
            self.seed.to_string(),
        ]
    }
}

/// CSV headers for [`EdgeTrial::csv_row`].
pub const EDGE_HEADERS: [&str; 9] =
    ["family", "n", "m", "delta", "colors", "compute_rounds", "comm_rounds", "messages", "seed"];

/// Run Algorithm 1 over a corpus. Every coloring is verified; a
/// verification failure panics (it would falsify Proposition 2).
pub fn run_edge_corpus(configs: &[Config], base_seed: u64, engine: Engine) -> Vec<EdgeTrial> {
    eprintln!("{}", send_validation_note());
    let mut out = Vec::new();
    for (ci, cfg) in configs.iter().enumerate() {
        for t in 0..cfg.trials {
            let seed = trial_seed(base_seed, ci, t);
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = cfg.family.sample(&mut rng).expect("corpus parameters are valid");
            let run_cfg = ColoringConfig { engine, ..ColoringConfig::for_measurement(seed) };
            let r = color_edges(&g, &run_cfg).expect("run failed");
            assert!(r.endpoint_agreement, "endpoints disagree under reliable delivery");
            verify_edge_coloring(&g, &r.colors).expect("invalid coloring (Prop. 2 violated!)");
            out.push(EdgeTrial {
                label: cfg.family.label(),
                n: g.num_vertices(),
                m: g.num_edges(),
                delta: r.max_degree,
                colors_used: r.colors_used,
                compute_rounds: r.compute_rounds,
                comm_rounds: r.comm_rounds,
                messages: r.stats.messages_sent,
                seed,
            });
        }
    }
    out
}

/// One Algorithm-2 trial.
#[derive(Clone, Debug)]
pub struct StrongTrial {
    /// Family label of the underlying graph.
    pub label: String,
    /// Vertices.
    pub n: usize,
    /// Arcs of the symmetric digraph (2 × edges).
    pub arcs: usize,
    /// Maximum degree of the underlying graph (the paper's Δ).
    pub delta: usize,
    /// Distinct channels used.
    pub colors_used: usize,
    /// Computation rounds to completion.
    pub compute_rounds: u64,
    /// Communication rounds.
    pub comm_rounds: u64,
    /// Messages sent.
    pub messages: u64,
    /// Seed of this trial.
    pub seed: u64,
}

impl StrongTrial {
    /// CSV row (matches [`STRONG_HEADERS`]).
    pub fn csv_row(&self) -> Vec<String> {
        vec![
            self.label.clone(),
            self.n.to_string(),
            self.arcs.to_string(),
            self.delta.to_string(),
            self.colors_used.to_string(),
            self.compute_rounds.to_string(),
            self.comm_rounds.to_string(),
            self.messages.to_string(),
            self.seed.to_string(),
        ]
    }
}

/// CSV headers for [`StrongTrial::csv_row`].
pub const STRONG_HEADERS: [&str; 9] = [
    "family",
    "n",
    "arcs",
    "delta",
    "channels",
    "compute_rounds",
    "comm_rounds",
    "messages",
    "seed",
];

/// Run Algorithm 2 over a corpus of underlying graphs (symmetric closures
/// are taken per draw), with responders rejecting as `rejection` says.
/// Every coloring is verified against Definition 2.
pub fn run_strong_corpus(
    configs: &[Config],
    base_seed: u64,
    engine: Engine,
    rejection: Rejection,
) -> Vec<StrongTrial> {
    eprintln!("{}", send_validation_note());
    let mut out = Vec::new();
    for (ci, cfg) in configs.iter().enumerate() {
        for t in 0..cfg.trials {
            let seed = trial_seed(base_seed, ci, t);
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = cfg.family.sample(&mut rng).expect("corpus parameters are valid");
            let d = Digraph::symmetric_closure(&g);
            let run_cfg =
                ColoringConfig { engine, rejection, ..ColoringConfig::for_measurement(seed) };
            let r = strong_color_digraph(&d, &run_cfg).expect("run failed");
            assert!(r.endpoint_agreement, "endpoints disagree under reliable delivery");
            verify_strong_coloring(&d, &r.colors)
                .expect("invalid strong coloring (Prop. 5 violated!)");
            out.push(StrongTrial {
                label: cfg.family.label(),
                n: g.num_vertices(),
                arcs: d.num_arcs(),
                delta: r.max_degree,
                colors_used: r.colors_used,
                compute_rounds: r.compute_rounds,
                comm_rounds: r.comm_rounds,
                messages: r.stats.messages_sent,
                seed,
            });
        }
    }
    out
}

/// How one fault-injected trial ended.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LossOutcome {
    /// Terminated, endpoints agree, coloring verified.
    Clean,
    /// Terminated but desynchronised (disagreement or invalid coloring).
    Corrupt,
    /// Hit the round budget (loss starved the protocol of invitations).
    Abort,
}

impl LossOutcome {
    /// CSV / table label.
    pub fn label(self) -> &'static str {
        match self {
            LossOutcome::Clean => "clean",
            LossOutcome::Corrupt => "corrupt",
            LossOutcome::Abort => "abort",
        }
    }
}

/// One Algorithm-1 trial under uniform message loss (the `loss_sweep`
/// binary): bare links reproduce the model-violation failure modes, the
/// reliable transport must stay clean and pay for it in overhead rounds.
#[derive(Clone, Debug)]
pub struct LossTrial {
    /// `"bare"` or `"reliable"`.
    pub transport: &'static str,
    /// Per-delivery drop probability.
    pub loss: f64,
    /// Maximum degree of the drawn graph.
    pub delta: usize,
    /// How the trial ended.
    pub outcome: LossOutcome,
    /// Communication rounds of the protocol itself (0 on abort).
    pub comm_rounds: u64,
    /// Engine rounds the ARQ layer spent on retransmission and
    /// synchronization (always 0 on bare links).
    pub overhead_rounds: u64,
    /// Deliveries suppressed by the fault plan.
    pub dropped: u64,
    /// Seed of this trial.
    pub seed: u64,
}

impl LossTrial {
    /// CSV row (matches [`LOSS_HEADERS`]).
    pub fn csv_row(&self) -> Vec<String> {
        vec![
            self.transport.to_string(),
            format!("{}", self.loss),
            self.delta.to_string(),
            self.outcome.label().to_string(),
            self.comm_rounds.to_string(),
            self.overhead_rounds.to_string(),
            self.dropped.to_string(),
            self.seed.to_string(),
        ]
    }
}

/// CSV headers for [`LossTrial::csv_row`].
pub const LOSS_HEADERS: [&str; 8] =
    ["transport", "loss", "delta", "outcome", "comm_rounds", "overhead_rounds", "dropped", "seed"];

/// Sweep Algorithm 1 over loss rates × {bare, reliable} transports on
/// Erdős–Rényi graphs. Unlike the paper-corpus runners nothing panics on
/// a bad outcome — failure *is* the measurement on bare links.
pub fn run_loss_sweep(
    family: GraphFamily,
    losses: &[f64],
    trials: usize,
    base_seed: u64,
    engine: Engine,
) -> Vec<LossTrial> {
    eprintln!("{}", send_validation_note());
    let mut out = Vec::new();
    for (li, &loss) in losses.iter().enumerate() {
        for (ti, transport) in [Transport::Bare, Transport::reliable()].into_iter().enumerate() {
            let label = if ti == 0 { "bare" } else { "reliable" };
            for t in 0..trials {
                // Same seed for both transports at one loss rate: the
                // pair faces the identical graph and fault pattern.
                let seed = trial_seed(base_seed, li, t);
                let mut rng = SmallRng::seed_from_u64(seed);
                let g = family.sample(&mut rng).expect("corpus parameters are valid");
                let run_cfg = ColoringConfig {
                    engine,
                    faults: FaultPlan::uniform(loss),
                    transport,
                    max_compute_rounds: Some(500),
                    ..ColoringConfig::for_measurement(seed)
                };
                let (outcome, comm_rounds, overhead_rounds, dropped) =
                    match color_edges(&g, &run_cfg) {
                        Ok(r) => {
                            let clean =
                                r.endpoint_agreement && verify_edge_coloring(&g, &r.colors).is_ok();
                            let o = if clean { LossOutcome::Clean } else { LossOutcome::Corrupt };
                            (o, r.comm_rounds, r.transport_overhead_rounds, r.stats.dropped)
                        }
                        Err(CoreError::Sim(_)) => (LossOutcome::Abort, 0, 0, 0),
                        Err(e) => panic!("unexpected error: {e}"),
                    };
                out.push(LossTrial {
                    transport: label,
                    loss,
                    delta: g.max_degree(),
                    outcome,
                    comm_rounds,
                    overhead_rounds,
                    dropped,
                    seed,
                });
            }
        }
    }
    out
}

/// One Algorithm-1 trial under topology churn (the `churn_sweep`
/// binary): a seed-derived event schedule fires mid-run and the repair
/// layer reconverges without a restart.
#[derive(Clone, Debug)]
pub struct ChurnTrial {
    /// Expected events per batch as a fraction of the node count.
    pub rate: f64,
    /// Vertices of the initial graph.
    pub n: usize,
    /// Edges of the final (post-churn) graph.
    pub final_m: usize,
    /// Largest maximum degree the run ever saw (initial or post-batch).
    pub delta: usize,
    /// Distinct colors on the final graph.
    pub colors_used: usize,
    /// Communication rounds of the whole run, repairs included.
    pub comm_rounds: u64,
    /// Batches in the schedule.
    pub batches: usize,
    /// Batches whose repair quiesced before the next batch fired.
    pub converged: usize,
    /// Mean repair rounds over the converged batches (0 if none).
    pub mean_repair_rounds: f64,
    /// Edges dirtied across all batches, relative to the final edge
    /// count (can exceed 1 when churn keeps touching the same region).
    pub dirty_fraction: f64,
    /// Fraction of final-graph edges colored differently from a
    /// same-seed static run on the final graph — the stability price of
    /// repairing instead of restarting.
    pub recolored_fraction: f64,
    /// Seed of this trial.
    pub seed: u64,
}

impl ChurnTrial {
    /// CSV row (matches [`CHURN_HEADERS`]).
    pub fn csv_row(&self) -> Vec<String> {
        vec![
            format!("{}", self.rate),
            self.n.to_string(),
            self.final_m.to_string(),
            self.delta.to_string(),
            self.colors_used.to_string(),
            self.comm_rounds.to_string(),
            self.batches.to_string(),
            self.converged.to_string(),
            format!("{:.3}", self.mean_repair_rounds),
            format!("{:.4}", self.dirty_fraction),
            format!("{:.4}", self.recolored_fraction),
            self.seed.to_string(),
        ]
    }
}

/// CSV headers for [`ChurnTrial::csv_row`].
pub const CHURN_HEADERS: [&str; 12] = [
    "rate",
    "n",
    "final_m",
    "delta",
    "colors",
    "comm_rounds",
    "batches",
    "converged",
    "mean_repair_rounds",
    "dirty_fraction",
    "recolored_fraction",
    "seed",
];

/// Sweep Algorithm 1 over churn rates on Erdős–Rényi graphs. Every final
/// coloring is verified against the post-churn graph; a failure panics —
/// it would falsify the repair layer's convergence claim. The stability
/// baseline is a static same-seed run on the final graph.
pub fn run_churn_sweep(
    family: GraphFamily,
    rates: &[f64],
    trials: usize,
    base_seed: u64,
    engine: Engine,
) -> Vec<ChurnTrial> {
    eprintln!("{}", send_validation_note());
    let mut out = Vec::new();
    for (ri, &rate) in rates.iter().enumerate() {
        for t in 0..trials {
            let seed = trial_seed(base_seed, ri, t);
            let mut rng = SmallRng::seed_from_u64(seed);
            let g0 = family.sample(&mut rng).expect("corpus parameters are valid");
            let plan = ChurnPlan::new(seed ^ 0x5eed_c4a2, rate);
            let schedule = ChurnSchedule::generate(&g0, &plan);
            let cfg = ColoringConfig { engine, ..ColoringConfig::for_measurement(seed) };
            let r = color_edges_churn(&g0, &schedule, &cfg).expect("churn run terminates");
            verify_edge_coloring(&r.final_graph, &r.coloring.colors)
                .unwrap_or_else(|v| panic!("seed {seed}, rate {rate}: {v}"));
            let baseline = color_edges(&r.final_graph, &cfg).expect("static run terminates");
            let converged: Vec<u64> = r.batches.iter().filter_map(|b| b.repair_rounds).collect();
            let mean_repair_rounds = if converged.is_empty() {
                0.0
            } else {
                converged.iter().sum::<u64>() as f64 / converged.len() as f64
            };
            let final_m = r.final_graph.num_edges();
            let dirty: usize = r.batches.iter().map(|b| b.dirty_edges).sum();
            out.push(ChurnTrial {
                rate,
                n: g0.num_vertices(),
                final_m,
                delta: g0.max_degree().max(schedule.max_degree()),
                colors_used: r.coloring.colors_used,
                comm_rounds: r.coloring.comm_rounds,
                batches: r.batches.len(),
                converged: converged.len(),
                mean_repair_rounds,
                dirty_fraction: if final_m == 0 { 0.0 } else { dirty as f64 / final_m as f64 },
                recolored_fraction: r.recolored_fraction(&baseline.colors),
                seed,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dima_graph::gen::GraphFamily;

    #[test]
    fn edge_corpus_runs_and_verifies() {
        let configs = [Config {
            family: GraphFamily::ErdosRenyiAvgDegree { n: 40, avg_degree: 4.0 },
            trials: 2,
        }];
        let trials = run_edge_corpus(&configs, 7, Engine::Sequential);
        assert_eq!(trials.len(), 2);
        for t in &trials {
            assert_eq!(t.n, 40);
            assert!(t.delta > 0);
            assert!(t.colors_used < 2 * t.delta);
            assert_eq!(t.csv_row().len(), EDGE_HEADERS.len());
        }
        // Distinct seeds per trial.
        assert_ne!(trials[0].seed, trials[1].seed);
    }

    #[test]
    fn loss_sweep_runs_both_transports() {
        let fam = GraphFamily::ErdosRenyiAvgDegree { n: 24, avg_degree: 4.0 };
        let trials = run_loss_sweep(fam, &[0.0, 0.15], 2, 11, Engine::Sequential);
        assert_eq!(trials.len(), 2 * 2 * 2);
        for t in &trials {
            assert_eq!(t.csv_row().len(), LOSS_HEADERS.len());
            if t.loss == 0.0 {
                assert_eq!(t.outcome, LossOutcome::Clean, "{}@{}", t.transport, t.loss);
            }
            if t.transport == "reliable" {
                // The acceptance bar from the integration suite, in
                // miniature: the ARQ layer never lets loss show through.
                assert_eq!(t.outcome, LossOutcome::Clean, "seed {}", t.seed);
            }
            if t.transport == "bare" {
                assert_eq!(t.overhead_rounds, 0);
            }
        }
    }

    #[test]
    fn churn_sweep_runs_and_verifies() {
        let fam = GraphFamily::ErdosRenyiAvgDegree { n: 24, avg_degree: 4.0 };
        let trials = run_churn_sweep(fam, &[0.1, 0.3], 2, 5, Engine::Sequential);
        assert_eq!(trials.len(), 2 * 2);
        for t in &trials {
            assert_eq!(t.csv_row().len(), CHURN_HEADERS.len());
            assert_eq!(t.batches, 4, "ChurnPlan::new default cadence");
            assert!(t.converged <= t.batches);
            // The last batch always has the full round budget, so at
            // least one window converged (run_churn_sweep verified the
            // final coloring already, or it would have panicked).
            assert!(t.converged >= 1, "seed {}", t.seed);
            assert!(t.delta > 0);
            assert!((0.0..=1.0).contains(&t.recolored_fraction));
        }
    }

    #[test]
    fn strong_corpus_runs_and_verifies() {
        let configs = [Config {
            family: GraphFamily::ErdosRenyiAvgDegree { n: 30, avg_degree: 4.0 },
            trials: 2,
        }];
        let trials = run_strong_corpus(&configs, 7, Engine::Sequential, Rejection::Hint);
        assert_eq!(trials.len(), 2);
        for t in &trials {
            assert_eq!(t.arcs % 2, 0);
            assert!(t.compute_rounds > 0);
            assert_eq!(t.csv_row().len(), STRONG_HEADERS.len());
        }
    }
}
