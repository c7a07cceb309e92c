//! The one run entry point: engine × transport dispatch for every
//! protocol the crate drives.
//!
//! Every algorithm ([`crate::maximal_matching`], [`crate::color_edges`],
//! [`crate::strong_color_digraph`], their `*_churn` variants, the Kempe
//! pass and [`crate::ColoringService::recompute`]) runs its per-vertex
//! protocol through [`run_protocol`], which runs [`dima_sim::run`] at the
//! shard count [`crate::Engine::threads`] picks under a churn schedule. A
//! static run is the same call with [`ChurnSchedule::empty`]. When
//! [`Transport::Reliable`] is configured (static runs only — the ARQ
//! layer binds its sequence numbers and control-word slots to a static
//! neighbor set), every node is wrapped in the ARQ layer of
//! [`dima_sim::reliable`] so lossy links look perfect to the protocol.
//! The extra engine rounds the ARQ layer spends on retransmission and
//! synchronization are reported as [`EngineRun::transport_overhead_rounds`]
//! so experiments can separate algorithm cost from transport cost, and a
//! metered run counts the links declared dead whose peer never crashed
//! as `arq/false_deaths`.

use dima_sim::churn::ChurnSchedule;
use dima_sim::telemetry::Tracer;
use dima_sim::{reliable, run, NodeSeed, Protocol, ReliableNode, RunOutcome, Topology};

use crate::config::{ColoringConfig, Transport};
use crate::error::CoreError;

/// What comes back from [`run_protocol`]: the engine's outcome with the
/// ARQ wrapper (if any) peeled off its nodes. Under the reliable
/// transport `outcome.stats` counts the *engine's* rounds and messages —
/// i.e. it includes the ARQ layer's retransmissions and synchronization
/// stalls; its control words are counted in the metrics registry only.
pub(crate) struct EngineRun<P> {
    /// Final inner protocol states, statistics and crash flags.
    pub outcome: RunOutcome<P>,
    /// Engine rounds spent by the transport on top of the protocol's own
    /// rounds (0 under [`Transport::Bare`]).
    pub transport_overhead_rounds: u64,
}

/// Run `factory`'s protocol on `topo` under `schedule` and the engine
/// and transport the config selects, feeding telemetry events to
/// `tracer` (callers pass [`NoopTracer`](dima_sim::telemetry::NoopTracer)
/// when untraced — the tracing branches monomorphize away, so the
/// untraced call costs nothing; the equivalence proptests in
/// `tests/telemetry_equivalence.rs` pin that down). `bare_max_rounds` is
/// the round budget a bare run gets; the reliable transport scales it by
/// [`reliable::round_budget`] to cover retransmission stalls and
/// link-death detection.
///
/// A non-empty schedule requires the bare transport (message-loss and
/// crash faults compose fine) and always collects per-round stats —
/// [`crate::churn::BatchReport`]s need them to locate quiescence.
pub(crate) fn run_protocol<P, F, T>(
    topo: &Topology,
    cfg: &ColoringConfig,
    bare_max_rounds: u64,
    schedule: &ChurnSchedule,
    factory: F,
    tracer: &mut T,
) -> Result<EngineRun<P>, CoreError>
where
    P: Protocol,
    F: Fn(NodeSeed<'_>) -> P + Sync,
    T: Tracer + Sync,
{
    let churned = !schedule.is_empty();
    let threads = cfg.engine.threads();
    match cfg.transport {
        Transport::Bare => {
            let mut engine_cfg = cfg.engine_config(bare_max_rounds);
            engine_cfg.collect_round_stats |= churned;
            let outcome = run(topo, &engine_cfg, threads, schedule, factory, tracer)?;
            Ok(EngineRun { outcome, transport_overhead_rounds: 0 })
        }
        Transport::Reliable if churned => Err(CoreError::Config(
            "churn runs require the bare transport: the ARQ layer assumes a static \
             neighbor set (compose churn with message-loss faults directly instead)"
                .into(),
        )),
        Transport::Reliable => {
            let engine_cfg = cfg.engine_config(reliable::round_budget(bare_max_rounds));
            let wrapped = ReliableNode::factory(factory);
            let mut outcome = run(topo, &engine_cfg, threads, schedule, wrapped, tracer)?;
            if let Some(reg) = outcome.stats.metrics.as_deref_mut() {
                // Links declared dead although their peer never crashed:
                // the liveness detector's false positives.
                let false_deaths = outcome
                    .nodes
                    .iter()
                    .flat_map(ReliableNode::dead_links)
                    .filter(|peer| !outcome.crashed[peer.index()])
                    .count();
                reg.inc("arq/false_deaths", false_deaths as u64);
            }
            // The protocol's own round count is the fastest node's inner
            // progress: every non-crashed node reaches the same inner
            // round count it would in a bare run on the residual graph.
            let inner_rounds = outcome
                .nodes
                .iter()
                .zip(&outcome.crashed)
                .filter(|&(_, &c)| !c)
                .map(|(n, _)| n.inner_rounds())
                .max()
                .unwrap_or(0);
            Ok(EngineRun {
                transport_overhead_rounds: outcome.stats.rounds.saturating_sub(inner_rounds),
                outcome: RunOutcome {
                    nodes: outcome.nodes.into_iter().map(ReliableNode::into_inner).collect(),
                    stats: outcome.stats,
                    crashed: outcome.crashed,
                },
            })
        }
    }
}
