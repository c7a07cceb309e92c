//! Engine × transport dispatch shared by the protocol entry points.
//!
//! Every public algorithm ([`crate::maximal_matching`],
//! [`crate::color_edges`], [`crate::strong_color_digraph`]) runs its
//! per-vertex protocol through [`run_protocol_traced`], which runs
//! [`dima_sim::run`] at the shard count [`crate::Engine::threads`] picks and, when
//! [`Transport::Reliable`] is configured, wraps every node in the ARQ
//! layer of [`dima_sim::reliable`] so lossy links look perfect to the
//! protocol. The extra engine rounds the ARQ layer spends on
//! retransmission and synchronization are reported as
//! [`EngineRun::transport_overhead_rounds`] so experiments can separate
//! algorithm cost from transport cost.

use dima_sim::churn::ChurnSchedule;
use dima_sim::telemetry::Tracer;
use dima_sim::{run, EngineConfig, NodeSeed, Protocol, ReliableNode, Topology};

use crate::config::{ColoringConfig, Transport};
use crate::error::CoreError;

/// What comes back from [`run_protocol_traced`]: final protocol states plus the
/// run metadata the result assemblers need.
pub(crate) struct EngineRun<P> {
    /// Final per-node protocol states (inner protocols — the ARQ wrapper,
    /// if any, has been peeled off).
    pub nodes: Vec<P>,
    /// Simulator statistics. Under the reliable transport these count the
    /// *engine's* rounds and messages — i.e. they include the ARQ
    /// layer's retransmissions, acks and synchronization stalls.
    pub stats: dima_sim::RunStats,
    /// `crashed[v]` iff the fault plan crash-stopped node `v` mid-run.
    pub crashed: Vec<bool>,
    /// Engine rounds spent by the transport on top of the protocol's own
    /// rounds (0 under [`Transport::Bare`]).
    pub transport_overhead_rounds: u64,
}

impl<P> EngineRun<P> {
    /// `alive[v]` iff node `v` ran to completion (was not crashed).
    pub fn alive(&self) -> Vec<bool> {
        self.crashed.iter().map(|&c| !c).collect()
    }
}

/// Run `factory`'s protocol on `topo` under the engine and transport the
/// config selects, feeding telemetry events to `tracer` (callers pass
/// [`NoopTracer`](dima_sim::telemetry::NoopTracer) when untraced — the
/// tracing branches monomorphize away,
/// so the untraced call costs nothing; the equivalence proptests in
/// `tests/telemetry_equivalence.rs` pin that down). `bare_max_rounds` is
/// the round budget a bare run gets; the reliable transport scales it by
/// [`ArqConfig::round_budget`] to cover retransmission stalls and
/// link-death detection.
///
/// [`ArqConfig::round_budget`]: dima_sim::ArqConfig::round_budget
pub(crate) fn run_protocol_traced<P, F, T>(
    topo: &Topology,
    cfg: &ColoringConfig,
    bare_max_rounds: u64,
    factory: F,
    tracer: &mut T,
) -> Result<EngineRun<P>, CoreError>
where
    P: Protocol,
    F: Fn(NodeSeed<'_>) -> P + Sync,
    T: Tracer + Sync,
{
    match cfg.transport {
        Transport::Bare => {
            let engine_cfg = cfg.engine_config(bare_max_rounds);
            let outcome = run(
                topo,
                &engine_cfg,
                cfg.engine.threads(),
                &ChurnSchedule::empty(),
                factory,
                tracer,
            )?;
            Ok(EngineRun {
                nodes: outcome.nodes,
                stats: outcome.stats,
                crashed: outcome.crashed,
                transport_overhead_rounds: 0,
            })
        }
        Transport::Reliable(arq) => {
            let engine_cfg = cfg.engine_config(arq.round_budget(bare_max_rounds));
            let wrapped = ReliableNode::factory(arq, factory);
            let outcome = run(
                topo,
                &engine_cfg,
                cfg.engine.threads(),
                &ChurnSchedule::empty(),
                wrapped,
                tracer,
            )?;
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
                nodes: outcome.nodes.into_iter().map(ReliableNode::into_inner).collect(),
                stats: outcome.stats,
                crashed: outcome.crashed,
            })
        }
    }
}

/// [`run_protocol_traced`] under a churn schedule. Bare transport only:
/// the ARQ layer binds its sequence numbers and liveness probes to a
/// static neighbor set (message-loss and crash faults compose fine).
/// Always collects per-round stats — [`crate::churn::BatchReport`]s need
/// them to locate quiescence.
pub(crate) fn run_protocol_churn_traced<P, F, T>(
    topo: &Topology,
    cfg: &ColoringConfig,
    max_rounds: u64,
    schedule: &ChurnSchedule,
    factory: F,
    tracer: &mut T,
) -> Result<EngineRun<P>, CoreError>
where
    P: Protocol,
    F: Fn(NodeSeed<'_>) -> P + Sync,
    T: Tracer + Sync,
{
    if cfg.transport != Transport::Bare {
        return Err(CoreError::Config(
            "churn runs require the bare transport: the ARQ layer assumes a static \
             neighbor set (compose churn with message-loss faults directly instead)"
                .into(),
        ));
    }
    let engine_cfg = EngineConfig { collect_round_stats: true, ..cfg.engine_config(max_rounds) };
    let outcome = run(topo, &engine_cfg, cfg.engine.threads(), schedule, factory, tracer)?;
    Ok(EngineRun {
        nodes: outcome.nodes,
        stats: outcome.stats,
        crashed: outcome.crashed,
        transport_overhead_rounds: 0,
    })
}
