//! Differential property tests for the message plane.
//!
//! The engine's in-place plane (grid deposit, inbox arenas, shard
//! workers) must be invisible to protocols: inboxes keep the documented
//! sorted-by-sender delivery order and byte-identical contents for every
//! shard count. These tests pin that down against a *reference model* —
//! the straightforward per-node `Vec` mailbox semantics, replayed
//! directly in ~100 lines — across random topologies, fault plans (loss,
//! burst, corruption, duplication, crash), wake-class messages, nodes
//! that start parked, nodes that sleep until mail or a round (some past
//! their crash round, some forever), unicasts, broadcasts and multicasts
//! to random port subsets, and churn schedules, at 1, 2, 3 and 8 shards. The model is the determinism oracle: there is no
//! second engine to compare against.
//!
//! The model shares only the *pure* fault-decision functions
//! ([`FaultPlan::drops`] & co.), the initial topology and the churn
//! batches with the engine; the mailbox and churn mechanics — the thing
//! under test — are independent: the model rebuilds its topology after
//! each batch by replaying the batch's events on its own graph.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use dima_graph::gen;
use dima_graph::{DynGraph, VertexId};

use dima_telemetry::NoopTracer;

use crate::churn::{replay, ChurnPlan, ChurnSchedule};
use crate::engine::{drive, run, EngineConfig, Stepper};
use crate::fault::{FaultPlan, GilbertElliott};
use crate::protocol::{NodeSeed, NodeStatus, Protocol, RoundCtx};
use crate::rng::splitmix64;
use crate::topology::Topology;

/// One recorded inbox: the round it was read plus `(sender, payload)`
/// pairs in delivery order.
type InboxLog = Vec<(u64, Vec<(u32, u64)>)>;

/// Payload bit marking a wake-class spy message.
const WAKE_BIT: u64 = 1 << 63;

/// Spies send wake-class messages only before this round, so woken
/// spies (which finish again at once) cannot keep each other awake.
const WAKE_UNTIL: u64 = 12;

/// Where a spy message goes.
#[derive(Debug)]
enum SpyTarget {
    /// The neighbor at this port.
    Port(usize),
    /// Every neighbor.
    All,
    /// A multicast to these ports, in drawing order, repeats included
    /// (possibly none).
    Ports(Vec<u32>),
}

/// What the spy sends in one round: `(target, payload)`. A pure function
/// of `(node, round)` so the reference model can replay it without
/// running the protocol. About one message in eight early on is
/// wake-class ([`WAKE_BIT`]).
fn spy_outbox(me: u32, round: u64, degree: usize) -> Vec<(SpyTarget, u64)> {
    let h = splitmix64(splitmix64(me as u64 ^ 0x0005_e9d0_f5b7).wrapping_add(round));
    let mut out = Vec::new();
    for k in 0..(h % 3) {
        let hk = splitmix64(h ^ (k + 1)) & !WAKE_BIT;
        let target = match hk % 3 {
            // The degree-0 case broadcasts: a no-op.
            _ if degree == 0 => SpyTarget::All,
            0 => SpyTarget::Port((hk >> 2) as usize % degree),
            1 => SpyTarget::All,
            _ => {
                let picks = (hk >> 12) % (degree as u64 + 1);
                let port = |i| (splitmix64(hk ^ i) % degree as u64) as u32;
                SpyTarget::Ports((0..picks).map(port).collect())
            }
        };
        let wake = round < WAKE_UNTIL && (hk >> 8).is_multiple_of(8);
        out.push((target, if wake { hk | WAKE_BIT } else { hk }));
    }
    out
}

/// The round at which the spy reports `Done` (pure, < `horizon`).
fn spy_finish(me: u32, horizon: u64) -> u64 {
    splitmix64(me as u64 ^ 0x0001_f1a1_54ed) % horizon.max(1)
}

/// Whether a freshly built spy starts parked (pure; about one in four).
fn spy_starts_parked(me: u32) -> bool {
    splitmix64(me as u64 ^ 0x0009_a4ed_57a2).is_multiple_of(4)
}

/// How a spy that does not finish at `round` ends it (pure, and drawn
/// afresh for each run `seed`): active in about half the rounds, else
/// asleep until a round `0..6` rounds ahead (the nearest two of which
/// mean active), until its crash round `crash`, or, rarely, until mail.
fn spy_status(seed: u64, me: u32, round: u64, crash: Option<u64>) -> NodeStatus {
    let h = splitmix64(splitmix64(splitmix64(seed) ^ me as u64).wrapping_add(round));
    let wake_at = match h % 32 {
        0 => None,
        1..=3 => Some(crash.unwrap_or(round + 4)),
        4..=15 => Some(round + (h >> 8) % 6),
        _ => return NodeStatus::Active,
    };
    NodeStatus::Sleep { wake_at }
}

/// Records every inbox it is handed, sends per [`spy_outbox`], finishes
/// per [`spy_finish`], starts parked per [`spy_starts_parked`], sleeps
/// per [`spy_status`]. The log is the unit of comparison.
#[derive(Debug)]
struct SpyNode {
    me: VertexId,
    /// The run seed.
    seed: u64,
    horizon: u64,
    /// The round the fault plan crashes this node at, if any.
    crash: Option<u64>,
    log: InboxLog,
}

impl Protocol for SpyNode {
    type Msg = u64;

    fn wakes(msg: &u64) -> bool {
        msg & WAKE_BIT != 0
    }

    fn starts_parked(&self) -> bool {
        spy_starts_parked(self.me.0)
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, u64>) -> NodeStatus {
        let round = ctx.round();
        self.log.push((round, ctx.inbox().iter().map(|e| (e.from.0, *e.msg())).collect()));
        for (target, payload) in spy_outbox(self.me.0, round, ctx.degree()) {
            match target {
                SpyTarget::All => ctx.broadcast(payload),
                SpyTarget::Port(p) => {
                    let to = ctx.neighbors()[p];
                    ctx.send(to, payload);
                }
                SpyTarget::Ports(ports) => ctx.multicast(&ports, payload),
            }
        }
        if round >= spy_finish(self.me.0, self.horizon) {
            NodeStatus::Done
        } else {
            spy_status(self.seed, self.me.0, round, self.crash)
        }
    }
}

fn spy_factory(horizon: u64, cfg: &EngineConfig) -> impl Fn(NodeSeed<'_>) -> SpyNode + Sync {
    let (faults, seed) = (cfg.faults.clone(), cfg.seed);
    move |node: NodeSeed<'_>| SpyNode {
        me: node.node,
        seed,
        horizon,
        crash: faults.crashed_at(seed, node.node.0),
        log: Vec::new(),
    }
}

/// What the reference model reports: the inbox logs and the run
/// accounting the engine must agree with, also for a run that uses up
/// its round budget (a spy sleeping until mail that never comes).
#[derive(Debug, PartialEq)]
struct ModelRun {
    logs: Vec<InboxLog>,
    /// Last executed round + 1.
    rounds: u64,
    deliveries: u64,
    idle_rounds_skipped: u64,
    crashed: Vec<bool>,
    /// The nodes still active (not done, not crashed) when the budget
    /// ran out; `None` for a run that finished.
    out_of_rounds: Option<usize>,
}

/// The documented mailbox and churn semantics, replayed directly:
/// per-node `Vec<(sender, payload)>` inboxes, senders stepped in id
/// order, a message sent at round `r` read at `r + 1`, a multicast
/// routed to each distinct listed port in ascending order, deliveries to
/// done nodes (unless wake-class) and crashed-by-receive-round nodes
/// discarded, fault decisions taken per `(round, sender, receiver,
/// outbox index)` in the documented drop → corrupt → duplicate order. At
/// the boundary, new done flags land first, then every done node that a
/// wake-class delivery reached is re-activated, then deliveries to a
/// node still parked or crashed are dropped. A spy that starts parked is
/// done from round 0, so only a wake-class delivery ever steps it.
///
/// A spy that sleeps is not done, so its deliveries go through as to an
/// active spy; it is stepped again at the first round whose inbox is
/// non-empty, or at its due round — the earlier of its `wake_at` and
/// its crash round — whichever comes first. A due round at or before the
/// next round keeps it active. A round in which nobody steps is still a
/// round: it counts toward the budget and the round clock.
///
/// A churn batch applies at the top of its round, before any node steps
/// (see [`crate::Stepper::tick`]): leavers park as done with their
/// inbox suppressed; joiners restart as fresh spies (empty log), undone,
/// with their inbox suppressed; every node with a neighborhood change
/// takes its `on_topology_change` status (the spy keeps the default,
/// `Active`); every node the batch names stops sleeping; crashed nodes
/// ignore the batch; then the topology becomes that of a graph the
/// batch's events were replayed on.
/// Once every node is parked the run ends if the schedule is exhausted,
/// and a fully idle round fast-forwards to the next batch. A run that
/// does not end within `max_rounds` executed rounds stops there.
fn reference_run(
    topo: &Topology,
    cfg: &EngineConfig,
    schedule: &ChurnSchedule,
    horizon: u64,
) -> ModelRun {
    let n = topo.num_nodes();
    let mut graph = DynGraph::empty(n);
    for v in (0..n as u32).map(VertexId) {
        for &w in topo.neighbors(v).iter().filter(|&&w| v < w) {
            graph.insert_edge(v, w);
        }
    }
    let mut topo = topo.clone();
    let crash_round: Vec<Option<u64>> =
        (0..n).map(|i| cfg.faults.crashed_at(cfg.seed, i as u32)).collect();
    let mut done: Vec<bool> = (0..n as u32).map(spy_starts_parked).collect();
    // The due round of each sleeping spy (`u64::MAX`: until mail).
    let mut asleep: Vec<Option<u64>> = vec![None; n];
    let mut crashed = vec![false; n];
    let mut suppress = vec![false; n];
    let mut woken = vec![false; n];
    let mut cur: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
    let mut next: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
    let mut logs: Vec<InboxLog> = vec![Vec::new(); n];
    let (mut round, mut rounds, mut executed) = (0u64, 0u64, 0u64);
    let (mut deliveries, mut idle, mut finished) = (0u64, 0u64, false);
    let mut batches = schedule.batches().iter().peekable();

    while executed < cfg.max_rounds {
        executed += 1;
        if let Some(batch) = batches.next_if(|b| b.round == round) {
            for &v in &batch.leaves {
                if !crashed[v.index()] {
                    done[v.index()] = true;
                    asleep[v.index()] = None;
                    suppress[v.index()] = true;
                }
            }
            for &v in &batch.joins {
                if !crashed[v.index()] {
                    logs[v.index()].clear();
                    done[v.index()] = false;
                    asleep[v.index()] = None;
                    suppress[v.index()] = true;
                }
            }
            for (v, _) in &batch.changes {
                if !crashed[v.index()] {
                    done[v.index()] = false;
                    asleep[v.index()] = None;
                }
            }
            replay(&mut graph, &batch.events);
            topo = Topology::from_graph(&graph.snapshot());
        }
        let mut newly_done = Vec::new();
        let mut active = 0;
        for i in 0..n {
            if asleep[i].is_some_and(|due| due <= round) {
                asleep[i] = None;
            }
            if done[i] || crashed[i] || asleep[i].is_some() {
                continue;
            }
            if crash_round[i].is_some_and(|cr| round >= cr) {
                crashed[i] = true;
                continue;
            }
            active += 1;
            let me = i as u32;
            logs[i].push((round, if suppress[i] { Vec::new() } else { cur[i].clone() }));
            let neighbors = topo.neighbors(VertexId(me));
            for (k, (target, payload)) in spy_outbox(me, round, neighbors.len()).iter().enumerate()
            {
                let wakes = payload & WAKE_BIT != 0;
                let mut route = |to: VertexId| {
                    if done[to.index()] && !wakes {
                        return;
                    }
                    if crash_round[to.index()].is_some_and(|cr| round + 1 >= cr) {
                        return;
                    }
                    if cfg.faults.drops(cfg.seed, round, me, to.0, k as u32) {
                        return;
                    }
                    if cfg.faults.corrupts(cfg.seed, round, me, to.0, k as u32) {
                        return;
                    }
                    let copies = if cfg.faults.duplicates(cfg.seed, round, me, to.0, k as u32) {
                        2
                    } else {
                        1
                    };
                    deliveries += copies;
                    woken[to.index()] |= done[to.index()];
                    for _ in 0..copies {
                        next[to.index()].push((me, *payload));
                    }
                };
                match target {
                    SpyTarget::Port(p) => route(neighbors[*p]),
                    SpyTarget::All => neighbors.iter().for_each(|&to| route(to)),
                    SpyTarget::Ports(ports) => {
                        let listed: std::collections::BTreeSet<_> = ports.iter().collect();
                        listed.into_iter().for_each(|&p| route(neighbors[p as usize]));
                    }
                }
            }
            if round >= spy_finish(me, horizon) {
                newly_done.push(i);
            } else if let NodeStatus::Sleep { wake_at } =
                spy_status(cfg.seed, me, round, crash_round[i])
            {
                let due = wake_at.into_iter().chain(crash_round[i]).min().unwrap_or(u64::MAX);
                if due > round + 1 {
                    asleep[i] = Some(due);
                }
            }
        }
        suppress.fill(false);
        for i in newly_done {
            done[i] = true;
        }
        for i in 0..n {
            if std::mem::take(&mut woken[i]) {
                done[i] = false;
            }
            cur[i].clear();
            if !done[i] && !crashed[i] {
                std::mem::swap(&mut cur[i], &mut next[i]);
            }
            next[i].clear();
            if !cur[i].is_empty() {
                asleep[i] = None;
            }
        }
        round += 1;
        rounds = round;
        if (0..n).all(|i| done[i] || crashed[i]) {
            match batches.peek() {
                None => {
                    finished = true;
                    break;
                }
                Some(b) if active == 0 => {
                    idle += b.round - round;
                    round = b.round;
                }
                Some(_) => {}
            }
        }
    }
    let out_of_rounds = (!finished).then(|| (0..n).filter(|&i| !done[i] && !crashed[i]).count());
    ModelRun { logs, rounds, deliveries, idle_rounds_skipped: idle, crashed, out_of_rounds }
}

/// Run the engine over `threads` shards with [`run`]'s own loop, kept
/// to hand so a run that uses up its budget still yields its nodes, and
/// report it in the model's terms, plus its node steps and the sum of
/// its per-round active counts (the run collects per-round stats, which
/// steps nothing differently).
fn engine_run(
    topo: &Topology,
    cfg: &EngineConfig,
    schedule: &ChurnSchedule,
    threads: usize,
) -> (ModelRun, u64, u64) {
    let cfg = EngineConfig { collect_round_stats: true, ..cfg.clone() };
    let mut stepper =
        Stepper::new(topo, &cfg, threads, spy_factory(HORIZON, &cfg)).expect("a small graph");
    let finished = drive(&mut stepper, schedule, &mut NoopTracer).expect("the run failed");
    let out_of_rounds = (!finished).then(|| stepper.still_active());
    let out = stepper.into_outcome(0, 0);
    let per_round = out.stats.per_round.as_deref().unwrap_or_default();
    let active: u64 = per_round.iter().map(|rs| rs.active as u64).sum();
    let model = ModelRun {
        logs: out.nodes.into_iter().map(|n| n.log).collect(),
        rounds: out.stats.rounds,
        deliveries: out.stats.deliveries,
        idle_rounds_skipped: out.stats.idle_rounds_skipped,
        crashed: out.crashed,
        out_of_rounds,
    };
    (model, out.stats.node_steps, active)
}

/// Compare the engine against the model at every shard count in
/// [`THREADS`], node by node first so a divergence names its node.
fn assert_matches_model(
    topo: &Topology,
    cfg: &EngineConfig,
    schedule: &ChurnSchedule,
) -> Result<(), TestCaseError> {
    let expected = reference_run(topo, cfg, schedule, HORIZON);
    for threads in THREADS {
        let (got, node_steps, active) = engine_run(topo, cfg, schedule, threads);
        prop_assert_eq!(node_steps, active, "node steps miscounted ({} threads)", threads);
        for (i, (g, e)) in got.logs.iter().zip(&expected.logs).enumerate() {
            prop_assert_eq!(g, e, "node {} inbox stream diverged ({} threads)", i, threads);
        }
        prop_assert_eq!(&got, &expected, "run accounting diverged ({} threads)", threads);
    }
    Ok(())
}

/// Finish horizon for the spies; crashes spread over at most
/// `crash_from_round + crash_spread = 4 + 8` rounds, so `max_rounds`
/// below outlasts every run but one whose spy sleeps until mail that
/// never comes; such a run is compared in full up to its budget.
const HORIZON: u64 = 10;
const MAX_ROUNDS: u64 = 48;

fn graph_strategy() -> impl Strategy<Value = Topology> {
    // The vendored proptest only has integer range strategies; derive the
    // average degree from an integer tenths knob.
    (2usize..24, 10u32..60, 0u64..1_000).prop_map(|(n, deg_tenths, seed)| {
        let avg_degree = (deg_tenths as f64 / 10.0).min((n - 1) as f64);
        let mut rng = SmallRng::seed_from_u64(seed);
        let g =
            gen::erdos_renyi_avg_degree(n, avg_degree, &mut rng).expect("valid family parameters");
        Topology::from_graph(&g)
    })
}

/// Shard counts every case runs at: the degenerate single shard (run
/// inline on the caller's thread), small counts that leave every shard
/// multi-node, and an oversubscribed 8 (more shards than most hosts have
/// cores, and often more than the graph has nodes — non-empty shards are
/// still guaranteed by construction).
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn fault_strategy() -> impl Strategy<Value = FaultPlan> {
    // Percent knobs stand in for f64 strategies; `burst_sel == 0` means
    // no Gilbert–Elliott burst layer.
    (0u32..40, 0u32..30, 0u32..30, 0u32..60, 0u64..4, 0u32..4).prop_map(
        |(drop_pct, corrupt_pct, dup_pct, crash_pct, crash_from, burst_sel)| FaultPlan {
            drop_probability: drop_pct as f64 / 100.0,
            corrupt_probability: corrupt_pct as f64 / 100.0,
            duplicate_probability: dup_pct as f64 / 100.0,
            crash_fraction: crash_pct as f64 / 100.0,
            crash_from_round: crash_from,
            burst: (burst_sel > 0).then(|| {
                GilbertElliott::new(0.05 * burst_sel as f64, 0.2 + 0.2 * burst_sel as f64)
            }),
            ..FaultPlan::reliable()
        },
    )
}

/// Addressee of a [`Note`] meant for every neighbor.
const EVERYONE: u32 = u32::MAX;

/// Rounds the [`Addressee`] protocol runs; every node finishes at the
/// same round and sends nothing in it, so no delivery is lost to a node
/// that parks mid-round and the delivery count can be checked exactly.
const ADDRESS_HORIZON: u64 = 12;

/// A message with an addressee, as Algorithm 1's invitations and
/// accepts carry one in the paper.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Note {
    to: u32,
    payload: u64,
}

/// A protocol whose addressed notes go out by broadcast, receivers
/// filtering on `to` (`UNICAST = false`), or by unicast to the addressee
/// alone (`UNICAST = true`). What a node keeps feeds its state, and its
/// state picks its next sends, so a divergence in any kept inbox
/// spreads. Wake-class messages are left out: waking is decided per
/// copy, before any filter, so a broadcast could wake a node that is not
/// the addressee.
#[derive(Debug)]
struct Addressee<const UNICAST: bool> {
    me: VertexId,
    state: u64,
    /// Kept notes per round read, in delivery order.
    kept: InboxLog,
    /// Copies read and discarded as addressed to another node.
    strays: u64,
}

impl<const UNICAST: bool> Protocol for Addressee<UNICAST> {
    type Msg = Note;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Note>) -> NodeStatus {
        let round = ctx.round();
        let me = self.me.0;
        let mut kept = Vec::new();
        for env in ctx.inbox() {
            let note = *env.msg();
            if note.to == me || note.to == EVERYONE {
                kept.push((env.from.0, note.payload));
                self.state = splitmix64(self.state ^ note.payload ^ u64::from(env.from.0));
            } else {
                self.strays += 1;
            }
        }
        self.kept.push((round, kept));
        if round >= ADDRESS_HORIZON {
            return NodeStatus::Done;
        }
        let h = splitmix64(self.state ^ splitmix64(u64::from(me)).wrapping_add(round));
        for k in 0..h % 4 {
            let hk = splitmix64(h ^ (k + 1));
            if hk & 1 == 0 || ctx.degree() == 0 {
                ctx.broadcast(Note { to: EVERYONE, payload: hk });
                continue;
            }
            let to = ctx.neighbors()[(hk >> 1) as usize % ctx.degree()];
            let note = Note { to: to.0, payload: hk };
            if UNICAST {
                ctx.send(to, note);
            } else {
                ctx.broadcast(note);
            }
        }
        NodeStatus::Active
    }
}

/// Per-node `(kept inbox log, final state)`, strays seen, deliveries.
type AddressedRun = (Vec<(InboxLog, u64)>, u64, u64);

fn addressed_run<const UNICAST: bool>(
    topo: &Topology,
    cfg: &EngineConfig,
    threads: usize,
) -> AddressedRun {
    let factory = |seed: NodeSeed<'_>| Addressee::<UNICAST> {
        me: seed.node,
        state: u64::from(seed.node.0),
        kept: Vec::new(),
        strays: 0,
    };
    let out = run(topo, cfg, threads, &ChurnSchedule::empty(), factory, &mut NoopTracer)
        .expect("run terminates");
    let strays = out.nodes.iter().map(|n| n.strays).sum();
    let nodes = out.nodes.into_iter().map(|n| (n.kept, n.state)).collect();
    (nodes, strays, out.stats.deliveries)
}

fn engine_config(seed: u64, faults: FaultPlan) -> EngineConfig {
    EngineConfig { seed, max_rounds: MAX_ROUNDS, faults, ..EngineConfig::seeded(seed) }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Static runs: identical inbox streams (round, contents, sender
    /// order) for every node, and identical accounting.
    #[test]
    fn engine_matches_reference_mailboxes(
        topo in graph_strategy(),
        faults in fault_strategy(),
        seed in 0u64..1_000,
    ) {
        let cfg = engine_config(seed, faults);
        assert_matches_model(&topo, &cfg, &ChurnSchedule::empty())?;
    }

    /// Addressing a message by unicast instead of broadcasting it for
    /// receivers to filter is invisible to the addressee under every
    /// fault plan: unicasts and broadcast copies are fated by the same
    /// `(seed, round, from, to, outbox index)` hash and enter inboxes in
    /// the same order. Kept inboxes and final states match at 1 and 3
    /// shards, and deliveries fall by exactly the discarded copies.
    #[test]
    fn addressed_unicast_matches_filtered_broadcast(
        topo in graph_strategy(),
        faults in fault_strategy(),
        seed in 0u64..1_000,
    ) {
        let cfg = EngineConfig {
            max_rounds: ADDRESS_HORIZON + 1,
            ..engine_config(seed, faults)
        };
        let (filtered, strays, broadcast_deliveries) = addressed_run::<false>(&topo, &cfg, 1);
        for threads in [1, 3] {
            let (addressed, no_strays, deliveries) = addressed_run::<true>(&topo, &cfg, threads);
            for (i, (a, f)) in addressed.iter().zip(&filtered).enumerate() {
                prop_assert_eq!(a, f, "node {} diverged ({} threads)", i, threads);
            }
            prop_assert_eq!(no_strays, 0);
            prop_assert_eq!(deliveries, broadcast_deliveries - strays);
            let kept: usize =
                addressed.iter().flat_map(|(log, _)| log).map(|(_, inbox)| inbox.len()).sum();
            prop_assert_eq!(deliveries, kept as u64);
            prop_assert_eq!(&addressed_run::<false>(&topo, &cfg, threads).0, &filtered);
        }
    }

    /// Under a random churn schedule (joins recreate nodes, so the
    /// model and the engine lose the same log prefix) the engine must
    /// still match the model, fast-forward accounting included.
    #[test]
    fn churn_matches_reference_mailboxes(
        n in 4usize..20,
        deg_tenths in 10u32..50,
        rate_pct in 5u32..40,
        first_round in 1u64..12,
        every in 1u64..8,
        seed in 0u64..1_000,
    ) {
        let rate = rate_pct as f64 / 100.0;
        let mut rng = SmallRng::seed_from_u64(seed);
        let avg_degree = (deg_tenths as f64 / 10.0).min((n - 1) as f64);
        let g = gen::erdos_renyi_avg_degree(n, avg_degree, &mut rng)
            .expect("valid family parameters");
        let topo = Topology::from_graph(&g);
        // Batches land mid-run as often as after quiescence, so churn
        // meets in-flight mail, suppressed inboxes and parked nodes.
        let plan = ChurnPlan { first_round, every, ..ChurnPlan::new(seed ^ 0xc4a2, rate) };
        let schedule = ChurnSchedule::generate(&g, &plan);
        let last_batch = schedule.batches().last().map_or(0, |b| b.round);
        let cfg = EngineConfig {
            seed,
            max_rounds: last_batch + HORIZON + 16,
            ..EngineConfig::seeded(seed)
        };
        assert_matches_model(&topo, &cfg, &schedule)?;
    }
}
