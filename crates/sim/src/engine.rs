//! The engine: sharded workers in lockstep over a persistent pool.
//!
//! Nodes are partitioned into contiguous shards (weighted by CSR degree,
//! so shards carry equal *edge* load, not just equal node counts), one
//! participant per shard. Workers come from the process-wide persistent
//! pool ([`crate::pool`]) — nothing is spawned per run, let alone per
//! round — and the caller itself drives shard 0, so a one-shard run
//! (`threads == 1`) executes inline on the caller's thread and never
//! touches the pool at all.
//!
//! Each communication round is one [`Stepper::tick`]. Within a tick,
//! the participants move through phases separated by an
//! [`EpochBarrier`]:
//!
//! 1. **churn** (only on batch rounds) — each participant applies the
//!    slice of the batch falling in its shard, then a barrier makes the
//!    new done flags and topology visible before any node steps;
//! 2. **step & deposit** — every participant steps its active nodes in
//!    id order and deposits their mail into its *row* of the `MailGrid`,
//!    one `(sender shard, receiver shard)` buffer per receiver shard. A
//!    unicast's fate (dropped, delivered, duplicated) is decided here
//!    and it takes one entry per copy. A broadcast takes one *post* per
//!    receiver shard that holds a neighbor of the sender — at most one
//!    per shard, however high the degree. A multicast takes one post per
//!    receiver shard that holds a *listed* neighbor, and the ids of its
//!    receivers there ride in the buffer's side lane;
//! 3. **barrier A**, then **fan-out + boundary + collect** — each
//!    participant takes its grid *column* and first expands the posts in
//!    it to their receivers — a broadcast's are the sender's neighbors
//!    in this shard, a multicast's are listed in the side lane — deciding
//!    those deliveries' fates against the done flags the round started
//!    with. Only then
//!    does it apply the wake-ups addressed to its shard and publish its
//!    new done flags, so a wake-up never changes the fate of a later
//!    delivery to the same node. It then drains the column straight into
//!    its flat inbox arena: one counting pass sizes each receiver's run,
//!    one placement pass writes each envelope to its final slot (a
//!    post's payload is cloned into all its copies but the last, which
//!    takes the payload itself). Walking sender shards in ascending
//!    order (each buffer already in sender-id order, each post's copies
//!    in receiver order) yields the documented sorted-by-sender delivery
//!    order *by construction* — no sort, no per-node buckets. Deliveries
//!    to a node that parked or crashed this round are dropped here.
//!
//! The scope join doubles as barrier B: no participant can deposit for
//! round `r + 1` before every participant finished collecting round `r`.
//!
//! A round costs O(awake + deliveries), not O(n): each shard keeps an
//! *awake set*, a bitset of its nodes that are neither done, crashed nor
//! asleep, and the step phase walks its set bits in ascending id order —
//! the order a full scan would step them in, so every RNG draw, outbox,
//! crash and merge happens exactly as in one. Every write of a node's
//! done or crashed flag (construction, churn, wake-ups, newly done nodes,
//! crash arming, [`Stepper::restart`], [`Stepper::park_all`]) updates the
//! bit in the same place, on the owning shard only. A protocol whose
//! instances [start parked](crate::Protocol::starts_parked) is stepped
//! only where wake-class mail lands, from round 0 on.
//!
//! A node that [sleeps](NodeStatus::Sleep) leaves the awake set but stays
//! live: its done flag stays clear, so every delivery to it gets an
//! active node's fate. Its due round (the earlier of its `wake_at` and
//! its crash round) goes into its shard's timers. At the end of a round
//! every receiver of mail re-enters the awake set, cancelling its timer,
//! and so does every sleeper due next round; a churn batch, a restart
//! and a park cancel the sleeps they override. When every live node
//! sleeps, [`run`] passes the rounds up to the earliest due round or
//! batch without a tick, and counts them toward its budget
//! ([`Stepper::skip_asleep`]).
//!
//! Set-up touches only what a run uses. A node's RNG stream is seeded
//! when the node first enters the awake set, so a run whose nodes start
//! parked seeds only the ones it rouses (one bit per node marks the rest),
//! and the crash-round table exists only under a plan that crashes
//! nodes.
//!
//! ## The control plane
//!
//! A protocol that sets [`Protocol::CONTROL`] also exchanges one fixed-size
//! word per directed link per round beside the mail. The words live in two
//! flat slot arrays, one per round parity, indexed by the *reader's* link
//! position: a word written at round `r` lands in array `r % 2` at the
//! slot of the reverse link (the table is built once per topology), and
//! its reader finds its in-words for round `r + 1` as one contiguous run
//! of array `(r + 1) % 2`, clearing them once stepped. Reads and writes of
//! a round touch different arrays, and the barriers order the rounds, so
//! relaxed atomics suffice. A word gets the fault plan's loss and
//! corruption decisions under its own tag (`FaultPlan::loses_word`),
//! and a word toward a node parked when the round starts is discarded,
//! like a frame; a node clears its write-parity slots when it parks, so it
//! never reads a stale word after a wake-up. Words in flight when a churn
//! batch lands are lost (the slot layout follows the topology). A protocol
//! without the plane gets no slot arrays and skips every control branch.
//!
//! ## Ownership
//!
//! The module is safe code; the compiler checks who touches what. A
//! shard owns its rows outright: the nodes' RNGs, crashed and suppress
//! flags, timers and inbox arena live in its `ShardState`, and each tick
//! lends the participant that state and its slice of the
//! protocol array behind a mutex it locks once. The done flags are the
//! only node state one shard reads from another (a unicast's fate reads
//! its receiver's flag in the step phase, when nobody writes them), so
//! they are atomics with relaxed accesses, ordered by the barriers. A
//! grid buffer sits in a mutex between phases, and the one participant
//! that uses it in a phase takes it out at the start and puts it back
//! at the end.
//!
//! Combined with per-node RNGs seeded only by `(master seed, node id)`
//! (see [`crate::rng`]) and hash-based fault decisions, a run is
//! *bit-identical* for every shard count: same final protocol states,
//! same aggregate message counts, same round count, same telemetry
//! events. The determinism oracle is the ~100-line reference model in
//! the crate's plane proptests, which replays the documented mailbox and
//! churn semantics independently and is compared against the engine at
//! 1, 2, 3 and 8 shards.
//!
//! [`run`] is the batch entry point; step-wise hosts (the serve-mode
//! [`ColoringService`]) drive a [`Stepper`] directly.
//!
//! [`ColoringService`]: ../../dima_core/struct.ColoringService.html

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use dima_graph::VertexId;
use dima_telemetry::{
    merge_shards, Event, EventSink, KindTable, KindTotals, MetricsHandle, MetricsRegistry,
    PhaseNanos, ProfileScope, ShardBuf, Stamped, TraceHandle, Tracer,
};
use rand::rngs::SmallRng;

use crate::churn::{ChurnBatch, ChurnSchedule};
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::pool::{self, lock, EpochBarrier};
use crate::protocol::{ControlWord, Envelope, NodeSeed, NodeStatus, Protocol, RoundCtx, Target};
use crate::rng::node_rng;
use crate::stats::{note_round_metrics, RoundStats, RunStats};
use crate::topology::Topology;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Master seed; all node RNGs derive from it.
    pub seed: u64,
    /// Abort with [`SimError::MaxRoundsExceeded`] after this many
    /// communication rounds.
    pub max_rounds: u64,
    /// Collect a per-round stats breakdown (small extra allocation).
    pub collect_round_stats: bool,
    /// Check that unicasts go to actual neighbors (the one-hop model);
    /// costs a binary search per send.
    pub validate_sends: bool,
    /// Message-loss injection (defaults to reliable delivery).
    pub faults: FaultPlan,
    /// Measure wall-clock time per engine stage into
    /// [`RunStats::phase_nanos`]. Off by default so run statistics stay
    /// bit-comparable across shard counts and runs.
    pub profile: bool,
    /// Collect aggregate metrics (counters/gauges/histograms) into
    /// [`RunStats::metrics`], the per-kind message fates (`kind/`)
    /// included. All recorded quantities are deterministic — counts and
    /// round-denominated latencies — so metric registries are
    /// bit-identical across shard counts.
    pub metrics: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 0,
            max_rounds: 1_000_000,
            collect_round_stats: false,
            validate_sends: true,
            faults: FaultPlan::reliable(),
            profile: false,
            metrics: false,
        }
    }
}

impl EngineConfig {
    /// A config with the given seed and defaults elsewhere.
    pub fn seeded(seed: u64) -> Self {
        EngineConfig { seed, ..Default::default() }
    }
}

/// The result of a completed run: each node's final protocol state plus
/// the aggregate statistics.
#[derive(Clone, Debug)]
pub struct RunOutcome<P> {
    /// Final protocol state per node, indexed by node id.
    pub nodes: Vec<P>,
    /// Aggregate run statistics.
    pub stats: RunStats,
    /// Which nodes crash-stopped during the run (all `false` under a
    /// crash-free [`FaultPlan`]). A crashed node's protocol state is
    /// frozen at the moment of the crash.
    pub crashed: Vec<bool>,
}

impl<P> RunOutcome<P> {
    /// `true` for nodes that survived to the end of the run.
    pub fn alive(&self) -> Vec<bool> {
        self.crashed.iter().map(|&c| !c).collect()
    }
}

/// Run `factory`-created protocols on `topo` over `threads` shards
/// (clamped to `[1, n]`; 1 runs inline on the caller's thread) until
/// every node is done and `schedule` is exhausted, feeding telemetry
/// events to `tracer`. Static runs pass [`ChurnSchedule::empty`] and
/// [`NoopTracer`](dima_telemetry::NoopTracer), whose tracing branches
/// monomorphize away.
///
/// The factory is called once per node, in node order, and again for
/// every churn join (from the worker owning the joiner's shard, hence
/// `Sync`). Each [`crate::churn::ChurnBatch`] is applied at the top of
/// its round, before any node is stepped (see [`Stepper::tick`]);
/// quiescent stretches between batches fast-forward, and so do rounds
/// in which every live node [sleeps](NodeStatus::Sleep), which still
/// count toward `cfg.max_rounds` (see [`Stepper::skip_asleep`]). Telemetry events
/// arrive in the canonical deterministic order (see
/// [`dima_telemetry::event`]): per round, the churn batch summary, node
/// events in node-id order, per-message-kind counters in kind-name
/// order, then the round footer. The tracer needs `Sync` because
/// workers consult its sampling predicate.
pub fn run<P, F, T>(
    topo: &Topology,
    cfg: &EngineConfig,
    threads: usize,
    schedule: &ChurnSchedule,
    factory: F,
    tracer: &mut T,
) -> Result<RunOutcome<P>, SimError>
where
    P: Protocol,
    F: Fn(NodeSeed<'_>) -> P + Sync,
    T: Tracer + Sync,
{
    let mut stepper = Stepper::new(topo, cfg, threads, factory)?;
    if stepper.num_nodes() == 0 {
        return Ok(stepper.into_outcome(0, 0));
    }
    if !drive(&mut stepper, schedule, tracer)? {
        return Err(SimError::MaxRoundsExceeded {
            max_rounds: cfg.max_rounds,
            still_active: stepper.still_active(),
        });
    }
    Ok(stepper.into_outcome(schedule.len() as u64, schedule.total_events() as u64))
}

/// The loop of [`run`]: tick `stepper` (which has nodes) through
/// `schedule` until every node is done and the schedule is exhausted —
/// `Ok(true)` — or until its config's `max_rounds` have executed —
/// `Ok(false)`, the stepper left as the last round did, so a test can
/// still read its nodes and stats.
pub(crate) fn drive<P, F, T>(
    stepper: &mut Stepper<P, F>,
    schedule: &ChurnSchedule,
    tracer: &mut T,
) -> Result<bool, SimError>
where
    P: Protocol,
    F: Fn(NodeSeed<'_>) -> P + Sync,
    T: Tracer + Sync,
{
    let max_rounds = stepper.cfg.max_rounds;
    let mut next_batch = 0usize;
    while stepper.executed() < max_rounds {
        // Rounds in which every live node sleeps pass without a tick, up
        // to the next batch and within the budget.
        let batch_round = schedule.batches().get(next_batch).map_or(u64::MAX, |b| b.round);
        let budget_end = stepper.round() + (max_rounds - stepper.executed());
        stepper.skip_asleep(batch_round.min(budget_end), tracer);
        if stepper.executed() >= max_rounds {
            break;
        }
        let batch = schedule.batches().get(next_batch).filter(|b| b.round == stepper.round());
        if batch.is_some() {
            next_batch += 1;
        }
        let rs = stepper.tick(batch, tracer)?;
        if stepper.is_quiescent() {
            if next_batch == schedule.len() {
                return Ok(true);
            }
            // Idle-round fast-forward: this round was fully quiescent (no
            // node stepped, so nothing is in flight) yet every node is
            // parked waiting for a future churn batch. Its `active == 0`
            // stats row is the quiescence marker batch reports key off;
            // jump straight to the batch round instead of spinning the
            // gap one empty round at a time.
            if rs.active == 0 {
                if let Some(b) = schedule.batches().get(next_batch) {
                    stepper.skip_to_round(b.round);
                }
            }
        }
    }
    Ok(false)
}

/// Contiguous shard bounds balanced by CSR weight (degree plus a fixed
/// per-node cost), so a skewed-degree graph does not leave most shards
/// idle while one drowns in edges. Deterministic in `(topo, threads)`;
/// the cut positions never affect delivery order (see the module docs),
/// so bit-identity is preserved for any partition.
fn shard_bounds(topo: &Topology, threads: usize) -> Vec<(usize, usize)> {
    // Stepping a node costs roughly a constant plus its degree.
    const NODE_COST: u64 = 8;
    let n = topo.num_nodes();
    let weight = |i: usize| NODE_COST + topo.degree(VertexId(i as u32)) as u64;
    let total: u64 = (0..n).map(weight).sum();
    let mut bounds = Vec::with_capacity(threads);
    let mut lo = 0usize;
    let mut acc = 0u64;
    for t in 0..threads {
        if t == threads - 1 {
            bounds.push((lo, n));
            break;
        }
        let target = total * (t as u64 + 1) / threads as u64;
        // Leave at least one node for each later shard.
        let max_hi = n - (threads - 1 - t);
        let mut hi = lo;
        while hi < max_hi && (hi == lo || acc < target) {
            acc += weight(hi);
            hi += 1;
        }
        bounds.push((lo, hi));
        lo = hi;
    }
    bounds
}

/// The mailbox grid: one slot per `(sender shard, receiver shard)` pair.
///
/// A slot holds the sender shard's mail for the receiver shard's nodes,
/// in sender-id order: unicast copies already fated at deposit, and one
/// [`Route::Fanout`] post per broadcast whose sender has neighbors in the
/// receiver shard (per multicast, with a listed neighbor there). A
/// broadcast or multicast therefore costs one entry per receiver shard,
/// not one per neighbor; the receiver expands it.
///
/// Each slot has one user per phase: participant `s` fills slot
/// `(s, r)` in the deposit phase (its *row*), participant `r` drains it
/// after barrier A (its *column*). The user takes the slot's buffer out
/// for the phase and puts it back at the end, so each lock is taken
/// twice per phase and never contended, and the buffer's capacity stays
/// with its channel pair: steady-state rounds allocate nothing.
struct MailGrid<M> {
    slots: Vec<Mutex<Lane<M>>>,
    threads: usize,
}

/// One grid entry: where it goes, and the envelope.
type Entry<M> = (Dest, Envelope<M>);

/// One grid buffer: its entries, and beside them the receivers of its
/// multicast posts in entry order. Each multicast post owns one record
/// of `records`: the number of its receivers in the receiver shard, then
/// their ids, ascending. A receiving pass reads them straight from the
/// record, without a look at the sender's adjacency.
struct Lane<M> {
    entries: Vec<Entry<M>>,
    records: Vec<VertexId>,
}

impl<M> Default for Lane<M> {
    fn default() -> Self {
        Lane { entries: Vec::new(), records: Vec::new() }
    }
}

/// Where a grid entry goes, packed into one word: the top bit tags a
/// [`Route::Fanout`], the low 31 bits carry the node id or, for a
/// fan-out, whether it lists its receivers (bit 30) and the outbox index.
/// A two-word enum would pad every entry of a 4-byte-aligned message by
/// 4 bytes. The packing caps topologies below [`Dest::MAX_NODES`] nodes
/// ([`Stepper::new`] rejects the rest).
#[derive(Copy, Clone)]
struct Dest(u32);

/// A [`Dest`], unpacked.
enum Route {
    /// One copy for this node; a unicast, its fate decided at deposit.
    Node(VertexId),
    /// A broadcast or multicast, one copy (or two, or none: fates are
    /// decided on the receiving side) for each of its receivers in the
    /// receiver shard: the sender's neighbors there, or (`listed`) those
    /// its record in the side lane lists. Carries the message's outbox
    /// index, an input of the fault decisions.
    Fanout { k: u32, listed: bool },
}

impl Dest {
    const FANOUT: u32 = 1 << 31;
    const LISTED: u32 = 1 << 30;
    /// Node ids stay below the tag bit.
    const MAX_NODES: usize = Self::FANOUT as usize;

    #[inline]
    fn node(to: VertexId) -> Self {
        debug_assert!(to.index() < Self::MAX_NODES);
        Dest(to.0)
    }

    #[inline]
    fn fanout(k: u32, listed: bool) -> Self {
        // An outbox of 2^30 messages would hold at least 8 GiB.
        debug_assert!(k < Self::LISTED);
        Dest(Self::FANOUT | if listed { Self::LISTED } else { 0 } | k)
    }

    #[inline]
    fn route(self) -> Route {
        if self.0 & Self::FANOUT == 0 {
            Route::Node(VertexId(self.0))
        } else {
            let k = self.0 & !(Self::FANOUT | Self::LISTED);
            Route::Fanout { k, listed: self.0 & Self::LISTED != 0 }
        }
    }
}

impl<M> MailGrid<M> {
    fn new(threads: usize) -> Self {
        MailGrid { slots: (0..threads * threads).map(|_| Mutex::default()).collect(), threads }
    }

    /// Slots `(s, 0..threads)`: participant `s`'s row.
    fn row(&self, s: usize) -> impl Iterator<Item = &Mutex<Lane<M>>> {
        self.slots[s * self.threads..][..self.threads].iter()
    }

    /// Slots `(0..threads, r)`: participant `r`'s column.
    fn column(&self, r: usize) -> impl Iterator<Item = &Mutex<Lane<M>>> {
        self.slots[r..].iter().step_by(self.threads)
    }
}

/// Swap `lanes` with the buffers in `slots`, one each: once to take a
/// row or column out of the grid for a phase (the lanes are empty
/// then), once to put it back.
fn swap_lanes<'a, M: 'a>(slots: impl Iterator<Item = &'a Mutex<Lane<M>>>, lanes: &mut [Lane<M>]) {
    for (slot, lane) in slots.zip(lanes) {
        std::mem::swap(&mut *lock(slot), lane);
    }
}

/// Deposit broadcast or multicast `k` of `from` into `row`, the
/// depositing shard's grid row: one post in each lane `r` whose shard
/// holds one of `neighbors` — for a multicast, one of those at `ports`
/// (strictly ascending), whose ids go into the lane's side lane.
/// Shards are contiguous id ranges and `neighbors` is sorted, so each
/// shard's neighbors form one run. The payload is cloned for every post
/// but the last, which takes it.
fn post<M: Clone>(
    row: &mut [Lane<M>],
    bounds: &[(usize, usize)],
    shard_of: &[u32],
    mut neighbors: &[VertexId],
    mut ports: Option<&[u32]>,
    k: u32,
    env: Envelope<M>,
) {
    let all = neighbors;
    // The lane of the post last found, written once the next is found.
    let mut pending: Option<(usize, Dest)> = None;
    loop {
        // The next receiver shard: that of the next neighbor, or of the
        // next listed one.
        let next = match ports {
            None => neighbors.first(),
            Some(ps) => ps.first().map(|&p| &all[p as usize]),
        };
        let Some(first) = next else { break };
        let r = shard_of[first.index()] as usize;
        let hi = bounds[r].1;
        match ports.as_mut() {
            None => neighbors = &neighbors[neighbors.partition_point(|v| v.index() < hi)..],
            Some(ps) => {
                let here = ps.partition_point(|&p| all[p as usize].index() < hi);
                let records = &mut row[r].records;
                records.push(VertexId(here as u32));
                records.extend(ps[..here].iter().map(|&p| all[p as usize]));
                *ps = &ps[here..];
            }
        }
        if let Some((pr, dest)) = pending.replace((r, Dest::fanout(k, ports.is_some()))) {
            row[pr].entries.push((dest, env.clone()));
        }
    }
    if let Some((r, dest)) = pending {
        row[r].entries.push((dest, env));
    }
}

/// The receivers in shard `[lo, hi)` of a fan-out post from `from`: the
/// sender's neighbors there, or with `listed` the ones in the post's
/// record, taken off the front of `records`. Every pass over a column
/// expands its posts through this one function, so they agree on the
/// receivers and their order.
#[inline]
fn post_receivers<'a>(
    topo: &'a Topology,
    from: VertexId,
    listed: bool,
    (lo, hi): (usize, usize),
    records: &mut &'a [VertexId],
) -> &'a [VertexId] {
    if !listed {
        return neighbors_in(topo.neighbors(from), lo, hi);
    }
    let (len, rest) = records.split_first().expect("a multicast post has its record");
    let (ids, rest) = rest.split_at(len.index());
    *records = rest;
    ids
}

/// Bytes one message of type `M` occupies in the engine's mail grid:
/// its envelope plus the routing word. Every delivery of a unicast and
/// every per-shard post of a broadcast is one such entry.
pub fn mail_entry_bytes<M>() -> usize {
    std::mem::size_of::<Entry<M>>()
}

/// Reject a node count the packed [`Dest`] cannot address.
fn check_node_count(nodes: usize) -> Result<(), SimError> {
    if nodes >= Dest::MAX_NODES {
        return Err(SimError::TooManyNodes { nodes, limit: Dest::MAX_NODES });
    }
    Ok(())
}

/// The run of `neighbors` (sorted) inside the node range `[lo, hi)`.
#[inline]
fn neighbors_in(neighbors: &[VertexId], lo: usize, hi: usize) -> &[VertexId] {
    let a = neighbors.partition_point(|v| v.index() < lo);
    let b = a + neighbors[a..].partition_point(|v| v.index() < hi);
    &neighbors[a..b]
}

/// The control plane's storage (see the module docs): a word slot per
/// directed link and round parity, indexed by the reader's link
/// position, plus the reverse-link table that maps a writer's link to
/// its reader's slot. Empty for protocols without [`Protocol::CONTROL`].
struct ControlPlane {
    slots: [Vec<AtomicU64>; 2],
    reverse: Vec<u32>,
}

impl ControlPlane {
    /// Empty slots for every link of `topo` if `on`, nothing otherwise.
    fn new(topo: &Topology, on: bool) -> Self {
        if !on {
            return ControlPlane { slots: [Vec::new(), Vec::new()], reverse: Vec::new() };
        }
        let reverse = topo.reverse_arcs();
        let empty = || reverse.iter().map(|_| AtomicU64::new(0)).collect();
        ControlPlane { slots: [empty(), empty()], reverse }
    }

    /// The array words written at `round` land in.
    #[inline]
    fn written_at(&self, round: u64) -> &[AtomicU64] {
        &self.slots[(round % 2) as usize]
    }

    /// Forget every word.
    fn clear(&mut self) {
        for slot in self.slots.iter_mut().flatten() {
            *slot.get_mut() = 0;
        }
    }
}

/// A set of a shard's nodes, as a bitset over its local ids, with its
/// size: the nodes the next step phase steps (those neither done,
/// crashed nor asleep), or the nodes whose RNG stream is not seeded yet.
struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// The nodes among `0..len` that `member` names.
    fn of(len: usize, member: impl Fn(usize) -> bool) -> Self {
        let mut set = NodeSet { words: vec![0; len.div_ceil(64)], len: 0 };
        for li in (0..len).filter(|&li| member(li)) {
            set.insert(li);
        }
        set
    }

    /// The nodes among `0..len` not in `self`.
    fn complement(&self, len: usize) -> Self {
        let mut words: Vec<u64> = self.words.iter().map(|w| !w).collect();
        if let Some(last) = words.last_mut().filter(|_| !len.is_multiple_of(64)) {
            *last &= (1 << (len % 64)) - 1;
        }
        NodeSet { words, len: len - self.len }
    }

    #[inline]
    fn contains(&self, li: usize) -> bool {
        self.words[li / 64] & 1 << (li % 64) != 0
    }

    #[inline]
    fn insert(&mut self, li: usize) {
        let word = &mut self.words[li / 64];
        let bit = 1 << (li % 64);
        self.len += usize::from(*word & bit == 0);
        *word |= bit;
    }

    #[inline]
    fn remove(&mut self, li: usize) {
        let word = &mut self.words[li / 64];
        let bit = 1 << (li % 64);
        self.len -= usize::from(*word & bit != 0);
        *word &= !bit;
    }

    fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// The set bits of word `w`, ascending, as local ids: a copy of the
    /// word, so the caller may update the set while walking it.
    #[inline]
    fn bits_of(&self, w: usize) -> impl Iterator<Item = usize> {
        let mut word = self.words[w];
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                w * 64 + bit
            })
        })
    }

    /// Every set bit, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.words.len()).flat_map(|w| self.bits_of(w))
    }
}

/// A shard's per-node RNG streams. A node's stream is seeded from
/// `(seed, id)` when the node first enters the awake set: at
/// construction unless it starts parked, else when it is first roused.
/// Nothing draws from a stream before its node steps, so every draw is
/// the one [`node_rng`] gives; a pass that steps a few nodes of many
/// seeds only those.
struct Streams {
    rngs: Vec<SmallRng>,
    unseeded: NodeSet,
    seed: u64,
    lo: usize,
}

impl Streams {
    /// The streams of shard `[lo, hi)`, seeded for the nodes not in
    /// `parked` (local ids).
    fn new((lo, hi): (usize, usize), seed: u64, parked: NodeSet) -> Self {
        // A placeholder for a stream not seeded yet.
        let blank = node_rng(seed, 0);
        let rngs = (0..hi - lo).map(|li| {
            if parked.contains(li) {
                blank.clone()
            } else {
                node_rng(seed, (lo + li) as u32)
            }
        });
        Streams { rngs: rngs.collect(), unseeded: parked, seed, lo }
    }
}

/// Enter local node `li` into `awake`, seeding its stream first if it
/// never was: every write that moves a node from done to awake goes
/// through here.
#[inline]
fn rouse(awake: &mut NodeSet, streams: &mut Streams, li: usize) {
    if streams.unseeded.len > 0 && streams.unseeded.contains(li) {
        streams.unseeded.remove(li);
        streams.rngs[li] = node_rng(streams.seed, (streams.lo + li) as u32);
    }
    awake.insert(li);
}

/// A shard's wake-up timers. `due` maps each sleeping node's local id
/// to the round it is due at, and `heap` holds `(round, li)` entries,
/// earliest first. An entry is live while its node is still due at its
/// round; a sleep ended early (by mail, a churn batch, a restart or a
/// park) cancels the node's due round, so its entry goes stale and is
/// skipped. Both hold only sleeping nodes, so timers cost what sleeps,
/// not the shard, and nothing for a protocol that never sleeps.
#[derive(Default)]
struct Timers {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    due: BTreeMap<u32, u64>,
}

impl Timers {
    /// Wake local node `li` at `round`.
    fn set(&mut self, li: usize, round: u64) {
        if self.due.insert(li as u32, round) != Some(round) {
            self.heap.push(Reverse((round, li as u32)));
        }
    }

    /// End `li`'s sleep, if it sleeps on a timer.
    #[inline]
    fn cancel(&mut self, li: usize) {
        self.due.remove(&(li as u32));
    }

    /// Forget every timer.
    fn clear(&mut self) {
        self.heap.clear();
        self.due.clear();
    }

    /// The earliest live due round, dropping stale entries on the way.
    fn next(&mut self) -> Option<u64> {
        while let Some(&Reverse((round, li))) = self.heap.peek() {
            if self.due.get(&li) == Some(&round) {
                return Some(round);
            }
            self.heap.pop();
        }
        None
    }

    /// Enter every node due by `round` into `awake`.
    fn fire(&mut self, round: u64, awake: &mut NodeSet) {
        while self.next().is_some_and(|due| due <= round) {
            let Some(Reverse((_, li))) = self.heap.pop() else { break };
            self.due.remove(&li);
            awake.insert(li as usize);
        }
    }
}

/// A shard's rows — the per-node state no other shard reads — plus its
/// scratch and the per-tick outputs the caller folds after the join.
/// Node `lo + li` of shard `[lo, hi)` is row `li`. Only the owning
/// participant touches a `ShardState` during a tick.
struct ShardState<M> {
    /// Per-node RNG streams, crash-stop flags, and the flags that blank
    /// a churned node's inbox for the round of its batch.
    streams: Streams,
    crashed: Vec<bool>,
    suppress: Vec<bool>,
    /// The nodes the next step phase steps: bit `li` is set exactly
    /// when node `lo + li` is neither done, crashed nor asleep.
    awake: NodeSet,
    /// The due rounds of the sleeping nodes.
    timers: Timers,
    /// This shard's inboxes as a flat arena: node `lo + li` reads
    /// `inbox_len[li]` envelopes from `inbox_data[inbox_start[li]..]`.
    /// Only the nodes listed in `receivers` have a nonzero length, so
    /// collecting a round costs O(deliveries), not O(shard size) — a
    /// long tail of near-silent rounds (a Kempe pass) stays cheap.
    inbox_data: Vec<Envelope<M>>,
    inbox_start: Vec<u32>,
    inbox_len: Vec<u32>,
    /// Local ids with a nonempty inbox, in first-delivery order.
    receivers: Vec<u32>,
    /// The grid buffers this participant holds during a phase, one per
    /// shard: its row while depositing, its column while collecting.
    lanes: Vec<Lane<M>>,
    outbox: Vec<(Target, M)>,
    /// The port lists of the stepped node's multicasts.
    ports: Vec<u32>,
    control_out: Vec<(u32, ControlWord)>,
    newly_done: Vec<usize>,
    suppressed_now: Vec<usize>,
    /// Fan-out scratch: the copies (0, 1 or 2) of each broadcast or
    /// multicast delivery into this shard, in column order, and the
    /// parked nodes a delivery wakes.
    fates: Vec<u8>,
    woken: Vec<usize>,
    /// Telemetry: stamped event buffer (merged at each round boundary)
    /// and this shard's share of the per-kind message fates, kept when
    /// the run is traced or collects metrics.
    buf: ShardBuf,
    kinds: Option<KindTable>,
    /// Protocol-level metric updates from this shard's nodes. All
    /// updates are commutative, so merging the shard registries in any
    /// order reproduces the same registry for every shard count — no
    /// boundary normalization needed (unlike `buf`).
    metrics: Option<MetricsRegistry>,
    /// Cumulative per-phase wall-clock for this shard (profiled runs).
    phases: PhaseNanos,
    // --- per-tick outputs ---
    sent: u64,
    delivered: u64,
    active: usize,
    dropped: u64,
    corrupted: u64,
    duplicated: u64,
    control_words: u64,
    control_lost: u64,
    done_delta: i64,
    crashed_delta: usize,
    error: Option<SimError>,
}

impl<M> ShardState<M> {
    /// The state of shard `[lo, hi)`, whose nodes are awake unless in
    /// `parked` (local ids).
    fn new((lo, hi): (usize, usize), cfg: &EngineConfig, threads: usize, parked: NodeSet) -> Self {
        let len = hi - lo;
        ShardState {
            awake: parked.complement(len),
            streams: Streams::new((lo, hi), cfg.seed, parked),
            crashed: vec![false; len],
            suppress: vec![false; len],
            timers: Timers::default(),
            inbox_data: Vec::new(),
            inbox_start: vec![0; len],
            inbox_len: vec![0; len],
            receivers: Vec::new(),
            lanes: (0..threads).map(|_| Lane::default()).collect(),
            outbox: Vec::new(),
            ports: Vec::new(),
            control_out: Vec::new(),
            newly_done: Vec::new(),
            suppressed_now: Vec::new(),
            fates: Vec::new(),
            woken: Vec::new(),
            buf: ShardBuf::default(),
            kinds: cfg.metrics.then(KindTable::new),
            metrics: cfg.metrics.then(MetricsRegistry::new),
            phases: PhaseNanos::default(),
            sent: 0,
            delivered: 0,
            active: 0,
            dropped: 0,
            corrupted: 0,
            duplicated: 0,
            control_words: 0,
            control_lost: 0,
            done_delta: 0,
            crashed_delta: 0,
            error: None,
        }
    }
}

/// Everything a tick participant needs, shared by reference across the
/// pool scope.
struct TickCtx<'a, P: Protocol, F, T> {
    cfg: &'a EngineConfig,
    topo: &'a Topology,
    batch: Option<&'a ChurnBatch>,
    bounds: &'a [(usize, usize)],
    shard_of: &'a [u32],
    crash_round: &'a [Option<u64>],
    done: &'a [AtomicBool],
    grid: &'a MailGrid<P::Msg>,
    control: &'a ControlPlane,
    barrier: &'a EpochBarrier,
    factory: &'a F,
    tracer: &'a T,
    panic: &'a Mutex<Option<Box<dyn std::any::Any + Send>>>,
    round: u64,
}

/// The engine's per-round state machine: one communication round per
/// [`Stepper::tick`]. See the module docs for the phase structure and
/// the bit-identity argument.
///
/// [`run`] is a thin run-to-quiescence loop over this type, so a
/// `Stepper` driven tick-by-tick is *bit-identical* to a batch run over
/// the same inputs: same per-node RNG streams, same delivery order, same
/// churn-batch semantics. That split is what lets a long-lived service
/// (`dima serve`) interleave repair rounds with event ingest and
/// snapshot queries while keeping the determinism guarantees the batch
/// entry point is tested for.
///
/// The caller owns the loop: it decides when to [`tick`](Stepper::tick),
/// which [`ChurnBatch`] (if any) fires at the top of a round, when to
/// [`skip_to_round`](Stepper::skip_to_round) over a quiescent stretch,
/// and when to stop. Unlike [`run`] there is no round budget here —
/// budget enforcement stays with the caller.
pub struct Stepper<P: Protocol, F> {
    cfg: EngineConfig,
    factory: F,
    topo: Topology,
    threads: usize,
    bounds: Vec<(usize, usize)>,
    shard_of: Vec<u32>,
    barrier: EpochBarrier,
    grid: MailGrid<P::Msg>,
    control: ControlPlane,
    shards: Vec<ShardState<P::Msg>>,
    protocols: Vec<P>,
    /// Which nodes are done as of the last round boundary.
    done: Vec<AtomicBool>,
    done_count: usize,
    crash_round: Vec<Option<u64>>,
    crashed_count: usize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    stats: RunStats,
    // The caller-side registry: engine-level round metrics land here
    // directly (the fold in `tick` owns the round's stats), and the
    // per-shard protocol registries merge
    // into it at `into_outcome`.
    metrics: Option<Box<MetricsRegistry>>,
    round: u64,
    executed: u64,
}

impl<P, F> Stepper<P, F>
where
    P: Protocol,
    F: Fn(NodeSeed<'_>) -> P + Sync,
{
    /// Create the per-node protocol instances on `topo` and stand ready
    /// at round 0, sharded for `threads` participants (clamped to
    /// `[1, n]`). The factory is called once per node in node order, and
    /// kept for churn joins and [`Stepper::restart`]. An instance that
    /// [starts parked](Protocol::starts_parked) is done from the start.
    ///
    /// Fails with [`SimError::TooManyNodes`] on a topology of 2³¹ nodes
    /// or more, which the message plane cannot address.
    pub fn new(
        topo: &Topology,
        cfg: &EngineConfig,
        threads: usize,
        factory: F,
    ) -> Result<Self, SimError> {
        let n = topo.num_nodes();
        check_node_count(n)?;
        let threads = threads.max(1).min(n.max(1));
        let bounds = shard_bounds(topo, threads);
        let shard_of: Vec<u32> = {
            let mut v = vec![0u32; n];
            for (t, &(lo, hi)) in bounds.iter().enumerate() {
                v[lo..hi].fill(t as u32);
            }
            v
        };
        let protocols: Vec<P> = (0..n)
            .map(|i| {
                let node = VertexId(i as u32);
                factory(NodeSeed { node, neighbors: topo.neighbors(node) })
            })
            .collect();
        // Only a plan that crashes nodes needs the table (see `crash_at`).
        let crash_round: Vec<Option<u64>> = if cfg.faults.crash_fraction > 0.0 {
            (0..n).map(|i| cfg.faults.crashed_at(cfg.seed, i as u32)).collect()
        } else {
            Vec::new()
        };
        let stats =
            RunStats { per_round: cfg.collect_round_stats.then(Vec::new), ..Default::default() };
        let done: Vec<AtomicBool> =
            protocols.iter().map(|p| AtomicBool::new(p.starts_parked())).collect();
        let shards: Vec<ShardState<P::Msg>> = bounds
            .iter()
            .map(|&(lo, hi)| {
                let parked = NodeSet::of(hi - lo, |li| done[lo + li].load(Relaxed));
                ShardState::new((lo, hi), cfg, threads, parked)
            })
            .collect();
        let done_count = shards.iter().map(|st| st.streams.unseeded.len).sum();
        Ok(Stepper {
            cfg: cfg.clone(),
            factory,
            topo: topo.clone(),
            threads,
            shards,
            bounds,
            shard_of,
            barrier: EpochBarrier::new(threads),
            grid: MailGrid::new(threads),
            control: ControlPlane::new(topo, P::CONTROL),
            protocols,
            done,
            done_count,
            crash_round,
            crashed_count: 0,
            panic: Mutex::new(None),
            stats,
            metrics: cfg.metrics.then(|| Box::new(MetricsRegistry::new())),
            round: 0,
            executed: 0,
        })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.protocols.len()
    }

    /// The participant count after clamping.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The round the next [`Stepper::tick`] will execute.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Rounds executed so far: the ticks, plus the rounds
    /// [`Stepper::skip_asleep`] passed while every live node slept. The
    /// quiescent rounds [`Stepper::skip_to_round`] jumps are left out.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// True when every node is parked (done or crashed) — quiescence.
    pub fn is_quiescent(&self) -> bool {
        self.done_count + self.crashed_count == self.num_nodes()
    }

    /// Nodes still active (not done, not crashed), the sleeping ones
    /// included.
    pub fn still_active(&self) -> usize {
        self.num_nodes() - self.done_count - self.crashed_count
    }

    /// The awake nodes — the ones the next [`Stepper::tick`] steps,
    /// unless a batch applied first changes the set — in ascending id
    /// order: the active ones less those asleep, with the sleepers whose
    /// mail or due round has come. Costs O(n / 64 + awake), a walk of
    /// the shards' bitsets.
    pub fn active_nodes(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.shards
            .iter()
            .zip(&self.bounds)
            .flat_map(|(st, &(lo, _))| st.awake.iter().map(move |li| VertexId((lo + li) as u32)))
    }

    /// Final protocol state per node, by node id.
    pub fn nodes(&self) -> &[P] {
        &self.protocols
    }

    /// Mutable access to the protocol instances, for hosts that apply an
    /// out-of-band pass between repairs (e.g. serve-mode palette
    /// compaction) and write the outcome back into the parked automata.
    /// The engine does not re-validate node state — callers must
    /// preserve the protocol's invariants.
    pub fn nodes_mut(&mut self) -> &mut [P] {
        &mut self.protocols
    }

    /// The topology currently in force (patched by churn batches).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Jump the round clock forward to `target` without executing the
    /// intervening rounds — the idle fast-forward. Only legal when the
    /// stepper is quiescent with empty mailboxes (nothing can happen in
    /// the skipped rounds); a no-op when `target` is not ahead.
    pub fn skip_to_round(&mut self, target: u64) {
        debug_assert!(self.is_quiescent(), "cannot skip rounds with active nodes");
        if target > self.round {
            self.stats.idle_rounds_skipped += target - self.round;
            self.round = target;
        }
    }

    /// Pass the rounds in which no node steps because every live node
    /// [sleeps](NodeStatus::Sleep) (so no mail is in flight either): up
    /// to the earliest round a timer is due at, or to `limit` if that
    /// comes first. Unlike [`Stepper::skip_to_round`], the passed rounds
    /// are executed rounds: each counts in [`Stepper::executed`] and
    /// gets the stats row, round metrics and trace footer of a tick that
    /// stepped nobody, which it is. Returns the number of rounds passed:
    /// 0 unless some node is live and none is awake.
    pub fn skip_asleep<T: Tracer>(&mut self, limit: u64, tracer: &mut T) -> u64 {
        if self.is_quiescent() || self.shards.iter().any(|st| st.awake.len > 0) {
            return 0;
        }
        let due = self.shards.iter_mut().filter_map(|st| st.timers.next()).min();
        let target = due.map_or(limit, |due| due.min(limit));
        let start = self.round;
        while self.round < target {
            self.executed += 1;
            let rs =
                RoundStats { round: self.round, done: self.done_count, ..RoundStats::default() };
            if T::ENABLED {
                let (round, done) = (rs.round, rs.done as u64);
                tracer.emit(Event::Round { round, active: 0, done, sent: 0, delivered: 0 });
            }
            self.close_round(rs);
        }
        for st in &mut self.shards {
            st.timers.fire(target, &mut st.awake);
        }
        self.round - start
    }

    /// Account a finished round: its engine metrics and stats row, then
    /// the round clock moves on.
    fn close_round(&mut self, rs: RoundStats) {
        if let Some(reg) = self.metrics.as_deref_mut() {
            // Engine-level round metrics are recorded once, here, by the
            // single thread that owns the folded RoundStats.
            note_round_metrics(reg, &rs);
        }
        self.stats.push_round(rs);
        self.round += 1;
    }

    /// Consume the stepper into a [`RunOutcome`]. This folds the
    /// per-shard registries and kind tables into [`RunStats::metrics`],
    /// and on profiled runs the per-shard phase timers into
    /// [`RunStats::phase_nanos`] and [`RunStats::shard_phases`].
    pub fn into_outcome(mut self, churn_batches: u64, churn_events: u64) -> RunOutcome<P> {
        self.stats.crashed = self.crashed_count;
        self.stats.churn_batches = churn_batches;
        self.stats.churn_events = churn_events;
        for st in &self.shards {
            self.stats.phase_nanos.add(st.phases);
        }
        if self.cfg.profile {
            self.stats.shard_phases = self.shards.iter().map(|st| st.phases).collect();
        }
        if let Some(reg) = self.metrics.as_deref_mut() {
            // Fold the per-shard protocol registries and message fates
            // in. Every update is commutative, so any merge order gives
            // the same content bit for bit.
            for st in &self.shards {
                if let Some(sm) = st.metrics.as_ref() {
                    reg.merge(sm);
                }
                if let Some(k) = st.kinds.as_ref() {
                    k.record(reg);
                }
            }
        }
        self.stats.metrics = self.metrics.take();
        let crashed = self.shards.iter().flat_map(|st| st.crashed.iter().copied()).collect();
        RunOutcome { nodes: self.protocols, stats: self.stats, crashed }
    }

    /// Throw away every surviving node's protocol state and start the
    /// algorithm over on the current topology: fresh factory instances
    /// (built on the caller's thread), cleared mailboxes and timers, every
    /// done flag reset to whether the fresh instance starts parked. RNG
    /// streams continue from where they are (node randomness
    /// stays a function of the executed step sequence), so a restart is
    /// exactly as deterministic as the rounds that led to it — the
    /// escalation path of `dima serve`'s convergence watchdog relies on
    /// that.
    pub fn restart(&mut self) {
        for (st, &(lo, hi)) in self.shards.iter_mut().zip(&self.bounds) {
            for i in lo..hi {
                if st.crashed[i - lo] {
                    continue;
                }
                let node = VertexId(i as u32);
                self.protocols[i] =
                    (self.factory)(NodeSeed { node, neighbors: self.topo.neighbors(node) });
                let parked = self.protocols[i].starts_parked();
                match (std::mem::replace(self.done[i].get_mut(), parked), parked) {
                    (true, false) => self.done_count -= 1,
                    (false, true) => self.done_count += 1,
                    _ => {}
                }
                if parked {
                    st.awake.remove(i - lo);
                } else {
                    rouse(&mut st.awake, &mut st.streams, i - lo);
                }
            }
            st.timers.clear();
        }
        self.clear_mail();
    }

    /// Park every surviving node as done without stepping it, leaving
    /// protocol state exactly as constructed. This is the bootstrap for a
    /// *rebased* service: after history compaction the nodes are built
    /// directly in a settled configuration (adopting a previously
    /// converged coloring), so the stepper must start quiescent instead
    /// of running the algorithm from scratch. Mailboxes are cleared; the
    /// round clock is untouched. Wake-class traffic (a later churn batch)
    /// un-parks nodes exactly as it would after natural convergence.
    pub fn park_all(&mut self) {
        for (st, &(lo, hi)) in self.shards.iter_mut().zip(&self.bounds) {
            for (done, &crashed) in self.done[lo..hi].iter_mut().zip(&st.crashed) {
                if !crashed && !std::mem::replace(done.get_mut(), true) {
                    self.done_count += 1;
                }
            }
            st.awake.clear();
            st.timers.clear();
        }
        self.clear_mail();
    }

    /// Empty every inbox, grid slot and control slot, and clear pending
    /// suppress flags.
    fn clear_mail(&mut self) {
        self.control.clear();
        for st in &mut self.shards {
            st.suppress.fill(false);
            st.inbox_data.clear();
            st.inbox_len.fill(0);
            st.receivers.clear();
            st.suppressed_now.clear();
            st.newly_done.clear();
        }
        for slot in &mut self.grid.slots {
            let lane = slot.get_mut().unwrap_or_else(|e| e.into_inner());
            lane.entries.clear();
            lane.records.clear();
        }
    }

    /// Execute one communication round across all shards: apply `batch`
    /// first if given (its [`ChurnBatch::round`] must equal
    /// [`Stepper::round`]), step every active node, deposit + collect,
    /// apply wake-ups and done flags at the boundary, and advance the round
    /// clock. Returns the round's counters, or
    /// [`SimError::NotANeighbor`] if a protocol unicast an illegal
    /// destination while [`EngineConfig::validate_sends`] is on.
    ///
    /// Batch semantics: leavers are parked as done with their inboxes
    /// suppressed, joiners get a *fresh* protocol instance from the
    /// factory (but keep their RNG stream — node randomness is a function
    /// of `(seed, node id)` alone) and an empty first inbox, and every
    /// surviving node with a neighborhood diff is told through
    /// [`Protocol::on_topology_change`], whose return value replaces its
    /// done flag. Every node a batch names stops sleeping. Crashed nodes
    /// ignore batches.
    ///
    /// The tracer type must stay consistent across the stepper's life: a
    /// stepper that collects no metrics keeps per-kind message counters
    /// only when a real tracer is attached on its first tick.
    ///
    /// If a protocol panics on any shard, the round barrier is poisoned
    /// so every participant drains out, and the panic is re-raised here;
    /// the stepper is not usable afterwards (nor after an `Err`).
    pub fn tick<T: Tracer + Sync>(
        &mut self,
        batch: Option<&ChurnBatch>,
        tracer: &mut T,
    ) -> Result<RoundStats, SimError> {
        if T::ENABLED && self.executed == 0 {
            for st in &mut self.shards {
                st.kinds.get_or_insert_with(KindTable::new);
            }
        }
        self.executed += 1;
        let round = self.round;
        if let Some(b) = batch {
            debug_assert_eq!(b.round, round, "batch applied at the wrong round");
            // Participants step against the post-batch topology, patched
            // here from the diff; their own shard's membership changes
            // are applied inside the scope, behind the churn barrier.
            self.topo.apply(b);
            if P::CONTROL {
                // Slots follow the link layout: words in flight are lost.
                self.control = ControlPlane::new(&self.topo, true);
            }
        }
        // Lend each participant its shard's protocols and state for
        // this tick.
        let mut rest = &mut self.protocols[..];
        let rows: Vec<Mutex<_>> = self
            .shards
            .iter_mut()
            .zip(&self.bounds)
            .map(|(st, &(lo, hi))| {
                let (mine, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
                rest = tail;
                Mutex::new((mine, st))
            })
            .collect();
        let ctx = TickCtx {
            cfg: &self.cfg,
            topo: &self.topo,
            batch,
            bounds: &self.bounds,
            shard_of: &self.shard_of,
            crash_round: &self.crash_round,
            done: &self.done,
            grid: &self.grid,
            control: &self.control,
            barrier: &self.barrier,
            factory: &self.factory,
            tracer: &*tracer,
            panic: &self.panic,
            round,
        };
        pool::global().scope(self.threads, &|tid| {
            // A protocol panic must not strand the other participants at
            // the barrier: poison it, record the payload, drain out.
            let (protocols, st) = &mut *lock(&rows[tid]);
            if let Err(p) =
                catch_unwind(AssertUnwindSafe(|| tick_shard::<P, F, T>(&ctx, tid, protocols, st)))
            {
                ctx.barrier.poison();
                lock(ctx.panic).get_or_insert(p);
            }
        })?;
        drop(rows);
        if self.barrier.is_poisoned() {
            let payload =
                lock(&self.panic).take().unwrap_or_else(|| Box::new("engine participant panicked"));
            resume_unwind(payload);
        }

        // Fold the shard outputs (deterministic: shard order).
        let (mut sent, mut delivered, mut active) = (0u64, 0u64, 0usize);
        let (mut words, mut words_lost) = (0u64, 0u64);
        let mut error: Option<SimError> = None;
        for st in &mut self.shards {
            sent += st.sent;
            delivered += st.delivered;
            active += st.active;
            self.stats.dropped += st.dropped;
            self.stats.corrupted += st.corrupted;
            self.stats.duplicated += st.duplicated;
            words += st.control_words;
            words_lost += st.control_lost;
            self.done_count = (self.done_count as i64 + st.done_delta) as usize;
            self.crashed_count += st.crashed_delta;
            if error.is_none() {
                error = st.error.take();
            }
        }
        if let Some(e) = error {
            // An invalid send aborts the round before its stats or events
            // are published; the stepper is dead.
            return Err(e);
        }
        if T::ENABLED {
            // The round footer joins shard 0's buffer so the merge puts
            // every event of this round in the canonical order.
            let buf = &mut self.shards[0].buf;
            buf.round = round;
            buf.node = 0;
            buf.sink(Event::Round {
                round,
                active: active as u64,
                done: self.done_count as u64,
                sent,
                delivered,
            });
            let event_shards: Vec<Vec<Stamped>> =
                self.shards.iter_mut().map(|st| std::mem::take(&mut st.buf.events)).collect();
            for ev in merge_shards(event_shards) {
                tracer.emit(ev);
            }
        }
        let rs = RoundStats { round, active, done: self.done_count, sent, delivered };
        if let Some(reg) = self.metrics.as_deref_mut().filter(|_| P::CONTROL) {
            reg.inc("engine/control_words", words);
            reg.inc("engine/control_lost", words_lost);
        }
        self.close_round(rs);
        Ok(rs)
    }
}

/// One participant's work for one tick, on its own rows: `protocols`
/// and `st` hold the nodes of shard `tid`. Runs on the pool (or inline
/// for shard 0). See the module docs for the phase structure.
fn tick_shard<P, F, T>(
    ctx: &TickCtx<'_, P, F, T>,
    tid: usize,
    protocols: &mut [P],
    st: &mut ShardState<P::Msg>,
) where
    P: Protocol,
    F: Fn(NodeSeed<'_>) -> P + Sync,
    T: Tracer + Sync,
{
    let (lo, hi) = ctx.bounds[tid];
    let round = ctx.round;
    let done = |i: usize| ctx.done[i].load(Relaxed);
    let set_done = |i: usize, v: bool| ctx.done[i].store(v, Relaxed);
    let ShardState {
        streams,
        crashed,
        suppress,
        awake,
        timers,
        inbox_data,
        inbox_start,
        inbox_len,
        receivers,
        lanes,
        outbox,
        ports,
        control_out,
        newly_done,
        suppressed_now,
        fates,
        woken,
        buf,
        kinds,
        metrics,
        phases,
        ..
    } = st;
    newly_done.clear();

    // --- Churn phase (batch rounds only): every participant applies the
    //     slice of the batch in its own shard; the barrier then makes
    //     the new done flags, fresh protocol instances and topology
    //     visible before any node is stepped. ---
    let churn_scope = ProfileScope::start(ctx.cfg.profile);
    let mut done_delta = 0i64;
    if let Some(batch) = ctx.batch {
        if T::ENABLED && tid == 0 {
            buf.round = round;
            buf.node = 0;
            buf.sink(Event::Churn {
                round,
                joins: batch.joins.len() as u32,
                leaves: batch.leaves.len() as u32,
                changes: batch.changes.len() as u32,
            });
        }
        // The row of `v`, if `v` is a live node of this shard.
        let row = |v: VertexId| (lo..hi).contains(&v.index()).then(|| v.index() - lo);
        // Every node the batch names ends any sleep it was in.
        for &v in &batch.leaves {
            let Some(li) = row(v).filter(|&li| !crashed[li]) else { continue };
            timers.cancel(li);
            if !done(v.index()) {
                set_done(v.index(), true);
                awake.remove(li);
                done_delta += 1;
            }
            if !suppress[li] {
                suppress[li] = true;
                suppressed_now.push(li);
            }
        }
        for &v in &batch.joins {
            let Some(li) = row(v).filter(|&li| !crashed[li]) else { continue };
            protocols[li] = (ctx.factory)(NodeSeed { node: v, neighbors: ctx.topo.neighbors(v) });
            timers.cancel(li);
            if done(v.index()) {
                set_done(v.index(), false);
                done_delta -= 1;
            }
            rouse(awake, streams, li);
            if !suppress[li] {
                suppress[li] = true;
                suppressed_now.push(li);
            }
        }
        for &(v, ref change) in &batch.changes {
            let Some(li) = row(v).filter(|&li| !crashed[li]) else { continue };
            let status = protocols[li]
                .on_topology_change(NodeSeed { node: v, neighbors: ctx.topo.neighbors(v) }, change);
            timers.cancel(li);
            match status {
                NodeStatus::Done => {
                    if !done(v.index()) {
                        set_done(v.index(), true);
                        awake.remove(li);
                        done_delta += 1;
                    }
                }
                NodeStatus::Active | NodeStatus::Sleep { .. } => {
                    if done(v.index()) {
                        set_done(v.index(), false);
                        done_delta -= 1;
                    }
                    rouse(awake, streams, li);
                }
            }
        }
        churn_scope.stop_into(&mut phases.churn);
        let wait_scope = ProfileScope::start(ctx.cfg.profile);
        if !ctx.barrier.wait() {
            return;
        }
        wait_scope.stop_into(&mut phases.barrier);
    } else {
        churn_scope.stop_into(&mut phases.churn);
    }

    // --- Step & deposit phase: nobody writes a done flag here, so a
    //     unicast's fate may read any receiver's; deposits go into this
    //     participant's grid row, taken out of the grid for the phase. ---
    let step_scope = ProfileScope::start(ctx.cfg.profile);
    let mut sent = 0u64;
    let mut delivered = 0u64;
    let mut active = 0usize;
    let mut crashed_delta = 0usize;
    let (mut words, mut words_lost) = (0u64, 0u64);
    let mut error: Option<SimError> = None;
    // Fault counters land in a scratch RunStats the caller folds in
    // shard order.
    let mut fstats = RunStats::default();
    swap_lanes(ctx.grid.row(tid), lanes);
    // The awake set in ascending id order: the nodes a scan of the
    // whole shard would not skip, in the order it would step them. Each
    // word is copied before its bits are walked, so a crash or a sleep
    // may clear its bit on the way.
    for w in 0..awake.words.len() {
        for li in awake.bits_of(w) {
            let i = lo + li;
            debug_assert!(!done(i) && !crashed[li], "node {i} parked but in the awake set");
            if crash_at(ctx.crash_round, i).is_some_and(|cr| round >= cr) {
                crashed[li] = true;
                awake.remove(li);
                crashed_delta += 1;
                continue;
            }
            active += 1;
            let node = VertexId(i as u32);
            outbox.clear();
            ports.clear();
            let len = inbox_len[li] as usize;
            let inbox: &[Envelope<P::Msg>] = if len == 0 || suppress[li] {
                &[]
            } else {
                let start = inbox_start[li] as usize;
                &inbox_data[start..start + len]
            };
            // The node's in-words: its links' slots in last round's array.
            let arcs = if P::CONTROL { ctx.topo.arcs(node) } else { 0..0 };
            let control_in = &ctx.control.written_at(round + 1)[arcs.clone()];
            let status = {
                let trace = if T::ENABLED && ctx.tracer.sample(node.0) {
                    buf.round = round;
                    buf.node = node.0;
                    TraceHandle::to(buf)
                } else {
                    TraceHandle::none()
                };
                let mut rctx = RoundCtx {
                    node,
                    round,
                    neighbors: ctx.topo.neighbors(node),
                    inbox,
                    outbox,
                    ports,
                    rng: &mut streams.rngs[li],
                    trace,
                    metrics: MetricsHandle::from_opt(metrics.as_mut()),
                    control_in,
                    control_out,
                };
                protocols[li].on_round(&mut rctx)
            };
            if P::CONTROL {
                // The in-words are read; the out-words land in the slots
                // their readers find next round, unless the fault plan
                // loses them or the reader is parked.
                for slot in control_in {
                    slot.store(0, Relaxed);
                }
                let neighbors = ctx.topo.neighbors(node);
                for (port, word) in control_out.drain(..) {
                    let to = neighbors[port as usize];
                    words += 1;
                    if ctx.cfg.faults.loses_word(ctx.cfg.seed, round, node.0, to.0) {
                        words_lost += 1;
                    } else if !done(to.index()) {
                        let slot = ctx.control.reverse[arcs.start + port as usize];
                        ctx.control.written_at(round)[slot as usize].store(word.get(), Relaxed);
                    }
                }
            } else {
                debug_assert!(
                    control_out.is_empty(),
                    "control words from a protocol without CONTROL"
                );
            }
            for (k, (target, msg)) in outbox.drain(..).enumerate() {
                sent += 1;
                let k = k as u32;
                match target {
                    Target::Unicast(to) => {
                        if ctx.cfg.validate_sends && !ctx.topo.are_neighbors(node, to) {
                            error.get_or_insert(SimError::NotANeighbor { from: node, to });
                            continue;
                        }
                        let copies = deliver_fate(
                            ctx.cfg,
                            round,
                            node,
                            to,
                            k,
                            done(to.index()),
                            P::wakes(&msg),
                            ctx.crash_round,
                            &mut fstats,
                            kinds.as_mut().map(|t| t.row(P::kind_of(&msg))),
                        );
                        delivered += u64::from(copies);
                        let lane = &mut lanes[ctx.shard_of[to.index()] as usize].entries;
                        if copies == 2 {
                            lane.push((Dest::node(to), Envelope::new(node, msg.clone())));
                        }
                        if copies > 0 {
                            lane.push((Dest::node(to), Envelope::new(node, msg)));
                        }
                    }
                    Target::Broadcast | Target::Multicast(_) => {
                        let listed = match target {
                            Target::Multicast(at) => Some(crate::protocol::listed(ports, at)),
                            _ => None,
                        };
                        post(
                            lanes,
                            ctx.bounds,
                            ctx.shard_of,
                            ctx.topo.neighbors(node),
                            listed,
                            k,
                            Envelope::new(node, msg),
                        )
                    }
                }
            }
            match status {
                NodeStatus::Active => {}
                NodeStatus::Done => newly_done.push(i),
                NodeStatus::Sleep { wake_at } => {
                    // Due at its round, or at its crash round to retire.
                    let due = wake_at.into_iter().chain(crash_at(ctx.crash_round, i)).min();
                    if !P::CONTROL && due.is_none_or(|due| due > round + 1) {
                        awake.remove(li);
                        if let Some(due) = due {
                            timers.set(li, due);
                        }
                    }
                }
            }
        }
    }
    swap_lanes(ctx.grid.row(tid), lanes);
    for &li in suppressed_now.iter() {
        suppress[li] = false;
    }
    suppressed_now.clear();
    step_scope.stop_into(&mut phases.step);

    // --- Barrier A: all deposits for this round are in the grid. The
    //     wait is timed apart from the phases: per-shard barrier time
    //     relative to step time is the load-imbalance signal. ---
    let wait_scope = ProfileScope::start(ctx.cfg.profile);
    if !ctx.barrier.wait() {
        return;
    }
    wait_scope.stop_into(&mut phases.barrier);

    // --- Fan-out, then boundary. This participant takes its grid
    //     column out for the rest of the tick. Every broadcast post in
    //     it expands to the sender's neighbors in this shard, and each
    //     delivery's fate is decided against this shard's done flags,
    //     which still say who was parked when the round began: no
    //     participant writes another shard's flags, and this one writes
    //     its own only after the pass. A delivery that goes through to a
    //     parked node can only be wake-class (`deliver_fate` drops
    //     everything else); it re-enters the node before collect would
    //     drop its inbox. Wake-ups apply after every fate is decided, so
    //     none changes the fate of a later delivery to the same node. A
    //     node cannot be both woken and newly done: wake-ups only reach
    //     nodes that were parked, hence not stepped. ---
    let collect_scope = ProfileScope::start(ctx.cfg.profile);
    swap_lanes(ctx.grid.column(tid), lanes);
    fates.clear();
    woken.clear();
    for lane in lanes.iter() {
        let mut records = &lane.records[..];
        for (dest, env) in &lane.entries {
            match dest.route() {
                Route::Node(to) => {
                    if done(to.index()) {
                        woken.push(to.index());
                    }
                }
                Route::Fanout { k, listed } => {
                    let msg = env.msg();
                    let wakes = P::wakes(msg);
                    let mut kind_row = kinds.as_mut().map(|t| t.row(P::kind_of(msg)));
                    for &to in post_receivers(ctx.topo, env.from, listed, (lo, hi), &mut records) {
                        let parked = done(to.index());
                        let copies = deliver_fate(
                            ctx.cfg,
                            round,
                            env.from,
                            to,
                            k,
                            parked,
                            wakes,
                            ctx.crash_round,
                            &mut fstats,
                            kind_row.as_deref_mut(),
                        );
                        delivered += u64::from(copies);
                        if copies > 0 && parked {
                            woken.push(to.index());
                        }
                        fates.push(copies as u8);
                    }
                }
            }
        }
    }
    for &i in woken.iter() {
        if done(i) {
            set_done(i, false);
            rouse(awake, streams, i - lo);
            done_delta -= 1;
        }
    }
    for &i in newly_done.iter() {
        set_done(i, true);
        awake.remove(i - lo);
        done_delta += 1;
        if P::CONTROL {
            // The words written toward it this round will never be read;
            // clearing them keeps its slots empty while it is parked.
            for slot in &ctx.control.written_at(round)[ctx.topo.arcs(VertexId(i as u32))] {
                slot.store(0, Relaxed);
            }
        }
    }
    // Close this participant's partial per-kind counters for the round:
    // they join its run totals, and on a traced run its buffer, where the
    // boundary merge sums partial rows with equal (round, kind) across
    // shards into one row.
    if let Some(k) = kinds.as_mut() {
        buf.round = round;
        buf.node = 0;
        k.flush(round, |ev| {
            if T::ENABLED {
                buf.sink(ev);
            }
        });
    }

    // --- Collect: drain the column into this shard's arena. Sender
    //     shards ascending × sender ids ascending within a lane =
    //     delivery order sorted by sender, by construction. One
    //     counting pass sizes each receiver's run (and zeroes the fates
    //     of deliveries to nodes that parked or crashed this round), one
    //     placement pass moves or clones each envelope into place. ---
    let parked = |i: usize| done(i) || crashed[i - lo];
    for &li in receivers.iter() {
        inbox_len[li as usize] = 0;
    }
    receivers.clear();
    let mut total = 0u32;
    let mut tally = |to: VertexId, copies: u8| {
        let li = to.index() - lo;
        if inbox_len[li] == 0 {
            receivers.push(li as u32);
        }
        inbox_len[li] += u32::from(copies);
        total += u32::from(copies);
    };
    let mut f = 0usize;
    for lane in lanes.iter() {
        let mut records = &lane.records[..];
        for (dest, env) in &lane.entries {
            match dest.route() {
                Route::Node(to) => {
                    if !parked(to.index()) {
                        tally(to, 1);
                    }
                }
                Route::Fanout { listed, .. } => {
                    for &to in post_receivers(ctx.topo, env.from, listed, (lo, hi), &mut records) {
                        let copies = &mut fates[f];
                        f += 1;
                        if *copies > 0 {
                            if parked(to.index()) {
                                *copies = 0;
                            } else {
                                tally(to, *copies);
                            }
                        }
                    }
                }
            }
        }
    }
    // Lay the receivers' runs out back to back; `inbox_start` doubles
    // as the placement cursor and is rewound afterwards.
    let mut at = 0u32;
    for &li in receivers.iter() {
        inbox_start[li as usize] = at;
        at += inbox_len[li as usize];
    }
    // The arena keeps its longest length across rounds: the placement
    // pass assigns every slot below `total` exactly once (it replays the
    // counting pass), overwriting envelopes of earlier rounds, and a
    // round longer than any before first pads the new slots with copies
    // of one of its envelopes. Slots past `total` are never read.
    let total = total as usize;
    let first = lanes.iter().flat_map(|lane| &lane.entries).next();
    if let Some((_, pad)) = first.filter(|_| inbox_data.len() < total) {
        if inbox_data.capacity() < total {
            // Exactly this round's size: growing in place would double
            // past the last peak (and copy envelopes about to be
            // overwritten).
            *inbox_data = Vec::new();
            inbox_data.reserve_exact(total);
        }
        inbox_data.resize(total, pad.clone());
    }
    let mut place = |to: VertexId, env: Envelope<P::Msg>| {
        let li = to.index() - lo;
        inbox_data[inbox_start[li] as usize] = env;
        inbox_start[li] += 1;
    };
    let mut f = 0usize;
    for lane in lanes.iter_mut() {
        let Lane { entries, records: lane_records } = lane;
        let mut records = &lane_records[..];
        for (dest, env) in entries.drain(..) {
            match dest.route() {
                Route::Node(to) => {
                    if !parked(to.index()) {
                        place(to, env);
                    }
                }
                Route::Fanout { listed, .. } => {
                    let nb = post_receivers(ctx.topo, env.from, listed, (lo, hi), &mut records);
                    let copies = &fates[f..f + nb.len()];
                    f += nb.len();
                    // The payload moves into the last copy.
                    let Some(last) = copies.iter().rposition(|&c| c > 0) else { continue };
                    for (&to, &c) in nb[..last].iter().zip(copies) {
                        for _ in 0..c {
                            place(to, env.clone());
                        }
                    }
                    if copies[last] == 2 {
                        place(nb[last], env.clone());
                    }
                    place(nb[last], env);
                }
            }
        }
        lane_records.clear();
    }
    // Mail ends a sleep: a receiver steps next round (it is neither done
    // nor crashed, or its mail would have been dropped above), and so
    // does every sleeper due then.
    for &li in receivers.iter() {
        let li = li as usize;
        inbox_start[li] -= inbox_len[li];
        if !awake.contains(li) {
            awake.insert(li);
            timers.cancel(li);
        }
    }
    timers.fire(round + 1, awake);
    swap_lanes(ctx.grid.column(tid), lanes);
    collect_scope.stop_into(&mut phases.collect);

    // Publish this tick's outputs for the caller's fold.
    st.sent = sent;
    st.delivered = delivered;
    st.active = active;
    st.dropped = fstats.dropped;
    st.corrupted = fstats.corrupted;
    st.duplicated = fstats.duplicated;
    st.control_words = words;
    st.control_lost = words_lost;
    st.done_delta = done_delta;
    st.crashed_delta = crashed_delta;
    st.error = error;
}

/// The round node `i` crashes at, from the table [`Stepper::new`]
/// builds: empty when the plan crashes nobody.
#[inline]
fn crash_at(crash_round: &[Option<u64>], i: usize) -> Option<u64> {
    crash_round.get(i).copied().flatten()
}

/// Decide a delivery's fate: the number of copies (0, 1 or 2) that reach
/// the recipient's next-round inbox, updating fault counters. `parked`
/// is the recipient's done flag at the start of the round; `wakes`
/// carries [`Protocol::wakes`] for the message: a wake-class delivery
/// goes through to a done node (the caller then re-enters the node).
#[inline]
#[allow(clippy::too_many_arguments)] // two call sites; mirrors the fault-decision tuple
fn deliver_fate(
    cfg: &EngineConfig,
    round: u64,
    from: VertexId,
    to: VertexId,
    k: u32,
    parked: bool,
    wakes: bool,
    crash_round: &[Option<u64>],
    stats: &mut RunStats,
    mut kind: Option<&mut KindTotals>,
) -> u32 {
    if let Some(kr) = kind.as_deref_mut() {
        kr.sent += 1;
    }
    if parked && !wakes {
        return 0;
    }
    // A message sent at round `r` is read at round `r + 1`; if the
    // receiver has crashed by then, the delivery silently evaporates
    // (just like a delivery to a done node).
    if crash_at(crash_round, to.index()).is_some_and(|cr| round + 1 >= cr) {
        return 0;
    }
    if cfg.faults.drops(cfg.seed, round, from.0, to.0, k) {
        stats.dropped += 1;
        if let Some(kr) = kind.as_deref_mut() {
            kr.dropped += 1;
        }
        return 0;
    }
    if cfg.faults.corrupts(cfg.seed, round, from.0, to.0, k) {
        stats.corrupted += 1;
        if let Some(kr) = kind.as_deref_mut() {
            kr.corrupted += 1;
        }
        return 0;
    }
    let copies = if cfg.faults.duplicates(cfg.seed, round, from.0, to.0, k) {
        stats.duplicated += 1;
        if let Some(kr) = kind.as_deref_mut() {
            kr.duplicated += 1;
        }
        2
    } else {
        1
    };
    if let Some(kr) = kind {
        kr.delivered += u64::from(copies);
    }
    copies
}

#[cfg(test)]
mod tests {
    use super::*;
    use dima_graph::gen::structured;
    use dima_graph::Graph;
    use dima_telemetry::NoopTracer;

    /// The shard counts every behavioural test runs at: the inline
    /// single shard and a multi-shard split.
    const SHARDS: [usize; 2] = [1, 3];

    /// A static, untraced [`run`].
    fn run_static<P, F>(
        topo: &Topology,
        cfg: &EngineConfig,
        threads: usize,
        factory: F,
    ) -> Result<RunOutcome<P>, SimError>
    where
        P: Protocol,
        F: Fn(NodeSeed<'_>) -> P + Sync,
    {
        run(topo, cfg, threads, &ChurnSchedule::empty(), factory, &mut NoopTracer)
    }

    /// Flood: every node broadcasts its id once, collects neighbor ids,
    /// and finishes when it has heard from every neighbor.
    #[derive(Debug)]
    struct Flood {
        heard: Vec<VertexId>,
        expected: usize,
        sent: bool,
    }

    impl Protocol for Flood {
        type Msg = u32;
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, u32>) -> NodeStatus {
            if !self.sent {
                ctx.broadcast(ctx.node().0);
                self.sent = true;
            }
            for env in ctx.inbox() {
                self.heard.push(env.from);
            }
            if self.heard.len() >= self.expected {
                NodeStatus::Done
            } else {
                NodeStatus::Active
            }
        }
    }

    fn flood_factory(seed: NodeSeed<'_>) -> Flood {
        Flood { heard: Vec::new(), expected: seed.neighbors.len(), sent: false }
    }

    /// A protocol that never finishes.
    #[derive(Debug)]
    struct Forever;
    impl Protocol for Forever {
        type Msg = ();
        fn on_round(&mut self, _ctx: &mut RoundCtx<'_, ()>) -> NodeStatus {
            NodeStatus::Active
        }
    }

    /// Node 0 illegally unicasts to node 2 (not a neighbor on a path).
    #[derive(Debug)]
    struct BadSender;
    impl Protocol for BadSender {
        type Msg = ();
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, ()>) -> NodeStatus {
            if ctx.node() == VertexId(0) {
                ctx.send(VertexId(2), ());
            }
            NodeStatus::Done
        }
    }

    #[test]
    fn flood_completes_in_two_rounds() {
        let topo = Topology::from_graph(&structured::cycle(8));
        for threads in SHARDS {
            let out = run_static(&topo, &EngineConfig::seeded(1), threads, flood_factory).unwrap();
            assert_eq!(out.stats.rounds, 2);
            assert_eq!(out.stats.messages_sent, 8);
            assert_eq!(out.stats.deliveries, 16);
            for (i, node) in out.nodes.iter().enumerate() {
                let mut heard = node.heard.clone();
                heard.sort_unstable();
                let expect: Vec<VertexId> = topo.neighbors(VertexId(i as u32)).to_vec();
                assert_eq!(heard, expect, "threads = {threads}");
            }
        }
    }

    #[test]
    fn inbox_is_sorted_by_sender() {
        let topo = Topology::from_graph(&structured::star(6));
        for threads in SHARDS {
            let out = run_static(&topo, &EngineConfig::seeded(1), threads, flood_factory).unwrap();
            // Hub (node 0) heard all leaves, delivered in sender order
            // even though the leaves sit in different shards.
            let heard = &out.nodes[0].heard;
            let mut sorted = heard.clone();
            sorted.sort_unstable();
            assert_eq!(heard, &sorted, "threads = {threads}");
        }
    }

    #[test]
    fn shard_counts_agree_on_flood() {
        let topo = Topology::from_graph(&structured::grid(6, 7));
        let cfg = EngineConfig { collect_round_stats: true, ..EngineConfig::seeded(11) };
        let one = run_static(&topo, &cfg, 1, flood_factory).unwrap();
        for threads in [2, 3, 8] {
            let many = run_static(&topo, &cfg, threads, flood_factory).unwrap();
            assert_eq!(many.stats, one.stats, "threads = {threads}");
            for (a, b) in many.nodes.iter().zip(&one.nodes) {
                assert_eq!(a.heard, b.heard);
            }
        }
    }

    #[test]
    fn empty_topology() {
        let topo = Topology::from_graph(&Graph::empty(0));
        for threads in [1, 4] {
            let out = run_static(&topo, &EngineConfig::default(), threads, flood_factory).unwrap();
            assert_eq!(out.stats.rounds, 0);
            assert!(out.nodes.is_empty());
        }
    }

    #[test]
    fn isolated_nodes_finish_in_one_round() {
        let topo = Topology::from_graph(&Graph::empty(4));
        for threads in SHARDS {
            let out = run_static(&topo, &EngineConfig::default(), threads, flood_factory).unwrap();
            assert_eq!(out.stats.rounds, 1);
            assert_eq!(out.stats.messages_sent, 4); // broadcasts to nobody
            assert_eq!(out.stats.deliveries, 0);
        }
    }

    #[test]
    fn more_threads_than_nodes() {
        let topo = Topology::from_graph(&structured::path(3));
        let out = run_static(&topo, &EngineConfig::seeded(2), 64, flood_factory).unwrap();
        assert_eq!(out.nodes.len(), 3);
        assert_eq!(out.stats.rounds, 2);
    }

    #[test]
    fn round_budget_enforced() {
        let topo = Topology::from_graph(&structured::path(3));
        let cfg = EngineConfig { max_rounds: 10, ..Default::default() };
        for threads in SHARDS {
            let err = run_static(&topo, &cfg, threads, |_| Forever).unwrap_err();
            assert_eq!(err, SimError::MaxRoundsExceeded { max_rounds: 10, still_active: 3 });
        }
    }

    #[test]
    fn unicast_validation_propagates() {
        let topo = Topology::from_graph(&structured::path(3)); // 0-1-2
        for threads in SHARDS {
            let err =
                run_static(&topo, &EngineConfig::default(), threads, |_| BadSender).unwrap_err();
            assert_eq!(err, SimError::NotANeighbor { from: VertexId(0), to: VertexId(2) });
        }
    }

    #[test]
    fn validation_can_be_disabled() {
        let topo = Topology::from_graph(&structured::path(3));
        let cfg = EngineConfig { validate_sends: false, ..Default::default() };
        for threads in SHARDS {
            // With validation off the bogus send is routed (still only to
            // the inbox of node 2) and the run completes.
            let out = run_static(&topo, &cfg, threads, |_| BadSender).unwrap();
            assert_eq!(out.stats.rounds, 1);
        }
    }

    #[test]
    fn per_round_stats_collected_when_asked() {
        let topo = Topology::from_graph(&structured::cycle(4));
        let cfg = EngineConfig { collect_round_stats: true, ..EngineConfig::seeded(3) };
        for threads in SHARDS {
            let out = run_static(&topo, &cfg, threads, flood_factory).unwrap();
            let pr = out.stats.per_round.as_ref().unwrap();
            assert_eq!(pr.len(), 2);
            assert_eq!(pr[0].active, 4);
            assert_eq!(pr[0].sent, 4);
            assert_eq!(pr[1].done, 4);
        }
    }

    #[test]
    fn total_drop_blocks_flood() {
        let topo = Topology::from_graph(&structured::cycle(4));
        let cfg = EngineConfig {
            faults: FaultPlan::uniform(1.0),
            max_rounds: 20,
            ..EngineConfig::seeded(3)
        };
        for threads in SHARDS {
            let err = run_static(&topo, &cfg, threads, flood_factory).unwrap_err();
            assert!(matches!(err, SimError::MaxRoundsExceeded { .. }));
        }
    }

    #[test]
    fn duplication_delivers_adjacent_copies() {
        let topo = Topology::from_graph(&structured::cycle(4));
        let cfg = EngineConfig {
            faults: FaultPlan { duplicate_probability: 1.0, ..FaultPlan::reliable() },
            ..EngineConfig::seeded(5)
        };
        for threads in SHARDS {
            let out = run_static(&topo, &cfg, threads, flood_factory).unwrap();
            // 4 broadcasts, 8 base deliveries, each duplicated.
            assert_eq!(out.stats.rounds, 2);
            assert_eq!(out.stats.messages_sent, 4);
            assert_eq!(out.stats.deliveries, 16);
            assert_eq!(out.stats.duplicated, 8);
            // Each node heard each neighbor exactly twice, adjacently.
            for node in &out.nodes {
                assert_eq!(node.heard.len(), 4);
                assert_eq!(node.heard[0], node.heard[1]);
                assert_eq!(node.heard[2], node.heard[3]);
            }
        }
    }

    #[test]
    fn corruption_is_counted_separately_from_drops() {
        // Broadcast every round for six rounds under 50% corruption.
        #[derive(Debug)]
        struct Chatter;
        impl Protocol for Chatter {
            type Msg = ();
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, ()>) -> NodeStatus {
                ctx.broadcast(());
                if ctx.round() >= 5 {
                    NodeStatus::Done
                } else {
                    NodeStatus::Active
                }
            }
        }
        let topo = Topology::from_graph(&structured::complete(5));
        let cfg = EngineConfig {
            faults: FaultPlan { corrupt_probability: 0.5, ..FaultPlan::reliable() },
            ..EngineConfig::seeded(5)
        };
        for threads in SHARDS {
            let out = run_static(&topo, &cfg, threads, |_| Chatter).unwrap();
            assert!(out.stats.corrupted > 0);
            assert_eq!(out.stats.dropped, 0);
        }
    }

    #[test]
    fn faulty_runs_agree_across_shard_counts() {
        let topo = Topology::from_graph(&structured::grid(5, 5));
        let cfg = EngineConfig {
            faults: FaultPlan::uniform(0.2),
            max_rounds: 50,
            collect_round_stats: true,
            ..EngineConfig::seeded(21)
        };
        match (run_static(&topo, &cfg, 1, flood_factory), run_static(&topo, &cfg, 3, flood_factory))
        {
            (Ok(a), Ok(b)) => assert_eq!(a.stats, b.stats),
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("shard counts disagree: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn crashing_runs_agree_across_shard_counts() {
        let topo = Topology::from_graph(&structured::grid(5, 5));
        let cfg = EngineConfig {
            faults: FaultPlan { duplicate_probability: 0.1, ..FaultPlan::crashing(0.3, 1) },
            max_rounds: 50,
            collect_round_stats: true,
            ..EngineConfig::seeded(33)
        };
        match (run_static(&topo, &cfg, 1, flood_factory), run_static(&topo, &cfg, 4, flood_factory))
        {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.stats, b.stats);
                assert_eq!(a.crashed, b.crashed);
                assert!(a.stats.crashed > 0, "plan should actually crash someone");
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("shard counts disagree: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn crashed_nodes_end_the_run_instead_of_hanging() {
        // Forever never reports Done, but every node crashes, so the run
        // terminates cleanly on the (empty) residual graph.
        let topo = Topology::from_graph(&structured::path(4));
        let cfg = EngineConfig {
            faults: FaultPlan::crashing(1.0, 3),
            max_rounds: 100,
            ..EngineConfig::seeded(7)
        };
        for threads in SHARDS {
            let out = run_static(&topo, &cfg, threads, |_| Forever).unwrap();
            assert_eq!(out.stats.crashed, 4);
            assert!(out.crashed.iter().all(|&c| c));
            assert!(out.stats.rounds <= 3 + cfg.faults.crash_spread);
        }
    }

    #[test]
    fn deliveries_to_crashing_nodes_are_suppressed() {
        // Both nodes crash at exactly round 1; everything sent at round 0
        // would be read at round 1 and must evaporate.
        let topo = Topology::from_graph(&structured::path(2));
        let cfg = EngineConfig {
            faults: FaultPlan { crash_spread: 1, ..FaultPlan::crashing(1.0, 1) },
            ..EngineConfig::seeded(7)
        };
        for threads in SHARDS {
            let out = run_static(&topo, &cfg, threads, flood_factory).unwrap();
            assert_eq!(out.stats.deliveries, 0);
            assert_eq!(out.stats.crashed, 2);
            for node in &out.nodes {
                assert!(node.heard.is_empty());
            }
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let topo = Topology::from_graph(&structured::cycle(10));
        for threads in SHARDS {
            let a = run_static(&topo, &EngineConfig::seeded(9), threads, flood_factory).unwrap();
            let b = run_static(&topo, &EngineConfig::seeded(9), threads, flood_factory).unwrap();
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn messages_to_done_nodes_are_discarded() {
        // Node 0 finishes in round 0; others keep broadcasting to it.
        #[derive(Debug)]
        struct Spammer {
            quit_early: bool,
        }
        impl Protocol for Spammer {
            type Msg = ();
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, ()>) -> NodeStatus {
                ctx.broadcast(());
                if self.quit_early || ctx.round() >= 3 {
                    NodeStatus::Done
                } else {
                    NodeStatus::Active
                }
            }
        }
        let topo = Topology::from_graph(&structured::complete(3));
        for threads in SHARDS {
            let out = run_static(&topo, &EngineConfig::default(), threads, |seed| Spammer {
                quit_early: seed.node == VertexId(0),
            })
            .unwrap();
            // Node 0 was stepped exactly once.
            assert_eq!(out.stats.rounds, 4);
            // Deliveries to node 0 after round 0 were suppressed:
            // round 0: 3 broadcasts × 2 deliveries = 6.
            // rounds 1..3: 2 broadcasts × 2 neighbors, but deliveries to
            // node 0 suppressed => each sender reaches 1 live peer = 2
            // per round.
            assert_eq!(out.stats.deliveries, 6 + 3 * 2);
        }
    }

    #[test]
    fn a_node_that_starts_parked_waits_for_wake_class_mail() {
        // Triangle 0-1-2. Node 0 runs rounds 0..=3: it sends node 1 plain
        // mail in round 1 and a wake-up in round 3, and node 2 plain mail
        // every round. Nodes 1 and 2 start parked; only node 1 is ever
        // woken, and it reads the wake-up alone in round 4.
        #[derive(Debug)]
        struct Sleeper {
            parked: bool,
            stepped: Vec<(u64, Vec<bool>)>,
        }
        impl Protocol for Sleeper {
            type Msg = bool;
            fn wakes(msg: &bool) -> bool {
                *msg
            }
            fn starts_parked(&self) -> bool {
                self.parked
            }
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, bool>) -> NodeStatus {
                let round = ctx.round();
                self.stepped.push((round, ctx.inbox().iter().map(|e| *e.msg()).collect()));
                if self.parked {
                    return NodeStatus::Done;
                }
                match round {
                    1 => ctx.send(VertexId(1), false),
                    3 => ctx.send(VertexId(1), true),
                    _ => {}
                }
                ctx.send(VertexId(2), false);
                if round < 3 {
                    NodeStatus::Active
                } else {
                    NodeStatus::Done
                }
            }
        }
        let topo = Topology::from_graph(&structured::complete(3));
        for threads in SHARDS {
            let out = run_static(&topo, &EngineConfig::default(), threads, |seed| Sleeper {
                parked: seed.node != VertexId(0),
                stepped: Vec::new(),
            })
            .unwrap();
            let stepped: Vec<_> = out.nodes.iter().map(|n| n.stepped.clone()).collect();
            assert_eq!(stepped[0].iter().map(|&(r, _)| r).collect::<Vec<_>>(), [0, 1, 2, 3]);
            assert_eq!(stepped[1], [(4, vec![true])], "threads = {threads}");
            assert!(stepped[2].is_empty(), "threads = {threads}");
            assert_eq!(out.stats.rounds, 5);
            assert_eq!(out.stats.node_steps, 5);
        }
        // A restart builds fresh instances, and those start parked too.
        let factory =
            |seed: NodeSeed<'_>| Sleeper { parked: seed.node != VertexId(0), stepped: Vec::new() };
        let mut stepper = Stepper::new(&topo, &EngineConfig::default(), 1, factory).unwrap();
        assert!(stepper.active_nodes().eq([VertexId(0)]));
        while !stepper.is_quiescent() {
            stepper.tick(None, &mut NoopTracer).unwrap();
        }
        stepper.restart();
        assert!(stepper.active_nodes().eq([VertexId(0)]));
        assert_eq!(stepper.still_active(), 1);
    }

    /// Where a [`Scripted`] node's message goes; `true` marks it
    /// wake-class.
    enum Mail {
        To(u32, bool),
        All(bool),
        Ports(&'static [u32], bool),
    }

    /// What a [`Scripted`] node does in a round: its mail and status,
    /// from its id, the round and every step so far as `(round, inbox
    /// length)`, this one included.
    type Script = fn(u32, u64, &[(u64, usize)]) -> (Vec<Mail>, NodeStatus);

    /// A node that follows a script, logs each step and draws one word
    /// from its stream per step.
    #[derive(Debug)]
    struct Scripted {
        me: u32,
        parked: bool,
        script: Script,
        stepped: Vec<(u64, usize)>,
        drawn: Vec<u64>,
    }

    impl Protocol for Scripted {
        type Msg = bool;
        fn wakes(msg: &bool) -> bool {
            *msg
        }
        fn starts_parked(&self) -> bool {
            self.parked
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, bool>) -> NodeStatus {
            use rand::Rng;
            self.stepped.push((ctx.round(), ctx.inbox().len()));
            self.drawn.push(ctx.rng().random());
            let (mail, status) = (self.script)(self.me, ctx.round(), &self.stepped);
            for m in mail {
                match m {
                    Mail::To(to, wake) => ctx.send(VertexId(to), wake),
                    Mail::All(wake) => ctx.broadcast(wake),
                    Mail::Ports(ports, wake) => ctx.multicast(ports, wake),
                }
            }
            status
        }
    }

    fn scripted(
        script: Script,
        parked: fn(u32) -> bool,
    ) -> impl Fn(NodeSeed<'_>) -> Scripted + Sync {
        move |seed| Scripted {
            me: seed.node.0,
            parked: parked(seed.node.0),
            script,
            stepped: Vec::new(),
            drawn: Vec::new(),
        }
    }

    /// Each node's steps, as `(round, inbox length)`.
    fn steps(out: &RunOutcome<Scripted>) -> Vec<Vec<(u64, usize)>> {
        out.nodes.iter().map(|n| n.stepped.clone()).collect()
    }

    const SLEEP: NodeStatus = NodeStatus::Sleep { wake_at: None };

    #[test]
    fn mail_of_any_class_wakes_a_sleeper() {
        // Triangle 0-1-2. Node 0 sends node 1 a plain unicast, a
        // broadcast, a multicast to its port and a wake-class unicast in
        // rounds 2, 4, 6 and 8; node 1 sleeps until mail and finishes on
        // its fourth message; node 2 is done from round 0.
        let script: Script = |me, round, stepped| match me {
            0 => {
                let mail = match round {
                    2 => vec![Mail::To(1, false)],
                    4 => vec![Mail::All(false)],
                    6 => vec![Mail::Ports(&[0], false)],
                    8 => vec![Mail::To(1, true)],
                    _ => vec![],
                };
                (mail, if round < 8 { NodeStatus::Active } else { NodeStatus::Done })
            }
            1 if stepped.iter().map(|&(_, k)| k).sum::<usize>() < 4 => (vec![], SLEEP),
            _ => (vec![], NodeStatus::Done),
        };
        let topo = Topology::from_graph(&structured::complete(3));
        for threads in SHARDS {
            let out =
                run_static(&topo, &EngineConfig::default(), threads, scripted(script, |_| false))
                    .unwrap();
            let steps = steps(&out);
            assert_eq!(steps[1], [(0, 0), (3, 1), (5, 1), (7, 1), (9, 1)], "threads = {threads}");
            assert_eq!(steps[2], [(0, 0)]);
            assert_eq!(out.stats.rounds, 10);
            assert_eq!(out.stats.node_steps, 9 + 5 + 1);
        }
    }

    #[test]
    fn a_sleeper_is_retired_at_its_crash_round() {
        // Path 0-1-2, every node crashing at round 5. Node 1 sends both
        // ends mail in round 3 (read in round 4) and again in round 4
        // (read in round 5, so lost); node 0 sleeps until mail, node 2
        // until round 50. Both are stepped once more, on their mail, and
        // retired at round 5 with node 1, which ends the run.
        let script: Script = |me, _, _| match me {
            1 => (vec![Mail::All(false)], NodeStatus::Active),
            0 => (vec![], SLEEP),
            _ => (vec![], NodeStatus::Sleep { wake_at: Some(50) }),
        };
        let topo = Topology::from_graph(&structured::path(3));
        let cfg = EngineConfig {
            faults: FaultPlan { crash_spread: 1, ..FaultPlan::crashing(1.0, 5) },
            collect_round_stats: true,
            ..EngineConfig::seeded(2)
        };
        for threads in SHARDS {
            let out = run_static(&topo, &cfg, threads, scripted(script, |_| false)).unwrap();
            let steps = steps(&out);
            for end in [0, 2] {
                assert_eq!(steps[end], [(0, 0), (1, 1), (2, 1), (3, 1), (4, 1)], "node {end}");
            }
            assert_eq!(out.stats.crashed, 3);
            assert_eq!(out.stats.rounds, 6, "threads = {threads}");
            let per_round = out.stats.per_round.as_deref().unwrap();
            assert_eq!(per_round[5].active, 0);
        }
    }

    #[test]
    fn a_churn_batch_ends_a_sleep() {
        // Path 0-1-2-3. Node 3 leaves in a batch at round 3, which
        // changes node 2's neighborhood: node 2, asleep until round 100,
        // is stepped in the batch round and finishes; node 3, asleep
        // until mail, is parked unstepped. Node 0 sleeps until round 8
        // and node 1 is done from round 0, so rounds 4 to 7 pass with
        // nobody awake.
        let script: Script = |me, round, _| match (me, round) {
            (0, 0) => (vec![], NodeStatus::Sleep { wake_at: Some(8) }),
            (2, 0) => (vec![], NodeStatus::Sleep { wake_at: Some(100) }),
            (3, _) => (vec![], SLEEP),
            _ => (vec![], NodeStatus::Done),
        };
        let g = structured::path(4);
        let topo = Topology::from_graph(&g);
        let mut feed = crate::churn::EventFeed::new(&g);
        feed.stage(crate::churn::ChurnEvent::NodeLeave(VertexId(3))).unwrap();
        let batch = feed.commit(3).expect("a staged event");
        let schedule = ChurnSchedule::from_feed(vec![batch], &feed);
        let cfg = EngineConfig { collect_round_stats: true, ..EngineConfig::seeded(1) };
        for threads in SHARDS {
            let factory = scripted(script, |_| false);
            let out = run(&topo, &cfg, threads, &schedule, factory, &mut NoopTracer).unwrap();
            let steps = steps(&out);
            assert_eq!(
                steps,
                [vec![(0, 0), (8, 0)], vec![(0, 0)], vec![(0, 0), (3, 0)], vec![(0, 0)]]
            );
            assert_eq!(out.stats.rounds, 9, "threads = {threads}");
            assert_eq!(out.stats.node_steps, 6);
            let active: Vec<usize> =
                out.stats.per_round.as_deref().unwrap().iter().map(|rs| rs.active).collect();
            assert_eq!(active, [4, 0, 0, 1, 0, 0, 0, 0, 1]);
        }
    }

    #[test]
    fn rounds_passed_asleep_count_toward_the_budget() {
        // Node 0 sleeps until round 15 and then finishes; node 1 is done
        // from round 0. The run takes 16 rounds, passing 14 with nobody
        // awake, and fails on any smaller budget.
        let script: Script = |me, round, _| match (me, round) {
            (0, 0) => (vec![], NodeStatus::Sleep { wake_at: Some(15) }),
            _ => (vec![], NodeStatus::Done),
        };
        let topo = Topology::from_graph(&structured::path(2));
        for threads in SHARDS {
            let cfg = |max_rounds| EngineConfig {
                max_rounds,
                metrics: true,
                collect_round_stats: true,
                ..EngineConfig::seeded(3)
            };
            for max_rounds in [10, 15] {
                let err = run_static(&topo, &cfg(max_rounds), threads, scripted(script, |_| false))
                    .unwrap_err();
                assert_eq!(err, SimError::MaxRoundsExceeded { max_rounds, still_active: 1 });
            }
            let out = run_static(&topo, &cfg(16), threads, scripted(script, |_| false)).unwrap();
            assert_eq!(steps(&out), [vec![(0, 0), (15, 0)], vec![(0, 0)]]);
            assert_eq!((out.stats.rounds, out.stats.node_steps), (16, 3));
            assert_eq!(out.stats.per_round.as_deref().map(<[_]>::len), Some(16));
            let reg = out.stats.metrics.as_deref().unwrap();
            assert_eq!(reg.counter("engine/rounds"), 16);
        }
        // A stepper driven by hand passes the same rounds in one call.
        let mut stepper =
            Stepper::new(&topo, &EngineConfig::default(), 1, scripted(script, |_| false)).unwrap();
        assert_eq!(stepper.skip_asleep(100, &mut NoopTracer), 0, "nodes are awake at round 0");
        stepper.tick(None, &mut NoopTracer).unwrap();
        assert_eq!(stepper.skip_asleep(12, &mut NoopTracer), 11);
        assert_eq!(stepper.skip_asleep(100, &mut NoopTracer), 3);
        assert_eq!((stepper.round(), stepper.executed()), (15, 15));
        assert!(stepper.active_nodes().eq([VertexId(0)]));
        // Ticking through the sleep instead steps nobody until round 15.
        let mut ticked =
            Stepper::new(&topo, &EngineConfig::default(), 1, scripted(script, |_| false)).unwrap();
        while !ticked.is_quiescent() {
            ticked.tick(None, &mut NoopTracer).unwrap();
        }
        let out = ticked.into_outcome(0, 0);
        assert_eq!(steps(&out), [vec![(0, 0), (15, 0)], vec![(0, 0)]]);
        assert_eq!((out.stats.rounds, out.stats.node_steps), (16, 3));
    }

    #[test]
    fn a_stream_is_seeded_when_its_node_is_first_roused() {
        // Triangle 0-1-2 with nodes 1 and 2 parked: node 0 wakes node 2
        // in round 4, and a restart builds node 1 awake. Every stream
        // draws exactly what `node_rng(seed, id)` draws.
        let script: Script = |me, round, _| match (me, round) {
            (0, 4) => (vec![Mail::To(2, true)], NodeStatus::Done),
            (0, _) => (vec![], NodeStatus::Active),
            _ => (vec![], NodeStatus::Done),
        };
        let topo = Topology::from_graph(&structured::complete(3));
        let cfg = EngineConfig::seeded(77);
        let first = |id: u32| {
            use rand::Rng;
            node_rng(77, id).random::<u64>()
        };
        for threads in SHARDS {
            let out = run_static(&topo, &cfg, threads, scripted(script, |me| me != 0)).unwrap();
            assert_eq!(steps(&out)[2], [(5, 1)]);
            assert!(out.nodes[1].drawn.is_empty());
            for id in [0, 2] {
                assert_eq!(out.nodes[id].drawn[0], first(id as u32), "threads = {threads}");
            }
        }
        let mut stepper = Stepper::new(&topo, &cfg, 1, scripted(script, |me| me == 1)).unwrap();
        assert_eq!(stepper.shards[0].streams.unseeded.len, 1);
        stepper.nodes_mut()[1].parked = false;
        stepper.factory = scripted(script, |_| false);
        stepper.restart();
        stepper.tick(None, &mut NoopTracer).unwrap();
        assert_eq!(stepper.nodes()[1].drawn, [first(1)]);
    }

    #[test]
    fn routing_word_round_trips_and_caps_the_node_count() {
        let top = (1u32 << 31) - 1;
        assert!(matches!(Dest::node(VertexId(top)).route(), Route::Node(v) if v.0 == top));
        let k = (1u32 << 30) - 1;
        for listed in [false, true] {
            let route = Dest::fanout(k, listed).route();
            assert!(
                matches!(route, Route::Fanout { k: got, listed: l } if got == k && l == listed)
            );
            let route = Dest::fanout(0, listed).route();
            assert!(matches!(route, Route::Fanout { k: 0, listed: l } if l == listed));
        }
        assert_eq!(check_node_count((1 << 31) - 1), Ok(()));
        assert_eq!(
            check_node_count(1 << 31),
            Err(SimError::TooManyNodes { nodes: 1 << 31, limit: 1 << 31 })
        );
    }

    #[test]
    fn shard_bounds_cover_and_balance() {
        // A star graph: node 0 carries all the edges. Weighted bounds
        // must still cover [0, n) contiguously with non-empty shards.
        let topo = Topology::from_graph(&structured::star(100));
        for threads in [1, 2, 3, 7, 8] {
            let bounds = shard_bounds(&topo, threads);
            assert_eq!(bounds.len(), threads);
            assert_eq!(bounds[0].0, 0);
            assert_eq!(bounds[threads - 1].1, topo.num_nodes());
            for w in bounds.windows(2) {
                assert_eq!(w[0].1, w[1].0, "shards must be contiguous");
            }
            for &(lo, hi) in &bounds {
                assert!(hi > lo, "no empty shards while threads <= n");
            }
        }
    }

    #[test]
    fn a_broadcast_deposits_one_post_per_receiver_shard() {
        // The hub of a star has neighbors in all three shards: its
        // broadcast takes one grid entry per shard, not one per leaf.
        let topo = Topology::from_graph(&structured::star(30));
        let stepper = Stepper::new(&topo, &EngineConfig::default(), 3, flood_factory).unwrap();
        let deposit = |from: u32, ports: Option<&[u32]>| -> Vec<Lane<u32>> {
            let node = VertexId(from);
            let mut row: Vec<Lane<u32>> = (0..3).map(|_| Lane::default()).collect();
            post(
                &mut row,
                &stepper.bounds,
                &stepper.shard_of,
                topo.neighbors(node),
                ports,
                0,
                Envelope::new(node, from),
            );
            row
        };
        let posts = |row: &[Lane<u32>]| -> Vec<usize> {
            row.iter().map(|lane| lane.entries.len()).collect()
        };
        assert_eq!(posts(&deposit(0, None)), vec![1, 1, 1]);
        // A leaf's one neighbor sits in shard 0: one post, there.
        assert_eq!(posts(&deposit(29, None)), vec![1, 0, 0]);
        assert!(deposit(0, None).iter().all(|lane| lane.records.is_empty()));

        // A multicast posts only where a listed neighbor lives, and each
        // post's record lists the hub's listed neighbors there.
        let (first, last) = (0u32, 28u32);
        let row = deposit(0, Some(&[first, last]));
        assert_eq!(posts(&row), vec![1, 0, 1]);
        for (r, port) in [(0, first), (2, last)] {
            let mut records = &row[r].records[..];
            let got = post_receivers(&topo, VertexId(0), true, stepper.bounds[r], &mut records);
            assert_eq!(got, [topo.neighbors(VertexId(0))[port as usize]]);
            assert!(records.is_empty(), "the post owns its record exactly");
        }
        assert_eq!(posts(&deposit(0, Some(&[]))), vec![0, 0, 0]);
    }

    #[test]
    fn stepper_ticks_match_batch_run() {
        // Driving the Stepper tick by tick is the same computation as the
        // batch entry point.
        let topo = Topology::from_graph(&structured::grid(4, 5));
        let cfg = EngineConfig { collect_round_stats: true, ..EngineConfig::seeded(5) };
        for threads in SHARDS {
            let batch = run_static(&topo, &cfg, threads, flood_factory).unwrap();
            let mut stepper = Stepper::new(&topo, &cfg, threads, flood_factory).unwrap();
            while !stepper.is_quiescent() {
                stepper.tick(None, &mut NoopTracer).unwrap();
            }
            let stepped = stepper.into_outcome(0, 0);
            assert_eq!(stepped.stats, batch.stats);
            for (a, b) in stepped.nodes.iter().zip(&batch.nodes) {
                assert_eq!(a.heard, b.heard);
            }
        }
    }

    #[test]
    fn active_set_is_exactly_the_unparked_nodes() {
        for len in [0, 1, 63, 64, 65, 130] {
            assert!(NodeSet::of(len, |_| true).iter().eq(0..len), "len = {len}");
            let odd = NodeSet::of(len, |li| li % 2 == 1);
            let even = odd.complement(len);
            assert!(even.iter().eq((0..len).step_by(2)), "len = {len}");
            assert_eq!((odd.len, even.len), (len / 2, len.div_ceil(2)));
        }
        // Crashes, finishes at different rounds, a restart and a park:
        // after every step the set names the nodes neither done nor
        // crashed, in id order.
        let topo = Topology::from_graph(&structured::grid(9, 9));
        let cfg = EngineConfig { faults: FaultPlan::crashing(0.2, 2), ..EngineConfig::seeded(4) };
        for threads in SHARDS {
            let mut stepper = Stepper::new(&topo, &cfg, threads, flood_factory).unwrap();
            let check = |s: &Stepper<Flood, _>| {
                let crashed: Vec<bool> =
                    s.shards.iter().flat_map(|st| st.crashed.iter().copied()).collect();
                let expect = (0..s.num_nodes())
                    .filter(|&i| !s.done[i].load(Relaxed) && !crashed[i])
                    .map(|i| VertexId(i as u32));
                assert!(s.active_nodes().eq(expect), "threads = {threads}");
                assert_eq!(s.active_nodes().count(), s.still_active());
            };
            check(&stepper);
            stepper.tick(None, &mut NoopTracer).unwrap();
            check(&stepper);
            stepper.restart();
            check(&stepper);
            while !stepper.is_quiescent() {
                stepper.tick(None, &mut NoopTracer).unwrap();
                check(&stepper);
            }
            stepper.restart();
            stepper.park_all();
            check(&stepper);
            assert_eq!(stepper.active_nodes().count(), 0);
        }
    }

    #[test]
    fn control_words_arrive_next_round_once_and_obey_the_fault_plan() {
        // Every node writes `round + 1` toward each neighbor for four
        // rounds and records what it reads.
        #[derive(Debug)]
        struct Talker {
            heard: Vec<(u64, usize, u64)>,
        }
        impl Protocol for Talker {
            type Msg = ();
            const CONTROL: bool = true;
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, ()>) -> NodeStatus {
                for port in 0..ctx.degree() {
                    if let Some(w) = ctx.control_word(port) {
                        self.heard.push((ctx.round(), port, w.get()));
                    }
                    ctx.write_control(port, ControlWord::new(ctx.round() + 1).unwrap());
                }
                if ctx.round() == 3 {
                    NodeStatus::Done
                } else {
                    NodeStatus::Active
                }
            }
        }
        let topo = Topology::from_graph(&structured::path(3));
        let talker = |_: NodeSeed<'_>| Talker { heard: Vec::new() };
        let words = |out: &RunOutcome<Talker>| {
            let reg = out.stats.metrics.as_deref().expect("metrics were requested");
            (reg.counter("engine/control_words"), reg.counter("engine/control_lost"))
        };
        let metered = EngineConfig { metrics: true, ..Default::default() };
        for threads in SHARDS {
            let out = run_static(&topo, &metered, threads, talker).unwrap();
            // Four rounds of one word per directed link (4 of them).
            assert_eq!(words(&out), (16, 0));
            assert_eq!((out.stats.messages_sent, out.stats.deliveries), (0, 0));
            for (i, node) in out.nodes.iter().enumerate() {
                let ports = topo.degree(VertexId(i as u32));
                let want: Vec<_> =
                    (1..4).flat_map(|r| (0..ports).map(move |p| (r, p, r))).collect();
                assert_eq!(node.heard, want, "threads = {threads}, node {i}");
            }
            let cfg = EngineConfig { faults: FaultPlan::uniform(1.0), ..metered };
            let lost = run_static(&topo, &cfg, threads, talker).unwrap();
            assert_eq!(words(&lost), (16, 16));
            assert!(lost.nodes.iter().all(|n| n.heard.is_empty()));
        }
    }

    #[test]
    fn protocol_panic_propagates_and_poisons() {
        #[derive(Debug)]
        struct Bomb;
        impl Protocol for Bomb {
            type Msg = ();
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, ()>) -> NodeStatus {
                if ctx.node() == VertexId(3) {
                    panic!("protocol bomb");
                }
                NodeStatus::Active
            }
        }
        let topo = Topology::from_graph(&structured::path(8));
        for threads in [1, 4] {
            let err = std::panic::catch_unwind(|| {
                let _ = run_static(&topo, &EngineConfig::seeded(1), threads, |_| Bomb);
            });
            assert!(err.is_err(), "the protocol panic must reach the caller");
        }
    }
}
