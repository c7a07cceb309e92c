//! Deterministic topology-churn schedules: `LinkUp` / `LinkDown` /
//! `NodeJoin` / `NodeLeave` events injected between communication rounds.
//!
//! The paper motivates DiMa with channel assignment in ad-hoc wireless
//! networks — a setting where the graph does not stand still. This module
//! supplies the *event* side of the dynamic-topology subsystem: a
//! [`ChurnPlan`] describes how much churn to inject and of which kinds,
//! and [`ChurnSchedule::generate`] expands it — purely from the plan's own
//! seed — into a sequence of [`ChurnBatch`]es, each pinned to a specific
//! communication round.
//!
//! A batch is its diff: the events plus the net per-node neighborhood
//! changes ([`NeighborhoodChange`]) they cause. Generated and live churn
//! share one staging path — the generator stages every drawn event
//! through an [`EventFeed`] and commits once per batch — and a commit
//! diffs only the nodes its events touched. The engine patches its own
//! [`crate::Topology`] from the diff ([`crate::Topology::apply`]); every
//! shard applies its slice of a batch at the top of the batch's round,
//! before any node is stepped — which is what keeps runs bit-identical
//! across shard counts under churn: there is no engine-side randomness or
//! order-dependence in the mutation path at all. Churn composes freely
//! with the [`crate::fault`] layer; fault decisions remain pure hashes of
//! `(seed, round, edge, k)`.
//!
//! A schedule generated with a given `(graph, plan)` is deterministic,
//! and generation is sequential in batch order, so the schedule for
//! `batches: k` is the first `k` batches of any longer one — tests
//! exploit this to verify the coloring at quiescence after *every* batch
//! by re-running each prefix.

use dima_graph::{DynGraph, Graph, GraphBuilder, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One primitive topology mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A new link appears between two alive nodes (endpoints ordered).
    LinkUp(VertexId, VertexId),
    /// An existing link disappears (endpoints ordered).
    LinkDown(VertexId, VertexId),
    /// A departed node rejoins the network (its attachments are recorded
    /// as separate [`ChurnEvent::LinkUp`] events in the same batch).
    NodeJoin(VertexId),
    /// A node leaves the network, dropping all its links.
    NodeLeave(VertexId),
}

/// Which event kinds a plan may generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnKinds {
    /// Allow `LinkUp` events.
    pub link_up: bool,
    /// Allow `LinkDown` events.
    pub link_down: bool,
    /// Allow `NodeJoin` events (only fire once some node has left).
    pub node_join: bool,
    /// Allow `NodeLeave` events.
    pub node_leave: bool,
}

impl ChurnKinds {
    /// All four kinds enabled.
    pub fn all() -> Self {
        ChurnKinds { link_up: true, link_down: true, node_join: true, node_leave: true }
    }

    /// Only link-level events (the node set stays fixed).
    pub fn links_only() -> Self {
        ChurnKinds { link_up: true, link_down: true, node_join: false, node_leave: false }
    }

    /// True if no kind is enabled.
    pub fn is_empty(&self) -> bool {
        !(self.link_up || self.link_down || self.node_join || self.node_leave)
    }
}

impl Default for ChurnKinds {
    fn default() -> Self {
        ChurnKinds::all()
    }
}

impl std::str::FromStr for ChurnKinds {
    type Err = String;

    /// Parse a comma-separated kind list: `up`, `down`, `join`, `leave`,
    /// or the shorthands `all` and `links`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "all" => return Ok(ChurnKinds::all()),
            "links" => return Ok(ChurnKinds::links_only()),
            _ => {}
        }
        let mut kinds =
            ChurnKinds { link_up: false, link_down: false, node_join: false, node_leave: false };
        for part in s.split(',') {
            match part.trim() {
                "up" => kinds.link_up = true,
                "down" => kinds.link_down = true,
                "join" => kinds.node_join = true,
                "leave" => kinds.node_leave = true,
                other => return Err(format!("unknown churn kind `{other}`")),
            }
        }
        if kinds.is_empty() {
            return Err("empty churn kind list".to_string());
        }
        Ok(kinds)
    }
}

/// A declarative description of how much churn to inject.
#[derive(Clone, Debug)]
pub struct ChurnPlan {
    /// Seed for the schedule's own RNG — independent of the engine seed,
    /// so the same churn can be replayed under different protocol runs.
    pub seed: u64,
    /// Expected events per batch as a fraction of the node count
    /// (`rate * n`, rounded, min 1). `0.0` yields an empty schedule.
    pub rate: f64,
    /// Which event kinds to generate.
    pub kinds: ChurnKinds,
    /// Number of mutation batches.
    pub batches: usize,
    /// Communication round of the first batch.
    pub first_round: u64,
    /// Rounds between consecutive batches (≥ 1).
    pub every: u64,
}

impl ChurnPlan {
    /// A plan with the given seed and rate; 4 batches, first at round 30,
    /// one every 30 communication rounds (10 computation rounds), all
    /// kinds enabled.
    pub fn new(seed: u64, rate: f64) -> Self {
        ChurnPlan { seed, rate, kinds: ChurnKinds::all(), batches: 4, first_round: 30, every: 30 }
    }
}

/// The net effect of one batch on a single surviving node's neighborhood.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NeighborhoodChange {
    /// Neighbors gained (sorted). For a node that just (re)joined, this
    /// is its entire new neighbor list.
    pub added: Vec<VertexId>,
    /// Neighbors lost (sorted) — includes neighbors that left.
    pub removed: Vec<VertexId>,
}

/// One mutation batch, applied by the engine at the top of round
/// [`ChurnBatch::round`], before any node is stepped. It carries only
/// the change: the topology it leads to lives in the engine, which
/// patches its own from the diff.
#[derive(Clone, Debug)]
pub struct ChurnBatch {
    /// The communication round this batch fires at.
    pub round: u64,
    /// The primitive events this batch was staged from (for reporting
    /// and journaling; the engine only consumes the diff below).
    pub events: Vec<ChurnEvent>,
    /// Nodes that (re)joined in this batch (dead → alive), sorted. The
    /// engine recreates their protocol instances via the factory; each
    /// join node also carries a [`ChurnBatch::changes`] entry listing its
    /// full new neighbor list as `added`.
    pub joins: Vec<VertexId>,
    /// Nodes that left in this batch (alive → dead), sorted. The engine
    /// parks them as done and empties their neighbor rows.
    pub leaves: Vec<VertexId>,
    /// Per-node net neighborhood diffs for surviving nodes (sorted by
    /// node id); delivered through `Protocol::on_topology_change`.
    /// Untouched nodes stay parked — repair traffic reaches them through
    /// wake-class messages (`Protocol::wakes`), not through the batch.
    pub changes: Vec<(VertexId, NeighborhoodChange)>,
}

impl ChurnBatch {
    /// Number of edges touched by this batch's net diff (an edge counted
    /// once even though it appears in both endpoints' changes).
    pub fn dirty_edges(&self) -> usize {
        let mut dirty = 0usize;
        for (v, change) in &self.changes {
            for &w in change.added.iter().chain(&change.removed) {
                // Count each undirected pair once; pairs where the other
                // endpoint has no change entry (it left/joined) are
                // attributed to the surviving side when `v > w` fails to
                // find a counterpart — so count (v, w) iff v < w or w has
                // no change entry of its own.
                if *v < w || self.changes.binary_search_by_key(&w, |(u, _)| *u).is_err() {
                    dirty += 1;
                }
            }
        }
        dirty
    }
}

/// A deterministic sequence of churn batches with strictly increasing
/// rounds, plus the one topology a run needs besides its start: the
/// graph after the last batch.
#[derive(Clone, Debug, Default)]
pub struct ChurnSchedule {
    batches: Vec<ChurnBatch>,
    /// The topology after the last batch (`None` without batches).
    final_graph: Option<Graph>,
    /// Maximum degree over the post-batch topologies (0 without batches).
    max_degree: usize,
}

impl ChurnSchedule {
    /// The empty schedule — running under it is exactly a static run.
    pub fn empty() -> Self {
        ChurnSchedule::default()
    }

    /// Assemble a schedule from the batches `feed` committed, in order,
    /// since it was built (e.g. the committed history of a live service
    /// session, re-run through [`crate::run`] as an independent
    /// cross-check). Batch rounds must be strictly increasing — the
    /// engine assumes it.
    pub fn from_feed(batches: Vec<ChurnBatch>, feed: &EventFeed) -> Self {
        assert!(
            batches.windows(2).all(|w| w[0].round < w[1].round),
            "batch rounds must be strictly increasing"
        );
        if batches.is_empty() {
            return ChurnSchedule::empty();
        }
        let final_graph = Some(feed.committed_graph());
        ChurnSchedule { batches, final_graph, max_degree: feed.peak_degree }
    }

    /// The batches, in firing order.
    pub fn batches(&self) -> &[ChurnBatch] {
        &self.batches
    }

    /// Number of batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// True if there are no batches.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Total primitive events across all batches.
    pub fn total_events(&self) -> usize {
        self.batches.iter().map(|b| b.events.len()).sum()
    }

    /// Round of the last batch, if any.
    pub fn last_round(&self) -> Option<u64> {
        self.batches.last().map(|b| b.round)
    }

    /// The topology after the final batch (`None` for an empty schedule,
    /// where the initial graph is also the final one).
    pub fn final_graph(&self) -> Option<&Graph> {
        self.final_graph.as_ref()
    }

    /// Maximum degree over all post-batch topologies.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Expand `plan` into a concrete batch sequence starting from `g0`.
    ///
    /// Deterministic in `(g0, plan)`. Every drawn event is staged through
    /// an [`EventFeed`], which commits once per batch; events the feed
    /// rejects (e.g. a duplicate `LinkUp`) are redrawn, and events that
    /// cannot be realised at all (a `NodeJoin` while every node is alive,
    /// a `LinkDown` on an edgeless graph) are skipped, so a batch may
    /// carry fewer events than the rate implies — or even none, in which
    /// case it is still emitted with an empty diff.
    pub fn generate(g0: &Graph, plan: &ChurnPlan) -> Self {
        assert!(plan.every >= 1, "batches must fire on distinct rounds");
        let n = g0.num_vertices();
        if n == 0 || plan.batches == 0 || plan.rate <= 0.0 || plan.kinds.is_empty() {
            return ChurnSchedule::empty();
        }
        let per_batch = ((plan.rate * n as f64).round() as usize).max(1);
        let mut kind_pool: Vec<u8> = Vec::new();
        if plan.kinds.link_up {
            kind_pool.push(0);
        }
        if plan.kinds.link_down {
            kind_pool.push(1);
        }
        if plan.kinds.node_join {
            kind_pool.push(2);
        }
        if plan.kinds.node_leave {
            kind_pool.push(3);
        }

        let mut rng = SmallRng::seed_from_u64(plan.seed);
        let mut feed = EventFeed::new(g0);
        // Departed nodes in id order, for the join draw.
        let mut dead: Vec<VertexId> = Vec::new();
        let mut batches = Vec::with_capacity(plan.batches);
        for b in 0..plan.batches {
            for _ in 0..per_batch {
                match kind_pool[rng.random_range(0..kind_pool.len())] {
                    0 => gen_link_up(&mut rng, &mut feed),
                    1 => gen_link_down(&mut rng, &mut feed),
                    2 => gen_node_join(&mut rng, &mut feed, &mut dead),
                    _ => gen_node_leave(&mut rng, &mut feed, &mut dead),
                }
            }
            batches.push(feed.seal(plan.first_round + b as u64 * plan.every));
        }
        ChurnSchedule::from_feed(batches, &feed)
    }
}

/// Attempts per event before giving up on finding a legal mutation.
const TRIES: usize = 24;

fn rand_vertex(rng: &mut SmallRng, n: usize) -> VertexId {
    VertexId(rng.random_range(0..n as u32))
}

fn gen_link_up(rng: &mut SmallRng, feed: &mut EventFeed) {
    let n = feed.graph.num_vertices();
    for _ in 0..TRIES {
        let u = rand_vertex(rng, n);
        let w = rand_vertex(rng, n);
        if feed.stage(ChurnEvent::LinkUp(u, w)).is_ok() {
            return;
        }
    }
}

fn gen_link_down(rng: &mut SmallRng, feed: &mut EventFeed) {
    for _ in 0..TRIES {
        let u = rand_vertex(rng, feed.graph.num_vertices());
        let deg = feed.graph.degree(u);
        if deg == 0 {
            continue;
        }
        let w = feed.graph.neighbors(u)[rng.random_range(0..deg)];
        feed.stage(ChurnEvent::LinkDown(u, w)).expect("a live link can go down");
        return;
    }
}

fn gen_node_join(rng: &mut SmallRng, feed: &mut EventFeed, dead: &mut Vec<VertexId>) {
    if dead.is_empty() {
        return;
    }
    let v = dead.remove(rng.random_range(0..dead.len()));
    feed.stage(ChurnEvent::NodeJoin(v)).expect("a departed node can rejoin");
    // Attach the newcomer to a few alive peers so it has work to do.
    let want = rng.random_range(1..=3u32);
    for _ in 0..want {
        for _ in 0..TRIES {
            let w = rand_vertex(rng, feed.graph.num_vertices());
            if feed.stage(ChurnEvent::LinkUp(v, w)).is_ok() {
                break;
            }
        }
    }
}

fn gen_node_leave(rng: &mut SmallRng, feed: &mut EventFeed, dead: &mut Vec<VertexId>) {
    // Keep at least two nodes alive so the run stays interesting.
    if feed.graph.num_alive() <= 2 {
        return;
    }
    for _ in 0..TRIES {
        let v = rand_vertex(rng, feed.graph.num_vertices());
        if feed.stage(ChurnEvent::NodeLeave(v)).is_ok() {
            let at = dead.binary_search(&v).unwrap_err();
            dead.insert(at, v);
            return;
        }
    }
}

/// Why a live topology event was rejected by [`EventFeed::stage`].
///
/// Rejection is a *validation* outcome, not a failure: the feed's graph
/// state is untouched and later events are unaffected — exactly what a
/// long-running ingest loop needs to survive malformed input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FeedError {
    /// An endpoint is outside the fixed vertex universe `0..n`.
    UnknownNode {
        /// The offending vertex id.
        node: VertexId,
        /// The universe size.
        num_vertices: usize,
    },
    /// A link event named the same vertex twice.
    SelfLoop(VertexId),
    /// `LinkUp` between endpoints that are already linked.
    DuplicateLink(VertexId, VertexId),
    /// `LinkDown` on a pair with no link between them.
    NoSuchLink(VertexId, VertexId),
    /// A link event touched a departed node (rejoin it first).
    EndpointDown(VertexId),
    /// `NodeJoin` for a node that is already alive.
    AlreadyAlive(VertexId),
    /// `NodeLeave` for a node that is already gone.
    AlreadyGone(VertexId),
}

impl std::fmt::Display for FeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedError::UnknownNode { node, num_vertices } => {
                write!(f, "unknown node {}: universe has {num_vertices} vertices", node.0)
            }
            FeedError::SelfLoop(v) => write!(f, "self-loop on node {}", v.0),
            FeedError::DuplicateLink(u, v) => {
                write!(f, "duplicate link-up: {}-{} already linked", u.0, v.0)
            }
            FeedError::NoSuchLink(u, v) => {
                write!(f, "link-down on absent link {}-{}", u.0, v.0)
            }
            FeedError::EndpointDown(v) => {
                write!(f, "endpoint {} has left the network", v.0)
            }
            FeedError::AlreadyAlive(v) => write!(f, "node {} is already alive", v.0),
            FeedError::AlreadyGone(v) => write!(f, "node {} has already left", v.0),
        }
    }
}

impl std::error::Error for FeedError {}

/// The staging path for all churn: topology events arrive one at a time
/// (from a socket, a file, an operator, or [`ChurnSchedule::generate`]'s
/// draws), each is validated against the current graph state, and
/// accepted events accumulate until [`EventFeed::commit`] turns them
/// into a [`ChurnBatch`] for the engine.
///
/// The feed keeps one graph — the staged state — plus the committed
/// row of every node a staged event touched, recorded at first touch.
/// A commit diffs just those nodes and forgets the records, so its cost
/// follows the batch, not the graph.
///
/// Inconsistent events ([`FeedError`]) are rejected without touching the
/// graph, so one bad line cannot poison the feed. The vertex universe is
/// fixed at construction (`0..n`, like everywhere else in the simulator);
/// `NodeJoin`/`NodeLeave` toggle liveness within it.
#[derive(Clone, Debug)]
pub struct EventFeed {
    /// Graph state including every staged (accepted, uncommitted) event.
    graph: DynGraph,
    staged: Vec<ChurnEvent>,
    /// Per-staged-event undo data, aligned with `staged`: the neighbor
    /// list a `NodeLeave` destroyed (empty for every other kind). Lets
    /// [`EventFeed::unstage_last`] reverse any event exactly.
    undo: Vec<Vec<VertexId>>,
    /// The committed state of each node touched since the last commit,
    /// in first-touch order. Unstaging leaves a record in place: the
    /// committed state it describes has not moved.
    touched: Vec<Touched>,
    /// The committed neighbor rows `touched` points into.
    rows: Vec<VertexId>,
    /// Per node, its index in `touched`, or [`UNTOUCHED`].
    touch_slot: Vec<u32>,
    /// Maximum degree over the committed states (0 before a commit).
    peak_degree: usize,
}

/// A node's committed state, recorded when a staged event first
/// touches it.
#[derive(Clone, Copy, Debug)]
struct Touched {
    node: VertexId,
    alive: bool,
    /// Its committed neighbor row, `rows[start..end]`.
    start: usize,
    end: usize,
}

const UNTOUCHED: u32 = u32::MAX;

impl EventFeed {
    /// Start a feed from the initial topology `g0`.
    pub fn new(g0: &Graph) -> Self {
        EventFeed::with_dead(g0, &[])
    }

    /// Start a feed from a topology in which the nodes listed in `dead`
    /// have already departed (their `g0` slots are isolated vertices).
    /// This is how a compacted service rebuilds its feed: the committed
    /// graph keeps the full `0..n` universe, and the dead set restores
    /// the liveness bits a plain [`EventFeed::new`] would lose.
    pub fn with_dead(g0: &Graph, dead: &[VertexId]) -> Self {
        let mut graph = DynGraph::from_graph(g0);
        for &v in dead {
            graph.remove_vertex(v);
        }
        EventFeed {
            touch_slot: vec![UNTOUCHED; graph.num_vertices()],
            graph,
            staged: Vec::new(),
            undo: Vec::new(),
            touched: Vec::new(),
            rows: Vec::new(),
            peak_degree: 0,
        }
    }

    /// Number of staged events awaiting [`EventFeed::commit`].
    pub fn staged(&self) -> usize {
        self.staged.len()
    }

    /// The staged events themselves, in acceptance order.
    pub fn staged_events(&self) -> &[ChurnEvent] {
        &self.staged
    }

    /// The committed liveness and neighbor row of `v`.
    fn committed(&self, v: VertexId) -> (bool, &[VertexId]) {
        match self.touch_slot[v.index()] {
            UNTOUCHED => (self.graph.is_alive(v), self.graph.neighbors(v)),
            slot => {
                let t = &self.touched[slot as usize];
                (t.alive, &self.rows[t.start..t.end])
            }
        }
    }

    /// The graph as of the last committed batch.
    pub fn committed_graph(&self) -> Graph {
        let n = self.graph.num_vertices();
        let mut b = GraphBuilder::with_capacity(n, self.graph.num_edges());
        for u in (0..n as u32).map(VertexId) {
            for &w in self.committed(u).1.iter().filter(|&&w| u < w) {
                b.add_edge(u, w);
            }
        }
        b.build().expect("the committed state is a simple graph")
    }

    /// Nodes that are dead in the *committed* state (sorted). Together
    /// with [`EventFeed::committed_graph`] — where departed nodes appear
    /// as isolated vertices — this fully describes the committed
    /// topology, e.g. for a materialized snapshot.
    pub fn committed_dead(&self) -> Vec<VertexId> {
        (0..self.graph.num_vertices() as u32)
            .map(VertexId)
            .filter(|&v| !self.committed(v).0)
            .collect()
    }

    /// Liveness of `v` in the *committed* state: O(1), unlike
    /// [`EventFeed::committed_dead`].
    pub fn committed_alive(&self, v: VertexId) -> bool {
        self.committed(v).0
    }

    /// Current (staged-inclusive) liveness of `v`.
    pub fn is_alive(&self, v: VertexId) -> bool {
        v.index() < self.graph.num_vertices() && self.graph.is_alive(v)
    }

    fn check_node(&self, v: VertexId) -> Result<(), FeedError> {
        if v.index() >= self.graph.num_vertices() {
            return Err(FeedError::UnknownNode {
                node: v,
                num_vertices: self.graph.num_vertices(),
            });
        }
        Ok(())
    }

    /// Record `v`'s committed state if no staged event has touched it
    /// yet. Called before the event that touches it mutates the graph.
    fn touch(&mut self, v: VertexId) {
        let slot = &mut self.touch_slot[v.index()];
        if *slot != UNTOUCHED {
            return;
        }
        *slot = self.touched.len() as u32;
        let start = self.rows.len();
        self.rows.extend_from_slice(self.graph.neighbors(v));
        let alive = self.graph.is_alive(v);
        self.touched.push(Touched { node: v, alive, start, end: self.rows.len() });
    }

    /// Validate `ev` against the staged graph state and stage it.
    /// Rejected events leave the feed untouched.
    pub fn stage(&mut self, ev: ChurnEvent) -> Result<(), FeedError> {
        let mut undo = Vec::new();
        let ev = match ev {
            ChurnEvent::LinkUp(u, v) => {
                self.check_node(u)?;
                self.check_node(v)?;
                if u == v {
                    return Err(FeedError::SelfLoop(u));
                }
                for w in [u, v] {
                    if !self.graph.is_alive(w) {
                        return Err(FeedError::EndpointDown(w));
                    }
                }
                if self.graph.has_edge(u, v) {
                    return Err(FeedError::DuplicateLink(u.min(v), u.max(v)));
                }
                self.touch(u);
                self.touch(v);
                self.graph.insert_edge(u, v);
                ChurnEvent::LinkUp(u.min(v), u.max(v))
            }
            ChurnEvent::LinkDown(u, v) => {
                self.check_node(u)?;
                self.check_node(v)?;
                if u == v {
                    return Err(FeedError::SelfLoop(u));
                }
                if !self.graph.has_edge(u, v) {
                    return Err(FeedError::NoSuchLink(u.min(v), u.max(v)));
                }
                self.touch(u);
                self.touch(v);
                self.graph.remove_edge(u, v);
                ChurnEvent::LinkDown(u.min(v), u.max(v))
            }
            ChurnEvent::NodeJoin(v) => {
                self.check_node(v)?;
                if self.graph.is_alive(v) {
                    return Err(FeedError::AlreadyAlive(v));
                }
                self.touch(v);
                self.graph.restore_vertex(v);
                ev
            }
            ChurnEvent::NodeLeave(v) => {
                self.check_node(v)?;
                if !self.graph.is_alive(v) {
                    return Err(FeedError::AlreadyGone(v));
                }
                self.touch(v);
                for k in 0..self.graph.degree(v) {
                    self.touch(self.graph.neighbors(v)[k]);
                }
                undo = self.graph.remove_vertex(v);
                ev
            }
        };
        self.staged.push(ev);
        self.undo.push(undo);
        Ok(())
    }

    /// Turn the staged events into a [`ChurnBatch`] firing at `round`
    /// and advance the committed state. Returns `None` when nothing is
    /// staged (the engine never sees empty batches from a feed).
    pub fn commit(&mut self, round: u64) -> Option<ChurnBatch> {
        (!self.staged.is_empty()).then(|| self.seal(round))
    }

    /// [`EventFeed::commit`], empty or not: the net diff of every touched
    /// node between its recorded committed state and the staged graph,
    /// in id order. Untouched nodes cannot have changed.
    fn seal(&mut self, round: u64) -> ChurnBatch {
        let events = std::mem::take(&mut self.staged);
        self.undo.clear();
        self.touched.sort_unstable_by_key(|t| t.node);
        let (mut joins, mut leaves, mut changes) = (Vec::new(), Vec::new(), Vec::new());
        for t in &self.touched {
            let v = t.node;
            self.touch_slot[v.index()] = UNTOUCHED;
            let (was, now) = (&self.rows[t.start..t.end], self.graph.neighbors(v));
            match (t.alive, self.graph.is_alive(v)) {
                (true, false) => leaves.push(v),
                (false, true) => {
                    joins.push(v);
                    // A join node's change entry carries its full neighbor
                    // list so the recreated protocol can greet everyone.
                    changes
                        .push((v, NeighborhoodChange { added: now.to_vec(), removed: Vec::new() }));
                }
                (true, true) => {
                    let added = set_minus(now, was);
                    let removed = set_minus(was, now);
                    if !added.is_empty() || !removed.is_empty() {
                        changes.push((v, NeighborhoodChange { added, removed }));
                    }
                }
                (false, false) => {}
            }
        }
        self.touched.clear();
        self.rows.clear();
        self.peak_degree = self.peak_degree.max(self.graph.max_degree());
        ChurnBatch { round, events, joins, leaves, changes }
    }

    /// Reverse the most recently staged event, restoring the graph state
    /// to exactly what it was before that [`EventFeed::stage`] call.
    /// Returns the event, or `None` when nothing is staged.
    ///
    /// This is the durability back-out: an ingest loop that accepted an
    /// event but then failed to journal it (disk full, I/O error) can
    /// reject the event instead of holding state it cannot persist.
    pub fn unstage_last(&mut self) -> Option<ChurnEvent> {
        let ev = self.staged.pop()?;
        let undo = self.undo.pop().unwrap_or_default();
        match ev {
            ChurnEvent::LinkUp(u, v) => {
                self.graph.remove_edge(u, v);
            }
            ChurnEvent::LinkDown(u, v) => {
                self.graph.insert_edge(u, v);
            }
            // A staged join has no attachments yet (they arrive as
            // separate LinkUp events, undone before this one).
            ChurnEvent::NodeJoin(v) => {
                self.graph.remove_vertex(v);
            }
            ChurnEvent::NodeLeave(v) => {
                self.graph.restore_vertex(v);
                for w in undo {
                    self.graph.insert_edge(v, w);
                }
            }
        }
        Some(ev)
    }
}

/// Elements of sorted slice `a` not present in sorted slice `b`.
fn set_minus(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    a.iter().copied().filter(|x| b.binary_search(x).is_err()).collect()
}

/// Apply `events` to `g` directly, with no feed in between: the
/// independent replay the churn oracles compare the feed's diffs and the
/// engine's patched topology against.
#[cfg(test)]
pub(crate) fn replay(g: &mut DynGraph, events: &[ChurnEvent]) {
    for &ev in events {
        let applied = match ev {
            ChurnEvent::LinkUp(u, v) => g.insert_edge(u, v),
            ChurnEvent::LinkDown(u, v) => g.remove_edge(u, v),
            ChurnEvent::NodeJoin(v) => g.restore_vertex(v),
            ChurnEvent::NodeLeave(v) => {
                let alive = g.is_alive(v);
                g.remove_vertex(v);
                alive
            }
        };
        assert!(applied, "{ev:?} does not apply");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use dima_graph::gen::{erdos_renyi_gnm, structured};

    fn er(n: usize, m: usize, seed: u64) -> Graph {
        erdos_renyi_gnm(n, m, &mut SmallRng::seed_from_u64(seed)).expect("valid parameters")
    }

    fn plan(seed: u64, rate: f64) -> ChurnPlan {
        ChurnPlan::new(seed, rate)
    }

    #[test]
    fn generation_is_deterministic() {
        let g = er(30, 60, 7);
        let a = ChurnSchedule::generate(&g, &plan(5, 0.2));
        let b = ChurnSchedule::generate(&g, &plan(5, 0.2));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.batches().iter().zip(b.batches()) {
            assert_eq!(x.round, y.round);
            assert_eq!(x.events, y.events);
            assert_eq!(x.joins, y.joins);
            assert_eq!(x.leaves, y.leaves);
            assert_eq!(x.changes, y.changes);
        }
    }

    #[test]
    fn shorter_plans_generate_prefixes() {
        let g = er(24, 50, 9);
        let full = ChurnSchedule::generate(&g, &ChurnPlan { batches: 6, ..plan(11, 0.3) });
        for k in 0..=6 {
            let direct = ChurnSchedule::generate(&g, &ChurnPlan { batches: k, ..plan(11, 0.3) });
            assert_eq!(direct.len(), k);
            for (x, y) in direct.batches().iter().zip(full.batches()) {
                assert_eq!(x.events, y.events);
                assert_eq!(x.changes, y.changes);
            }
        }
    }

    /// The whole-graph net diff of two topology states — every vertex
    /// compared — as the reference for the feed's touched-node diff.
    fn reference_diff(
        prev: &DynGraph,
        now: &DynGraph,
    ) -> (Vec<VertexId>, Vec<VertexId>, Vec<(VertexId, NeighborhoodChange)>) {
        let mut joins = Vec::new();
        let mut leaves = Vec::new();
        let mut changes = Vec::new();
        for i in 0..prev.num_vertices() as u32 {
            let v = VertexId(i);
            match (prev.is_alive(v), now.is_alive(v)) {
                (true, false) => leaves.push(v),
                (false, true) => {
                    joins.push(v);
                    changes.push((
                        v,
                        NeighborhoodChange {
                            added: now.neighbors(v).to_vec(),
                            removed: Vec::new(),
                        },
                    ));
                }
                (true, true) => {
                    let added = set_minus(now.neighbors(v), prev.neighbors(v));
                    let removed = set_minus(prev.neighbors(v), now.neighbors(v));
                    if !added.is_empty() || !removed.is_empty() {
                        changes.push((v, NeighborhoodChange { added, removed }));
                    }
                }
                (false, false) => {}
            }
        }
        (joins, leaves, changes)
    }

    fn assert_diff_matches(batch: &ChurnBatch, prev: &DynGraph, now: &DynGraph) {
        let (joins, leaves, changes) = reference_diff(prev, now);
        assert_eq!(batch.joins, joins, "joins at round {}", batch.round);
        assert_eq!(batch.leaves, leaves, "leaves at round {}", batch.round);
        assert_eq!(batch.changes, changes, "changes at round {}", batch.round);
    }

    #[test]
    fn batches_match_an_independent_replay() {
        // After every batch of every generated schedule: the feed's
        // touched-node diff is the whole-graph diff of a replay of the
        // batch's events, the patched topology is the replay's, and the
        // schedule's final graph and peak Δ are the replay's too.
        let g = er(40, 90, 3);
        let kinds = [ChurnKinds::all(), ChurnKinds::links_only(), "leave,join".parse().unwrap()];
        for seed in 0..12u64 {
            for kinds in kinds {
                let p = ChurnPlan { kinds, batches: 6, ..plan(seed, 0.2) };
                let schedule = ChurnSchedule::generate(&g, &p);
                let mut replayed = DynGraph::from_graph(&g);
                let mut topo = Topology::from_graph(&g);
                let mut peak = 0;
                for batch in schedule.batches() {
                    let prev = replayed.clone();
                    replay(&mut replayed, &batch.events);
                    assert_diff_matches(batch, &prev, &replayed);
                    topo.apply(batch);
                    assert_eq!(topo, Topology::from_graph(&replayed.snapshot()));
                    peak = peak.max(replayed.max_degree());
                }
                let last = schedule.final_graph().expect("six batches");
                assert_eq!(last.num_edges(), replayed.num_edges());
                assert!(last.edges().all(|(_, (a, b))| replayed.has_edge(a, b)));
                assert_eq!(schedule.max_degree(), peak);
            }
        }
    }

    #[test]
    fn feed_diff_covers_rejoins_and_unstaged_events() {
        let v = |i| VertexId(i);
        let g = structured::cycle(8); // 0-1-2-3-4-5-6-7-0
        let mut feed = EventFeed::new(&g);
        let mut committed = DynGraph::from_graph(&g);
        let events = [
            // 2 leaves and rejoins with other neighbors in one batch.
            ChurnEvent::NodeLeave(v(2)),
            ChurnEvent::NodeJoin(v(2)),
            ChurnEvent::LinkUp(v(2), v(5)),
            ChurnEvent::LinkUp(v(1), v(2)),
            // 6 leaves for good; a link comes and goes.
            ChurnEvent::NodeLeave(v(6)),
            ChurnEvent::LinkUp(v(0), v(4)),
            ChurnEvent::LinkDown(v(0), v(4)),
        ];
        for ev in events {
            feed.stage(ev).unwrap();
        }
        // Staged-then-unstaged events touch nodes without changing them.
        feed.stage(ChurnEvent::NodeLeave(v(4))).unwrap();
        feed.stage(ChurnEvent::LinkDown(v(0), v(7))).unwrap();
        feed.unstage_last();
        feed.unstage_last();
        // The committed view ignores everything staged.
        assert_eq!(feed.committed_graph().num_edges(), 8);
        assert!(feed.committed_dead().is_empty());

        let batch = feed.commit(5).unwrap();
        let prev = committed.clone();
        replay(&mut committed, &events);
        assert_diff_matches(&batch, &prev, &committed);
        assert_eq!(batch.leaves, vec![v(6)]);
        assert!(batch.joins.is_empty(), "a leave-and-rejoin is a change, not a join");
        let (_, two) = batch.changes.iter().find(|(u, _)| *u == v(2)).unwrap();
        assert_eq!((two.added.as_slice(), two.removed.as_slice()), (&[v(5)][..], &[v(3)][..]));
        assert_eq!(feed.committed_dead(), vec![v(6)]);

        // The next batch diffs against the advanced committed state.
        let events = [ChurnEvent::NodeJoin(v(6)), ChurnEvent::LinkUp(v(6), v(0))];
        for ev in events {
            feed.stage(ev).unwrap();
        }
        let batch = feed.commit(6).unwrap();
        let prev = committed.clone();
        replay(&mut committed, &events);
        assert_diff_matches(&batch, &prev, &committed);
        assert_eq!(batch.joins, vec![v(6)]);
        assert!(feed.committed_dead().is_empty());
    }

    #[test]
    fn diffs_are_consistent_with_snapshots() {
        let g = er(40, 90, 3);
        let schedule = ChurnSchedule::generate(&g, &ChurnPlan { batches: 5, ..plan(17, 0.25) });
        assert_eq!(schedule.len(), 5);
        let mut replayed = DynGraph::from_graph(&g);
        for batch in schedule.batches() {
            let prev = replayed.snapshot();
            replay(&mut replayed, &batch.events);
            let now = replayed.snapshot();
            // Every change entry matches the snapshot pair.
            for (v, change) in &batch.changes {
                for &w in &change.added {
                    assert!(now.has_edge(*v, w), "added edge must exist after");
                }
                for &w in &change.removed {
                    assert!(!now.has_edge(*v, w), "removed edge must be gone");
                    assert!(prev.has_edge(*v, w), "removed edge existed before");
                }
            }
            // Leave nodes are isolated afterwards; joins have the degree
            // their change entry promises.
            for &v in &batch.leaves {
                assert_eq!(now.degree(v), 0);
            }
            for &v in &batch.joins {
                let (_, change) =
                    batch.changes.iter().find(|(u, _)| u == &v).expect("join has a change entry");
                assert_eq!(now.degree(v), change.added.len());
            }
        }
    }

    #[test]
    fn rounds_strictly_increase_and_respect_plan() {
        let g = structured::cycle(10);
        let p = ChurnPlan { batches: 4, first_round: 9, every: 6, ..plan(1, 0.5) };
        let schedule = ChurnSchedule::generate(&g, &p);
        let rounds: Vec<u64> = schedule.batches().iter().map(|b| b.round).collect();
        assert_eq!(rounds, vec![9, 15, 21, 27]);
        assert_eq!(schedule.last_round(), Some(27));
    }

    #[test]
    fn links_only_keeps_node_set_fixed() {
        let g = er(20, 40, 5);
        let p = ChurnPlan { kinds: ChurnKinds::links_only(), batches: 6, ..plan(23, 0.4) };
        let schedule = ChurnSchedule::generate(&g, &p);
        for batch in schedule.batches() {
            assert!(batch.joins.is_empty());
            assert!(batch.leaves.is_empty());
        }
    }

    #[test]
    fn empty_plans_yield_empty_schedules() {
        let g = structured::path(5);
        assert!(ChurnSchedule::generate(&g, &plan(1, 0.0)).is_empty());
        assert!(ChurnSchedule::generate(&g, &ChurnPlan { batches: 0, ..plan(1, 0.5) }).is_empty());
        assert!(ChurnSchedule::generate(&Graph::empty(0), &plan(1, 0.5)).is_empty());
        assert!(ChurnSchedule::empty().final_graph().is_none());
    }

    #[test]
    fn feed_replays_generated_schedules_batch_for_batch() {
        // Staging a generated schedule's events through the live feed
        // must compile the very same batches the generator emitted.
        let g = er(25, 50, 13);
        let schedule =
            ChurnSchedule::generate(&g, &ChurnPlan { batches: 5, ..ChurnPlan::new(3, 0.3) });
        let mut feed = EventFeed::new(&g);
        for batch in schedule.batches() {
            for &ev in &batch.events {
                feed.stage(ev).expect("generated events are always consistent");
            }
            if batch.events.is_empty() {
                assert!(feed.commit(batch.round).is_none());
                continue;
            }
            let live = feed.commit(batch.round).expect("staged events present");
            assert_eq!(live.round, batch.round);
            assert_eq!(live.events, batch.events);
            assert_eq!(live.joins, batch.joins);
            assert_eq!(live.leaves, batch.leaves);
            assert_eq!(live.changes, batch.changes);
        }
        assert_eq!(feed.committed_graph(), *schedule.final_graph().unwrap());
    }

    #[test]
    fn feed_rejects_inconsistent_events_without_poisoning_state() {
        let g = structured::path(4); // 0-1-2-3
        let mut feed = EventFeed::new(&g);
        let v = |i| VertexId(i);
        assert_eq!(
            feed.stage(ChurnEvent::LinkUp(v(0), v(9))),
            Err(FeedError::UnknownNode { node: v(9), num_vertices: 4 })
        );
        assert_eq!(feed.stage(ChurnEvent::LinkUp(v(2), v(2))), Err(FeedError::SelfLoop(v(2))));
        assert_eq!(
            feed.stage(ChurnEvent::LinkUp(v(1), v(0))),
            Err(FeedError::DuplicateLink(v(0), v(1)))
        );
        assert_eq!(
            feed.stage(ChurnEvent::LinkDown(v(0), v(3))),
            Err(FeedError::NoSuchLink(v(0), v(3)))
        );
        assert_eq!(feed.stage(ChurnEvent::NodeJoin(v(2))), Err(FeedError::AlreadyAlive(v(2))));
        // None of the rejections touched the graph or staged anything.
        assert_eq!(feed.staged(), 0);
        // A valid sequence still works afterwards.
        feed.stage(ChurnEvent::NodeLeave(v(3))).unwrap();
        assert_eq!(feed.stage(ChurnEvent::NodeLeave(v(3))), Err(FeedError::AlreadyGone(v(3))));
        assert_eq!(feed.stage(ChurnEvent::LinkUp(v(2), v(3))), Err(FeedError::EndpointDown(v(3))));
        feed.stage(ChurnEvent::LinkUp(v(0), v(2))).unwrap();
        let batch = feed.commit(7).unwrap();
        assert_eq!(batch.round, 7);
        assert_eq!(batch.events.len(), 2);
        assert_eq!(batch.leaves, vec![v(3)]);
        // Committed state advanced; staging resumes from it.
        assert_eq!(feed.staged(), 0);
        let committed = feed.committed_graph();
        assert!(committed.has_edge(v(0), v(2)));
        assert_eq!(committed.num_edges(), 3);
    }

    #[test]
    fn unstage_last_reverses_every_event_kind() {
        let g = structured::path(5); // 0-1-2-3-4
        let v = |i| VertexId(i);
        let mut feed = EventFeed::new(&g);
        let edges0 = feed.committed_graph().num_edges();

        // LinkUp then back out.
        feed.stage(ChurnEvent::LinkUp(v(0), v(3))).unwrap();
        assert_eq!(feed.unstage_last(), Some(ChurnEvent::LinkUp(v(0), v(3))));
        assert_eq!(feed.staged(), 0);
        // LinkDown then back out: the link is live again.
        feed.stage(ChurnEvent::LinkDown(v(1), v(2))).unwrap();
        assert_eq!(feed.unstage_last(), Some(ChurnEvent::LinkDown(v(1), v(2))));
        assert_eq!(feed.stage(ChurnEvent::LinkDown(v(1), v(2))), Ok(()));
        assert_eq!(feed.unstage_last(), Some(ChurnEvent::LinkDown(v(1), v(2))));
        // NodeLeave then back out: liveness and *all* incident edges
        // return, so a duplicate link-up is rejected as before.
        feed.stage(ChurnEvent::NodeLeave(v(2))).unwrap();
        assert_eq!(feed.unstage_last(), Some(ChurnEvent::NodeLeave(v(2))));
        assert!(feed.is_alive(v(2)));
        assert_eq!(
            feed.stage(ChurnEvent::LinkUp(v(1), v(2))),
            Err(FeedError::DuplicateLink(v(1), v(2)))
        );
        // Join then back out (leave 4 first so the join is legal).
        feed.stage(ChurnEvent::NodeLeave(v(4))).unwrap();
        feed.stage(ChurnEvent::NodeJoin(v(4))).unwrap();
        assert_eq!(feed.unstage_last(), Some(ChurnEvent::NodeJoin(v(4))));
        assert!(!feed.is_alive(v(4)));
        assert_eq!(feed.unstage_last(), Some(ChurnEvent::NodeLeave(v(4))));
        assert!(feed.is_alive(v(4)));

        // After all the churn the feed is back at g0: committing after a
        // fresh round-trip event yields the same edge count as g0.
        assert_eq!(feed.staged(), 0);
        assert_eq!(feed.committed_graph().num_edges(), edges0);
        assert_eq!(feed.unstage_last(), None);
    }

    #[test]
    fn with_dead_marks_nodes_departed() {
        let v = |i| VertexId(i);
        // Pretend node 3 left earlier: its slot exists but is dead.
        let committed = Graph::from_edges(4, [(v(0), v(1)), (v(1), v(2))]).unwrap();
        let feed = EventFeed::with_dead(&committed, &[v(3)]);
        assert!(!feed.is_alive(v(3)));
        assert_eq!(feed.committed_dead(), vec![v(3)]);
        let mut feed = feed;
        assert_eq!(feed.stage(ChurnEvent::LinkUp(v(0), v(3))), Err(FeedError::EndpointDown(v(3))));
        feed.stage(ChurnEvent::NodeJoin(v(3))).unwrap();
        assert!(feed.is_alive(v(3)));
    }

    #[test]
    fn kind_parsing() {
        use std::str::FromStr;
        assert_eq!(ChurnKinds::from_str("all").unwrap(), ChurnKinds::all());
        assert_eq!(ChurnKinds::from_str("links").unwrap(), ChurnKinds::links_only());
        let updown = ChurnKinds::from_str("up,down").unwrap();
        assert!(updown.link_up && updown.link_down && !updown.node_join && !updown.node_leave);
        assert!(ChurnKinds::from_str("up,bogus").is_err());
        assert!(ChurnKinds::from_str("").is_err());
    }
}
