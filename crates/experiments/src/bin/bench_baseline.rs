//! Headless engine benchmark: the repo's perf trajectory starts here.
//!
//! Runs the criterion `engines` scenarios (and a broadcast-heavy gossip
//! scenario that stresses the message plane directly) without the
//! criterion harness, so CI and the BENCH_*.json trajectory can record
//! wall-clock numbers from a plain `cargo run --release`. Output is a
//! single JSON document; pass `--before <path>` (a previous run of this
//! bin) to embed that snapshot and per-scenario speedup ratios, or
//! `--compare <path>` to do the same while interleaving the reps
//! round-robin across scenarios — slow thermal or frequency drift then
//! lands on every scenario equally instead of biasing whichever ran
//! last. Feed the result and its predecessor to `bench_diff` for a
//! noise-aware verdict.
//!
//! ```text
//! bench_baseline [--quick] [--out PATH] [--label NAME] [--before PATH]
//!                [--compare PATH] [--only SUBSTRING] [--threads N]
//!                [--oversubscribe]
//! ```
//!
//! Multi-shard scenarios are named after their width (`color_par4`,
//! `thread_sweep_t8`); the default width is a constant, not the host's
//! core count, so the same names appear in every snapshot. The `*_seq`
//! scenarios run the same engine on 1 shard; they keep their names so
//! `bench_diff` compares like with like across snapshots. An explicit
//! `--threads` larger than the host's parallelism is refused unless
//! `--oversubscribe` is passed — a silently clamped run would publish
//! numbers that don't match its scenario names.

use dima_core::{
    color_edges, ColorReduction, ColoringConfig, ColoringService, Engine, KempeConfig,
    ServeProtocol, ServiceConfig, Transport,
};
use dima_graph::gen::GraphFamily;
use dima_graph::{Graph, VertexId};
use dima_sim::fault::FaultPlan;
use dima_sim::telemetry::{BatchSample, NoopTracer, SloRecorder, TraceMeta, TraceWriter};
use dima_sim::{
    run, ChurnEvent, ChurnSchedule, EngineConfig, NodeSeed, NodeStatus, Protocol, RoundCtx, Shared,
    Topology,
};
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// One measured scenario: name plus wall-clock stats over `reps` runs.
/// The optional percentile pair carries per-batch latency for service
/// scenarios (`serve_slo`); plain throughput scenarios leave it unset.
struct Measurement {
    name: String,
    reps: usize,
    mean_ms: f64,
    min_ms: f64,
    max_ms: f64,
    p50_ms: Option<f64>,
    p99_ms: Option<f64>,
}

/// Post-measurement hook (serve_slo attaches its percentile report).
type PostHook<'a> = Box<dyn FnMut(&mut Measurement) + 'a>;

/// A scenario staged but not yet timed: the driver owns the rep loop so
/// `--compare` can interleave reps across scenarios instead of running
/// each scenario's reps back to back.
struct Scenario<'a> {
    name: String,
    reps: usize,
    run: Box<dyn FnMut(u64) + 'a>,
    post: Option<PostHook<'a>>,
}

impl<'a> Scenario<'a> {
    fn new(name: &str, reps: usize, run: impl FnMut(u64) + 'a) -> Self {
        Scenario { name: name.to_string(), reps, run: Box::new(run), post: None }
    }
}

/// Time every scenario. In consecutive order (the default) each
/// scenario's reps run back to back; under `interleave` the driver
/// round-robins single reps across all scenarios, so drift over the
/// session's wall-clock (thermal throttling, a noisy neighbor) averages
/// into every scenario instead of penalizing the ones measured last —
/// the property that makes before/after comparisons on one host fair.
fn run_scenarios(mut scenarios: Vec<Scenario<'_>>, interleave: bool) -> Vec<Measurement> {
    let mut times: Vec<Vec<f64>> = scenarios.iter().map(|s| Vec::with_capacity(s.reps)).collect();
    // Warm-up rep for each (page in the graph, size allocator pools).
    for s in &mut scenarios {
        (s.run)(0);
    }
    let time_one = |s: &mut Scenario<'_>, rep: usize, times: &mut Vec<f64>| {
        let t0 = Instant::now();
        (s.run)(rep as u64 + 1);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    };
    if interleave {
        let max_reps = scenarios.iter().map(|s| s.reps).max().unwrap_or(0);
        for rep in 0..max_reps {
            for (s, times) in scenarios.iter_mut().zip(times.iter_mut()) {
                if rep < s.reps {
                    time_one(s, rep, times);
                }
            }
        }
    } else {
        for (s, times) in scenarios.iter_mut().zip(times.iter_mut()) {
            for rep in 0..s.reps {
                time_one(s, rep, times);
            }
        }
    }
    scenarios
        .iter_mut()
        .zip(times)
        .map(|(s, times)| {
            let (mut min, mut max, mut sum) = (f64::INFINITY, 0.0f64, 0.0f64);
            for &t in &times {
                min = min.min(t);
                max = max.max(t);
                sum += t;
            }
            let mut m = Measurement {
                name: s.name.clone(),
                reps: s.reps,
                mean_ms: sum / s.reps as f64,
                min_ms: min,
                max_ms: max,
                p50_ms: None,
                p99_ms: None,
            };
            eprintln!(
                "  {:<24} mean {:9.3} ms  (min {:.3}, max {:.3}, reps {})",
                m.name, m.mean_ms, m.min_ms, m.max_ms, m.reps
            );
            if let Some(post) = &mut s.post {
                post(&mut m);
            }
            m
        })
        .collect()
}

/// Broadcast-heavy protocol: every node floods a fixed-size `Vec<u64>`
/// payload to all neighbors each round and folds the inbox into a digest.
/// On a dense graph this is the message plane's worst case — one logical
/// broadcast fans out to `d` envelopes per node per round — so the
/// payload rides in a [`Shared`] handle: the fan-out clones are refcount
/// bumps on one allocation instead of `d` deep copies.
struct Gossip {
    rounds: u64,
    payload: Shared<Vec<u64>>,
    digest: u64,
}

impl Protocol for Gossip {
    type Msg = Shared<Vec<u64>>;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) -> NodeStatus {
        for env in ctx.inbox() {
            self.digest = self.digest.wrapping_add(env.msg().iter().sum::<u64>());
        }
        if ctx.round() >= self.rounds {
            return NodeStatus::Done;
        }
        ctx.broadcast(self.payload.clone());
        NodeStatus::Active
    }
}

/// Small-payload variant of [`Gossip`]: a bare `u64` per broadcast, the
/// same message shape as the coloring protocols (cheap-to-copy enums).
/// Stresses the plane's per-delivery overhead rather than payload
/// cloning.
struct SmallGossip {
    rounds: u64,
    digest: u64,
}

impl Protocol for SmallGossip {
    type Msg = u64;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) -> NodeStatus {
        for env in ctx.inbox() {
            self.digest = self.digest.wrapping_add(*env.msg());
        }
        if ctx.round() >= self.rounds {
            return NodeStatus::Done;
        }
        ctx.broadcast(self.digest ^ ctx.node().0 as u64);
        NodeStatus::Active
    }
}

fn small_gossip_scenario<'a>(
    name: &str,
    topo: &'a Topology,
    rounds: u64,
    threads: usize,
    reps: usize,
) -> Scenario<'a> {
    Scenario::new(name, reps, move |rep| {
        let cfg =
            EngineConfig { seed: 0x5AA + rep, max_rounds: rounds + 4, ..EngineConfig::default() };
        let factory = |seed: NodeSeed<'_>| SmallGossip { rounds, digest: seed.node.0 as u64 };
        let outcome = run(topo, &cfg, threads, &ChurnSchedule::empty(), factory, &mut NoopTracer)
            .expect("gossip run");
        black_box(outcome.nodes.iter().map(|n| n.digest).fold(0u64, u64::wrapping_add));
    })
}

fn er_avg(n: usize, avg_degree: f64, seed: u64) -> Graph {
    GraphFamily::ErdosRenyiAvgDegree { n, avg_degree }
        .sample(&mut SmallRng::seed_from_u64(seed))
        .expect("valid family")
}

/// `metrics` turns the deterministic metrics plane on — paired with the
/// plain run it pins the enabled-metrics overhead budget (satellite of
/// the observability plane: counting must cost ~nothing).
fn gossip_scenario<'a>(
    name: &str,
    topo: &'a Topology,
    rounds: u64,
    payload_len: usize,
    threads: usize,
    metrics: bool,
    reps: usize,
) -> Scenario<'a> {
    Scenario::new(name, reps, move |rep| {
        let cfg = EngineConfig {
            seed: 0xB0A5 + rep,
            max_rounds: rounds + 4,
            metrics,
            ..EngineConfig::default()
        };
        let factory = |seed: NodeSeed<'_>| Gossip {
            rounds,
            payload: Shared::new((0..payload_len as u64).map(|i| i ^ seed.node.0 as u64).collect()),
            digest: 0,
        };
        let outcome = run(topo, &cfg, threads, &ChurnSchedule::empty(), factory, &mut NoopTracer)
            .expect("gossip run");
        black_box(outcome.stats.metrics.is_some());
        black_box(outcome.nodes.iter().map(|n| n.digest).fold(0u64, u64::wrapping_add));
    })
}

/// [`gossip_scenario`] with a 1-in-`sample` JSONL trace attached,
/// streaming into `io::sink()` so the measurement isolates the
/// telemetry plane's CPU cost (event construction, sampling filter,
/// serialization) from disk throughput. Paired with
/// `dense_broadcast_seq` to pin the sampled-tracing overhead budget.
fn gossip_traced_scenario<'a>(
    name: &str,
    topo: &'a Topology,
    rounds: u64,
    payload_len: usize,
    sample: u32,
    reps: usize,
) -> Scenario<'a> {
    Scenario::new(name, reps, move |rep| {
        let cfg =
            EngineConfig { seed: 0xB0A5 + rep, max_rounds: rounds + 4, ..EngineConfig::default() };
        let factory = |seed: NodeSeed<'_>| Gossip {
            rounds,
            payload: Shared::new((0..payload_len as u64).map(|i| i ^ seed.node.0 as u64).collect()),
            digest: 0,
        };
        let meta = TraceMeta {
            workload: "dense-broadcast".into(),
            graph: "bench".into(),
            seed: cfg.seed,
            nodes: topo.num_nodes() as u64,
            engine: "seq".into(),
            threads: 1,
            sample,
        };
        let mut w = TraceWriter::new(std::io::sink(), &meta);
        let outcome =
            run(topo, &cfg, 1, &ChurnSchedule::empty(), factory, &mut w).expect("gossip run");
        black_box(w.events_written());
        black_box(outcome.nodes.iter().map(|n| n.digest).fold(0u64, u64::wrapping_add));
    })
}

fn coloring_scenario<'a>(
    name: &str,
    g: &'a Graph,
    engine: Engine,
    transport: Transport,
    faults: FaultPlan,
    reps: usize,
) -> Scenario<'a> {
    Scenario::new(name, reps, move |rep| {
        let cfg = ColoringConfig {
            engine,
            transport,
            faults: faults.clone(),
            ..ColoringConfig::seeded(0xC01 + rep)
        };
        let r = color_edges(g, &cfg).expect("coloring run");
        black_box(r.colors_used);
    })
}

/// The Kempe post-pass on its stress case: random 9-regular graphs,
/// where bare DiMaEC overshoots Δ+1 and the compaction is carried by
/// long alternating chains (the base coloring run is included — the
/// interesting figure is the marginal cost over `color_seq`-style runs
/// on a graph this size).
fn kempe_scenario<'a>(name: &str, g: &'a Graph, reps: usize) -> Scenario<'a> {
    Scenario::new(name, reps, move |rep| {
        let cfg = ColoringConfig {
            reduction: ColorReduction::Kempe(KempeConfig::default()),
            ..ColoringConfig::seeded(0xC01 + rep)
        };
        let r = color_edges(g, &cfg).expect("coloring run");
        black_box((r.colors_used, r.reduction.map(|k| k.colors_saved())));
    })
}

/// The serve-mode SLO scenario: a [`ColoringService`] absorbing a fixed
/// churn session (batches of validated random events, each committed at
/// quiescence and repaired to convergence). `mean_ms` is the whole
/// session; `p50_ms`/`p99_ms` are the per-batch repair latencies the
/// service plane is judged on.
fn serve_slo_scenario<'a>(
    name: &str,
    g: &'a Graph,
    batches: usize,
    events_per_batch: usize,
    reps: usize,
) -> Scenario<'a> {
    let n = g.num_vertices() as u32;
    let recorder: Rc<RefCell<SloRecorder>> = Rc::new(RefCell::new(SloRecorder::new()));
    let rec_in = Rc::clone(&recorder);
    let mut s = Scenario::new(name, reps, move |rep| {
        let cfg = ServiceConfig::new(ServeProtocol::EdgeColoring, 0x5E54E + rep);
        let mut svc = ColoringService::new(g, cfg).expect("service construction");
        svc.run_to_quiescence(svc.tick_budget()).expect("initial coloring");
        let mut rng = SmallRng::seed_from_u64(0xC4A5 + rep);
        let mut slo = SloRecorder::new();
        for _ in 0..batches {
            let mut staged = 0;
            let mut attempts = 0;
            while staged < events_per_batch && attempts < 200 {
                attempts += 1;
                let ev = match rng.random_range(0..4u32) {
                    0 => ChurnEvent::LinkUp(
                        VertexId(rng.random_range(0..n)),
                        VertexId(rng.random_range(0..n)),
                    ),
                    1 => ChurnEvent::LinkDown(
                        VertexId(rng.random_range(0..n)),
                        VertexId(rng.random_range(0..n)),
                    ),
                    2 => ChurnEvent::NodeLeave(VertexId(rng.random_range(0..n))),
                    _ => ChurnEvent::NodeJoin(VertexId(rng.random_range(0..n))),
                };
                if svc.stage(ev).is_ok() {
                    staged += 1;
                }
            }
            let t0 = Instant::now();
            svc.commit().expect("staged events commit");
            svc.run_to_quiescence(svc.tick_budget()).expect("repair converges");
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            for r in svc.take_reports() {
                slo.batch(BatchSample {
                    seq: r.seq,
                    events: r.events as u64,
                    repair_rounds: r.repair_rounds,
                    wall_ms,
                    colors_changed: r.colors_changed,
                    colors_used: r.colors_used,
                    reduction_saved: r.reduction.map_or(0, |k| k.colors_saved() as u64),
                });
            }
        }
        black_box(svc.coloring_hash());
        *rec_in.borrow_mut() = slo;
    });
    s.post = Some(Box::new(move |m: &mut Measurement| {
        let report = recorder.borrow().report();
        m.p50_ms = Some(report.p50_wall_ms);
        m.p99_ms = Some(report.p99_wall_ms);
        eprintln!(
            "  {:<24} batch p50 {:.3} ms  p99 {:.3} ms  (p50 {} / p99 {} rounds, amp {:.2})",
            "",
            report.p50_wall_ms,
            report.p99_wall_ms,
            report.p50_repair_rounds,
            report.p99_repair_rounds,
            report.churn_amplification
        );
    }));
    s
}

/// Build the recovery-cost artifact pair off one churn session: the
/// epoch-0 full snapshot plus a journal covering *every* batch (restore
/// replays the whole history), and a compacted materialized base plus a
/// one-batch journal tail (restore adopts the folded coloring and
/// replays only the delta since the last checkpoint). Returns
/// `(full_snapshot, full_journal, base, tail_journal)`.
fn serve_recovery_artifacts(
    g: &Graph,
    batches: usize,
    events_per_batch: usize,
) -> (String, String, String, String) {
    let n = g.num_vertices() as u32;
    let cfg = ServiceConfig::new(ServeProtocol::EdgeColoring, 0x0EC0);
    let mut svc = ColoringService::new(g, cfg).expect("service construction");
    svc.run_to_quiescence(svc.tick_budget()).expect("initial coloring");
    let full = svc.snapshot_text();
    let mut rng = SmallRng::seed_from_u64(0x0EC1);
    let mut journal = String::new();
    let run_batch = |svc: &mut ColoringService, rng: &mut SmallRng, journal: &mut String| {
        let mut staged = 0;
        let mut attempts = 0;
        while staged < events_per_batch && attempts < 200 {
            attempts += 1;
            let ev = match rng.random_range(0..4u32) {
                0 => ChurnEvent::LinkUp(
                    VertexId(rng.random_range(0..n)),
                    VertexId(rng.random_range(0..n)),
                ),
                1 => ChurnEvent::LinkDown(
                    VertexId(rng.random_range(0..n)),
                    VertexId(rng.random_range(0..n)),
                ),
                2 => ChurnEvent::NodeLeave(VertexId(rng.random_range(0..n))),
                _ => ChurnEvent::NodeJoin(VertexId(rng.random_range(0..n))),
            };
            if svc.stage(ev).is_ok() {
                journal.push_str(&ColoringService::journal_event_line(&ev));
                staged += 1;
            }
        }
        let h_before = svc.history_len() as usize;
        let (seq, round) = svc.next_commit().expect("committable");
        journal.push_str(&ColoringService::journal_commit_line(
            svc.epoch(),
            svc.history_len() + 1,
            seq,
            round,
        ));
        svc.commit().expect("staged events commit");
        svc.run_to_quiescence(svc.tick_budget()).expect("repair converges");
        for (i, entry) in svc.history().iter().enumerate().skip(h_before) {
            if let dima_core::HistoryEntry::Recolor { round } = entry {
                journal.push_str(&ColoringService::journal_recolor_line(
                    svc.epoch(),
                    i as u64 + 1,
                    *round,
                ));
            }
        }
    };
    for _ in 0..batches {
        run_batch(&mut svc, &mut rng, &mut journal);
    }
    let full_journal = journal;
    // The incremental side: fold the whole session into a materialized
    // base, then one more journaled batch as the tail.
    svc.compact_history().expect("settled service compacts");
    let base = svc.base_text().expect("base serializes");
    let mut tail = String::new();
    run_batch(&mut svc, &mut rng, &mut tail);
    (full, full_journal, base, tail)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn scenarios_json(ms: &[Measurement]) -> String {
    let rows: Vec<String> = ms
        .iter()
        .map(|m| {
            let mut row = format!(
                "{{\"name\":\"{}\",\"reps\":{},\"mean_ms\":{:.3},\"min_ms\":{:.3},\"max_ms\":{:.3}",
                m.name, m.reps, m.mean_ms, m.min_ms, m.max_ms
            );
            if let (Some(p50), Some(p99)) = (m.p50_ms, m.p99_ms) {
                row.push_str(&format!(",\"p50_ms\":{p50:.3},\"p99_ms\":{p99:.3}"));
            }
            row.push('}');
            row
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// Minimal scanner for this bin's own compact output: pulls
/// `(name, mean_ms)` pairs out of the `"scenarios":[...]` array. Not a
/// general JSON parser — it only needs to read what `scenarios_json`
/// wrote.
fn parse_before(text: &str) -> Vec<(String, f64)> {
    let Some(start) = text.find("\"scenarios\":[") else { return Vec::new() };
    let body = &text[start + "\"scenarios\":[".len()..];
    let Some(end) = body.find(']') else { return Vec::new() };
    let body = &body[..end];
    let mut out = Vec::new();
    for row in body.split("{\"name\":\"").skip(1) {
        let Some(name_end) = row.find('"') else { continue };
        let name = row[..name_end].to_string();
        let Some(mean_at) = row.find("\"mean_ms\":") else { continue };
        let rest = &row[mean_at + "\"mean_ms\":".len()..];
        let num: String =
            rest.chars().take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-').collect();
        if let Ok(mean) = num.parse::<f64>() {
            out.push((name, mean));
        }
    }
    out
}

/// The host's CPU model string (`/proc/cpuinfo`), recorded alongside
/// `host_threads` so a BENCH_*.json says which silicon produced it —
/// cross-host comparisons are exactly the ones `bench_diff` should
/// refuse to read as regressions.
fn cpu_model() -> String {
    let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") else { return "unknown".into() };
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split(':').nth(1))
        .map_or_else(|| "unknown".into(), |m| m.trim().to_string())
}

/// `rustc --version` of the toolchain on PATH — close enough to the one
/// that built this binary for snapshot provenance, and "unknown" where
/// no toolchain is visible at runtime.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// Parallel-engine width the named scenarios are pinned to when
/// `--threads` is absent. A constant — never the host's core count — so
/// `color_par4` means the same configuration in every BENCH_*.json
/// regardless of which machine produced it.
const DEFAULT_PAR_THREADS: usize = 4;

/// Shard counts the thread sweep visits (host-independent, like the
/// scenario names).
const SWEEP_THREADS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let mut quick = false;
    let mut out_path = String::from("BENCH_engine.json");
    let mut label = String::from("snapshot");
    let mut before_path: Option<String> = None;
    let mut interleave = false;
    let mut only: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut oversubscribe = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--label" => label = args.next().expect("--label needs a name"),
            "--before" => before_path = Some(args.next().expect("--before needs a path")),
            "--compare" => {
                before_path = Some(args.next().expect("--compare needs a path"));
                interleave = true;
            }
            "--only" => only = Some(args.next().expect("--only needs a scenario name substring")),
            "--threads" => {
                let v = args.next().expect("--threads needs a count");
                threads = Some(v.parse().unwrap_or_else(|_| panic!("--threads {v}: not a count")));
            }
            "--oversubscribe" => oversubscribe = true,
            other => {
                eprintln!("unknown flag {other}");
                eprintln!(
                    "usage: bench_baseline [--quick] [--out PATH] [--label NAME] [--before PATH] \
                     [--compare PATH] [--only SUBSTRING] [--threads N] [--oversubscribe]"
                );
                std::process::exit(2);
            }
        }
    }

    let hw = dima_sim::pool::hardware_threads();
    // An explicit --threads above the host's parallelism is an error,
    // not a silent clamp: a clamped run would publish numbers under a
    // different configuration than its scenario names claim. The
    // default width is exempt — it is a naming constant, and an
    // oversubscribed engine is merely slow, not wrong.
    let par_threads = match threads {
        Some(0) => {
            eprintln!("error: --threads must be >= 1");
            std::process::exit(2);
        }
        Some(t) if t > hw && !oversubscribe => {
            eprintln!(
                "error: --threads {t} exceeds this host's available parallelism ({hw}); \
                 pass --oversubscribe to run anyway (numbers will reflect time-slicing, \
                 not real concurrency)"
            );
            std::process::exit(2);
        }
        Some(t) => t,
        None => DEFAULT_PAR_THREADS,
    };

    eprintln!(
        "bench_baseline: label={label} quick={quick} par_threads={par_threads} host_threads={hw}\
         {}",
        if interleave { " (interleaved reps)" } else { "" }
    );

    // Engine scenarios mirror `crates/experiments/benches/engines.rs`
    // (ER n=2000, avg degree 16); the gossip pair is the broadcast-heavy
    // dense-graph workload where payload cloning dominates.
    let (color_n, color_avg, reps) = if quick { (400, 12.0, 2) } else { (2000, 16.0, 5) };
    let (dense_n, dense_avg, dense_rounds, payload_len) =
        if quick { (250, 24.0, 6, 32) } else { (1200, 64.0, 24, 64) };

    let g = er_avg(color_n, color_avg, 46);
    let dense = er_avg(dense_n, dense_avg, 47);
    let dense_topo = Topology::from_graph(&dense);
    // The n >= 100k coloring pair: the scale where per-round work is
    // large enough for the pool to amortize its barriers.
    let (big_n, big_avg, big_reps) = if quick { (20_000, 8.0, 1) } else { (100_000, 8.0, 2) };
    let big = er_avg(big_n, big_avg, 49);
    let kn = if quick { 300 } else { 1000 };
    let kg = {
        let mut rng = SmallRng::seed_from_u64(48);
        GraphFamily::Regular { n: kn, d: 9 }.sample(&mut rng).expect("regular graph")
    };

    let want = |name: &str| only.as_deref().is_none_or(|f| name.contains(f));
    let par_name = |base: &str| format!("{base}_par{par_threads}");
    let mut scenarios = Vec::new();
    if want("color_seq") {
        scenarios.push(coloring_scenario(
            "color_seq",
            &g,
            Engine::Sequential,
            Transport::Bare,
            FaultPlan::reliable(),
            reps,
        ));
    }
    if want(&par_name("color")) {
        scenarios.push(coloring_scenario(
            &par_name("color"),
            &g,
            Engine::Parallel { threads: par_threads },
            Transport::Bare,
            FaultPlan::reliable(),
            reps,
        ));
    }
    if want("color_big_seq") {
        scenarios.push(coloring_scenario(
            "color_big_seq",
            &big,
            Engine::Sequential,
            Transport::Bare,
            FaultPlan::reliable(),
            big_reps,
        ));
    }
    if want(&par_name("color_big")) {
        scenarios.push(coloring_scenario(
            &par_name("color_big"),
            &big,
            Engine::Parallel { threads: par_threads },
            Transport::Bare,
            FaultPlan::reliable(),
            big_reps,
        ));
    }
    // Thread sweep over the big coloring workload. The sweep points are
    // fixed (host-independent names); `host_threads` in the output says
    // how many of them had real cores behind them.
    for t in SWEEP_THREADS {
        let name = format!("thread_sweep_t{t}");
        if want(&name) {
            scenarios.push(coloring_scenario(
                &name,
                &big,
                Engine::Parallel { threads: t },
                Transport::Bare,
                FaultPlan::reliable(),
                big_reps,
            ));
        }
    }
    if want("dense_broadcast_seq") {
        scenarios.push(gossip_scenario(
            "dense_broadcast_seq",
            &dense_topo,
            dense_rounds,
            payload_len,
            1,
            false,
            reps,
        ));
    }
    if want("dense_broadcast_traced_seq") {
        scenarios.push(gossip_traced_scenario(
            "dense_broadcast_traced_seq",
            &dense_topo,
            dense_rounds,
            payload_len,
            16,
            reps,
        ));
    }
    if want("dense_broadcast_metrics_seq") {
        scenarios.push(gossip_scenario(
            "dense_broadcast_metrics_seq",
            &dense_topo,
            dense_rounds,
            payload_len,
            1,
            true,
            reps,
        ));
    }
    if want(&par_name("dense_broadcast")) {
        scenarios.push(gossip_scenario(
            &par_name("dense_broadcast"),
            &dense_topo,
            dense_rounds,
            payload_len,
            par_threads,
            false,
            reps,
        ));
    }
    if want("small_broadcast_seq") {
        scenarios.push(small_gossip_scenario(
            "small_broadcast_seq",
            &dense_topo,
            dense_rounds * 4,
            1,
            reps,
        ));
    }
    if want(&par_name("small_broadcast")) {
        scenarios.push(small_gossip_scenario(
            &par_name("small_broadcast"),
            &dense_topo,
            dense_rounds * 4,
            par_threads,
            reps,
        ));
    }
    if want("serve_slo") {
        let (batches, events) = if quick { (8, 4) } else { (24, 8) };
        scenarios.push(serve_slo_scenario("serve_slo", &g, batches, events, reps));
    }
    if want("serve_recovery_full") || want("serve_recovery_incr") {
        let (batches, events) = if quick { (8, 4) } else { (24, 8) };
        let (full, full_journal, chain_base, tail) = serve_recovery_artifacts(&g, batches, events);
        let recovery_reps = if quick { 3 } else { 5 };
        if want("serve_recovery_full") {
            scenarios.push(Scenario::new("serve_recovery_full", recovery_reps, move |_| {
                let (svc, report) = ColoringService::restore(&full, Some(&full_journal))
                    .expect("full-snapshot restore");
                black_box((svc.coloring_hash(), report.tail_entries));
            }));
        }
        if want("serve_recovery_incr") {
            scenarios.push(Scenario::new("serve_recovery_incr", recovery_reps, move |_| {
                let (svc, report) = ColoringService::restore_chain(
                    &chain_base,
                    &[],
                    Some(&tail),
                    Engine::Sequential,
                )
                .expect("incremental chain restore");
                black_box((svc.coloring_hash(), report.tail_entries));
            }));
        }
    }
    if want("kempe_reduce") {
        scenarios.push(kempe_scenario("kempe_reduce", &kg, reps));
    }
    if want("reliable_loss_seq") {
        scenarios.push(coloring_scenario(
            "reliable_loss_seq",
            &g,
            Engine::Sequential,
            Transport::reliable(),
            FaultPlan::uniform(0.02),
            reps,
        ));
    }
    assert!(!scenarios.is_empty(), "--only matched no scenario");
    let results = run_scenarios(scenarios, interleave);

    let mut doc = String::from("{\n");
    doc.push_str("\"schema\":\"dima-bench-v1\",\n");
    doc.push_str(&format!("\"label\":\"{}\",\n", json_escape(&label)));
    doc.push_str(&format!("\"quick\":{quick},\n"));
    doc.push_str(&format!("\"par_threads\":{par_threads},\n"));
    doc.push_str(&format!("\"host_threads\":{hw},\n"));
    doc.push_str(&format!("\"cpu_model\":\"{}\",\n", json_escape(&cpu_model())));
    doc.push_str(&format!("\"rustc\":\"{}\",\n", json_escape(&rustc_version())));
    doc.push_str(&format!("\"interleaved\":{interleave},\n"));
    doc.push_str(&format!("\"scenarios\":{}", scenarios_json(&results)));
    // Sampled-tracing overhead budget: the traced dense-broadcast run
    // may cost at most 5% over its untraced twin.
    let base = results.iter().find(|m| m.name == "dense_broadcast_seq");
    let traced = results.iter().find(|m| m.name == "dense_broadcast_traced_seq");
    if let (Some(base), Some(traced)) = (base, traced) {
        let ratio = traced.mean_ms / base.mean_ms;
        doc.push_str(&format!(
            ",\n\"trace_overhead\":{{\"base\":\"{}\",\"traced\":\"{}\",\"sample\":16,\"ratio\":{:.3}}}",
            base.name, traced.name, ratio
        ));
        if ratio > 1.05 {
            eprintln!(
                "warning: sampled tracing overhead {:.1}% exceeds the 5% budget \
                 ({:.3} ms traced vs {:.3} ms base)",
                (ratio - 1.0) * 100.0,
                traced.mean_ms,
                base.mean_ms
            );
        } else {
            eprintln!("trace overhead: {:+.1}% (1/16 sampling, budget 5%)", (ratio - 1.0) * 100.0);
        }
    }
    // Enabled-metrics overhead budget: counters and log-bucket
    // histograms are a handful of adds per round, so the metered
    // dense-broadcast run may cost at most 3% over the plain one.
    let metered = results.iter().find(|m| m.name == "dense_broadcast_metrics_seq");
    if let (Some(base), Some(metered)) = (base, metered) {
        let ratio = metered.mean_ms / base.mean_ms;
        doc.push_str(&format!(
            ",\n\"metrics_overhead\":{{\"base\":\"{}\",\"metered\":\"{}\",\"budget\":1.03,\"ratio\":{:.3}}}",
            base.name, metered.name, ratio
        ));
        if ratio > 1.03 {
            eprintln!(
                "warning: enabled-metrics overhead {:.1}% exceeds the 3% budget \
                 ({:.3} ms metered vs {:.3} ms base)",
                (ratio - 1.0) * 100.0,
                metered.mean_ms,
                base.mean_ms
            );
        } else {
            eprintln!("metrics overhead: {:+.1}% (budget 3%)", (ratio - 1.0) * 100.0);
        }
    }
    if let Some(path) = &before_path {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--before {path}: {e}"));
        let before = parse_before(&text);
        assert!(!before.is_empty(), "--before {path}: no scenarios found");
        let rows: Vec<String> = before
            .iter()
            .map(|(n, m)| format!("{{\"name\":\"{}\",\"mean_ms\":{:.3}}}", json_escape(n), m))
            .collect();
        doc.push_str(&format!(",\n\"before\":[{}]", rows.join(",")));
        let mut speedups = Vec::new();
        for (name, before_mean) in &before {
            if let Some(after) = results.iter().find(|m| &m.name == name) {
                speedups.push(format!(
                    "{{\"name\":\"{}\",\"ratio\":{:.3}}}",
                    json_escape(name),
                    before_mean / after.mean_ms
                ));
            }
        }
        doc.push_str(&format!(",\n\"speedup\":[{}]", speedups.join(",")));
    }
    doc.push_str("\n}\n");
    std::fs::write(&out_path, &doc).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
