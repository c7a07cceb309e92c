//! `serve_churn`: a closed loop with one client against a
//! `ColoringService` (edge coloring, Kempe reduction on, sequential
//! engine — what `dima-cli serve --reduce kempe` runs by default) on a
//! random 8-regular graph, n=5,000.
//!
//! One operation stages 8 churn events — two double-edge swaps — then
//! commits them and runs the repair to quiescence. A swap takes down two
//! random live links (a, b) and (c, d) and brings up (a, c) and (b, d),
//! drawn against the benchmark's own copy of the topology: every degree,
//! and so Δ, stays fixed. The graph is chosen so the Kempe post-pass
//! works: the initial pass brings the palette down to Δ+1, and a
//! re-wired link between two saturated nodes usually needs a color over
//! that threshold, so most batches flip or recolor something. Node
//! leaves and joins are left out: with Kempe on, a session with leaves
//! panics in `adopt_compaction` (see the README's notes).
//!
//! Alongside, the benchmark builds in memory the checkpoint chain
//! `--state-dir` would write with default flags: the epoch-0
//! `snapshot_text`, a `delta_text` every 8 batches, and journal lines
//! for every event, commit and recolor. A session is a fresh service
//! (its set-up is timed) plus `BATCHES` operations and ends with
//! `restore_chain` over its chain, whose coloring must hash like the
//! live one. Every session of a run replays the same event stream, so
//! each batch is timed at least `MIN_SESSIONS` times.

use dima_core::verify::verify_edge_coloring;
use dima_core::{
    checkpoint_crc, ColorReduction, ColoringService, Engine, HistoryEntry, KempeConfig,
    ServeProtocol, ServiceConfig,
};
use dima_graph::gen::GraphFamily;
use dima_graph::{GraphBuilder, VertexId};
use dima_sim::telemetry::mem;
use dima_sim::ChurnEvent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

use crate::report::{low_quartile, mean, median, percentile, ratio, Report};
use crate::spans::Spans;
use crate::tally::{ensure, Failed};
use crate::{edge_list, fatal, parse, sub_seed, Ctx};

const REGULAR: GraphFamily = GraphFamily::Regular { n: 5_000, d: 8 };
const REGULAR_DELTA: usize = 8;
const EVENTS_PER_BATCH: usize = 8;
/// Swap draws per batch before the batch commits what it has (a draw
/// is discarded when a new link would duplicate a live one).
const MAX_DRAWS: usize = 64;
/// Batches per session: short enough for eight sessions per run (each
/// batch timed as often), and not a multiple of `DELTA_EVERY`, so
/// restore also replays a journal tail.
const BATCHES: usize = 20;
/// Sessions per run, at least.
const MIN_SESSIONS: u64 = 8;
/// `dima-cli serve --snapshot-every` default.
const DELTA_EVERY: usize = 8;

/// One batch as measured.
struct Batch {
    batch_s: f64,
    commit_s: f64,
    repair_s: f64,
    verify_s: f64,
    /// Repair rounds of the batch.
    rounds: u64,
    delta: Option<(f64, usize)>,
}

/// Totals of one session; the counts must repeat exactly.
#[derive(Default)]
struct Session {
    traced: bool,
    batches: Vec<Batch>,
    /// The session's set-up (see [`Setup`]).
    parse_s: f64,
    init_s: f64,
    color_s: f64,
    snapshot_s: f64,
    snapshot_bytes: usize,
    journal_bytes: usize,
    restore_s: f64,
    restore_entries: u64,
    heap_peak: u64,
    events: u64,
    attempts: u64,
    repair_rounds: u64,
    colors_changed: u64,
    colors_used: u64,
    kempe_rounds: u64,
    kempe_messages: u64,
    chains_flipped: u64,
    trivial_recolors: u64,
    kempe_aborts: u64,
}

/// The chain `--state-dir` would hold: base, deltas, journal.
struct Chain {
    base: String,
    deltas: Vec<String>,
    journal: String,
    parent_crc: u32,
    checkpointed_h: u64,
}

/// The benchmark's copy of the live links, to draw valid events from.
#[derive(Clone)]
struct Links {
    n: u32,
    edges: Vec<(u32, u32)>,
    index: HashMap<(u32, u32), usize>,
}

impl Links {
    fn new(g: &dima_graph::Graph) -> Links {
        let edges: Vec<(u32, u32)> =
            g.edges().map(|(_, (u, v))| (u.0.min(v.0), u.0.max(v.0))).collect();
        let index = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        Links { n: g.num_vertices() as u32, edges, index }
    }

    /// A double-edge swap: live links (a, b) and (c, d) with four
    /// distinct endpoints go down, (a, c) and (b, d) come up. `None`
    /// when a new link would duplicate a live one.
    fn draw_swap(&self, rng: &mut SmallRng) -> Option<[ChurnEvent; 4]> {
        let pick = |rng: &mut SmallRng| self.edges[rng.random_range(0..self.edges.len())];
        let (a, b) = pick(rng);
        let (mut c, mut d) = pick(rng);
        if rng.random_range(0..2u32) == 0 {
            (c, d) = (d, c);
        }
        let key = |x: u32, y: u32| (x.min(y), x.max(y));
        let distinct = a != c && a != d && b != c && b != d;
        if !distinct || self.index.contains_key(&key(a, c)) || self.index.contains_key(&key(b, d)) {
            return None;
        }
        let up = |x: u32, y: u32| {
            let (x, y) = key(x, y);
            ChurnEvent::LinkUp(VertexId(x), VertexId(y))
        };
        Some([
            ChurnEvent::LinkDown(VertexId(a), VertexId(b)),
            ChurnEvent::LinkDown(VertexId(c.min(d)), VertexId(c.max(d))),
            up(a, c),
            up(b, d),
        ])
    }

    fn apply(&mut self, ev: &ChurnEvent) {
        match *ev {
            ChurnEvent::LinkUp(u, v) => {
                self.index.insert((u.0, v.0), self.edges.len());
                self.edges.push((u.0, v.0));
            }
            ChurnEvent::LinkDown(u, v) => {
                if let Some(i) = self.index.remove(&(u.0, v.0)) {
                    self.edges.swap_remove(i);
                    if let Some(&moved) = self.edges.get(i) {
                        self.index.insert(moved, i);
                    }
                }
            }
            ChurnEvent::NodeJoin(_) | ChurnEvent::NodeLeave(_) => {}
        }
    }
}

struct Setup {
    svc: ColoringService,
    parse_s: f64,
    init_s: f64,
    color_s: f64,
    ticks: u64,
}

fn config(seed: u64) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(ServeProtocol::EdgeColoring, seed);
    cfg.coloring.reduction = ColorReduction::Kempe(KempeConfig::default());
    cfg.coloring.engine = Engine::Sequential;
    cfg
}

/// Parse, construct, and run the initial coloring to quiescence.
fn setup(spans: &mut Spans, text: &str, cfg: &ServiceConfig) -> Setup {
    let (g, parse_s) = parse(spans, text);
    let (svc, new_s) = spans.time("service.new", || ColoringService::new(&g, cfg.clone()));
    let mut svc = svc.unwrap_or_else(|e| fatal(&format!("ColoringService::new: {e}")));
    let budget = svc.tick_budget();
    let (ticks, color_s) =
        spans.time("service.run_to_quiescence.initial", || svc.run_to_quiescence(budget));
    let ticks = ticks.unwrap_or_else(|e| fatal(&format!("initial coloring: {e}")));
    Setup { svc, parse_s, init_s: new_s + color_s, color_s, ticks }
}

pub fn run(ctx: &mut Ctx) -> Report {
    let seed = ctx.args.seed;
    let text = edge_list(&REGULAR, REGULAR_DELTA, sub_seed(seed, 1));
    let cfg = config(sub_seed(seed, 10));
    let churn_seed = sub_seed(seed, 20);
    let links = match dima_graph::io::from_edge_list(&text) {
        Ok(g) => Links::new(&g),
        Err(e) => fatal(&format!("generated input: {e}")),
    };
    let n = links.n as usize;
    // The reference set-up; every session sets up again, and all of
    // these set-ups are `setup_s` samples.
    let mut first = setup(&mut ctx.spans, &text, &cfg);
    let mut r = Report::default();
    ctx.spans.start_op(0, false);
    let mut delta_max = 0;
    if ctx
        .op("serve_churn initial coloring", |_| check(&first.svc, n, &mut delta_max).map(|_| ()))
        .is_err()
    {
        return r;
    }

    // Untimed warm-up: one batch on a service no session uses.
    let mut rng = SmallRng::seed_from_u64(churn_seed);
    let mut chain = Chain::new(&mut ctx.spans, &first.svc).0;
    let warm = ctx.op("serve_churn warm-up", |ctx| {
        let mut links = links.clone();
        let out = &mut Session::default();
        batch(ctx, &mut first.svc, &mut links, &mut rng, &mut chain, &mut delta_max, out, false)
    });
    if warm.is_err() {
        return r;
    }

    let mut sessions: Vec<Session> = Vec::new();
    ctx.measure(1, MIN_SESSIONS, |ctx, _, traced| {
        match session(ctx, &text, &cfg, &links, churn_seed, first.ticks, traced) {
            Ok(s) => {
                sessions.push(s);
                true
            }
            Err(Failed::Gate) => true,
            Err(Failed::Panic) => false,
        }
    });

    let (plain, traced): (Vec<&Session>, Vec<&Session>) = sessions.iter().partition(|s| !s.traced);
    let batches = |v: &[&Session], f: &dyn Fn(&Batch) -> f64| -> Vec<f64> {
        v.iter().flat_map(|s| s.batches.iter().map(f)).collect()
    };
    let batch_ms = |b: &Batch| b.batch_s * 1e3;
    // The reference set-up's figure, then every session's.
    let setups = |f: &dyn Fn(&Session) -> f64, reference: f64| -> Vec<f64> {
        std::iter::once(reference).chain(sessions.iter().map(f)).collect()
    };
    if !ctx.args.trace {
        let Some(last) = plain.last() else { return r };
        r.set(
            "setup_s",
            low_quartile(&setups(&|s| s.parse_s + s.init_s, first.parse_s + first.init_s)),
        );
        // Every set-up colors the same graph with the same seed.
        r.set("color_s", low_quartile(&setups(&|s| s.color_s, first.color_s)));
        r.set("colors_used", last.colors_used as f64);
        r.set("compute_rounds", first.ticks.div_ceil(3) as f64);
        r.set(
            "heap_peak_mb",
            median(&plain.iter().map(|s| s.heap_peak as f64).collect::<Vec<_>>()) / 1e6,
        );
        // Every session replays the same batches: a batch's latency is
        // the lower quartile of its repeats.
        let lat: Vec<f64> = (0..last.batches.len())
            .map(|i| {
                low_quartile(
                    &plain
                        .iter()
                        .filter_map(|s| s.batches.get(i).map(batch_ms))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        r.set("batch_p50_ms", median(&lat));
        return r;
    }
    let (false, Some(t)) = (plain.is_empty(), traced.first()) else { return r };
    let repair_s: f64 = t.batches.iter().map(|b| b.repair_s).sum();
    let deltas: Vec<&(f64, usize)> = t.batches.iter().filter_map(|b| b.delta.as_ref()).collect();
    let useful = (t.trivial_recolors + t.chains_flipped) as f64;
    r.set("graph.parse_s", median(&setups(&|s| s.parse_s, first.parse_s)));
    r.set("service.init_s", median(&setups(&|s| s.init_s, first.init_s)));
    r.set("service.commit_s", median(&batches(&traced, &|b| b.commit_s)));
    r.set("service.repair_s", median(&batches(&traced, &|b| b.repair_s)));
    r.set("service.repair_rounds", t.repair_rounds as f64);
    r.set("service.ms_per_repair_round", ratio(repair_s * 1e3, t.repair_rounds as f64));
    r.set("service.stage_accept_ratio", ratio(t.events as f64, t.attempts as f64));
    r.set("service.colors_changed_per_event", ratio(t.colors_changed as f64, t.events as f64));
    r.set("kempe.rounds", t.kempe_rounds as f64);
    r.set("kempe.messages", t.kempe_messages as f64);
    r.set("kempe.chains_flipped", t.chains_flipped as f64);
    r.set("kempe.trivial_recolors", t.trivial_recolors as f64);
    r.set("kempe.aborts", t.kempe_aborts as f64);
    r.set("kempe.useful_ratio", ratio(useful, useful + t.kempe_aborts as f64));
    r.set("persist.snapshot_s", median(&traced.iter().map(|s| s.snapshot_s).collect::<Vec<_>>()));
    r.set("persist.snapshot_bytes", t.snapshot_bytes as f64);
    r.set("persist.delta_s", median(&deltas.iter().map(|d| d.0).collect::<Vec<_>>()));
    r.set("persist.delta_bytes", median(&deltas.iter().map(|d| d.1 as f64).collect::<Vec<_>>()));
    r.set("persist.journal_bytes", t.journal_bytes as f64);
    r.set("persist.restore_entries", t.restore_entries as f64);
    r.set("persist.restore_ms_per_entry", ratio(t.restore_s * 1e3, t.restore_entries as f64));
    r.set("verify.edge_s", median(&batches(&traced, &|b| b.verify_s)));
    r.set(
        "trace.overhead_ratio",
        median(&batches(&traced, &batch_ms)) / median(&batches(&plain, &batch_ms)),
    );
    r.set("batch_p90_ms", percentile(&batches(&plain, &batch_ms), 90.0));
    r.set("restore_s", median(&plain.iter().map(|s| s.restore_s).collect::<Vec<_>>()));
    r
}

impl Chain {
    /// Start a chain the way `--state-dir` does at startup: the epoch-0
    /// full snapshot as base, an empty journal. Returns the chain and
    /// the snapshot's serialization time.
    fn new(spans: &mut Spans, svc: &ColoringService) -> (Chain, f64) {
        let (base, s) = spans.time("persist.snapshot_text", || svc.snapshot_text());
        let parent_crc =
            checkpoint_crc(&base).unwrap_or_else(|| fatal("snapshot has no CRC trailer"));
        let chain = Chain {
            base,
            deltas: Vec::new(),
            journal: String::new(),
            parent_crc,
            checkpointed_h: svc.history_len(),
        };
        (chain, s)
    }
}

/// One session: a fresh service, `BATCHES` batch operations, then a
/// restore operation over the session's chain. `initial_ticks` is the
/// reference set-up's tick count, which every set-up must repeat.
fn session(
    ctx: &mut Ctx,
    text: &str,
    cfg: &ServiceConfig,
    links: &Links,
    churn_seed: u64,
    initial_ticks: u64,
    traced: bool,
) -> Result<Session, Failed> {
    let mut links = links.clone();
    let Setup { mut svc, parse_s, init_s, color_s, ticks } = setup(&mut ctx.spans, text, cfg);
    let mut out = Session { traced, parse_s, init_s, color_s, ..Session::default() };
    let (mut chain, snapshot_s) = Chain::new(&mut ctx.spans, &svc);
    out.snapshot_s = snapshot_s;
    out.snapshot_bytes = chain.base.len();
    let mut rng = SmallRng::seed_from_u64(churn_seed);
    let mut delta_max = 0;
    mem::reset_peak();
    let mut gate_failed = false;
    for _ in 0..BATCHES {
        let r = ctx.op("serve_churn batch", |ctx| {
            batch(ctx, &mut svc, &mut links, &mut rng, &mut chain, &mut delta_max, &mut out, true)
        });
        match r {
            Ok(b) => out.batches.push(b),
            Err(Failed::Gate) => gate_failed = true,
            Err(Failed::Panic) => return Err(Failed::Panic),
        }
    }
    out.heap_peak = mem::peak_bytes();
    let lat: Vec<f64> = out.batches.iter().map(|b| b.batch_s * 1e3).collect();
    eprintln!(
        "serve_churn: session{} batch p50 {:.3} ms, p90 {:.3} ms, mean {:.3} ms over {} batches \
         (median {} repair rounds)",
        if traced { " (traced)" } else { "" },
        median(&lat),
        percentile(&lat, 90.0),
        mean(&lat),
        lat.len(),
        median(&out.batches.iter().map(|b| b.rounds as f64).collect::<Vec<_>>()),
    );
    let restored = ctx.op("serve_churn restore", |ctx| {
        let deltas: Vec<&str> = chain.deltas.iter().map(String::as_str).collect();
        let (restored, restore_s) = ctx.spans.time("persist.restore_chain", || {
            ColoringService::restore_chain(
                &chain.base,
                &deltas,
                Some(&chain.journal),
                Engine::Sequential,
            )
        });
        let (restored, report) = restored.map_err(|e| format!("restore_chain: {e}"))?;
        ensure(report.fallback.is_none() && !report.journal_discarded, || {
            format!("restore did not use the whole chain: {report:?}")
        })?;
        let (live, back) = (svc.coloring_hash(), restored.coloring_hash());
        ensure(live == back, || format!("restored hash {back:#018x} != live {live:#018x}"))?;
        ensure(ticks == initial_ticks, || {
            format!("initial coloring took {ticks} ticks, the reference {initial_ticks}")
        })?;
        // The workload exists to exercise the Kempe post-pass.
        ensure(out.kempe_rounds > 0, || "the Kempe post-pass never ran in the session".into())?;
        out.journal_bytes += chain.journal.len();
        out.restore_s = restore_s;
        out.restore_entries = report.snapshot_entries + report.delta_entries + report.tail_entries;
        ctx.counts.check(
            0,
            vec![
                ("final_hash", live),
                ("colors_used", out.colors_used),
                ("service.events", out.events),
                ("service.stage_attempts", out.attempts),
                ("service.repair_rounds", out.repair_rounds),
                ("service.colors_changed", out.colors_changed),
                ("kempe.rounds", out.kempe_rounds),
                ("kempe.messages", out.kempe_messages),
                ("kempe.chains_flipped", out.chains_flipped),
                ("kempe.trivial_recolors", out.trivial_recolors),
                ("kempe.aborts", out.kempe_aborts),
                ("persist.snapshot_bytes", out.snapshot_bytes as u64),
                ("persist.journal_bytes", out.journal_bytes as u64),
                ("persist.restore_entries", out.restore_entries),
            ],
        )
    });
    match restored {
        Ok(()) if !gate_failed => Ok(out),
        Ok(()) | Err(Failed::Gate) => Err(Failed::Gate),
        Err(Failed::Panic) => Err(Failed::Panic),
    }
}

/// One batch operation: stage, journal, commit, repair, check, and
/// write the periodic delta when one is due.
#[allow(clippy::too_many_arguments)]
fn batch(
    ctx: &mut Ctx,
    svc: &mut ColoringService,
    links: &mut Links,
    rng: &mut SmallRng,
    chain: &mut Chain,
    delta_max: &mut usize,
    out: &mut Session,
    count: bool,
) -> Result<Batch, String> {
    let spans = &mut ctx.spans;
    let stage = spans.enter("service.stage");
    let (mut staged, mut attempts) = (0, 0);
    for _ in 0..MAX_DRAWS {
        if staged >= EVENTS_PER_BATCH {
            break;
        }
        let Some(swap) = links.draw_swap(rng) else { continue };
        for ev in swap {
            attempts += 1;
            if svc.stage(ev).is_ok() {
                chain.journal.push_str(&ColoringService::journal_event_line(&ev));
                links.apply(&ev);
                staged += 1;
            }
        }
    }
    spans.exit(stage);
    let (seq, round) = svc.next_commit().ok_or("no event could be staged")?;
    // Write-ahead: the commit marker precedes the commit.
    chain.journal.push_str(&ColoringService::journal_commit_line(
        svc.epoch(),
        svc.history_len() + 1,
        seq,
        round,
    ));
    let h_before = svc.history_len() as usize;
    let op = spans.enter("serve_churn.batch");
    let (committed, commit_s) = spans.time("service.commit", || svc.commit());
    let budget = svc.tick_budget();
    let (repaired, repair_s) =
        spans.time("service.run_to_quiescence", || svc.run_to_quiescence(budget));
    let batch_s = spans.exit(op);
    committed.map_err(|e| format!("commit: {e}"))?;
    repaired.map_err(|e| format!("repair: {e}"))?;
    for (i, entry) in svc.history().iter().enumerate().skip(h_before) {
        if let HistoryEntry::Recolor { round } = entry {
            chain.journal.push_str(&ColoringService::journal_recolor_line(
                svc.epoch(),
                i as u64 + 1,
                *round,
            ));
        }
    }
    let reports = svc.take_reports();
    let ((colors_used, _), verify_s) = {
        let (r, s) = spans.time("verify.edge", || check(svc, links.n as usize, delta_max));
        (r?, s)
    };
    let last = reports.last().ok_or("the batch produced no repair report")?;
    ensure(last.colors_used == colors_used as u64, || {
        format!("report says {} colors, the coloring has {colors_used}", last.colors_used)
    })?;
    let mut delta = None;
    if count {
        out.events += staged as u64;
        out.attempts += attempts as u64;
        out.colors_used = colors_used as u64;
        for rep in &reports {
            out.repair_rounds += rep.repair_rounds;
            out.colors_changed += rep.colors_changed;
            if let Some(k) = &rep.reduction {
                out.kempe_rounds += k.comm_rounds;
                out.kempe_messages += k.messages_sent;
                out.chains_flipped += k.chains_flipped;
                out.trivial_recolors += k.trivial_recolors;
                out.kempe_aborts += k.aborts;
            }
        }
        if svc.batches_committed().is_multiple_of(DELTA_EVERY as u64) {
            let (text, s) = spans.time("persist.delta_text", || {
                svc.delta_text(
                    chain.checkpointed_h,
                    chain.deltas.len() as u64 + 1,
                    chain.parent_crc,
                )
            });
            let text = text.map_err(|e| format!("delta_text: {e}"))?;
            chain.parent_crc = checkpoint_crc(&text).ok_or("delta has no CRC trailer")?;
            chain.checkpointed_h = svc.history_len();
            delta = Some((s, text.len()));
            chain.deltas.push(text);
            // Rotate the journal down to the still-staged events.
            out.journal_bytes += chain.journal.len();
            chain.journal.clear();
            for ev in svc.staged_events() {
                chain.journal.push_str(&ColoringService::journal_event_line(ev));
            }
        }
    }
    let rounds = reports.iter().map(|rep| rep.repair_rounds).sum();
    Ok(Batch { batch_s, commit_s, repair_s, verify_s, rounds, delta })
}

/// Check the live coloring: every edge colored, both endpoints agree,
/// proper (`verify_edge_coloring`), and at most 2Δ−1 colors, Δ being
/// the largest degree the session has reached. Returns the palette
/// size and Δ.
fn check(svc: &ColoringService, n: usize, delta_max: &mut usize) -> Result<(usize, usize), String> {
    let edges = svc.coloring();
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for e in &edges {
        b.add_edge(e.u, e.v);
    }
    let g = b.build().map_err(|e| format!("live topology: {e}"))?;
    *delta_max = (*delta_max).max(g.max_degree());
    let colors: Vec<_> = edges.iter().map(|e| e.forward).collect();
    if let Some(e) = edges.iter().find(|e| e.forward != e.reverse) {
        return Err(format!("endpoints of {}-{} disagree", e.u, e.v));
    }
    verify_edge_coloring(&g, &colors).map_err(|e| format!("live coloring is not proper: {e}"))?;
    let used = dima_core::verify::count_colors(&colors);
    let bound = (2 * *delta_max).saturating_sub(1);
    ensure(used <= bound, || format!("{used} colors > 2Δ−1 = {bound}"))?;
    Ok((used, *delta_max))
}
