//! `paper_static`: the paper's two algorithms as batch jobs on the
//! parallel engine. One operation runs Algorithm 1 (`color_edges`) on
//! Erdős–Rényi n=200,000, average degree 8, then Algorithm 2
//! (`strong_color_digraph`) on the symmetric closure of a random
//! geometric graph, n=4,000, radius 0.03. Bare transport,
//! `Engine::Parallel { threads }`.

use dima_core::verify::{verify_edge_coloring, verify_strong_coloring};
use dima_core::{color_edges, strong_color_digraph, ColoringConfig, Engine};
use dima_graph::gen::GraphFamily;
use dima_graph::{Digraph, Graph};
use dima_sim::telemetry::mem;
use dima_sim::RunStats;

use crate::report::{low_quartile, median, percentile, ratio, Report};
use crate::tally::{ensure, Failed};
use crate::{edge_list, parse, setup_reps, sub_seed, Ctx};

const ER: GraphFamily = GraphFamily::ErdosRenyiAvgDegree { n: 200_000, avg_degree: 8.0 };
/// The most common Δ of `ER` samples.
const ER_DELTA: usize = 24;
const GEO: GraphFamily = GraphFamily::Geometric { n: 4_000, radius: 0.03 };
const GEO_DELTA: usize = 24;
/// Algorithm 2's computation-round cap. The library default (64Δ+256)
/// stops about a third of these unit-disk inputs short while a few
/// nodes still negotiate; with this cap every seed tried terminates
/// (the slowest took 3,423 rounds).
const STRONG_ROUND_CAP: u64 = 40_000;

/// What one operation measured.
struct Sample {
    traced: bool,
    color_s: f64,
    strong_s: f64,
    verify_edge_s: f64,
    verify_strong_s: f64,
    colors_used: usize,
    compute_rounds: u64,
    strong_channels: usize,
    heap_peak: u64,
    heap_live: u64,
    allocs: u64,
    alg1: RunStats,
    alg2: RunStats,
}

pub fn run(ctx: &mut Ctx) -> Report {
    let seed = ctx.args.seed;
    let er_text = edge_list(&ER, ER_DELTA, sub_seed(seed, 1));
    let geo_text = edge_list(&GEO, GEO_DELTA, sub_seed(seed, 2));
    let spans = &mut ctx.spans;
    let ((er, geo), setup) = setup_reps(|| {
        let (er, a) = parse(spans, &er_text);
        let (geo, b) = parse(spans, &geo_text);
        ((er, geo), a + b)
    });
    drop((er_text, geo_text));
    let d = Digraph::symmetric_closure(&geo);
    let job = Job { er, d, threads: ctx.args.threads, seed };

    // Untimed warm-up: spawns the pool and pages the inputs in.
    ctx.spans.start_op(0, false);
    let mut samples = Vec::new();
    if ctx.op("paper_static warm-up", |ctx| job.run(ctx, false)).is_ok() {
        ctx.measure(1, 2, |ctx, _, traced| {
            match ctx.op("paper_static job", |ctx| job.run(ctx, traced)) {
                Ok(s) => {
                    samples.push(s);
                    true
                }
                Err(Failed::Gate) => true,
                Err(Failed::Panic) => false,
            }
        });
    }
    let mut r = Report::default();
    let (plain, traced): (Vec<&Sample>, Vec<&Sample>) = samples.iter().partition(|s| !s.traced);
    let med = |v: &[&Sample], f: &dyn Fn(&Sample) -> f64| {
        median(&v.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    let batch_ms = |s: &Sample| (s.color_s + s.strong_s) * 1e3;
    if !ctx.args.trace {
        let Some(first) = plain.first() else { return r };
        r.set("setup_s", low_quartile(&setup));
        r.set("color_s", low_quartile(&plain.iter().map(|s| s.color_s).collect::<Vec<_>>()));
        r.set("colors_used", first.colors_used as f64);
        r.set("compute_rounds", first.compute_rounds as f64);
        r.set("heap_peak_mb", med(&plain, &|s| s.heap_peak as f64) / 1e6);
        r.set("batch_p50_ms", low_quartile(&plain.iter().map(|s| batch_ms(s)).collect::<Vec<_>>()));
        return r;
    }
    let (Some(p), Some(t)) = (plain.first(), traced.first()) else { return r };
    let n = job.er.num_vertices() as f64;
    r.set("graph.parse_s", median(&setup));
    r.set("engine.step_s", med(&traced, &|s| s.alg1.phase_nanos.step as f64) / 1e9);
    r.set("engine.collect_s", med(&traced, &|s| s.alg1.phase_nanos.collect as f64) / 1e9);
    r.set(
        "engine.ns_per_message",
        med(&traced, &|s| s.color_s * 1e9 / s.alg1.messages_sent as f64),
    );
    r.set("engine.messages", t.alg1.messages_sent as f64);
    r.set("engine.deliveries", t.alg1.deliveries as f64);
    r.set("engine.rounds", t.alg1.rounds as f64);
    r.set("engine.barrier_s", med(&traced, &|s| s.alg2.phase_nanos.barrier as f64) / 1e9);
    r.set("engine.shard_imbalance", med(&traced, &|s| shard_imbalance(&s.alg2)));
    r.set("engine.ns_per_round", med(&traced, &|s| s.strong_s * 1e9 / s.alg2.rounds as f64));
    r.set("mem.allocs_per_message", ratio(t.allocs as f64, t.alg1.messages_sent as f64));
    r.set(
        "mem.heap_peak_over_live",
        med(&traced, &|s| ratio(s.heap_peak as f64, s.heap_live as f64)),
    );
    r.set("mem.bytes_per_node", med(&traced, &|s| s.heap_peak as f64) / n);
    r.set(
        "dimaec.messages_per_edge",
        ratio(t.alg1.messages_sent as f64, job.er.num_edges() as f64),
    );
    r.set("dima2ed.messages_per_arc", ratio(t.alg2.messages_sent as f64, job.d.num_arcs() as f64));
    r.set("verify.edge_s", med(&traced, &|s| s.verify_edge_s));
    r.set("verify.strong_s", med(&traced, &|s| s.verify_strong_s));
    r.set("trace.overhead_ratio", med(&traced, &batch_ms) / med(&plain, &batch_ms));
    r.set("batch_p90_ms", percentile(&plain.iter().map(|s| batch_ms(s)).collect::<Vec<_>>(), 90.0));
    r.set("strong_s", med(&plain, &|s| s.strong_s));
    r.set("strong_channels", p.strong_channels as f64);
    // Bare transport: every send goes straight onto the links.
    r.set("frames_sent", p.alg1.messages_sent as f64);
    r
}

/// Slowest shard's step time over the mean shard's (parallel profile
/// only; 0 without a per-shard breakdown).
pub fn shard_imbalance(stats: &RunStats) -> f64 {
    let steps: Vec<f64> = stats.shard_phases.iter().map(|p| p.step as f64).collect();
    let mean = steps.iter().sum::<f64>() / steps.len().max(1) as f64;
    ratio(steps.iter().copied().fold(0.0, f64::max), mean)
}

struct Job {
    er: Graph,
    d: Digraph,
    threads: usize,
    seed: u64,
}

impl Job {
    fn config(&self, stream: u64, traced: bool) -> ColoringConfig {
        ColoringConfig {
            engine: Engine::Parallel { threads: self.threads },
            profile: traced,
            collect_metrics: traced,
            ..ColoringConfig::for_measurement(sub_seed(self.seed, stream))
        }
    }

    fn run(&self, ctx: &mut Ctx, traced: bool) -> Result<Sample, String> {
        let cfg1 = self.config(3, traced);
        let cfg2 =
            ColoringConfig { max_compute_rounds: Some(STRONG_ROUND_CAP), ..self.config(4, traced) };
        let spans = &mut ctx.spans;
        let op = spans.enter("paper_static.job");
        mem::reset_peak();
        let allocs0 = mem::alloc_calls();
        let (r1, color_s) = spans.time("dimaec.color_edges", || color_edges(&self.er, &cfg1));
        let (heap_peak, heap_live) = (mem::peak_bytes(), mem::live_bytes());
        let allocs = mem::alloc_calls() - allocs0;
        let (r2, strong_s) =
            spans.time("dima2ed.strong_color_digraph", || strong_color_digraph(&self.d, &cfg2));
        spans.exit(op);
        eprintln!("paper_static: color_edges {color_s:.3} s, strong_color_digraph {strong_s:.3} s");
        let r1 = r1.map_err(|e| format!("color_edges: {e}"))?;
        let r2 = r2.map_err(|e| format!("strong_color_digraph: {e}"))?;

        let (v1, verify_edge_s) =
            spans.time("verify.edge", || verify_edge_coloring(&self.er, &r1.colors));
        v1.map_err(|e| format!("Algorithm 1 coloring is not proper: {e}"))?;
        let bound = 2 * self.er.max_degree() - 1;
        ensure(r1.colors_used <= bound, || format!("{} colors > 2Δ−1 = {bound}", r1.colors_used))?;
        ensure(r1.endpoint_agreement, || "Algorithm 1 endpoints disagree".into())?;
        let (v2, verify_strong_s) =
            spans.time("verify.strong", || verify_strong_coloring(&self.d, &r2.colors));
        v2.map_err(|e| format!("Algorithm 2 coloring is not strong: {e}"))?;
        ensure(r2.endpoint_agreement, || "Algorithm 2 endpoints disagree".into())?;
        ctx.counts.check(
            0,
            vec![
                ("compute_rounds", r1.compute_rounds),
                ("colors_used", r1.colors_used as u64),
                ("engine.messages", r1.stats.messages_sent),
                ("strong_compute_rounds", r2.compute_rounds),
                ("strong_channels", r2.colors_used as u64),
                ("strong_messages", r2.stats.messages_sent),
            ],
        )?;
        Ok(Sample {
            traced,
            color_s,
            strong_s,
            verify_edge_s,
            verify_strong_s,
            colors_used: r1.colors_used,
            compute_rounds: r1.compute_rounds,
            strong_channels: r2.colors_used,
            heap_peak,
            heap_live,
            allocs,
            alg1: RunStats { per_round: None, ..r1.stats },
            alg2: RunStats { per_round: None, ..r2.stats },
        })
    }
}
