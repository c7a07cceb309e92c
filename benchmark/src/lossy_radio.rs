//! `lossy_radio`: the paper's radio setting. One operation runs
//! Algorithm 1 (`color_edges`) on a random geometric graph (n=4,000,
//! radius 0.03) over `Transport::reliable()` with 2% seeded uniform
//! loss, on `Engine::Sequential`. The coloring must be bit-identical to
//! the bare run at the same seed (the α-synchronizer contract).
//! Operations alternate between `VARIANTS` algorithm seeds.

use dima_core::verify::verify_edge_coloring;
use dima_core::{color_edges, Color, ColoringConfig, EdgeColoringResult, Engine, Transport};
use dima_graph::gen::GraphFamily;
use dima_graph::Graph;
use dima_sim::fault::FaultPlan;
use dima_sim::telemetry::mem;
use dima_sim::RunStats;

use crate::report::{low_quartile, mean, median, percentile, ratio, Report};
use crate::tally::{ensure, Failed};
use crate::{edge_list, parse, setup_reps, sub_seed, Ctx};

const GEO: GraphFamily = GraphFamily::Geometric { n: 4_000, radius: 0.03 };
/// The most common Δ of `GEO` samples.
const GEO_DELTA: usize = 24;
const LOSS: f64 = 0.02;
/// Algorithm seeds timed per run, each at least twice.
const VARIANTS: u64 = 2;
/// Algorithm seeds per run for the palette and round count. Both are
/// properties of the inner run, which the reliable transport reproduces
/// bit for bit (checked on the timed seeds), so the cheap bare runs
/// give them.
const BARE_SEEDS: u64 = 8;

struct Sample {
    traced: bool,
    variant: u64,
    color_s: f64,
    verify_s: f64,
    overhead_rounds: u64,
    heap_peak: u64,
    heap_live: u64,
    allocs: u64,
    stats: RunStats,
}

/// The bare run of one seed: the reference its reliable coloring must
/// reproduce bit for bit.
struct Bare {
    colors: Vec<Option<Color>>,
    colors_used: usize,
    compute_rounds: u64,
    messages: u64,
    color_s: f64,
}

pub fn run(ctx: &mut Ctx) -> Report {
    let seed = ctx.args.seed;
    let text = edge_list(&GEO, GEO_DELTA, sub_seed(seed, 1));
    let spans = &mut ctx.spans;
    let (g, setup) = setup_reps(|| parse(spans, &text));
    drop(text);
    let seeds: Vec<u64> = (0..BARE_SEEDS).map(|v| sub_seed(seed, 10 + v)).collect();

    ctx.spans.start_op(0, false);
    let mut bare = Vec::new();
    for &alg_seed in &seeds {
        let cfg = ColoringConfig {
            engine: Engine::Sequential,
            ..ColoringConfig::for_measurement(alg_seed)
        };
        let r = ctx.op("lossy_radio bare reference", |ctx| {
            let (r, s) = ctx.spans.time("dimaec.color_edges.bare", || color_edges(&g, &cfg));
            let r: EdgeColoringResult = r.map_err(|e| format!("bare color_edges: {e}"))?;
            verify_edge_coloring(&g, &r.colors).map_err(|e| format!("bare coloring: {e}"))?;
            Ok(Bare {
                colors: r.colors,
                colors_used: r.colors_used,
                compute_rounds: r.compute_rounds,
                messages: r.stats.messages_sent,
                color_s: s,
            })
        });
        match r {
            Ok(b) => bare.push(b),
            Err(_) => return Report::default(),
        }
    }
    let job = Job { g, bare, seeds };

    let mut samples = Vec::new();
    if ctx.op("lossy_radio warm-up", |ctx| job.run(ctx, 0, false)).is_ok() {
        ctx.measure(VARIANTS, 2 * VARIANTS, |ctx, v, traced| {
            match ctx.op("lossy_radio coloring", |ctx| job.run(ctx, v, traced)) {
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
    if !ctx.args.trace {
        // Time: each timed seed's lower quartile, averaged. Counts: the
        // mean over the bare runs.
        let color_s = mean(
            &(0..VARIANTS)
                .map(|v| {
                    let times = plain.iter().filter(|s| s.variant == v).map(|s| s.color_s);
                    low_quartile(&times.collect::<Vec<_>>())
                })
                .collect::<Vec<_>>(),
        );
        let bare_mean =
            |f: &dyn Fn(&Bare) -> f64| mean(&job.bare.iter().map(f).collect::<Vec<_>>());
        r.set("setup_s", low_quartile(&setup));
        r.set("color_s", color_s);
        r.set("colors_used", bare_mean(&|b| b.colors_used as f64));
        r.set("compute_rounds", bare_mean(&|b| b.compute_rounds as f64));
        r.set("heap_peak_mb", med(&plain, &|s| s.heap_peak as f64) / 1e6);
        r.set("batch_p50_ms", color_s * 1e3);
        return r;
    }
    // Counts come from the first pair (variant 0), timings from all.
    let (Some(p), Some(t)) = (plain.first(), traced.first()) else { return r };
    let frames = t.stats.messages_sent as f64;
    let counter = |name: &str| t.stats.metrics.as_ref().map_or(0, |m| m.counter(name)) as f64;
    let bare0 = &job.bare[0];
    r.set("graph.parse_s", median(&setup));
    r.set("engine.step_s", med(&traced, &|s| s.stats.phase_nanos.step as f64) / 1e9);
    r.set("engine.collect_s", med(&traced, &|s| s.stats.phase_nanos.collect as f64) / 1e9);
    r.set(
        "engine.ns_per_message",
        med(&traced, &|s| s.color_s * 1e9 / s.stats.messages_sent as f64),
    );
    r.set("engine.messages", frames);
    r.set("engine.deliveries", t.stats.deliveries as f64);
    r.set("engine.rounds", t.stats.rounds as f64);
    r.set("engine.ns_per_round", med(&traced, &|s| s.color_s * 1e9 / s.stats.rounds as f64));
    r.set("mem.allocs_per_message", ratio(t.allocs as f64, frames));
    r.set(
        "mem.heap_peak_over_live",
        med(&traced, &|s| ratio(s.heap_peak as f64, s.heap_live as f64)),
    );
    r.set(
        "mem.bytes_per_node",
        med(&traced, &|s| s.heap_peak as f64) / job.g.num_vertices() as f64,
    );
    r.set("arq.frames_per_message", ratio(frames, bare0.messages as f64));
    r.set("arq.tax_x", med(&plain, &|s| s.color_s / job.bare[s.variant as usize].color_s));
    r.set("arq.recovery_share", ratio(counter("arq/retransmits"), frames));
    r.set("arq.retransmits", counter("arq/retransmits"));
    r.set("arq.acks_standalone", counter("arq/acks_standalone"));
    r.set("arq.dup_bundles", counter("arq/dup_bundles"));
    r.set("arq.overhead_rounds", t.overhead_rounds as f64);
    r.set("arq.dropped", t.stats.dropped as f64);
    r.set("dimaec.messages_per_edge", ratio(bare0.messages as f64, job.g.num_edges() as f64));
    r.set("verify.edge_s", med(&traced, &|s| s.verify_s));
    r.set("trace.overhead_ratio", med(&traced, &|s| s.color_s) / med(&plain, &|s| s.color_s));
    r.set(
        "batch_p90_ms",
        percentile(&plain.iter().map(|s| s.color_s * 1e3).collect::<Vec<_>>(), 90.0),
    );
    r.set("frames_sent", p.stats.messages_sent as f64);
    r
}

struct Job {
    g: Graph,
    bare: Vec<Bare>,
    seeds: Vec<u64>,
}

impl Job {
    fn run(&self, ctx: &mut Ctx, variant: u64, traced: bool) -> Result<Sample, String> {
        let cfg = ColoringConfig {
            engine: Engine::Sequential,
            transport: Transport::reliable(),
            faults: FaultPlan::uniform(LOSS),
            profile: traced,
            collect_metrics: traced,
            ..ColoringConfig::for_measurement(self.seeds[variant as usize])
        };
        let spans = &mut ctx.spans;
        mem::reset_peak();
        let allocs0 = mem::alloc_calls();
        let (r, color_s) = spans.time("dimaec.color_edges.reliable", || color_edges(&self.g, &cfg));
        let (heap_peak, heap_live) = (mem::peak_bytes(), mem::live_bytes());
        let allocs = mem::alloc_calls() - allocs0;
        let tag = if traced { " (traced)" } else { "" };
        eprintln!("lossy_radio: variant {variant} color_edges {color_s:.3} s{tag}");
        let r = r.map_err(|e| format!("reliable color_edges: {e}"))?;

        let (v, verify_s) = spans.time("verify.edge", || verify_edge_coloring(&self.g, &r.colors));
        v.map_err(|e| format!("coloring is not proper: {e}"))?;
        let bound = 2 * self.g.max_degree() - 1;
        ensure(r.colors_used <= bound, || format!("{} colors > 2Δ−1 = {bound}", r.colors_used))?;
        ensure(r.endpoint_agreement, || "endpoints disagree".into())?;
        let bare = &self.bare[variant as usize];
        ensure(r.colors == bare.colors && r.compute_rounds == bare.compute_rounds, || {
            "reliable coloring differs from the bare run at the same seed".into()
        })?;
        ctx.counts.check(
            variant,
            vec![
                ("compute_rounds", r.compute_rounds),
                ("colors_used", r.colors_used as u64),
                ("frames_sent", r.stats.messages_sent),
                ("engine.rounds", r.stats.rounds),
                ("arq.dropped", r.stats.dropped),
            ],
        )?;
        // Only traced operations collect the metrics registry.
        if let Some(m) = &r.stats.metrics {
            ctx.traced_counts.check(
                variant,
                ["arq/retransmits", "arq/acks_standalone", "arq/dup_bundles"]
                    .map(|name| (name, m.counter(name)))
                    .to_vec(),
            )?;
        }
        Ok(Sample {
            traced,
            variant,
            color_s,
            verify_s,
            overhead_rounds: r.transport_overhead_rounds,
            heap_peak,
            heap_live,
            allocs,
            stats: RunStats { per_round: None, ..r.stats },
        })
    }
}
