//! End-to-end benchmark of the DiMa edge-coloring workspace.
//!
//! ```text
//! dima-benchmark --workload paper_static|lossy_radio|serve_churn
//!                --seed N --seconds S --trace 0|1 [--threads T]
//! ```
//!
//! The benchmark generates every input from `--seed`, hands the program
//! only edge-list text, drives it through its public library calls,
//! checks every output, and prints one JSON result as the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Diagnostics and host provenance
//! go to standard error; a traced run also writes its spans to
//! `.bench_out/`. See `benchmark/README.md`.

mod lossy_radio;
mod paper_static;
mod report;
mod serve_churn;
mod spans;
mod tally;

use std::time::Instant;

use dima_graph::gen::GraphFamily;
use dima_graph::{io, Graph};
use dima_sim::telemetry::CountingAlloc;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use report::{Host, Report};
use spans::Spans;
use tally::{ExactCounts, Failed, Tally};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads of the parallel engine (`paper_static`).
    pub threads: usize,
}

/// State shared by the operations of one run.
pub struct Ctx {
    pub args: Args,
    pub spans: Spans,
    pub tally: Tally,
    pub counts: ExactCounts,
    /// Counts only traced operations collect (the metrics registry).
    pub traced_counts: ExactCounts,
    /// Set when an output failed a check or a count did not repeat.
    pub incorrect: bool,
}

impl Ctx {
    /// Run one checked operation (see [`Tally::op`]). A failure marks
    /// the run incorrect.
    pub fn op<T>(
        &mut self,
        what: &str,
        f: impl FnOnce(&mut Ctx) -> Result<T, String>,
    ) -> Result<T, Failed> {
        let mut tally = std::mem::take(&mut self.tally);
        let r = tally.op(what, || f(self));
        self.tally = tally;
        if r.is_err() {
            self.incorrect = true;
        }
        r
    }

    /// Run operations until `--seconds` have passed, cycling through
    /// `variants` input variants (each a different algorithm seed, so a
    /// run's figures average over several coin sequences); `op` gets the
    /// variant and whether it is traced, and ends the loop by returning
    /// `false`. An untraced run makes at least `min_ops` operations. A
    /// traced run alternates an untraced and a traced operation on the
    /// same variant (at least one such pair), so their timings share the
    /// same conditions.
    ///
    /// Past the minimum, an operation is started only if, taking as long
    /// as the one before, it would end within `--seconds`.
    pub fn measure(
        &mut self,
        variants: u64,
        min_ops: u64,
        mut op: impl FnMut(&mut Ctx, u64, bool) -> bool,
    ) {
        let t0 = Instant::now();
        let mut i = 0u64;
        loop {
            let trace = self.args.trace;
            let (traced, variant) =
                if trace { (i % 2 == 1, (i / 2) % variants) } else { (false, i % variants) };
            self.spans.start_op(i + 1, traced);
            let started = Instant::now();
            if !op(self, variant, traced) {
                break;
            }
            i += 1;
            let enough = i >= if trace { 2 } else { min_ops };
            let next_end = t0.elapsed() + started.elapsed();
            if enough && next_end.as_secs_f64() > self.args.seconds {
                break;
            }
        }
    }
}

/// An independent seed for input stream `k` of run seed `seed`.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    dima_sim::rng::splitmix64(seed ^ dima_sim::rng::splitmix64(k))
}

/// Draw graphs from `family` with successive seeds derived from `seed`
/// until one has maximum degree `delta`, and render it as edge-list
/// text — the only form in which the program receives its input.
/// Fixing Δ keeps the palette and the round count, which scale with
/// Δ, from swinging between seeds.
pub fn edge_list(family: &GraphFamily, delta: usize, seed: u64) -> String {
    for attempt in 0..1000 {
        let mut rng = SmallRng::seed_from_u64(sub_seed(seed, attempt));
        match family.sample(&mut rng) {
            Ok(g) if g.max_degree() == delta => return io::to_edge_list(&g),
            Ok(_) => {}
            Err(e) => fatal(&format!("cannot sample {}: {e}", family.label())),
        }
    }
    fatal(&format!("no sample of {} with Δ = {delta}", family.label()))
}

pub fn fatal(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// The program's parse of `text`, timed.
pub fn parse(spans: &mut Spans, text: &str) -> (Graph, f64) {
    let (g, s) = spans.time("graph.from_edge_list", || io::from_edge_list(text));
    let g =
        g.unwrap_or_else(|e| fatal(&format!("from_edge_list rejected the generated input: {e}")));
    (g, s)
}

/// Set-up repetitions: at least 5, and more until 2 s have passed (at
/// most 500), so `setup_s` is a steady median even when one set-up
/// takes milliseconds.
pub fn setup_reps<T>(mut setup: impl FnMut() -> (T, f64)) -> (T, Vec<f64>) {
    let t0 = Instant::now();
    let mut times = Vec::new();
    loop {
        let (v, s) = setup();
        times.push(s);
        let n = times.len();
        if n >= 500 || (n >= 5 && t0.elapsed().as_secs_f64() >= 2.0) {
            return (v, times);
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: dima-benchmark --workload paper_static|lossy_radio|serve_churn --seed N \
         --seconds S --trace 0|1 [--threads T]"
    );
    std::process::exit(2);
}

fn parse_args(host: &Host) -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut threads = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage(&format!("{flag} needs a value")) };
        let bad = || -> ! { usage(&format!("bad value '{value}' for {flag}")) };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| bad())),
            "--seconds" => {
                let s = value.parse::<f64>().unwrap_or_else(|_| bad());
                if !(s > 0.0 && s.is_finite()) {
                    bad();
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                })
            }
            "--threads" => threads = Some(value.parse::<usize>().unwrap_or_else(|_| bad())),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let threads = threads.unwrap_or(host.nproc);
    if threads == 0 || threads > host.nproc {
        usage(&format!(
            "--threads {threads} must be between 1 and this host's {} hardware threads",
            host.nproc
        ));
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        threads,
    }
}

fn main() {
    let host = Host::probe();
    let args = parse_args(&host);
    let run: fn(&mut Ctx) -> Report = match args.workload.as_str() {
        "paper_static" => paper_static::run,
        "lossy_radio" => lossy_radio::run,
        "serve_churn" => serve_churn::run,
        other => usage(&format!("unknown workload '{other}'")),
    };
    let provenance = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.json(args.threads)
    );
    eprintln!("provenance: {provenance}");
    let trace = args.trace;
    let span_file = format!(".bench_out/{}-seed{}.spans.jsonl", args.workload, args.seed);
    let mut ctx = Ctx {
        spans: Spans::new(trace),
        args,
        tally: Tally::default(),
        counts: ExactCounts::default(),
        traced_counts: ExactCounts::default(),
        incorrect: false,
    };
    let mut report = run(&mut ctx);
    report.correct = !ctx.incorrect;
    report.attempted = ctx.tally.attempted;
    report.failed = ctx.tally.failed;
    if trace {
        let path = std::path::Path::new(&span_file);
        match ctx.spans.write_jsonl(path, &provenance) {
            Ok(()) => eprintln!("spans: {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", report.to_json(trace));
}
