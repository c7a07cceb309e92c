//! Command parsing and execution for the `dima` CLI.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

use dima_core::verify::{
    verify_edge_coloring, verify_matching, verify_residual_edge_coloring, verify_residual_matching,
    verify_residual_strong_coloring, verify_strong_coloring,
};
use dima_core::{
    color_edges_churn_traced, color_edges_traced, maximal_matching_traced,
    strong_color_churn_traced, strong_color_digraph_traced, BatchReport, ChurnKinds, ChurnPlan,
    ChurnSchedule, Color, ColorReduction, ColoringConfig, CoreError, EdgeColoringResult, Engine,
    KempeConfig, StrongColoringResult, Transport,
};
use dima_graph::gen;
use dima_graph::{io, Digraph, Graph, VertexId};
use dima_sim::fault::{FaultPlan, GilbertElliott};
use dima_sim::telemetry::{
    kind_totals, read, Event, KindTotals, MemReport, MetricsRegistry, NoopTracer, PaletteAction,
    RunTotals, StateTimeline, TraceMeta, TraceWriter, Tracer, STATES,
};
use dima_sim::RunStats;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// What a command returns when its stdout was closed under it (a reader
/// such as `head` stopped reading); `main` exits quietly on it.
pub(crate) const STDOUT_CLOSED: &str = "stdout closed";

/// `print!`, reporting a failed write as an error instead of panicking.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!`, reporting a failed write as an error instead of panicking.
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn write_stdout(args: std::fmt::Arguments<'_>) -> Result<(), String> {
    std::io::stdout().lock().write_fmt(args).map_err(|e| match e.kind() {
        std::io::ErrorKind::BrokenPipe => STDOUT_CLOSED.to_string(),
        _ => format!("writing stdout: {e}"),
    })
}

/// Top-level usage text (`dima-cli help`).
const USAGE: &str = "\
usage: dima-cli <command> [args]

commands:
  gen <family> [--n N] [--avg-degree D] [--p P] [--edges-per-vertex M]
               [--power W] [--k K] [--beta B] [--d D] [--radius R]
               [--seed S] [--out FILE]
      families: er | gnp | scale-free | small-world | regular | geometric
  info <graph.edges>
  color <graph.edges> [--seed S] [--threads T] [--out FILE]
               [--reduce kempe|off] [--reduce-target C]
      --reduce kempe runs the Kempe-chain palette compaction after the
      run (and after each churn repair) — alternating-chain recoloring
      retires colors above the target (default Δ+1, override with
      --reduce-target)
  strong-color <graph.edges> [--seed S] [--threads T] [--width K] [--out FILE]
  matching <graph.edges> [--seed S] [--threads T]
      churn flags (color | strong-color, also under trace record and
      metrics dump): inject topology churn mid-run and repair
      incrementally; output and verification use the final (post-churn)
      graph
        --churn-rate P      expected events per batch as a fraction of n
        --churn-kinds K     all | links | comma list of
                            link-up,link-down,node-join,node-leave
        --churn-seed S      schedule seed (default: the run's --seed)
  verify <graph.edges> <coloring.colors> [--strong]
  dot <graph.edges> [<coloring.colors>]
  trace record <graph.edges> --trace out.jsonl
               [--workload color|strong-color|matching] [run flags]
      run a workload purely to record its trace (no coloring output)
  trace summarize <trace.jsonl> [--top K] [--every N]
      round-by-round state census, matching progress vs the paper's
      Property 1, color histogram, top-K slowest nodes, run totals
  trace diff <a.jsonl> <b.jsonl>
      compare two traces event by event and localize the first
      divergent round (engine identity is ignored, so identical-seed
      runs at any --threads must diff empty)
  metrics dump <graph.edges> [--workload color|strong-color|matching]
               [--out FILE] [run flags]
      run a workload with the metrics plane on and emit the merged
      counter/gauge/histogram registry as flat JSONL
  metrics diff <a.jsonl> <b.jsonl>
      compare two metrics dumps entry by entry (the env-dependent mem/
      family excluded, so identical-seed dumps at any --threads must
      diff empty); nonzero exit on divergence
  serve <graph.edges> [--seed S] [--protocol ec|strong] [--threads T]
        [--width K] [--watchdog T] [--state-dir DIR] [--snapshot-every N]
        [--compact-after N] [--queue CAP] [--queue-policy block|shed]
        [--listen tcp:ADDR|unix:PATH] [--max-clients N]
        [--reduce kempe|off] [--reduce-target C]
        [--slo-out FILE] [--metrics-out FILE] [--label L]
        [--chaos-kill-at LABEL[:N]] [--chaos-storage KIND:TARGET:N,..]
      long-running coloring service: reads JSONL topology events
      ({\"ev\":\"link-up\",\"u\":0,\"v\":5}, link-down, join, leave) and
      commands ({\"cmd\":\"status\"|\"color\"|\"palette\"|\"hash\"|
      \"snapshot\"|\"recolor\"|\"shutdown\"}) on stdin, repairs the
      coloring incrementally, and answers on stdout; --listen swaps
      stdin for a TCP or Unix socket front end serving many concurrent
      clients (admission-capped, overload replies carry retry hints);
      with --state-dir it checkpoints a CRC-chained base + delta
      sequence with a write-ahead journal (the base records the settled
      service's state; restore replays only what came after it), folds
      the history into the graph and writes a fresh base every N
      committed entries (--compact-after; a fold moves no color), and
      restores bit-identically after a crash from the newest
      verifiable checkpoint; --chaos-storage injects
      torn/short writes (torn) or disk-full failures (full) into the
      Nth write of snapshot|delta|journal

fault-injection flags (color | strong-color | matching):
  --fault-loss P          drop each delivery with probability P
  --fault-burst PG,PB     Gilbert-Elliott burst loss (Good/Bad loss rates)
  --fault-crash F         crash-stop a fraction F of the nodes mid-run
  --transport bare|reliable
                          bare links (the paper's model) or the ARQ
                          reliable-link layer; overhead reported per run

profiling flags (color | strong-color | matching):
  --profile               measure per-phase engine wall-clock (step,
                          collect, churn) to stderr; under
                          --threads the per-shard breakdown shows which
                          shard gates each round barrier

metrics flags (color | strong-color | matching):
  --metrics               collect the deterministic metrics plane and
                          print it (plus allocator bytes/node, bytes/edge,
                          peak RSS) with the run report
  --metrics-out FILE      also dump the registry as JSONL (implies
                          --metrics); feed two dumps to 'metrics diff'

trace flags (color | strong-color | matching | trace record):
  --trace FILE            stream a structured JSONL trace of the run
  --trace-sample N        keep node events only for nodes with id % N == 0
                          (bounds trace size and the multi-shard
                          deterministic-merge cost)";

/// Flags that take no value; present means "on".
const BOOL_FLAGS: &[&str] = &["profile", "metrics", "strong"];

/// The flags of every workload command (`color`, `strong-color`,
/// `matching`, `trace record`, `metrics dump`), space-separated; each
/// workload adds its own ([`Workload::flags`]).
const RUN_FLAGS: &str = "seed threads fault-loss fault-burst fault-crash transport profile";

/// `color`, `strong-color` and `matching` also write their product and
/// report metrics and traces.
const RUN_OUTPUT_FLAGS: &str = "out metrics metrics-out trace trace-sample";

const GEN_FLAGS: &str = "n seed avg-degree p edges-per-vertex power k beta d radius out";

/// Parse `--key value` flags from `args` (after the positional prefix).
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("expected a --flag, got '{a}'"));
        };
        if BOOL_FLAGS.contains(&key) {
            flags.insert(key.to_string(), "true".into());
            continue;
        }
        let val = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), val.clone());
    }
    Ok(flags)
}

/// [`parse_flags`], refusing a flag that is in none of the `known`
/// space-separated lists: a typo must not quietly run a different
/// experiment.
pub(crate) fn parse_known_flags(
    args: &[String],
    known: &[&str],
) -> Result<HashMap<String, String>, String> {
    // Walk the keys the way `parse_flags` does, so an unknown flag is
    // named even where it lacks a value.
    let mut it = args.iter();
    while let Some(key) = it.next().and_then(|a| a.strip_prefix("--")) {
        if !known.iter().flat_map(|list| list.split_whitespace()).any(|k| k == key) {
            return Err(format!("unknown flag '--{key}'"));
        }
        if !BOOL_FLAGS.contains(&key) {
            it.next();
        }
    }
    parse_flags(args)
}

pub(crate) fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value '{v}' for --{key}")),
    }
}

fn fault_plan(flags: &HashMap<String, String>) -> Result<FaultPlan, String> {
    let mut faults = FaultPlan::reliable();
    faults.drop_probability = flag(flags, "fault-loss", 0.0)?;
    if let Some(spec) = flags.get("fault-burst") {
        let (good, bad) = spec
            .split_once(',')
            .ok_or_else(|| format!("--fault-burst wants 'PG,PB', got '{spec}'"))?;
        let parse = |s: &str| {
            let p = s
                .trim()
                .parse::<f64>()
                .map_err(|_| format!("bad probability '{s}' in --fault-burst"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("--fault-burst probability {p} not in [0, 1]"));
            }
            Ok(p)
        };
        faults.burst = Some(GilbertElliott::new(parse(good)?, parse(bad)?));
    }
    faults.crash_fraction = flag(flags, "fault-crash", 0.0)?;
    for (name, p) in
        [("fault-loss", faults.drop_probability), ("fault-crash", faults.crash_fraction)]
    {
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("--{name} = {p} not in [0, 1]"));
        }
    }
    Ok(faults)
}

/// Parse the `--reduce` post-pass selector and its `--reduce-target`
/// companion (shared by `color` and `serve`).
pub(crate) fn parse_reduce(flags: &HashMap<String, String>) -> Result<ColorReduction, String> {
    let target: u32 = flag(flags, "reduce-target", 0)?;
    match flags.get("reduce").map(String::as_str) {
        None | Some("off") => {
            if flags.contains_key("reduce-target") {
                return Err("--reduce-target needs --reduce kempe".into());
            }
            Ok(ColorReduction::Off)
        }
        Some("kempe") => {
            Ok(ColorReduction::Kempe(KempeConfig { target_colors: (target > 0).then_some(target) }))
        }
        Some(other) => Err(format!("--reduce must be kempe or off, got '{other}'")),
    }
}

fn run_config(flags: &HashMap<String, String>) -> Result<ColoringConfig, String> {
    let seed: u64 = flag(flags, "seed", 0)?;
    let threads: usize = flag(flags, "threads", 0)?;
    if threads == 0 && flags.contains_key("threads") {
        return Err("--threads must be >= 1 (omit the flag for 1 shard)".into());
    }
    let width: usize = flag(flags, "width", 1)?;
    let transport = match flags.get("transport").map(String::as_str) {
        None | Some("bare") => Transport::Bare,
        Some("reliable") => Transport::reliable(),
        Some(other) => return Err(format!("--transport must be bare or reliable, got '{other}'")),
    };
    let mut cfg = ColoringConfig {
        engine: if threads == 0 { Engine::Sequential } else { Engine::Parallel { threads } },
        proposal_width: width,
        faults: fault_plan(flags)?,
        transport,
        reduction: parse_reduce(flags)?,
        profile: flags.contains_key("profile"),
        collect_metrics: metrics_asked(flags),
        // CLI runs are measurements: skip the engine's per-delivery
        // debugging check (the test suites keep it on).
        ..ColoringConfig::for_measurement(seed)
    };
    // A faulty run's transport report reads the registry.
    cfg.collect_metrics |= faulty(&cfg);
    Ok(cfg)
}

/// `--metrics` or `--metrics-out`: the run report prints the registry.
fn metrics_asked(flags: &HashMap<String, String>) -> bool {
    flags.contains_key("metrics") || flags.contains_key("metrics-out")
}

/// `--profile` breakdown: engine phase wall-clock totals, plus the
/// per-shard rows when the run has more than one shard (the imbalance
/// view — a shard whose `step` dwarfs the others is the one gating each
/// round barrier).
fn report_profile(stats: &dima_sim::RunStats) {
    let p = &stats.phase_nanos;
    if p.total() == 0 {
        return;
    }
    let ms = |n: u64| n as f64 / 1e6;
    eprintln!(
        "profile: step {:.3} ms, collect {:.3} ms, churn {:.3} ms \
         (total {:.3} ms across workers)",
        ms(p.step),
        ms(p.collect),
        ms(p.churn),
        ms(p.total()),
    );
    if stats.shard_phases.len() < 2 {
        return;
    }
    for (i, sp) in stats.shard_phases.iter().enumerate() {
        eprintln!(
            "profile:   shard {i}: step {:.3} ms, collect {:.3} ms, churn {:.3} ms",
            ms(sp.step),
            ms(sp.collect),
            ms(sp.churn),
        );
    }
}

/// `--metrics` section of a run report: the aggregate registry plus the
/// process memory footprint (bytes/node, bytes/edge, peak RSS). With
/// `--metrics-out FILE` the registry (including the `mem/` gauges) is
/// also dumped as flat JSONL for `dima metrics diff`.
fn report_metrics(
    flags: &HashMap<String, String>,
    label: &str,
    stats: &RunStats,
    nodes: usize,
    edges: usize,
) -> Result<(), String> {
    let Some(reg) = stats.metrics.as_deref().filter(|_| metrics_asked(flags)) else {
        return Ok(());
    };
    let mem = MemReport::capture(nodes as u64, edges as u64);
    eprintln!("metrics:");
    eprint!("{}", reg.to_text());
    eprint!("{}", mem.to_text());
    if let Some(path) = flags.get("metrics-out") {
        let mut full = reg.clone();
        mem.record(&mut full);
        std::fs::write(path, full.to_jsonl(label)).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("metrics: dump -> {path}");
    }
    Ok(())
}

/// One stderr line recording engine options that change what a timing
/// means (currently just the send-validation choice).
fn report_run_options(cfg: &ColoringConfig) {
    eprintln!(
        "engine: send validation {} (off is the measurement default; results are identical)",
        if cfg.validate_sends { "on" } else { "off" },
    );
}

/// Assemble a churn plan from `--churn-*` flags; `None` when churn is off
/// (`--churn-rate` absent or 0).
fn churn_plan(flags: &HashMap<String, String>) -> Result<Option<ChurnPlan>, String> {
    let rate: f64 = flag(flags, "churn-rate", 0.0)?;
    if rate == 0.0 {
        if flags.contains_key("churn-kinds") || flags.contains_key("churn-seed") {
            return Err("--churn-kinds / --churn-seed need --churn-rate > 0".into());
        }
        return Ok(None);
    }
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--churn-rate = {rate} not in [0, 1]"));
    }
    let run_seed: u64 = flag(flags, "seed", 0)?;
    let schedule_seed: u64 = flag(flags, "churn-seed", run_seed)?;
    let kinds = match flags.get("churn-kinds").map(String::as_str) {
        None | Some("all") => ChurnKinds::all(),
        Some("links") => ChurnKinds::links_only(),
        Some(spec) => {
            let mut kinds = ChurnKinds {
                link_up: false,
                link_down: false,
                node_join: false,
                node_leave: false,
            };
            for tok in spec.split(',') {
                match tok.trim() {
                    "link-up" => kinds.link_up = true,
                    "link-down" => kinds.link_down = true,
                    "node-join" => kinds.node_join = true,
                    "node-leave" => kinds.node_leave = true,
                    other => {
                        return Err(format!(
                            "unknown churn kind '{other}' (expected all, links, or a comma \
                             list of link-up, link-down, node-join, node-leave)"
                        ))
                    }
                }
            }
            kinds
        }
    };
    Ok(Some(ChurnPlan { kinds, ..ChurnPlan::new(schedule_seed, rate) }))
}

/// One stderr line summarising the schedule and the per-batch repairs.
fn report_churn(schedule: &ChurnSchedule, batches: &[BatchReport]) {
    let repaired: Vec<u64> = batches.iter().filter_map(|b| b.repair_rounds).collect();
    let mean = if repaired.is_empty() {
        "-".to_string()
    } else {
        format!("{:.1}", repaired.iter().sum::<u64>() as f64 / repaired.len() as f64)
    };
    eprintln!(
        "churn: {} batches, {} events, {} edges dirtied; {}/{} windows quiesced \
         (mean {} repair rounds)",
        schedule.len(),
        schedule.total_events(),
        batches.iter().map(|b| b.dirty_edges).sum::<usize>(),
        repaired.len(),
        batches.len(),
        mean,
    );
}

/// `true` once any fault/transport flag deviates from the paper's model —
/// summaries then break out the transport's work.
fn faulty(cfg: &ColoringConfig) -> bool {
    cfg.faults != FaultPlan::reliable() || cfg.transport != Transport::Bare
}

/// `--trace` / `--trace-sample` options of a run command.
#[derive(Debug)]
struct TraceFlags {
    path: Option<String>,
    sample: u32,
}

fn trace_flags(flags: &HashMap<String, String>) -> Result<TraceFlags, String> {
    let sample: u32 = flag(flags, "trace-sample", 0)?;
    if sample == 0 && flags.contains_key("trace-sample") {
        return Err("--trace-sample must be >= 1 (omit the flag to trace every node)".into());
    }
    let path = flags.get("trace").cloned();
    if path.is_none() && flags.contains_key("trace-sample") {
        return Err("--trace-sample needs --trace".into());
    }
    Ok(TraceFlags { path, sample })
}

/// Printed at most once per process: an unsampled trace over several
/// shards has a real deterministic-merge cost.
static MERGE_COST_WARNED: AtomicBool = AtomicBool::new(false);

/// The JSONL trace a run streams (`--trace`). The run is traced through
/// the [`TraceWriter`] itself, so `--trace-sample` reaches the engine's
/// sampling predicate.
struct CliTrace {
    writer: TraceWriter<Box<dyn Write + Send + Sync>>,
    path: String,
}

impl CliTrace {
    /// Open the run's trace; `None` without `--trace`.
    fn create(
        tf: &TraceFlags,
        cfg: &ColoringConfig,
        workload: &str,
        graph: &str,
        nodes: usize,
    ) -> Result<Option<CliTrace>, String> {
        let Some(path) = &tf.path else {
            return Ok(None);
        };
        let (engine, threads) = match cfg.engine {
            Engine::Sequential => ("seq", 1),
            Engine::Parallel { threads } => ("par", threads as u32),
        };
        if threads > 1 && tf.sample <= 1 && !MERGE_COST_WARNED.swap(true, Ordering::Relaxed) {
            eprintln!(
                "warning: --trace over several shards (--threads > 1) buffers every \
                 event per worker and merges the buffers into the canonical deterministic \
                 order; on large runs that merge dominates the run. Bound it with \
                 --trace-sample N (keeps node events for node ids divisible by N). \
                 This warning prints once."
            );
        }
        let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        let sink: Box<dyn Write + Send + Sync> = Box::new(std::io::BufWriter::new(file));
        let meta = TraceMeta {
            workload: workload.into(),
            graph: graph.into(),
            seed: cfg.seed,
            nodes: nodes as u64,
            engine: engine.into(),
            threads,
            sample: tf.sample,
        };
        Ok(Some(CliTrace { writer: TraceWriter::new(sink, &meta), path: path.clone() }))
    }

    /// Close the JSONL stream (footer + flush).
    fn finish(self, stats: &RunStats) -> Result<(), String> {
        let events = self.writer.events_written();
        self.writer
            .finish(&run_totals(stats))
            .map_err(|e| format!("writing trace {}: {e}", self.path))?;
        eprintln!("trace: {events} events -> {}", self.path);
        Ok(())
    }
}

/// The JSONL footer totals for a finished run.
fn run_totals(stats: &RunStats) -> RunTotals {
    RunTotals {
        rounds: stats.rounds,
        messages_sent: stats.messages_sent,
        deliveries: stats.deliveries,
        dropped: stats.dropped,
        corrupted: stats.corrupted,
        duplicated: stats.duplicated,
        crashed: stats.crashed as u64,
        idle_rounds_skipped: stats.idle_rounds_skipped,
        churn_batches: stats.churn_batches,
        churn_events: stats.churn_events,
    }
}

/// `", N idle rounds skipped"` when the engines fast-forwarded over
/// quiescent rounds, empty otherwise — appended to every run report.
fn idle_note(stats: &RunStats) -> String {
    if stats.idle_rounds_skipped > 0 {
        format!(", {} idle rounds skipped", stats.idle_rounds_skipped)
    } else {
        String::new()
    }
}

/// Stderr lines summarising what the faults of a [`faulty`] run did and
/// what the ARQ layer spent repairing them, read from the run's metrics
/// registry: message fates by kind (`kind/`), control words (which are
/// not messages, `engine/control_*`) and the ARQ link outcomes (`arq/`).
/// The crash count comes from [`RunStats`].
fn report_transport(cfg: &ColoringConfig, r: &WorkloadRun<'_>) {
    let (Some(reg), true) = (r.stats.metrics.as_deref(), faulty(cfg)) else {
        return;
    };
    let (overhead_rounds, alive) = (r.transport_overhead_rounds, &r.alive);
    let survivors = alive.iter().filter(|&&a| a).count();
    let mut total = KindTotals::default();
    let mut kinds = Vec::new();
    for (kind, t) in kind_totals(reg) {
        total.add(&t);
        kinds.push(format!("{kind} {}/{}", t.delivered, t.sent));
    }
    let words = reg.counter("engine/control_words");
    if words > 0 {
        kinds.push(format!("control words {}/{words}", words - reg.counter("engine/control_lost")));
    }
    eprintln!(
        "transport: {overhead_rounds} overhead rounds, {} dropped, {} corrupted, \
         {} duplicated, {} crashed ({survivors}/{} nodes survive); delivered/sent \
         by kind: {}",
        total.dropped,
        total.corrupted,
        total.duplicated,
        r.stats.crashed,
        alive.len(),
        if kinds.is_empty() { "none".to_string() } else { kinds.join(", ") },
    );
    let retransmits = reg.counter("arq/retransmits");
    let died = reg.counter("arq/link_down_silent");
    if retransmits > 0 || died > 0 {
        eprintln!(
            "arq: {retransmits} retransmits, {died} directed links died ({} toward live peers)",
            reg.counter("arq/false_deaths"),
        );
    }
}

pub(crate) fn load_graph(path: &str) -> Result<Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    io::from_edge_list(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn write_or_print(out: Option<&String>, content: &str) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(Path::new(path), content).map_err(|e| format!("writing {path}: {e}"))
        }
        None => out!("{content}"),
    }
}

/// Serialise a coloring as `edge_id color` lines.
fn coloring_to_text(colors: &[Option<Color>]) -> String {
    let mut out = String::new();
    for (i, c) in colors.iter().enumerate() {
        if let Some(c) = c {
            out.push_str(&format!("{i} {c}\n"));
        }
    }
    out
}

/// Parse a coloring file back into a vector sized for `len` edges.
fn coloring_from_text(text: &str, len: usize) -> Result<Vec<Option<Color>>, String> {
    let mut colors = vec![None; len];
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tok = line.split_whitespace();
        let e: usize = tok
            .next()
            .ok_or("missing edge id")?
            .parse()
            .map_err(|_| format!("line {}: bad edge id", lineno + 1))?;
        let c: u32 = tok
            .next()
            .ok_or_else(|| format!("line {}: missing color", lineno + 1))?
            .parse()
            .map_err(|_| format!("line {}: bad color", lineno + 1))?;
        if tok.next().is_some() {
            return Err(format!("line {}: trailing tokens after color", lineno + 1));
        }
        if e >= len {
            return Err(format!("line {}: edge id {e} out of range", lineno + 1));
        }
        if colors[e].replace(Color(c)).is_some() {
            return Err(format!("line {}: edge id {e} colored twice", lineno + 1));
        }
    }
    Ok(colors)
}

/// Dispatch the CLI.
pub fn dispatch(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("no command given".into());
    };
    match command.as_str() {
        "gen" => cmd_gen(&args[1..]),
        "info" => cmd_info(&args[1..]),
        "color" => cmd_run(Workload::Color, &args[1..]),
        "strong-color" => cmd_run(Workload::StrongColor, &args[1..]),
        "matching" => cmd_run(Workload::Matching, &args[1..]),
        "verify" => cmd_verify(&args[1..]),
        "dot" => cmd_dot(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "metrics" => cmd_metrics(&args[1..]),
        "serve" => crate::serve::cmd_serve(&args[1..]),
        "help" | "--help" | "-h" => outln!("{USAGE}"),
        other => Err(format!("unknown command '{other}'")),
    }
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let Some(family) = args.first() else {
        return Err("gen needs a family".into());
    };
    let flags = parse_known_flags(&args[1..], &[GEN_FLAGS])?;
    let n: usize = flag(&flags, "n", 100)?;
    let seed: u64 = flag(&flags, "seed", 0)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = match family.as_str() {
        "er" => {
            let d: f64 = flag(&flags, "avg-degree", 8.0)?;
            gen::erdos_renyi_avg_degree(n, d, &mut rng)
        }
        "gnp" => {
            let p: f64 = flag(&flags, "p", 0.05)?;
            gen::erdos_renyi_gnp(n, p, &mut rng)
        }
        "scale-free" => {
            let m: usize = flag(&flags, "edges-per-vertex", 2)?;
            let power: f64 = flag(&flags, "power", 1.0)?;
            gen::barabasi_albert(n, m, power, &mut rng)
        }
        "small-world" => {
            let k: usize = flag(&flags, "k", 4)?;
            let beta: f64 = flag(&flags, "beta", 0.3)?;
            gen::watts_strogatz(n, k, beta, &mut rng)
        }
        "regular" => {
            let d: usize = flag(&flags, "d", 4)?;
            gen::random_regular(n, d, &mut rng)
        }
        "geometric" => {
            let r: f64 = flag(&flags, "radius", 0.2)?;
            gen::random_geometric(n, r, &mut rng)
        }
        other => return Err(format!("unknown family '{other}'")),
    }
    .map_err(|e| e.to_string())?;
    eprintln!(
        "generated {family}: n = {}, m = {}, Δ = {}",
        g.num_vertices(),
        g.num_edges(),
        g.max_degree()
    );
    write_or_print(flags.get("out"), &io::to_edge_list(&g))
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("info needs a graph file".into());
    };
    parse_known_flags(&args[1..], &[])?;
    let g = load_graph(path)?;
    let stats = dima_graph::analysis::DegreeStats::of(&g);
    let (components, _) = dima_graph::analysis::connected_components(&g);
    outln!("vertices:     {}", g.num_vertices())?;
    outln!("edges:        {}", g.num_edges())?;
    outln!("Δ (max deg):  {}", stats.max)?;
    outln!("δ (min deg):  {}", stats.min)?;
    outln!("mean degree:  {:.2} (σ = {:.2})", stats.mean, stats.stddev)?;
    outln!("components:   {components}")?;
    outln!("clustering:   {:.4}", dima_graph::analysis::average_clustering(&g))?;
    if let Some(alpha) = dima_graph::analysis::power_law_exponent(&g, 3) {
        outln!("tail exponent (d ≥ 3): {alpha:.2}")?;
    }
    Ok(())
}

/// The workloads the run commands (`color`, `strong-color`, `matching`,
/// `trace record`, `metrics dump`) dispatch to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Color,
    StrongColor,
    Matching,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "color" => Ok(Workload::Color),
            "strong-color" => Ok(Workload::StrongColor),
            "matching" => Ok(Workload::Matching),
            other => Err(format!(
                "unknown workload '{other}' (expected color, strong-color, or matching)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Color => "color",
            Workload::StrongColor => "strong-color",
            Workload::Matching => "matching",
        }
    }

    /// The run flags only this workload takes, space-separated.
    fn flags(self) -> &'static str {
        match self {
            Workload::Color => "reduce reduce-target churn-rate churn-kinds churn-seed",
            Workload::StrongColor => "width churn-rate churn-kinds churn-seed",
            Workload::Matching => "",
        }
    }

    /// The `--workload` among `args` (default color), read before the
    /// flags are checked because it decides which flags are known.
    fn among(args: &[String]) -> Result<Self, String> {
        let name = args.windows(2).find(|w| w[0] == "--workload").map_or("color", |w| &w[1]);
        Workload::parse(name)
    }
}

/// What a workload produced, on the topology it must be verified
/// against (the final graph of a churn run).
enum Product<'g> {
    Edges(Cow<'g, Graph>, Vec<Option<Color>>),
    Arcs(Digraph, Vec<Option<Color>>),
    Pairs(&'g Graph, Vec<(VertexId, VertexId)>),
}

/// One finished workload run, whatever the workload: what the run
/// commands verify, report and write.
struct WorkloadRun<'g> {
    stats: RunStats,
    transport_overhead_rounds: u64,
    alive: Vec<bool>,
    agreement: bool,
    /// The one-line stderr summary.
    summary: String,
    /// Kempe post-pass and palette-memory lines (color only).
    quality: Vec<String>,
    /// Vertex and edge (arc) counts the memory figures divide by.
    size: (usize, usize),
    /// Per-batch repair reports; `Some` iff the run churned.
    batches: Option<Vec<BatchReport>>,
    product: Product<'g>,
}

/// Run `w` on `g`, under `schedule` when churned. Matching has no churn
/// mode; its callers never pass a schedule.
fn run_workload<'g, T: Tracer + Sync>(
    w: Workload,
    g: &'g Graph,
    cfg: &ColoringConfig,
    schedule: Option<&ChurnSchedule>,
    tracer: &mut T,
) -> Result<WorkloadRun<'g>, String> {
    let err = |e: CoreError| e.to_string();
    Ok(match (w, schedule) {
        (Workload::Color, None) => {
            edge_run(Cow::Borrowed(g), color_edges_traced(g, cfg, tracer).map_err(err)?, None)
        }
        (Workload::Color, Some(s)) => {
            let r = color_edges_churn_traced(g, s, cfg, tracer).map_err(err)?;
            edge_run(Cow::Owned(r.final_graph), r.coloring, Some(r.batches))
        }
        (Workload::StrongColor, None) => {
            let d = Digraph::symmetric_closure(g);
            let r = strong_color_digraph_traced(&d, cfg, tracer).map_err(err)?;
            strong_run(d, r, None)
        }
        (Workload::StrongColor, Some(s)) => {
            let r = strong_color_churn_traced(g, s, cfg, tracer).map_err(err)?;
            strong_run(r.final_digraph, r.coloring, Some(r.batches))
        }
        (Workload::Matching, _) => {
            let m = maximal_matching_traced(g, cfg, tracer).map_err(err)?;
            WorkloadRun {
                summary: format!(
                    "maximal matching: {} pairs in {} computation rounds, {} messages{}",
                    m.pairs.len(),
                    m.compute_rounds,
                    m.stats.messages_sent,
                    idle_note(&m.stats),
                ),
                quality: Vec::new(),
                size: (g.num_vertices(), g.num_edges()),
                batches: None,
                stats: m.stats,
                transport_overhead_rounds: m.transport_overhead_rounds,
                alive: m.alive,
                agreement: m.agreement,
                product: Product::Pairs(g, m.pairs),
            }
        }
    })
}

fn edge_run(
    g: Cow<'_, Graph>,
    r: EdgeColoringResult,
    batches: Option<Vec<BatchReport>>,
) -> WorkloadRun<'_> {
    let on = match batches {
        Some(_) => format!("final graph (n = {}, m = {}) ", g.num_vertices(), g.num_edges()),
        None => String::new(),
    };
    let mut quality = Vec::new();
    if let Some(k) = &r.reduction {
        quality.push(format!(
            "kempe: {} -> {} colors (target {}, saved {}), {} trivial recolors, {} chains \
             (longest {}), {} aborts, {} communication rounds",
            k.colors_before,
            k.colors_after,
            k.target_colors,
            k.colors_saved(),
            k.trivial_recolors,
            k.chains_flipped,
            k.max_chain_len,
            k.aborts,
            k.comm_rounds,
        ));
    }
    let n = g.num_vertices();
    if n > 0 {
        quality.push(format!(
            "palette memory: {} bytes across {} nodes ({:.1} bytes/node)",
            r.palette_bytes,
            n,
            r.palette_bytes as f64 / n as f64,
        ));
    }
    WorkloadRun {
        summary: format!(
            "colored {on}with {} colors (Δ = {}) in {} computation rounds, {} messages{}",
            r.colors_used,
            r.max_degree,
            r.compute_rounds,
            r.stats.messages_sent,
            idle_note(&r.stats),
        ),
        quality,
        size: (n, g.num_edges()),
        batches,
        stats: r.stats,
        transport_overhead_rounds: r.transport_overhead_rounds,
        alive: r.alive,
        agreement: r.endpoint_agreement,
        product: Product::Edges(g, r.colors),
    }
}

fn strong_run<'g>(
    d: Digraph,
    r: StrongColoringResult,
    batches: Option<Vec<BatchReport>>,
) -> WorkloadRun<'g> {
    WorkloadRun {
        summary: format!(
            "assigned {} channels to {} arcs{} (Δ = {}) in {} rounds, {} messages{}",
            r.colors_used,
            d.num_arcs(),
            if batches.is_some() { " of the final graph" } else { "" },
            r.max_degree,
            r.compute_rounds,
            r.stats.messages_sent,
            idle_note(&r.stats),
        ),
        quality: Vec::new(),
        size: (d.num_vertices(), d.num_arcs()),
        batches,
        stats: r.stats,
        transport_overhead_rounds: r.transport_overhead_rounds,
        alive: r.alive,
        agreement: r.endpoint_agreement,
        product: Product::Arcs(d, r.colors),
    }
}

impl WorkloadRun<'_> {
    /// Check the product of a run under `cfg`. A clean static run must be
    /// exact; a faulty or churned one must agree at both endpoints and be
    /// proper among the survivors.
    fn verify(&self, cfg: &ColoringConfig) -> Result<(), String> {
        let churned = self.batches.is_some();
        if !faulty(cfg) && !churned {
            return match &self.product {
                Product::Edges(g, colors) => verify_edge_coloring(g, colors),
                Product::Arcs(d, colors) => verify_strong_coloring(d, colors),
                Product::Pairs(g, pairs) => verify_matching(g, pairs),
            }
            .map_err(|e| format!("internal: {e}"));
        }
        if !self.agreement {
            let what = match self.product {
                Product::Edges(..) => "colors",
                Product::Arcs(..) => "channels",
                Product::Pairs(..) => "the matching",
            };
            let hint = if churned || cfg.transport != Transport::Bare {
                ""
            } else {
                " (try --transport reliable)"
            };
            return Err(format!(
                "run corrupted by injected faults: endpoints disagree on {what}{hint}"
            ));
        }
        let alive = &self.alive;
        match &self.product {
            Product::Edges(g, colors) => verify_residual_edge_coloring(g, colors, alive),
            Product::Arcs(d, colors) => verify_residual_strong_coloring(d, colors, alive),
            Product::Pairs(g, pairs) => verify_residual_matching(g, pairs, alive),
        }
        .map_err(|e| match churned {
            true => format!("repair failed on the final graph: {e}"),
            false => format!("run corrupted by injected faults: {e}"),
        })
    }

    /// The `--out` text: `edge_id color` lines, or `u v` matched pairs.
    fn output(&self) -> String {
        match &self.product {
            Product::Edges(_, colors) | Product::Arcs(_, colors) => coloring_to_text(colors),
            Product::Pairs(_, pairs) => pairs.iter().map(|(u, v)| format!("{u} {v}\n")).collect(),
        }
    }
}

/// The churn schedule the `--churn-*` flags ask of `w` on `g`: `None`
/// for a static run, and always for matching, which has no churn mode.
fn churn_schedule(
    w: Workload,
    flags: &HashMap<String, String>,
    g: &Graph,
) -> Result<Option<ChurnSchedule>, String> {
    let plan = match w {
        Workload::Matching => None,
        _ => churn_plan(flags)?,
    };
    Ok(plan.map(|plan| ChurnSchedule::generate(g, &plan)))
}

/// `color`, `strong-color`, `matching`: run the workload (churned when
/// `--churn-rate` is set, color and strong-color only), verify its
/// output, report, and write the output.
fn cmd_run(w: Workload, args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err(format!("{} needs a graph file", w.name()));
    };
    let flags = parse_known_flags(&args[1..], &[RUN_FLAGS, w.flags(), RUN_OUTPUT_FLAGS])?;
    let g = load_graph(path)?;
    let cfg = run_config(&flags)?;
    report_run_options(&cfg);
    let tf = trace_flags(&flags)?;
    let schedule = churn_schedule(w, &flags, &g)?;
    let mut trace = CliTrace::create(&tf, &cfg, w.name(), path, g.num_vertices())?;
    let r = match trace.as_mut() {
        None => run_workload(w, &g, &cfg, schedule.as_ref(), &mut NoopTracer),
        Some(t) => run_workload(w, &g, &cfg, schedule.as_ref(), &mut t.writer),
    }?;
    if let Some(t) = trace {
        t.finish(&r.stats)?;
    }
    r.verify(&cfg)?;
    if let (Some(schedule), Some(batches)) = (&schedule, &r.batches) {
        report_churn(schedule, batches);
    }
    eprintln!("{}", r.summary);
    for line in &r.quality {
        eprintln!("{line}");
    }
    report_profile(&r.stats);
    report_metrics(&flags, w.name(), &r.stats, r.size.0, r.size.1)?;
    report_transport(&cfg, &r);
    write_or_print(flags.get("out"), &r.output())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let (Some(gpath), Some(cpath)) = (args.first(), args.get(1)) else {
        return Err("verify needs a graph file and a coloring file".into());
    };
    let strong = parse_known_flags(&args[2..], &["strong"])?.contains_key("strong");
    let g = load_graph(gpath)?;
    let text = std::fs::read_to_string(cpath).map_err(|e| format!("reading {cpath}: {e}"))?;
    if strong {
        let d = Digraph::symmetric_closure(&g);
        let colors = coloring_from_text(&text, d.num_arcs())?;
        verify_strong_coloring(&d, &colors).map_err(|e| e.to_string())?;
        outln!("OK: valid strong (Definition 2) coloring of the symmetric closure")?;
    } else {
        let colors = coloring_from_text(&text, g.num_edges())?;
        verify_edge_coloring(&g, &colors).map_err(|e| e.to_string())?;
        outln!("OK: valid proper edge coloring")?;
    }
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let Some(gpath) = args.first() else {
        return Err("dot needs a graph file".into());
    };
    let cpath = args.get(1).filter(|a| !a.starts_with("--"));
    parse_known_flags(&args[1 + usize::from(cpath.is_some())..], &[])?;
    let g = load_graph(gpath)?;
    let colors = match cpath {
        Some(cpath) => {
            let text =
                std::fs::read_to_string(cpath).map_err(|e| format!("reading {cpath}: {e}"))?;
            Some(coloring_from_text(&text, g.num_edges())?)
        }
        None => None,
    };
    let dot =
        io::to_dot(&g, "g", |e| colors.as_ref().and_then(|c| c[e.index()]).map(|c| c.to_string()));
    out!("{dot}")
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let Some(sub) = args.first() else {
        return Err("trace needs a subcommand: record | summarize | diff".into());
    };
    match sub.as_str() {
        "record" => cmd_trace_record(&args[1..]),
        "summarize" => cmd_trace_summarize(&args[1..]),
        "diff" => cmd_trace_diff(&args[1..]),
        other => Err(format!("unknown trace subcommand '{other}'")),
    }
}

/// `trace record` — run a workload purely to produce its JSONL trace.
/// Unlike the workload commands it writes no coloring and skips output
/// verification: lossy or budget-exhausted runs are exactly the runs
/// one wants a trace of.
fn cmd_trace_record(args: &[String]) -> Result<(), String> {
    let Some(gpath) = args.first() else {
        return Err("trace record needs a graph file".into());
    };
    let w = Workload::among(&args[1..])?;
    let flags =
        parse_known_flags(&args[1..], &[RUN_FLAGS, w.flags(), "workload trace trace-sample"])?;
    if !flags.contains_key("trace") {
        return Err("trace record needs --trace FILE (the JSONL output)".into());
    }
    let tf = trace_flags(&flags)?;
    let g = load_graph(gpath)?;
    let cfg = run_config(&flags)?;
    report_run_options(&cfg);
    let schedule = churn_schedule(w, &flags, &g)?;
    let mut trace = CliTrace::create(&tf, &cfg, w.name(), gpath, g.num_vertices())?
        .expect("--trace always yields a live tracer");
    let r = run_workload(w, &g, &cfg, schedule.as_ref(), &mut trace.writer)?;
    eprintln!("{}", r.summary);
    trace.finish(&r.stats)?;
    report_transport(&cfg, &r);
    Ok(())
}

/// One parsed trace file: raw lines paired with their parsed records,
/// header guaranteed first.
struct TraceFile {
    raw: Vec<String>,
    recs: Vec<read::Record>,
}

fn load_trace(path: &str) -> Result<TraceFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut raw = Vec::new();
    let mut recs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = read::parse_line(line)
            .ok_or_else(|| format!("{path}:{}: unparseable trace line", i + 1))?;
        raw.push(line.to_string());
        recs.push(rec);
    }
    if recs.first().and_then(read::Record::tag) != Some("header") {
        return Err(format!("{path}: not a dima trace (no header line)"));
    }
    Ok(TraceFile { raw, recs })
}

/// Map a parsed state label back onto the canonical `'static` labels
/// ([`STATES`]); unknown labels land in the catch-all slot.
fn intern_label(label: &str) -> &'static str {
    STATES.iter().find(|s| **s == label).copied().unwrap_or("?")
}

fn parse_palette_action(name: &str) -> Option<PaletteAction> {
    Some(match name {
        "proposed" => PaletteAction::Proposed,
        "committed" => PaletteAction::Committed,
        "released" => PaletteAction::Released,
        "conflicted" => PaletteAction::Conflicted,
        _ => return None,
    })
}

/// Everything `trace summarize` derives from one trace file.
struct TraceSummary {
    header: read::Record,
    timeline: StateTimeline,
    /// Newly committed pairs per *computation* round (3 communication
    /// rounds each), counted once per edge at the smaller endpoint.
    pairs_per_compute_round: Vec<u64>,
    kinds: BTreeMap<String, KindTotals>,
    retransmits: u64,
    link_deaths: u64,
    churn_batches: u64,
    footer: Option<read::Record>,
    /// Event lines (header/footer excluded).
    events: u64,
}

fn summarize_trace(tf: &TraceFile) -> Result<TraceSummary, String> {
    let header = tf.recs[0].clone();
    let nodes = header.num("nodes").unwrap_or(0) as usize;
    let mut s = TraceSummary {
        header,
        timeline: StateTimeline::new(nodes),
        pairs_per_compute_round: Vec::new(),
        kinds: BTreeMap::new(),
        retransmits: 0,
        link_deaths: 0,
        churn_batches: 0,
        footer: None,
        events: 0,
    };
    for rec in &tf.recs[1..] {
        match rec.tag() {
            Some("state") => {
                if let (Some(round), Some(node), Some(label)) =
                    (rec.num("round"), rec.num("node"), rec.str("label"))
                {
                    s.timeline.emit(Event::State {
                        round,
                        node: node as u32,
                        label: intern_label(label),
                        reason: "",
                    });
                }
            }
            Some("palette") => {
                if let (Some(round), Some(node), Some(action), Some(color), Some(peer)) = (
                    rec.num("round"),
                    rec.num("node"),
                    rec.str("action").and_then(parse_palette_action),
                    rec.num("color"),
                    rec.num("peer"),
                ) {
                    if action == PaletteAction::Committed && node < peer {
                        let idx = (round / 3) as usize;
                        if s.pairs_per_compute_round.len() <= idx {
                            s.pairs_per_compute_round.resize(idx + 1, 0);
                        }
                        s.pairs_per_compute_round[idx] += 1;
                    }
                    s.timeline.emit(Event::Palette {
                        round,
                        node: node as u32,
                        action,
                        color: color as u32,
                        peer: peer as u32,
                    });
                }
            }
            Some("arq") => match rec.str("kind") {
                Some("retransmit") => s.retransmits += 1,
                Some(k) if k.starts_with("link-down") => s.link_deaths += 1,
                _ => {}
            },
            Some("msgkind") => {
                if let Some(kind) = rec.str("kind") {
                    let t = s.kinds.entry(kind.to_string()).or_default();
                    t.sent += rec.num("sent").unwrap_or(0);
                    t.delivered += rec.num("delivered").unwrap_or(0);
                    t.dropped += rec.num("dropped").unwrap_or(0);
                    t.corrupted += rec.num("corrupted").unwrap_or(0);
                    t.duplicated += rec.num("duplicated").unwrap_or(0);
                }
            }
            Some("round") => {
                if let Some(round) = rec.num("round") {
                    s.timeline.emit(Event::Round {
                        round,
                        active: rec.num("active").unwrap_or(0),
                        done: rec.num("done").unwrap_or(0),
                        sent: rec.num("sent").unwrap_or(0),
                        delivered: rec.num("delivered").unwrap_or(0),
                    });
                }
            }
            Some("churn") => s.churn_batches += 1,
            Some("footer") => {
                s.footer = Some(rec.clone());
                continue;
            }
            Some("header") => {
                return Err("second header line mid-file (concatenated traces?)".into())
            }
            _ => {}
        }
        s.events += 1;
    }
    Ok(s)
}

/// Render a [`TraceSummary`] for the terminal. `top` bounds the
/// slowest-node list; `every` prints every Nth census row (0 = pick a
/// stride that keeps the table under ~40 rows).
fn render_summary(s: &TraceSummary, top: usize, every: usize) -> String {
    let mut out = String::new();
    let h = &s.header;
    let sample = h.num("sample").unwrap_or(0);
    out.push_str(&format!(
        "trace: {} on {} (seed {}, {} nodes, engine {}x{}, sample {})\n",
        h.str("workload").unwrap_or("?"),
        h.str("graph").unwrap_or("?"),
        h.num("seed").unwrap_or(0),
        h.num("nodes").unwrap_or(0),
        h.str("engine").unwrap_or("?"),
        h.num("threads").unwrap_or(0),
        if sample > 1 { format!("1/{sample}") } else { "off".to_string() },
    ));
    if sample > 1 {
        out.push_str(
            "note: node events are sampled — censuses, pair counts and slowest-node ranks \
             cover the sampled nodes only (unsampled nodes appear parked in state C)\n",
        );
    }

    let rounds = s.timeline.rounds();
    if rounds.is_empty() {
        out.push_str("no round footers in trace\n");
    } else {
        let stride = if every > 0 { every } else { rounds.len().div_ceil(40).max(1) };
        out.push_str("round | census                          | pairs colored | active/done\n");
        for (i, snap) in rounds.iter().enumerate() {
            if i % stride != 0 && i + 1 != rounds.len() {
                continue;
            }
            let census: Vec<String> = snap.states().map(|(l, c)| format!("{l}:{c}")).collect();
            out.push_str(&format!(
                "{:>5} | {:<31} | {:>5} {:>7} | {}/{}\n",
                snap.round,
                census.join(" "),
                snap.matched_pairs,
                snap.colored_edges,
                snap.active,
                snap.done,
            ));
        }
    }

    // Progress vs the paper's Property 1: the automata discovers a
    // matching every computation round (3 communication rounds) while
    // uncolored work remains.
    let last_productive =
        s.pairs_per_compute_round.iter().rposition(|&p| p > 0).map(|i| i + 1).unwrap_or(0);
    if last_productive > 0 {
        let window = &s.pairs_per_compute_round[..last_productive];
        let productive = window.iter().filter(|&&p| p > 0).count();
        let total: u64 = window.iter().sum();
        let max = window.iter().copied().max().unwrap_or(0);
        out.push_str(&format!(
            "Property 1 (a matching forms every computation round while work remains): \
             {productive}/{last_productive} productive compute rounds ({:.0}%); pairs per \
             round mean {:.2}, max {max}; last pair in compute round {}\n",
            100.0 * productive as f64 / last_productive as f64,
            total as f64 / last_productive as f64,
            last_productive - 1,
        ));
    } else {
        out.push_str("Property 1: no pair commits in trace\n");
    }

    if s.timeline.colors_used() > 0 {
        let hist: Vec<String> =
            s.timeline.color_histogram().map(|(c, n)| format!("{c}:{n}")).collect();
        let shown = hist.len().min(24);
        let used = s.timeline.colors_used();
        let peak = s.timeline.peak_colors();
        out.push_str(&format!(
            "colors: {} used{}, {} edges colored, {} conflicts; histogram: {}{}\n",
            used,
            if peak > used {
                format!(" (peak {peak}, {} vacated post-peak)", peak - used)
            } else {
                String::new()
            },
            s.timeline.colored_edges(),
            s.timeline.conflicts,
            hist[..shown].join(" "),
            if hist.len() > shown { " …" } else { "" },
        ));
    }

    // Under sampling, unsampled nodes never transition and would crowd
    // the ranking as eternally-"C" stragglers; rank sampled nodes only.
    let mut slow = s.timeline.slowest_nodes(usize::MAX);
    if sample > 1 {
        slow.retain(|&(v, _, _)| u64::from(v) % sample == 0);
    }
    slow.truncate(top);
    if !slow.is_empty() {
        let rows: Vec<String> =
            slow.iter().map(|&(v, r, l)| format!("{v} ({l} since round {r})")).collect();
        out.push_str(&format!("slowest nodes (top {}): {}\n", rows.len(), rows.join(", ")));
    }

    if !s.kinds.is_empty() {
        let rows: Vec<String> =
            s.kinds.iter().map(|(k, t)| format!("{k} {}/{}", t.delivered, t.sent)).collect();
        out.push_str(&format!("message kinds (delivered/sent): {}\n", rows.join(", ")));
    }
    if s.retransmits > 0 || s.link_deaths > 0 {
        out.push_str(&format!(
            "arq: {} retransmits, {} link deaths\n",
            s.retransmits, s.link_deaths
        ));
    }

    match &s.footer {
        Some(f) => out.push_str(&format!(
            "totals: {} rounds, {} sent, {} delivered, {} dropped, {} corrupted, \
             {} duplicated, {} crashed, {} idle rounds skipped, churn {} batches / {} events \
             ({} trace events)\n",
            f.num("rounds").unwrap_or(0),
            f.num("messages_sent").unwrap_or(0),
            f.num("deliveries").unwrap_or(0),
            f.num("dropped").unwrap_or(0),
            f.num("corrupted").unwrap_or(0),
            f.num("duplicated").unwrap_or(0),
            f.num("crashed").unwrap_or(0),
            f.num("idle_rounds_skipped").unwrap_or(0),
            f.num("churn_batches").unwrap_or(0),
            f.num("churn_events").unwrap_or(0),
            s.events,
        )),
        None => out.push_str(&format!(
            "no footer (truncated trace — run died mid-flight?); {} trace events\n",
            s.events
        )),
    }
    out
}

fn cmd_trace_summarize(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("trace summarize needs a trace file".into());
    };
    let flags = parse_known_flags(&args[1..], &["top every"])?;
    let top: usize = flag(&flags, "top", 5)?;
    let every: usize = flag(&flags, "every", 0)?;
    let tf = load_trace(path)?;
    let summary = summarize_trace(&tf)?;
    out!("{}", render_summary(&summary, top, every))
}

/// `trace diff` — lockstep comparison of two traces. Engine identity
/// (`engine`, `threads`) is ignored in the header so the tool's main
/// use — checking that runs of the same seed at different shard counts
/// emit identical streams — reports a clean diff.
fn cmd_trace_diff(args: &[String]) -> Result<(), String> {
    let (Some(apath), Some(bpath)) = (args.first(), args.get(1)) else {
        return Err("trace diff needs two trace files".into());
    };
    parse_known_flags(&args[2..], &[])?;
    let a = load_trace(apath)?;
    let b = load_trace(bpath)?;
    if a.recs[0].num("sample") != b.recs[0].num("sample") {
        return Err(format!(
            "traces are not comparable: sampling differs ({} vs {})",
            a.recs[0].num("sample").unwrap_or(0),
            b.recs[0].num("sample").unwrap_or(0),
        ));
    }
    let mut diffs = 0u64;
    let mut shown = 0;
    let mut first_round: Option<u64> = None;
    let norm = |r: &read::Record| r.clone().without(&["engine", "threads"]);
    if norm(&a.recs[0]) != norm(&b.recs[0]) {
        diffs += 1;
        shown += 1;
        eprintln!("headers differ (beyond engine identity):\n  a: {}\n  b: {}", a.raw[0], b.raw[0]);
    }
    let n = a.recs.len().min(b.recs.len());
    for i in 1..n {
        if a.recs[i] != b.recs[i] {
            let round = a.recs[i].num("round").or_else(|| b.recs[i].num("round"));
            if first_round.is_none() {
                first_round = round.or(Some(0));
            }
            diffs += 1;
            if shown < 5 {
                shown += 1;
                eprintln!(
                    "line {}: round {}:\n  a: {}\n  b: {}",
                    i + 1,
                    round.map_or("?".to_string(), |r| r.to_string()),
                    a.raw[i],
                    b.raw[i],
                );
            }
        }
    }
    diffs += (a.recs.len().abs_diff(b.recs.len())) as u64;
    if diffs == 0 {
        outln!(
            "traces identical: {} lines (engines {}x{} vs {}x{})",
            a.recs.len(),
            a.recs[0].str("engine").unwrap_or("?"),
            a.recs[0].num("threads").unwrap_or(0),
            b.recs[0].str("engine").unwrap_or("?"),
            b.recs[0].num("threads").unwrap_or(0),
        )?;
        return Ok(());
    }
    if a.recs.len() != b.recs.len() {
        eprintln!("lengths differ: a has {} lines, b has {} lines", a.recs.len(), b.recs.len());
    }
    Err(format!(
        "traces diverge: {} differing lines, first at round {}",
        diffs,
        first_round.map_or("-".to_string(), |r| r.to_string()),
    ))
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let Some(sub) = args.first() else {
        return Err("metrics needs a subcommand: dump | diff".into());
    };
    match sub.as_str() {
        "dump" => cmd_metrics_dump(&args[1..]),
        "diff" => cmd_metrics_diff(&args[1..]),
        other => Err(format!("unknown metrics subcommand '{other}'")),
    }
}

/// `metrics dump` — run a workload with the metrics plane forced on and
/// emit the merged registry as flat JSONL (the `metrics diff` input).
/// Like `trace record` it writes no coloring output: the registry is
/// the artifact.
fn cmd_metrics_dump(args: &[String]) -> Result<(), String> {
    let Some(gpath) = args.first() else {
        return Err("metrics dump needs a graph file".into());
    };
    let w = Workload::among(&args[1..])?;
    let flags = parse_known_flags(&args[1..], &[RUN_FLAGS, w.flags(), "workload out"])?;
    let g = load_graph(gpath)?;
    let mut cfg = run_config(&flags)?;
    cfg.collect_metrics = true;
    report_run_options(&cfg);
    let schedule = churn_schedule(w, &flags, &g)?;
    let WorkloadRun { stats, size: (nodes, edges), .. } =
        run_workload(w, &g, &cfg, schedule.as_ref(), &mut NoopTracer)?;
    let mut reg = *stats.metrics.expect("collect_metrics was forced on");
    MemReport::capture(nodes as u64, edges as u64).record(&mut reg);
    write_or_print(flags.get("out"), &reg.to_jsonl(w.name()))
}

/// `metrics diff` — compare two metrics dumps entry by entry. The
/// env-dependent `mem/` allocator family is stripped first, so
/// identical-seed sequential vs parallel dumps must diff empty — this is
/// the CLI face of the determinism contract the metrics-plane proptests
/// pin.
fn cmd_metrics_diff(args: &[String]) -> Result<(), String> {
    let (Some(apath), Some(bpath)) = (args.first(), args.get(1)) else {
        return Err("metrics diff needs two dump files".into());
    };
    parse_known_flags(&args[2..], &[])?;
    let load = |path: &str| -> Result<(MetricsRegistry, String), String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let (mut reg, label) = MetricsRegistry::from_jsonl(&text)
            .ok_or_else(|| format!("{path}: not a dima metrics dump"))?;
        reg.remove_prefix("mem/");
        Ok((reg, label))
    };
    let (a, alabel) = load(apath)?;
    let (b, blabel) = load(bpath)?;
    let diffs = a.diff(&b);
    if diffs.is_empty() {
        outln!("metrics identical ({alabel} vs {blabel}; mem/ family excluded)")?;
        return Ok(());
    }
    for d in diffs.iter().take(20) {
        eprintln!("  {d}");
    }
    if diffs.len() > 20 {
        eprintln!("  ... and {} more", diffs.len() - 20);
    }
    Err(format!("metrics diverge: {} differing entries", diffs.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// A scratch directory private to the calling test (the harness names
    /// each test's thread after the test), so tests running in parallel
    /// never remove each other's files.
    fn tmpdir() -> std::path::PathBuf {
        let test = std::thread::current().name().unwrap_or("main").replace("::", "_");
        let dir = std::env::temp_dir().join(format!("dima_cli_{}_{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn flag_parsing() {
        let f = parse_flags(&s(&["--n", "10", "--seed", "3"])).unwrap();
        assert_eq!(flag::<usize>(&f, "n", 0).unwrap(), 10);
        assert_eq!(flag::<u64>(&f, "seed", 0).unwrap(), 3);
        assert_eq!(flag::<u64>(&f, "missing", 9).unwrap(), 9);
        assert!(parse_flags(&s(&["bare"])).is_err());
        assert!(parse_flags(&s(&["--n"])).is_err());
        assert!(flag::<usize>(&f, "n", 0).is_ok());
        let f = parse_flags(&s(&["--n", "x"])).unwrap();
        assert!(flag::<usize>(&f, "n", 0).is_err());
    }

    #[test]
    fn fault_and_transport_flags_parse() {
        let f = parse_flags(&s(&[
            "--fault-loss",
            "0.1",
            "--fault-burst",
            "0.02,0.7",
            "--fault-crash",
            "0.05",
            "--transport",
            "reliable",
        ]))
        .unwrap();
        let cfg = run_config(&f).unwrap();
        assert_eq!(cfg.faults.drop_probability, 0.1);
        assert_eq!(cfg.faults.burst, Some(GilbertElliott::new(0.02, 0.7)));
        assert_eq!(cfg.faults.crash_fraction, 0.05);
        assert_eq!(cfg.transport, Transport::reliable());
        assert!(faulty(&cfg));
        assert!(!faulty(&run_config(&parse_flags(&[]).unwrap()).unwrap()));

        for bad in [
            &["--fault-loss", "1.5"][..],
            &["--fault-burst", "0.5"],
            &["--fault-burst", "x,y"],
            &["--fault-crash", "-0.1"],
            &["--transport", "carrier-pigeon"],
        ] {
            let f = parse_flags(&s(bad)).unwrap();
            assert!(run_config(&f).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn disagreement_hints_at_the_reliable_transport_only_on_bare_links() {
        let run = WorkloadRun {
            stats: RunStats::default(),
            transport_overhead_rounds: 0,
            alive: vec![true; 2],
            agreement: false,
            summary: String::new(),
            quality: Vec::new(),
            size: (2, 1),
            batches: None,
            product: Product::Edges(Cow::Owned(Graph::empty(2)), Vec::new()),
        };
        let err = |args: &[&str]| run.verify(&run_config(&parse_flags(&s(args)).unwrap()).unwrap());
        let bare = err(&["--fault-loss", "0.1"]).unwrap_err();
        assert!(bare.ends_with("disagree on colors (try --transport reliable)"), "{bare}");
        let reliable = err(&["--fault-loss", "0.1", "--transport", "reliable"]).unwrap_err();
        assert!(reliable.ends_with("disagree on colors"), "{reliable}");
    }

    #[test]
    fn end_to_end_lossy_run_with_reliable_transport() {
        let dir = tmpdir();
        let gpath = dir.join("g4.edges");
        dispatch(&s(&[
            "gen",
            "er",
            "--n",
            "24",
            "--avg-degree",
            "4",
            "--seed",
            "9",
            "--out",
            gpath.to_str().unwrap(),
        ]))
        .unwrap();
        // Lossy links behind the ARQ layer: the run must come out clean.
        dispatch(&s(&[
            "color",
            gpath.to_str().unwrap(),
            "--seed",
            "1",
            "--fault-loss",
            "0.15",
            "--transport",
            "reliable",
        ]))
        .unwrap();
        // Crash faults degrade to a verified residual matching.
        dispatch(&s(&[
            "matching",
            gpath.to_str().unwrap(),
            "--seed",
            "2",
            "--fault-crash",
            "0.1",
            "--transport",
            "reliable",
        ]))
        .unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn churn_flags_parse() {
        assert!(churn_plan(&parse_flags(&[]).unwrap()).unwrap().is_none());
        let f = parse_flags(&s(&["--churn-rate", "0.2", "--churn-seed", "7"])).unwrap();
        let plan = churn_plan(&f).unwrap().unwrap();
        assert_eq!(plan.rate, 0.2);
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.kinds, ChurnKinds::all());
        // The schedule seed defaults to the run seed.
        let f = parse_flags(&s(&["--churn-rate", "0.2", "--seed", "9"])).unwrap();
        assert_eq!(churn_plan(&f).unwrap().unwrap().seed, 9);
        let f = parse_flags(&s(&["--churn-rate", "0.1", "--churn-kinds", "links"])).unwrap();
        assert_eq!(churn_plan(&f).unwrap().unwrap().kinds, ChurnKinds::links_only());
        let f = parse_flags(&s(&["--churn-rate", "0.1", "--churn-kinds", "link-down,node-leave"]))
            .unwrap();
        let kinds = churn_plan(&f).unwrap().unwrap().kinds;
        assert!(kinds.link_down && kinds.node_leave && !kinds.link_up && !kinds.node_join);

        for bad in [
            &["--churn-rate", "1.5"][..],
            &["--churn-rate", "0.1", "--churn-kinds", "meteor-strike"],
            &["--churn-kinds", "links"], // churn flags without a rate
            &["--churn-seed", "3"],
        ] {
            let f = parse_flags(&s(bad)).unwrap();
            assert!(churn_plan(&f).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn end_to_end_churn_color_and_strong() {
        let dir = tmpdir();
        let gpath = dir.join("g5.edges");
        dispatch(&s(&[
            "gen",
            "er",
            "--n",
            "30",
            "--avg-degree",
            "4",
            "--seed",
            "11",
            "--out",
            gpath.to_str().unwrap(),
        ]))
        .unwrap();
        // Output and verification run against the final (post-churn)
        // graph inside cmd_color / cmd_strong_color.
        dispatch(&s(&[
            "color",
            gpath.to_str().unwrap(),
            "--seed",
            "1",
            "--churn-rate",
            "0.2",
            "--churn-seed",
            "4",
        ]))
        .unwrap();
        dispatch(&s(&[
            "strong-color",
            gpath.to_str().unwrap(),
            "--seed",
            "2",
            "--churn-rate",
            "0.15",
            "--churn-kinds",
            "links",
        ]))
        .unwrap();
        // Churn composes with message loss on bare links, but a dropped
        // repair message is gone for good, so either a verified repaired
        // coloring or a detected failure (starved node, corrupt result)
        // is a legitimate outcome.
        if let Err(e) = dispatch(&s(&[
            "color",
            gpath.to_str().unwrap(),
            "--churn-rate",
            "0.1",
            "--fault-loss",
            "0.01",
        ])) {
            assert!(
                e.contains("simulation error") || e.contains("corrupted") || e.contains("failed"),
                "unexpected error class: {e}"
            );
        }
        assert!(dispatch(&s(&[
            "color",
            gpath.to_str().unwrap(),
            "--churn-rate",
            "0.1",
            "--transport",
            "reliable",
        ]))
        .is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unknown_command_rejected() {
        assert!(dispatch(&s(&["bogus"])).is_err());
        assert!(dispatch(&[]).is_err());
        assert!(dispatch(&s(&["help"])).is_ok());
    }

    #[test]
    fn coloring_text_roundtrip() {
        let colors = vec![Some(Color(2)), None, Some(Color(0))];
        let text = coloring_to_text(&colors);
        let back = coloring_from_text(&text, 3).unwrap();
        assert_eq!(back, colors);
        assert!(coloring_from_text("9 1\n", 3).is_err()); // out of range
        assert!(coloring_from_text("x 1\n", 3).is_err());
        assert!(coloring_from_text("0\n", 3).is_err());
        assert!(coloring_from_text("# comment\n\n0 5\n", 1).unwrap()[0] == Some(Color(5)));
    }

    #[test]
    fn coloring_text_rejects_duplicate_ids_and_trailing_tokens() {
        let dup = coloring_from_text("0 1\n1 2\n0 3\n", 2).unwrap_err();
        assert!(dup.contains("line 3") && dup.contains("twice"), "{dup}");
        let trailing = coloring_from_text("0 1\n1 2 7\n", 2).unwrap_err();
        assert!(trailing.contains("line 2") && trailing.contains("trailing"), "{trailing}");
        let valid = coloring_from_text("# header\n1 4\n\n0 2\n", 2).unwrap();
        assert_eq!(valid, vec![Some(Color(2)), Some(Color(4))]);
    }

    #[test]
    fn end_to_end_gen_color_verify() {
        let dir = tmpdir();
        let gpath = dir.join("g.edges");
        let cpath = dir.join("g.colors");
        dispatch(&s(&[
            "gen",
            "er",
            "--n",
            "40",
            "--avg-degree",
            "4",
            "--seed",
            "7",
            "--out",
            gpath.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&s(&["info", gpath.to_str().unwrap()])).unwrap();
        dispatch(&s(&[
            "color",
            gpath.to_str().unwrap(),
            "--seed",
            "1",
            "--out",
            cpath.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&s(&["verify", gpath.to_str().unwrap(), cpath.to_str().unwrap()])).unwrap();
        dispatch(&s(&["dot", gpath.to_str().unwrap(), cpath.to_str().unwrap()])).unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn end_to_end_strong_and_matching() {
        let dir = tmpdir();
        let gpath = dir.join("g2.edges");
        let spath = dir.join("g2.channels");
        dispatch(&s(&[
            "gen",
            "small-world",
            "--n",
            "32",
            "--k",
            "4",
            "--beta",
            "0.2",
            "--seed",
            "5",
            "--out",
            gpath.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&s(&[
            "strong-color",
            gpath.to_str().unwrap(),
            "--seed",
            "2",
            "--width",
            "4",
            "--out",
            spath.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&s(&["verify", gpath.to_str().unwrap(), spath.to_str().unwrap(), "--strong"]))
            .unwrap();
        dispatch(&s(&["matching", gpath.to_str().unwrap(), "--seed", "3"])).unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn verify_rejects_bad_coloring() {
        let dir = tmpdir();
        let gpath = dir.join("g3.edges");
        std::fs::write(&gpath, "n 3\n0 1\n1 2\n").unwrap();
        let cpath = dir.join("g3.colors");
        std::fs::write(&cpath, "0 0\n1 0\n").unwrap(); // adjacent same color
        assert!(
            dispatch(&s(&["verify", gpath.to_str().unwrap(), cpath.to_str().unwrap()])).is_err()
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn gen_families_all_work() {
        for fam in ["er", "gnp", "scale-free", "small-world", "regular", "geometric"] {
            dispatch(&s(&["gen", fam, "--n", "20", "--d", "4", "--seed", "1"])).unwrap();
        }
        assert!(dispatch(&s(&["gen", "nope"])).is_err());
    }

    #[test]
    fn trace_flags_parse() {
        let f = parse_flags(&s(&["--trace", "out.jsonl", "--trace-sample", "8"])).unwrap();
        let tf = trace_flags(&f).unwrap();
        assert_eq!(tf.path.as_deref(), Some("out.jsonl"));
        assert_eq!(tf.sample, 8);
        let tf = trace_flags(&parse_flags(&[]).unwrap()).unwrap();
        assert!(tf.path.is_none());
        let f = parse_flags(&s(&["--trace-sample", "8"])).unwrap();
        assert!(trace_flags(&f).is_err(), "--trace-sample without --trace must be rejected");
    }

    #[test]
    fn nonsense_flag_values_are_rejected_with_clear_errors() {
        // An explicit --threads 0 is a contradiction (0 means "flag
        // absent" internally); the user must drop the flag instead.
        let f = parse_flags(&s(&["--threads", "0"])).unwrap();
        let err = run_config(&f).unwrap_err();
        assert!(err.contains("--threads"), "unhelpful error: {err}");
        assert!(run_config(&parse_flags(&s(&["--threads", "2"])).unwrap()).is_ok());
        assert!(run_config(&parse_flags(&[]).unwrap()).is_ok(), "omitting --threads stays fine");

        // Same for an explicit --trace-sample 0.
        let f = parse_flags(&s(&["--trace", "t.jsonl", "--trace-sample", "0"])).unwrap();
        let err = trace_flags(&f).unwrap_err();
        assert!(err.contains("--trace-sample"), "unhelpful error: {err}");

        // Burst probabilities outside [0, 1] must be caught before the
        // Gilbert-Elliott chain is built.
        for spec in ["1.5,0.2", "0.2,-0.1", "2,2"] {
            let f = parse_flags(&s(&["--fault-burst", spec])).unwrap();
            let err = fault_plan(&f).unwrap_err();
            assert!(err.contains("[0, 1]"), "unhelpful error for '{spec}': {err}");
        }
        assert!(fault_plan(&parse_flags(&s(&["--fault-burst", "0.02,0.7"])).unwrap()).is_ok());
    }

    #[test]
    fn trace_record_summarize_diff_roundtrip() {
        let dir = tmpdir();
        let gpath = dir.join("gt.edges");
        dispatch(&s(&[
            "gen",
            "er",
            "--n",
            "40",
            "--avg-degree",
            "4",
            "--seed",
            "13",
            "--out",
            gpath.to_str().unwrap(),
        ]))
        .unwrap();
        let g = gpath.to_str().unwrap();
        let seq = dir.join("seq.jsonl");
        let par = dir.join("par.jsonl");
        let other = dir.join("other.jsonl");
        let rec = |args: &[&str]| {
            let mut full = vec!["trace", "record", g];
            full.extend_from_slice(args);
            dispatch(&s(&full))
        };
        rec(&["--workload", "color", "--seed", "5", "--trace", seq.to_str().unwrap()]).unwrap();
        rec(&[
            "--workload",
            "color",
            "--seed",
            "5",
            "--threads",
            "3",
            "--trace",
            par.to_str().unwrap(),
        ])
        .unwrap();
        rec(&["--workload", "color", "--seed", "6", "--trace", other.to_str().unwrap()]).unwrap();
        // The other workloads record too.
        let m = dir.join("m.jsonl");
        rec(&["--workload", "matching", "--seed", "1", "--trace", m.to_str().unwrap()]).unwrap();
        rec(&["--workload", "strong-color", "--seed", "1", "--trace", m.to_str().unwrap()])
            .unwrap();
        // And a faulty run, whose transport report reads the registry.
        rec(&[
            "--seed",
            "2",
            "--fault-loss",
            "0.05",
            "--transport",
            "reliable",
            "--trace",
            m.to_str().unwrap(),
        ])
        .unwrap();

        dispatch(&s(&["trace", "summarize", seq.to_str().unwrap(), "--top", "3"])).unwrap();
        // Identical file: clean diff. Sequential vs parallel of the same
        // seed: clean diff (engine identity is ignored, the event stream
        // is deterministic). Different seed: divergence, reported as Err.
        dispatch(&s(&["trace", "diff", seq.to_str().unwrap(), seq.to_str().unwrap()])).unwrap();
        dispatch(&s(&["trace", "diff", seq.to_str().unwrap(), par.to_str().unwrap()])).unwrap();
        assert!(dispatch(&s(&["trace", "diff", seq.to_str().unwrap(), other.to_str().unwrap()]))
            .is_err());

        // Bad invocations.
        assert!(rec(&[]).is_err(), "record without --trace");
        assert!(
            rec(&["--trace", m.to_str().unwrap(), "--workload", "bogus"]).is_err(),
            "unknown workload"
        );
        assert!(dispatch(&s(&["trace", "bogus"])).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn metrics_dump_diff_roundtrip() {
        let dir = tmpdir();
        let gpath = dir.join("mg.edges");
        dispatch(&s(&[
            "gen",
            "er",
            "--n",
            "48",
            "--avg-degree",
            "5",
            "--seed",
            "17",
            "--out",
            gpath.to_str().unwrap(),
        ]))
        .unwrap();
        let g = gpath.to_str().unwrap();
        let seq = dir.join("md_seq.jsonl");
        let par = dir.join("md_par.jsonl");
        let other = dir.join("md_other.jsonl");
        let dump = |args: &[&str]| {
            let mut full = vec!["metrics", "dump", g];
            full.extend_from_slice(args);
            dispatch(&s(&full))
        };
        dump(&["--seed", "5", "--out", seq.to_str().unwrap()]).unwrap();
        dump(&["--seed", "5", "--threads", "3", "--out", par.to_str().unwrap()]).unwrap();
        dump(&["--seed", "6", "--out", other.to_str().unwrap()]).unwrap();
        // The dump carries the engine counters and the allocator family.
        let text = std::fs::read_to_string(&seq).unwrap();
        assert!(text.contains("engine/rounds"), "missing engine counters:\n{text}");
        assert!(text.contains("mem/"), "missing allocator family:\n{text}");

        // Identical file and seq-vs-par of the same seed diff empty
        // (mem/ is excluded); a different seed diverges.
        dispatch(&s(&["metrics", "diff", seq.to_str().unwrap(), seq.to_str().unwrap()])).unwrap();
        dispatch(&s(&["metrics", "diff", seq.to_str().unwrap(), par.to_str().unwrap()])).unwrap();
        assert!(dispatch(&s(&["metrics", "diff", seq.to_str().unwrap(), other.to_str().unwrap()]))
            .is_err());

        // The other workloads dump too, and --metrics on a run command
        // prints the section without writing a file.
        let m = dir.join("md_m.jsonl");
        dump(&["--workload", "matching", "--seed", "1", "--out", m.to_str().unwrap()]).unwrap();
        dump(&["--workload", "strong-color", "--seed", "1", "--out", m.to_str().unwrap()]).unwrap();
        let out = dir.join("md_colors.colors");
        dispatch(&s(&["color", g, "--seed", "3", "--metrics", "--out", out.to_str().unwrap()]))
            .unwrap();

        // Bad invocations.
        assert!(dump(&["--workload", "bogus"]).is_err(), "unknown workload");
        assert!(dispatch(&s(&["metrics", "bogus"])).is_err());
        assert!(
            dispatch(&s(&["metrics", "diff", g, g])).is_err(),
            "a graph file is not a metrics dump"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    /// A churned graph file and the `--churn-*` flags of the run
    /// commands, for the record and dump tests below.
    fn churn_fixture(dir: &std::path::Path) -> (String, [&'static str; 6]) {
        let g = dir.join("churn.edges").to_str().unwrap().to_string();
        dispatch(&s(&["gen", "er", "--n", "60", "--avg-degree", "5", "--seed", "4", "--out", &g]))
            .unwrap();
        (g, ["--seed", "3", "--churn-rate", "0.1", "--churn-kinds", "all"])
    }

    #[test]
    fn trace_record_takes_churn_flags() {
        let dir = tmpdir();
        let (g, churn) = churn_fixture(&dir);
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (seq, par, run) = (path("rc_seq.jsonl"), path("rc_par.jsonl"), path("rc_run.jsonl"));
        let with = |head: &[&str], tail: &[&str]| {
            let full: Vec<&str> = head.iter().chain(&churn).chain(tail).copied().collect();
            dispatch(&s(&full))
        };
        with(&["trace", "record", &g], &["--trace", &seq]).unwrap();
        with(&["trace", "record", &g], &["--threads", "3", "--trace", &par]).unwrap();
        with(&["color", &g], &["--trace", &run]).unwrap();
        // The recorded run is churned, at every shard count, and it is
        // the very run `color --trace` records under the same flags.
        let summary = summarize_trace(&load_trace(&seq).unwrap()).unwrap();
        assert_eq!(summary.churn_batches, 4, "the default plan fires four batches");
        dispatch(&s(&["trace", "diff", &seq, &par])).unwrap();
        dispatch(&s(&["trace", "diff", &seq, &run])).unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn metrics_dump_takes_churn_flags() {
        let dir = tmpdir();
        let (g, churn) = churn_fixture(&dir);
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (seq, par, run, still) =
            (path("mc_seq.jsonl"), path("mc_par.jsonl"), path("mc_run.jsonl"), path("mc_st.jsonl"));
        let with = |head: &[&str], tail: &[&str]| {
            let full: Vec<&str> = head.iter().chain(&churn).chain(tail).copied().collect();
            dispatch(&s(&full))
        };
        with(&["metrics", "dump", &g], &["--out", &seq]).unwrap();
        with(&["metrics", "dump", &g], &["--threads", "3", "--out", &par]).unwrap();
        with(&["color", &g], &["--metrics-out", &run, "--out", &path("mc.colors")]).unwrap();
        dispatch(&s(&["metrics", "dump", &g, "--seed", "3", "--out", &still])).unwrap();
        dispatch(&s(&["metrics", "diff", &seq, &par])).unwrap();
        dispatch(&s(&["metrics", "diff", &seq, &run])).unwrap();
        assert!(
            dispatch(&s(&["metrics", "diff", &seq, &still])).is_err(),
            "the churned dump must differ from the static one"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn trace_summary_totals_match_run_stats() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(21);
        let g = gen::erdos_renyi_avg_degree(48, 5.0, &mut rng).unwrap();
        let cfg = run_config(&parse_flags(&s(&["--seed", "7"])).unwrap()).unwrap();
        let mut buf = Vec::new();
        let meta = TraceMeta {
            workload: "color".into(),
            graph: "mem".into(),
            seed: cfg.seed,
            nodes: g.num_vertices() as u64,
            engine: "seq".into(),
            threads: 1,
            sample: 0,
        };
        let mut w = TraceWriter::new(&mut buf, &meta);
        let r = color_edges_traced(&g, &cfg, &mut w).unwrap();
        w.finish(&run_totals(&r.stats)).unwrap();

        let text = String::from_utf8(buf).unwrap();
        let tf = TraceFile {
            raw: text.lines().map(str::to_string).collect(),
            recs: text.lines().map(|l| read::parse_line(l).unwrap()).collect(),
        };
        let sum = summarize_trace(&tf).unwrap();
        let f = sum.footer.as_ref().expect("complete trace has a footer");
        assert_eq!(f.num("rounds"), Some(r.stats.rounds));
        assert_eq!(f.num("messages_sent"), Some(r.stats.messages_sent));
        assert_eq!(f.num("deliveries"), Some(r.stats.deliveries));
        assert_eq!(f.num("idle_rounds_skipped"), Some(r.stats.idle_rounds_skipped));
        // The timeline reconstructed from the trace agrees with the run.
        assert_eq!(sum.timeline.colors_used(), r.colors_used);
        let colored = r.colors.iter().filter(|c| c.is_some()).count() as u64;
        assert_eq!(sum.timeline.colored_edges(), colored);
        assert_eq!(sum.pairs_per_compute_round.iter().sum::<u64>(), sum.timeline.matched_pairs(),);
        assert!(!sum.timeline.rounds().is_empty());
        let rendered = render_summary(&sum, 5, 0);
        assert!(rendered.contains("Property 1"));
        assert!(rendered.contains("totals:"));
    }

    #[test]
    fn transport_registry_matches_stats() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(4);
        let g = gen::erdos_renyi_avg_degree(12, 3.0, &mut rng).unwrap();
        let arq = ["--fault-loss", "0.1", "--transport", "reliable"];
        let bare = ["--fault-loss", "0.05"];
        for w in [Workload::Color, Workload::StrongColor] {
            for faults in [&arq[..], &bare[..]] {
                let reliable = faults.len() == arq.len();
                let mut completed = 0;
                for seed in 0..if reliable { 4 } else { 24 } {
                    let run = |threads: &str| {
                        let mut args = s(&["--seed", &seed.to_string(), "--threads", threads]);
                        args.extend(s(faults));
                        let cfg = ColoringConfig {
                            // A bare lossy run that stalls fails fast.
                            max_compute_rounds: Some(120),
                            ..run_config(&parse_flags(&args).unwrap()).unwrap()
                        };
                        run_workload(w, &g, &cfg, None, &mut NoopTracer).ok().map(|r| r.stats)
                    };
                    let (one, three) = (run("1"), run("3"));
                    let (Some(one), Some(three)) = (one, three) else {
                        // A bare lossy run may exhaust its round budget;
                        // both shard counts must agree that it did.
                        assert!(!reliable, "{} seed {seed}: an ARQ run failed", w.name());
                        continue;
                    };
                    completed += 1;
                    let at = format!("{} {faults:?} seed {seed}", w.name());
                    let reg = one.metrics.as_deref().expect("a faulty run collects metrics");
                    assert_eq!(three.metrics.as_deref(), Some(reg), "{at}: 1 vs 3 shards");
                    let kinds = kind_totals(reg);
                    let mut total = KindTotals::default();
                    kinds.values().for_each(|t| total.add(t));
                    assert_eq!(total.delivered, one.deliveries, "{at}");
                    assert_eq!(total.dropped, one.dropped, "{at}");
                    if reliable {
                        // Every frame is a unicast data bundle; acks ride
                        // the control plane.
                        assert_eq!(total.sent, one.messages_sent, "{at}");
                        assert_eq!(kinds.keys().copied().collect::<Vec<_>>(), ["arq-data"]);
                        assert!(reg.counter("engine/control_lost") > 0, "{at}: no word lost");
                        assert!(reg.counter("arq/retransmits") > 0, "{at}: no retransmit");
                    } else {
                        assert!(total.dropped > 0, "{at}: nothing dropped");
                    }
                }
                assert!(completed > 0, "{} {faults:?}: no run completed", w.name());
            }
        }
    }
}
