//! `dima-cli serve` — the long-running coloring service.
//!
//! Applies JSONL topology events to a live [`ColoringService`] and
//! answers queries while the repair automata run. Requests arrive on
//! stdin (the degenerate single-client mode) or, with `--listen`, over
//! a TCP or Unix socket front end serving many concurrent clients
//! ([`socket`]). State is crash-safe when `--state-dir` is set: a
//! CRC-linked checkpoint chain (base + incremental deltas) is written
//! atomically and a write-ahead journal covers the tail ([`store`]);
//! on start the chain is restored to a bit-identical coloring, falling
//! back to the newest verifiable checkpoint if the tail is damaged.
//! `--compact-after N` folds the replay history into a materialized
//! base once it outgrows N entries, so restore cost tracks the delta
//! since the last checkpoint instead of the total history.
//!
//! `--chaos-kill-at` and `--chaos-storage` arm the deterministic chaos
//! harness: hard exits at labeled persistence stages, torn writes, and
//! injected disk-full errors, so the recovery tests can prove every
//! interleaving safe.
//!
//! ## Request protocol (one flat-JSON object per line)
//!
//! Events: `{"ev":"link-up","u":0,"v":5}`, `{"ev":"link-down",...}`,
//! `{"ev":"join","node":3}`, `{"ev":"leave","node":3}`.
//! Commands: `{"cmd":"status"}`, `{"cmd":"color","u":0,"v":5}`,
//! `{"cmd":"palette","node":3}`, `{"cmd":"hash"}`,
//! `{"cmd":"snapshot"}`, `{"cmd":"recolor"}`, `{"cmd":"shutdown"}`.
//!
//! Replies are flat JSON to the requesting client. Colors in replies
//! are offset by one (`0` means uncolored) so the encoding stays
//! unsigned. Rejected events and malformed lines produce
//! `{"type":"error",...}` replies; saturated queues produce
//! `{"type":"overload",...,"retry_ms":N}` hints. Neither poisons the
//! service.

mod socket;
mod store;

use std::fs;
use std::io::BufRead;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dima_core::{ColoringService, Engine, ServeProtocol, ServiceConfig, Tick};
use dima_graph::VertexId;
use dima_sim::telemetry::read::{parse_line, Record};
use dima_sim::telemetry::slo::{BatchSample, SloRecorder};
use dima_sim::telemetry::writer::json_escape;
use dima_sim::telemetry::MetricsRegistry;
use dima_sim::ChurnEvent;

use socket::{Frontend, Listener, Source};
use store::{Chaos, CheckpointStore, StorageFaults};

/// Ticks executed per main-loop spin before the queue is polled again —
/// keeps queries responsive during long repairs.
const TICKS_PER_SPIN: u64 = 64;
/// Retry hint attached to storage-refusal replies.
const STORAGE_RETRY_MS: u64 = 50;

pub(crate) static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SIGINT = 2, SIGTERM = 15: flip the shutdown flag (async-signal
    // safe) and let the main loop run the graceful path.
    unsafe {
        signal(2, on_signal as *const () as usize);
        signal(15, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Shared queue instrumentation between the reader threads and the
/// service loop.
pub(crate) struct QueueGauges {
    pub depth: AtomicU64,
    pub hwm: AtomicU64,
    pub shed: AtomicU64,
}

pub(crate) enum Msg {
    Event(ChurnEvent, Source),
    Cmd(Record, Source),
    Malformed(String, Source),
    Eof,
}

fn parse_event(rec: &Record) -> Result<ChurnEvent, String> {
    let vertex = |key: &str| -> Result<VertexId, String> {
        let n = rec.num(key).ok_or_else(|| format!("event missing numeric '{key}'"))?;
        if n > u32::MAX as u64 {
            return Err(format!("vertex id {n} out of range"));
        }
        Ok(VertexId(n as u32))
    };
    match rec.str("ev") {
        Some("link-up") => Ok(ChurnEvent::LinkUp(vertex("u")?, vertex("v")?)),
        Some("link-down") => Ok(ChurnEvent::LinkDown(vertex("u")?, vertex("v")?)),
        Some("join") => Ok(ChurnEvent::NodeJoin(vertex("node")?)),
        Some("leave") => Ok(ChurnEvent::NodeLeave(vertex("node")?)),
        Some(other) => Err(format!("unknown event kind '{other}'")),
        None => Err("event line missing 'ev'".into()),
    }
}

/// Classify one request line. Shared by the stdin reader and every
/// socket client reader.
pub(crate) fn parse_msg(line: &str, src: Source) -> Msg {
    match parse_line(line) {
        Some(rec) if rec.get("ev").is_some() => match parse_event(&rec) {
            Ok(ev) => Msg::Event(ev, src),
            Err(e) => Msg::Malformed(e, src),
        },
        Some(rec) if rec.get("cmd").is_some() => Msg::Cmd(rec, src),
        _ => Msg::Malformed(format!("unparseable line '{line}'"), src),
    }
}

fn color_code(c: Option<dima_core::Color>) -> u64 {
    c.map_or(0, |c| u64::from(c.0) + 1)
}

/// The flags `serve` takes, space-separated.
const SERVE_FLAGS: &str = "seed protocol threads width trace trace-sample watchdog state-dir \
    snapshot-every compact-after queue queue-policy listen max-clients client-queue reduce \
    reduce-target slo-out metrics-out label chaos-kill-at chaos-storage";

/// Entry point for `dima-cli serve`.
pub fn cmd_serve(args: &[String]) -> Result<(), String> {
    let Some(graph_path) = args.first() else {
        return Err("serve needs a graph".into());
    };
    let flags = crate::cmd::parse_known_flags(&args[1..], &[SERVE_FLAGS])?;
    let seed: u64 = crate::cmd::flag(&flags, "seed", 0)?;
    let width: usize = crate::cmd::flag(&flags, "width", 1)?;
    let threads: usize = crate::cmd::flag(&flags, "threads", 0)?;
    if threads == 0 && flags.contains_key("threads") {
        return Err("--threads must be >= 1 (omit the flag for 1 shard)".into());
    }
    // The stepper is bit-identical at every shard count, so the service
    // runs on any. The one combination we refuse is a full-rate trace
    // request over several shards: at sample 1 the
    // deterministic merge buffers every node event per round, which is
    // exactly the workload serve's latency budget cannot absorb.
    if threads > 1 && flags.contains_key("trace") {
        let sample: u32 = crate::cmd::flag(&flags, "trace-sample", 1)?;
        if sample <= 1 {
            return Err(
                "--trace at full rate (--trace-sample 1) is not supported with --threads > 1: \
                 to keep the trace deterministic the pool must buffer every node's events in \
                 every round and merge them in node order at the barrier, and serve's per-tick \
                 latency budget cannot absorb that. Two workarounds: sample the trace \
                 (e.g. --trace-sample 64 records one node in 64, merge still deterministic \
                 and cheap), or drop --threads so the single shard emits the \
                 full-rate trace without a cross-shard merge. See DESIGN.md §13."
                    .into(),
            );
        }
    }
    let watchdog: u64 = crate::cmd::flag(&flags, "watchdog", 512)?;
    let snapshot_every: u64 = crate::cmd::flag(&flags, "snapshot-every", 8)?;
    let compact_after: u64 = crate::cmd::flag(&flags, "compact-after", 0)?;
    let queue_cap: usize = crate::cmd::flag(&flags, "queue", 1024)?;
    if queue_cap == 0 {
        return Err("--queue must be >= 1".into());
    }
    let shed = match flags.get("queue-policy").map(String::as_str) {
        None | Some("block") => false,
        Some("shed") => true,
        Some(other) => return Err(format!("--queue-policy must be block or shed, got '{other}'")),
    };
    let max_clients: u64 = crate::cmd::flag(&flags, "max-clients", 64)?;
    let client_queue: u64 = crate::cmd::flag(&flags, "client-queue", 64)?;
    if max_clients == 0 || client_queue == 0 {
        return Err("--max-clients and --client-queue must be >= 1".into());
    }
    let protocol: ServeProtocol = match flags.get("protocol") {
        None => ServeProtocol::EdgeColoring,
        Some(p) => p.parse()?,
    };
    let slo_out = flags.get("slo-out").cloned();
    let metrics_out = flags.get("metrics-out").cloned();
    let label = flags.get("label").cloned().unwrap_or_else(|| "serve".into());
    let listener = match flags.get("listen") {
        Some(spec) => Some(Listener::bind(spec)?),
        None => None,
    };
    let mut chaos = Chaos::parse(flags.get("chaos-kill-at"))?;
    let faults = StorageFaults::parse(flags.get("chaos-storage"))?;
    let mut store = match flags.get("state-dir") {
        Some(dir) => Some(CheckpointStore::open(dir, faults)?),
        None => None,
    };

    let engine = if threads == 0 { Engine::Sequential } else { Engine::Parallel { threads } };
    let mut cfg = ServiceConfig::new(protocol, seed);
    cfg.coloring.proposal_width = width;
    cfg.coloring.reduction = crate::cmd::parse_reduce(&flags)?;
    cfg.coloring.engine = engine;
    cfg.watchdog_ticks = watchdog;

    let mut slo = SloRecorder::new();
    // Service-plane registry: wall-clock values are fine here (unlike
    // the engine registries, this one is never `==`-compared).
    let mut metrics = MetricsRegistry::new();
    let mut svc = match store.as_mut() {
        Some(s) if s.has_base() => {
            // The chain restores on the requested engine — replay is
            // bit-identical either way, so a pooled host recovers on
            // the pool.
            let (svc, report) = s.load(engine)?;
            eprintln!(
                "serve: restored epoch {} base + {} deltas ({} entries) + {} journal entries, \
                 {} restaged{}{}",
                svc.epoch(),
                report.deltas_applied,
                report.snapshot_entries + report.delta_entries,
                report.tail_entries,
                report.staged,
                if report.torn_tail { " (torn journal tail)" } else { "" },
                match report.fallback {
                    Some(f) => format!(
                        " [fell back to checkpoint {}: {f} — {} delta(s){} discarded]",
                        report.deltas_applied,
                        report.deltas_discarded,
                        if report.journal_discarded { " + journal" } else { "" },
                    ),
                    None => String::new(),
                },
            );
            svc
        }
        _ => {
            let g = crate::cmd::load_graph(graph_path)?;
            let mut svc = ColoringService::new(&g, cfg.clone()).map_err(|e| e.to_string())?;
            svc.run_to_quiescence(svc.tick_budget()).map_err(|e| e.to_string())?;
            svc
        }
    };
    // Replayed repairs are not live SLO samples.
    svc.take_reports();

    // Deferred base write from a compaction whose persist failed: the
    // in-memory service is already rebased, but the on-disk chain still
    // describes the previous epoch. While pending, events and commits
    // are refused (the journal must never reference the unpersisted
    // epoch) and the persist is retried every spin.
    let mut pending_compaction = false;
    // Compaction check before re-anchoring: a service restored at or
    // past the threshold folds immediately — the same logical point a
    // live run would have compacted at, which is what keeps a crashed
    // run and an uninterrupted one on the same trajectory.
    maybe_compact(
        &mut svc,
        store.as_mut(),
        compact_after,
        &mut pending_compaction,
        &mut chaos,
        &mut slo,
        &mut metrics,
    )?;
    // Re-anchor the on-disk state: drop stale deltas, fold the journal
    // tail into a catch-up delta, rotate the journal.
    if let Some(s) = store.as_mut() {
        if !pending_compaction {
            if s.has_base() {
                s.reanchor(&svc, &mut chaos).map_err(|e| e.to_string())?;
            } else {
                s.write_full(&svc, &mut chaos).map_err(|e| e.to_string())?;
            }
        }
    }
    let engine_desc = match svc.config().coloring.engine.threads() {
        1 => "1 shard".to_string(),
        threads => format!("{threads} shards"),
    };
    eprintln!(
        "serve: {} protocol, {} nodes, round {}, engine {}, watchdog {} ticks, queue {} ({})",
        svc.config().protocol,
        svc.status().nodes,
        svc.round(),
        engine_desc,
        watchdog,
        queue_cap,
        if shed { "shed" } else { "block" }
    );

    install_signal_handlers();

    let gauges = Arc::new(QueueGauges {
        depth: AtomicU64::new(0),
        hwm: AtomicU64::new(0),
        shed: AtomicU64::new(0),
    });
    let (tx, rx) = mpsc::sync_channel::<Msg>(queue_cap);
    match listener {
        Some(listener) => {
            eprintln!("serve: listening on {}", listener.describe());
            let fe = Arc::new(Frontend {
                tx,
                gauges: Arc::clone(&gauges),
                shed,
                max_clients,
                client_queue,
                clients: Arc::new(AtomicU64::new(0)),
            });
            std::thread::spawn(move || socket::accept_loop(listener, fe));
        }
        None => {
            let gauges = Arc::clone(&gauges);
            std::thread::spawn(move || {
                let stdin = std::io::stdin();
                for line in stdin.lock().lines() {
                    let Ok(line) = line else { break };
                    let line = line.trim().to_string();
                    if line.is_empty() {
                        continue;
                    }
                    let msg = parse_msg(&line, Source::Stdin);
                    // Count the message before sending it — the service
                    // decrements on receive, so the increment must
                    // already be visible by then.
                    let is_event = matches!(msg, Msg::Event(..));
                    let d = gauges.depth.fetch_add(1, Ordering::SeqCst) + 1;
                    gauges.hwm.fetch_max(d, Ordering::SeqCst);
                    if shed && is_event {
                        match tx.try_send(msg) {
                            Ok(()) => {}
                            Err(mpsc::TrySendError::Full(_)) => {
                                gauges.depth.fetch_sub(1, Ordering::SeqCst);
                                gauges.shed.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(mpsc::TrySendError::Disconnected(_)) => break,
                        }
                    } else {
                        // Backpressure: block until the service drains.
                        if tx.send(msg).is_err() {
                            break;
                        }
                    }
                }
                gauges.depth.fetch_add(1, Ordering::SeqCst);
                let _ = tx.send(Msg::Eof);
            });
        }
    }

    let mut eof = false;
    let mut repair_started: Option<(u64, Instant)> = None;
    let mut last_snapshot_batch = svc.batches_committed();
    'main: loop {
        if SHUTDOWN.load(Ordering::SeqCst) {
            eprintln!("serve: signal received, shutting down");
            break;
        }
        // Drain whatever is queued without blocking.
        loop {
            match rx.try_recv() {
                Ok(msg) => {
                    gauges.depth.fetch_sub(1, Ordering::SeqCst);
                    match handle_msg(
                        msg,
                        &mut svc,
                        store.as_mut(),
                        pending_compaction,
                        &mut chaos,
                        &mut slo,
                        &mut metrics,
                    )? {
                        Handled::Continue => {}
                        Handled::Eof => eof = true,
                        Handled::Shutdown => break 'main,
                    }
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    eof = true;
                    break;
                }
            }
        }
        maybe_compact(
            &mut svc,
            store.as_mut(),
            compact_after,
            &mut pending_compaction,
            &mut chaos,
            &mut slo,
            &mut metrics,
        )?;
        // Commit staged events the moment the service is settled.
        if !pending_compaction {
            maybe_commit(&mut svc, store.as_mut(), &mut chaos)?;
        }
        if !svc.is_settled() {
            for _ in 0..TICKS_PER_SPIN {
                match svc.tick().map_err(|e| e.to_string())? {
                    Tick::Idle => break,
                    Tick::Round { applied, quiesced, escalated, .. } => {
                        if let Some(seq) = applied {
                            repair_started = Some((seq, Instant::now()));
                        }
                        if let Some(round) = escalated {
                            slo.escalation();
                            if let Some(s) = store.as_mut() {
                                if let Err(e) =
                                    s.append_journal(&ColoringService::journal_recolor_line(
                                        svc.epoch(),
                                        svc.history_len(),
                                        round,
                                    ))
                                {
                                    // The marker is redundant with the
                                    // deterministic replay (escalation
                                    // re-derives at the same round), so
                                    // a failed append degrades to a
                                    // warning, not a poisoned service.
                                    eprintln!("serve: journal append failed: {e}");
                                }
                            }
                        }
                        if quiesced {
                            break;
                        }
                    }
                }
            }
            drain_reports(&mut svc, &mut repair_started, &mut slo, &mut metrics);
            // Periodic incremental checkpoint at quiescent batch
            // boundaries.
            if svc.is_settled()
                && !pending_compaction
                && snapshot_every > 0
                && svc.batches_committed() >= last_snapshot_batch + snapshot_every
            {
                if let Some(s) = store.as_mut() {
                    match s.write_delta(&svc, &mut chaos) {
                        Ok(bytes) => checkpoint_metrics(&mut metrics, &mut slo, "delta", bytes),
                        Err(e) => eprintln!("serve: checkpoint failed (will retry): {e}"),
                    }
                }
                last_snapshot_batch = svc.batches_committed();
            }
        } else if eof && svc.staged() == 0 {
            break;
        } else {
            // Idle: wait for traffic.
            match rx.recv_timeout(Duration::from_millis(25)) {
                Ok(msg) => {
                    gauges.depth.fetch_sub(1, Ordering::SeqCst);
                    match handle_msg(
                        msg,
                        &mut svc,
                        store.as_mut(),
                        pending_compaction,
                        &mut chaos,
                        &mut slo,
                        &mut metrics,
                    )? {
                        Handled::Continue => {}
                        Handled::Eof => eof = true,
                        Handled::Shutdown => break 'main,
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => eof = true,
            }
        }
        slo.queue_depth(gauges.hwm.load(Ordering::SeqCst));
        metrics.observe("serve/queue_depth", gauges.depth.load(Ordering::SeqCst));
        metrics.gauge_max("serve/queue_depth_hwm", gauges.hwm.load(Ordering::SeqCst));
    }
    SHUTDOWN.store(true, Ordering::SeqCst);

    // Graceful shutdown: finish the repair in flight, commit and repair
    // any staged remainder, then flush a final checkpoint and the SLO
    // report.
    svc.run_to_quiescence(svc.tick_budget()).map_err(|e| e.to_string())?;
    if svc.staged() > 0 && !pending_compaction {
        maybe_commit(&mut svc, store.as_mut(), &mut chaos)?;
        let t0 = Instant::now();
        svc.run_to_quiescence(svc.tick_budget()).map_err(|e| e.to_string())?;
        if let Some((seq, _)) = svc.history().iter().rev().find_map(|e| match e {
            dima_core::HistoryEntry::Batch { seq, round, .. } => Some((*seq, *round)),
            _ => None,
        }) {
            repair_started = Some((seq, t0));
        }
        drain_reports(&mut svc, &mut repair_started, &mut slo, &mut metrics);
    }
    // A history past the compaction threshold folds before the final
    // checkpoint — the restart then recovers from the materialized
    // base instead of re-replaying the whole session.
    maybe_compact(
        &mut svc,
        store.as_mut(),
        compact_after,
        &mut pending_compaction,
        &mut chaos,
        &mut slo,
        &mut metrics,
    )?;
    if let Some(s) = store.as_mut() {
        if pending_compaction {
            // Last chance for the deferred base; if it still cannot
            // land, the old chain remains authoritative and the next
            // start re-compacts deterministically to the same epoch.
            match s.persist_compaction(&svc, &mut chaos) {
                Ok(bytes) => checkpoint_metrics(&mut metrics, &mut slo, "base", bytes),
                Err(e) => eprintln!("serve: compaction base still unpersisted at shutdown: {e}"),
            }
        } else if svc.history_len() > s.checkpointed_h() {
            match s.write_delta(&svc, &mut chaos) {
                Ok(bytes) => checkpoint_metrics(&mut metrics, &mut slo, "delta", bytes),
                Err(e) => eprintln!("serve: final checkpoint failed: {e}"),
            }
        }
    }
    for _ in 0..gauges.shed.load(Ordering::SeqCst) {
        slo.shed();
    }
    slo.queue_depth(gauges.hwm.load(Ordering::SeqCst));
    if let Some(s) = &store {
        metrics.inc("serve/wal_bytes", s.wal_bytes);
    }
    metrics.inc("serve/shed_events", gauges.shed.load(Ordering::SeqCst));
    let report = slo.report();
    eprint!("{}", report.to_text());
    eprint!("{}", metrics.to_text());
    if let Some(path) = slo_out {
        // The metrics registry rides in the SLO artifact so one file
        // carries the whole serve observability plane.
        let text = format!("{}{}", report.to_jsonl(&label), metrics.to_jsonl(&label));
        fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(path) = metrics_out {
        fs::write(&path, metrics.to_jsonl(&label)).map_err(|e| format!("writing {path}: {e}"))?;
    }
    let status = svc.status();
    eprintln!(
        "serve: final hash {:#018x}, {} colors, round {}",
        status.hash, status.colors_used, status.round
    );
    Ok(())
}

fn checkpoint_metrics(
    metrics: &mut MetricsRegistry,
    slo: &mut SloRecorder,
    kind: &str,
    bytes: u64,
) {
    metrics.inc("serve/snapshots", 1);
    let per_kind = match kind {
        "delta" => "serve/snapshot_delta_bytes",
        "base" => "serve/snapshot_base_bytes",
        _ => "serve/snapshot_full_bytes",
    };
    metrics.inc(per_kind, bytes);
    metrics.inc("serve/snapshot_bytes", bytes);
    metrics.gauge_max("serve/snapshot_max_bytes", bytes);
    slo.snapshot();
}

/// Fold the replay history into a materialized base once it outgrows
/// `--compact-after`. The in-memory rebase always succeeds (or the
/// error propagates — it never half-applies); the persist can fail and
/// leave the service in pending mode, retried here every spin.
#[allow(clippy::too_many_arguments)]
fn maybe_compact(
    svc: &mut ColoringService,
    store: Option<&mut CheckpointStore>,
    compact_after: u64,
    pending: &mut bool,
    chaos: &mut Chaos,
    slo: &mut SloRecorder,
    metrics: &mut MetricsRegistry,
) -> Result<(), String> {
    if *pending {
        let Some(store) = store else { return Ok(()) };
        if let Ok(bytes) = store.persist_compaction(svc, chaos) {
            *pending = false;
            eprintln!("serve: deferred compaction base persisted (epoch {})", svc.epoch());
            checkpoint_metrics(metrics, slo, "base", bytes);
        }
        return Ok(());
    }
    if compact_after == 0 || !svc.is_settled() || svc.history_len() < compact_after {
        return Ok(());
    }
    let report = svc.compact_history().map_err(|e| e.to_string())?;
    metrics.inc("serve/compactions", 1);
    metrics.inc("serve/compacted_entries", report.folded_entries);
    eprintln!(
        "serve: compacted {} history entries into epoch {} base ({} edges, {} dead)",
        report.folded_entries, report.epoch, report.graph_edges, report.dead_nodes
    );
    if let Some(store) = store {
        match store.persist_compaction(svc, chaos) {
            Ok(bytes) => checkpoint_metrics(metrics, slo, "base", bytes),
            Err(e) => {
                eprintln!("serve: compaction base deferred ({e}); events refused until it lands");
                *pending = true;
            }
        }
    }
    Ok(())
}

enum Handled {
    Continue,
    Eof,
    Shutdown,
}

fn handle_msg(
    msg: Msg,
    svc: &mut ColoringService,
    store: Option<&mut CheckpointStore>,
    pending_compaction: bool,
    chaos: &mut Chaos,
    slo: &mut SloRecorder,
    metrics: &mut MetricsRegistry,
) -> Result<Handled, String> {
    match msg {
        Msg::Eof => Ok(Handled::Eof),
        Msg::Malformed(e, src) => {
            slo.malformed();
            src.error("parse", &e);
            src.done();
            Ok(Handled::Continue)
        }
        Msg::Event(ev, src) => {
            if pending_compaction {
                // The journal cannot reference the unpersisted epoch;
                // the client retries once the base lands.
                slo.rejected();
                src.retryable(
                    "storage",
                    "compaction checkpoint pending; event refused",
                    STORAGE_RETRY_MS,
                );
                src.done();
                return Ok(Handled::Continue);
            }
            match svc.stage(ev) {
                Ok(()) => {
                    if let Some(s) = store {
                        if let Err(e) = s.append_journal(&ColoringService::journal_event_line(&ev))
                        {
                            // Never ack an event the journal did not
                            // take: un-stage it and hand the client a
                            // retryable refusal.
                            svc.unstage_last();
                            slo.rejected();
                            src.retryable(e.what, &e.message, STORAGE_RETRY_MS);
                        }
                    }
                }
                Err(e) => {
                    slo.rejected();
                    src.error("event", &e.to_string());
                }
            }
            src.done();
            Ok(Handled::Continue)
        }
        Msg::Cmd(rec, src) => {
            let r = handle_cmd(&rec, &src, svc, store, pending_compaction, chaos, slo, metrics);
            src.done();
            r
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_cmd(
    rec: &Record,
    src: &Source,
    svc: &mut ColoringService,
    store: Option<&mut CheckpointStore>,
    pending_compaction: bool,
    chaos: &mut Chaos,
    slo: &mut SloRecorder,
    metrics: &mut MetricsRegistry,
) -> Result<Handled, String> {
    match rec.str("cmd") {
        Some("status") => {
            let st = svc.status();
            src.reply(format!(
                "{{\"type\":\"status\",\"round\":{},\"settled\":{},\"nodes\":{},\
                 \"alive\":{},\"staged\":{},\"batches\":{},\"escalations\":{},\
                 \"colors_used\":{},\"epoch\":{},\"hash\":{}}}",
                st.round,
                u64::from(st.settled),
                st.nodes,
                st.alive,
                st.staged,
                st.batches,
                st.escalations,
                st.colors_used,
                svc.epoch(),
                st.hash
            ));
        }
        Some("color") => {
            let (Some(u), Some(v)) = (rec.num("u"), rec.num("v")) else {
                src.error("cmd", "color needs numeric u and v");
                return Ok(Handled::Continue);
            };
            if u > u32::MAX as u64 || v > u32::MAX as u64 {
                src.error("cmd", "vertex id out of range");
                return Ok(Handled::Continue);
            }
            match svc.edge_color(VertexId(u as u32), VertexId(v as u32)) {
                Ok((f, r)) => src.reply(format!(
                    "{{\"type\":\"color\",\"u\":{u},\"v\":{v},\"forward\":{},\"reverse\":{}}}",
                    color_code(f),
                    color_code(r)
                )),
                Err(e) => src.error("cmd", &e.to_string()),
            }
        }
        Some("palette") => {
            let Some(node) = rec.num("node") else {
                src.error("cmd", "palette needs a numeric node");
                return Ok(Handled::Continue);
            };
            if node > u32::MAX as u64 {
                src.error("cmd", "vertex id out of range");
                return Ok(Handled::Continue);
            }
            match svc.node_palette(VertexId(node as u32)) {
                Ok(colors) => {
                    let list: Vec<String> = colors.iter().map(|c| c.0.to_string()).collect();
                    src.reply(format!(
                        "{{\"type\":\"palette\",\"node\":{node},\"count\":{},\"colors\":\"{}\"}}",
                        list.len(),
                        list.join(",")
                    ));
                }
                Err(e) => src.error("cmd", &e.to_string()),
            }
        }
        Some("hash") => {
            src.reply(format!("{{\"type\":\"hash\",\"value\":{}}}", svc.coloring_hash()));
        }
        Some("snapshot") => match store {
            Some(s) if pending_compaction => {
                let _ = s;
                src.retryable("storage", "compaction checkpoint pending", STORAGE_RETRY_MS);
            }
            Some(s) => {
                // A compacted service cannot write a replayable full
                // snapshot — extend the chain instead.
                let result = if svc.epoch() == 0 {
                    s.write_full(svc, chaos).map(|b| ("full", b))
                } else {
                    s.write_delta(svc, chaos).map(|b| ("delta", b))
                };
                match result {
                    Ok((kind, bytes)) => {
                        checkpoint_metrics(metrics, slo, kind, bytes);
                        src.reply(format!(
                            "{{\"type\":\"snapshot\",\"kind\":\"{kind}\",\"chain\":{},\
                             \"path\":\"{}\",\"batches\":{}}}",
                            s.chain_len(),
                            json_escape(&s.base_path().display().to_string()),
                            svc.batches_committed()
                        ));
                    }
                    Err(e) => src.retryable(e.what, &e.message, STORAGE_RETRY_MS),
                }
            }
            None => src.error("cmd", "snapshots need --state-dir"),
        },
        Some("recolor") => {
            let round = svc.force_recolor();
            slo.escalation();
            if let Some(s) = store {
                if let Err(e) = s.append_journal(&ColoringService::journal_recolor_line(
                    svc.epoch(),
                    svc.history_len(),
                    round,
                )) {
                    eprintln!("serve: journal append failed: {e}");
                }
            }
            src.reply(format!("{{\"type\":\"recolor\",\"round\":{round}}}"));
        }
        Some("shutdown") => {
            src.reply("{\"type\":\"bye\"}".into());
            return Ok(Handled::Shutdown);
        }
        Some(other) => src.error("cmd", &format!("unknown command '{other}'")),
        None => src.error("cmd", "command line missing 'cmd'"),
    }
    Ok(Handled::Continue)
}

/// Journal the commit marker (write-ahead), then commit in memory. The
/// marker is flushed before the commit so every crash interleaving
/// recovers: a marker without its commit replays to the same
/// deterministic round, a commit without its marker is re-derived from
/// the journaled events. A failed marker append skips the commit for
/// this spin — the events stay staged and the marker is retried.
fn maybe_commit(
    svc: &mut ColoringService,
    store: Option<&mut CheckpointStore>,
    chaos: &mut Chaos,
) -> Result<(), String> {
    let Some((seq, round)) = svc.next_commit() else {
        return Ok(());
    };
    if let Some(s) = store {
        chaos.hit("journal-pre-commit");
        if let Err(e) = s.append_journal(&ColoringService::journal_commit_line(
            svc.epoch(),
            svc.history_len() + 1,
            seq,
            round,
        )) {
            eprintln!("serve: commit deferred, marker append failed: {e}");
            return Ok(());
        }
        chaos.hit("journal-post-commit");
    }
    svc.commit().map_err(|e| e.to_string())?;
    Ok(())
}

fn drain_reports(
    svc: &mut ColoringService,
    repair_started: &mut Option<(u64, Instant)>,
    slo: &mut SloRecorder,
    metrics: &mut MetricsRegistry,
) {
    for r in svc.take_reports() {
        let wall_ms = match repair_started.take_if(|(seq, _)| *seq == r.seq) {
            Some((_, t0)) => t0.elapsed().as_secs_f64() * 1e3,
            None => 0.0,
        };
        metrics.inc("serve/batches_committed", 1);
        metrics.inc("serve/events_applied", r.events as u64);
        metrics.observe("serve/repair_rounds", r.repair_rounds);
        metrics.observe("serve/batch_commit_ms", wall_ms as u64);
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
