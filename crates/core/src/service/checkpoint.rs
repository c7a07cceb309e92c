//! The checkpoint codec: base, delta and journal lines, their CRC-32
//! trailers, and the parsers that verify them.
//!
//! A base is the state of a settled service, which is all it needs to
//! go on: every automaton is parked in `D` and no mail is in flight, so
//! each node's row, its engine stream and the little automaton memory a
//! row does not determine, with the graph, the round clock and the
//! counters, describe it. Restoring a base parses it and parks the
//! rebuilt automata; only the deltas and journal entries written after
//! it are replayed. The history a base carries is data for
//! [`ColoringService::history`] and [`ColoringService::recompute`],
//! never re-executed.

use std::fmt::Write;

use dima_graph::{Graph, VertexId};
use dima_sim::fault::FaultPlan;
use dima_sim::telemetry::read::{parse_line, Record};
use dima_sim::{ChurnEvent, EventFeed, Topology};
use rand::rngs::SmallRng;

use super::{
    ChainFallback, ColoringService, HistoryEntry, Inner, RestoreReport, ServeProtocol,
    ServiceConfig, ServiceError,
};
use crate::config::{
    ColorPolicy, ColorReduction, ColoringConfig, Engine, KempeConfig, Rejection, Transport,
};
use crate::kempe;
use crate::palette::{Color, ColorSet};

/// Base-checkpoint format version accepted by
/// [`ColoringService::restore_chain`]: the state of a settled service
/// (see [`ColoringService::snapshot_text`]). Bases of earlier versions, which were
/// restored by replaying their history, are refused.
pub const BASE_VERSION: u64 = 3;

/// Delta-checkpoint format version accepted by
/// [`ColoringService::restore_chain`]. A delta carries the history
/// entries recorded since the previous checkpoint in the chain, bound to
/// its parent by index and CRC.
pub const DELTA_VERSION: u64 = 1;

impl ColoringService {
    // ------------------------------------------------------------------
    // Snapshot + journal wire format
    // ------------------------------------------------------------------

    /// Journal line for an accepted event. Append (and flush) this
    /// *before* acknowledging the event.
    pub fn journal_event_line(ev: &ChurnEvent) -> String {
        event_line(ev)
    }

    /// Journal line for a batch commit. `epoch` is the service epoch the
    /// entry belongs to ([`ColoringService::epoch`]), `h` is the history
    /// index the entry will occupy ([`ColoringService::history_len`]` +
    /// 1` when written before the [`ColoringService::commit`] call),
    /// `(seq, round)` is what [`ColoringService::next_commit`] returned.
    /// Append and flush *before* committing — recovery replays the
    /// marker, and a marker without its commit is harmless because the
    /// commit round is deterministic. The `(epoch, h)` pair is what lets
    /// a stale (unrotated) journal deduplicate against any checkpoint:
    /// markers at an older epoch, or at this epoch but an already-
    /// captured index, are dropped on restore.
    pub fn journal_commit_line(epoch: u64, h: u64, seq: u64, round: u64) -> String {
        format!("{{\"type\":\"commit\",\"e\":{epoch},\"h\":{h},\"seq\":{seq},\"round\":{round}}}\n")
    }

    /// Journal line for a recolor escalation recorded at `round` as
    /// history entry `h` (equal to [`ColoringService::history_len`]
    /// right after the tick that escalated) in `epoch`.
    pub fn journal_recolor_line(epoch: u64, h: u64, round: u64) -> String {
        format!("{{\"type\":\"recolor\",\"e\":{epoch},\"h\":{h},\"round\":{round}}}\n")
    }

    /// The configuration fragment shared by every checkpoint header —
    /// enough to reconstruct the [`ServiceConfig`], minus the engine
    /// (which is the restoring host's choice — the coloring is
    /// bit-identical on either). Reduction settings ride along so a
    /// restored service keeps compacting exactly as the live one did;
    /// all-zero (and absent, for pre-reduction snapshots) means off.
    /// DiMa2ED's silent-rejection ablation is recorded only when set, so
    /// every default header stays as it was.
    fn config_header_fragment(&self) -> String {
        let c = &self.cfg.coloring;
        let (rk, rt) = match c.reduction {
            ColorReduction::Off => (0, 0),
            ColorReduction::Kempe(k) => (1u64, u64::from(k.target_colors.unwrap_or(0))),
        };
        format!(
            "\"protocol\":\"{}\",\"seed\":{},\"invite_bits\":{},\
             \"color_policy\":\"{}\",\"response_policy\":\"random\",\"width\":{},\
             \"max_compute\":{},\"validate_sends\":{},\"watchdog\":{},\
             \"reduce\":{rk},\"reduce_target\":{rt}{}",
            self.cfg.protocol.name(),
            c.seed,
            c.invite_probability.to_bits(),
            color_policy_name(c.color_policy),
            c.proposal_width,
            c.max_compute_rounds.unwrap_or(0),
            u64::from(c.validate_sends),
            self.cfg.watchdog_ticks,
            match c.rejection {
                Rejection::Hint => "",
                Rejection::Silent => ",\"rejection\":\"silent\"",
            },
        )
    }

    /// Serialize the service to its base checkpoint: a header (config,
    /// counters, round clock, coloring hash), the dead set at the last
    /// fold, one line per node, the history since the fold, the staged
    /// events, and a CRC-32 trailer. A node line holds the node's
    /// neighbors above it in the graph at the last fold (`g0`), its
    /// engine stream (`rng`, 64 hex digits, or `-` while unseeded), its
    /// row (`row`: its slot toward each neighbor of the live topology,
    /// in port order, `-` for an empty slot) and what the parked
    /// automaton remembers beyond the rows: Algorithm 1's palette bound
    /// where it differs from the header's (`bound`), Algorithm 2's
    /// `forbidden` set (`forbid`) and retry memory (`tried`, `port:c.c`
    /// per port that has one). A departed node's line stops after its
    /// row.
    ///
    /// A base describes a settled service. Taken while a repair runs, it
    /// holds only a header marked unsettled, which
    /// [`ColoringService::restore_chain`] refuses: checkpoint such a
    /// point with [`ColoringService::delta_text`].
    pub fn snapshot_text(&self) -> String {
        let settled = self.is_settled();
        let staged = self.feed.staged_events();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"serve-base\",\"version\":{BASE_VERSION},{},\"epoch\":{},\"n\":{},\
             \"edges\":{},\"dead\":{},\"history\":{},\"staged\":{},\"settled\":{},\
             \"round\":{},\"batches\":{},\"escalations\":{},\"bound\":{},\"hash\":{}}}",
            self.config_header_fragment(),
            self.epoch,
            self.g0.num_vertices(),
            self.g0.num_edges(),
            self.dead0.len(),
            self.history.len(),
            staged.len(),
            u64::from(settled),
            self.inner.round(),
            self.batches_committed,
            self.escalations,
            self.palette_bound0,
            self.coloring_hash(),
        );
        if settled {
            for v in &self.dead0 {
                let _ = writeln!(out, "{{\"type\":\"dead\",\"node\":{}}}", v.0);
            }
            for u in (0..self.g0.num_vertices() as u32).map(VertexId) {
                self.push_node_line(&mut out, u);
            }
            push_history_lines(&mut out, self.epoch, 0, &self.history);
            for ev in staged {
                out.push_str(&event_line(ev));
            }
        }
        let crc = crc32(out.as_bytes());
        let _ = writeln!(out, "{{\"type\":\"crc\",\"value\":{crc}}}");
        // A host may hold its base for a long time: give back the
        // doubling slack.
        out.shrink_to_fit();
        out
    }

    /// Append `u`'s node line (see [`ColoringService::snapshot_text`]).
    fn push_node_line(&self, out: &mut String, u: VertexId) {
        let up = self.g0.neighbors(u).iter().map(|&(w, _)| w).filter(|&w| w > u);
        out.push_str("{\"type\":\"node\",\"g0\":\"");
        push_list(out, ',', up.map(|w| w.0));
        out.push_str("\",\"rng\":\"");
        match self.inner.stream(u) {
            Some(rng) => {
                for word in rng.state() {
                    let _ = write!(out, "{word:016x}");
                }
            }
            None => out.push('-'),
        }
        out.push_str("\",\"row\":\"");
        let row = self.inner.topology().neighbors(u);
        for (p, &w) in row.iter().enumerate() {
            if p > 0 {
                out.push(',');
            }
            match self.inner.slot(u, w) {
                Some(c) => {
                    let _ = write!(out, "{}", c.0);
                }
                None => out.push('-'),
            }
        }
        out.push('"');
        // A departed node's automaton is never read again: a join or a
        // restart rebuilds it from the factory.
        if !self.feed.committed_alive(u) {
            out.push_str("}\n");
            return;
        }
        match &self.inner {
            Inner::Ec(s) => {
                let bound = s.nodes()[u.index()].palette_bound();
                if bound != self.palette_bound0 {
                    let _ = write!(out, ",\"bound\":{bound}");
                }
            }
            Inner::Strong(s) => {
                let (forbidden, tried) = s.nodes()[u.index()].parked_memory();
                out.push_str(",\"forbid\":\"");
                push_list(out, ',', forbidden.iter().map(|c| c.0));
                out.push_str("\",\"tried\":\"");
                let ports = tried.iter().enumerate().filter(|(_, t)| !t.is_empty());
                for (k, (p, t)) in ports.enumerate() {
                    let _ = write!(out, "{}{p}:", if k > 0 { "," } else { "" });
                    push_list(out, '.', t.iter().map(|c| c.0));
                }
                out.push('"');
            }
        }
        out.push_str("}\n");
    }

    /// Serialize history entries `from_h..` as delta checkpoint `chain`
    /// (1-based position after the base) whose parent file — the base
    /// for chain 1, the previous delta otherwise — has CRC
    /// `parent_crc`. The parent CRC is what links the chain: a delta
    /// left over from before a compaction (or an aborted checkpoint)
    /// fails the linkage check on restore and is discarded rather than
    /// misapplied.
    pub fn delta_text(
        &self,
        from_h: u64,
        chain: u64,
        parent_crc: u32,
    ) -> Result<String, ServiceError> {
        let from = from_h as usize;
        if from > self.history.len() {
            return Err(ServiceError::Internal(format!(
                "delta start h={from_h} is beyond the history ({} entries)",
                self.history.len()
            )));
        }
        let entries = &self.history[from..];
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"serve-delta\",\"version\":{DELTA_VERSION},\"chain\":{chain},\
             \"epoch\":{},\"h_base\":{from_h},\"entries\":{},\"parent_crc\":{parent_crc},\
             \"quiescent\":{},\"round\":{},\"hash\":{}}}\n",
            self.epoch,
            entries.len(),
            u64::from(self.is_settled()),
            self.inner.round(),
            self.coloring_hash(),
        ));
        push_history_lines(&mut out, self.epoch, from_h, entries);
        let crc = crc32(out.as_bytes());
        out.push_str(&format!("{{\"type\":\"crc\",\"value\":{crc}}}\n"));
        Ok(out)
    }

    /// Rebuild a service from a checkpoint chain: a base
    /// ([`ColoringService::snapshot_text`]), zero or more `serve-delta`
    /// files in chain order, and an optional journal tail.
    ///
    /// The base must verify — a corrupt base, one of another format
    /// version, or one taken while a repair ran is a hard error. It is
    /// parsed, not replayed: the automata are rebuilt from it and
    /// parked, and only the deltas and the journal are re-executed.
    /// Deltas are verified link by link (CRC, chain position, epoch,
    /// history offset, parent CRC); the first delta that fails ends the
    /// chain there, discarding it, every later delta, *and the journal*
    /// (which was rotated against the newest delta and cannot bridge
    /// the gap) — recovery proceeds from the newest verifiable
    /// checkpoint and the [`RestoreReport::fallback`] field says why.
    /// Journal markers already captured by the chain (older epoch, or
    /// this epoch at an already-covered history index) deduplicate
    /// away; markers of a later epoch replay after the fold that began
    /// it. The journal is read tolerantly: a torn final line ends
    /// recovery at the tear. The restored service has finished any
    /// in-flight repair (it is settled unless journal events were
    /// re-staged), and its coloring is bit-identical for every `engine`.
    pub fn restore_chain(
        base: &str,
        deltas: &[&str],
        journal: Option<&str>,
        engine: Engine,
    ) -> Result<(Self, RestoreReport), ServiceError> {
        let (mut svc, info) = Self::parse_base(base, engine)?;
        let snapshot_entries = svc.history_len();
        let chain_epoch = svc.epoch;
        let mut h = snapshot_entries;
        let mut entries = Vec::new();
        let mut parent_crc = info.crc;
        let mut quiescent = true;
        let mut recorded_hash = info.hash;
        let mut deltas_applied = 0u64;
        let mut delta_entries = 0u64;
        let mut fallback = None;
        for text in deltas {
            match Self::parse_delta(text, deltas_applied + 1, svc.epoch, h, parent_crc) {
                Ok(d) => {
                    h += d.entries.len() as u64;
                    delta_entries += d.entries.len() as u64;
                    entries.extend(d.entries);
                    parent_crc = d.crc;
                    quiescent = d.quiescent;
                    recorded_hash = d.hash;
                    deltas_applied += 1;
                }
                Err(kind) => {
                    fallback = Some(kind);
                    break;
                }
            }
        }
        let deltas_discarded = deltas.len() as u64 - deltas_applied;
        // The journal is kept only when it attaches to the verified
        // prefix: its first fresh marker must be the very next history
        // entry, or the first of the next epoch when the chain holds all
        // of this one (a fold whose base never landed). A journal
        // rotated against a delta that was then lost or corrupted starts
        // past the gap and cannot bridge it — but a journal that
        // predates a torn newest delta still carries the acked events
        // and replays seamlessly over the fallback point.
        let mut journal_discarded = false;
        let tail = match journal {
            Some(text) => {
                let parsed = parse_entry_stream(text.lines().enumerate(), svc.epoch, h, false)?;
                let attaches = match parsed.first_marker {
                    Some((e, first_h)) => {
                        (e == svc.epoch && first_h == h + 1)
                            || (fallback.is_none() && e == svc.epoch + 1 && first_h == 1)
                    }
                    None => true,
                };
                if attaches {
                    parsed
                } else {
                    journal_discarded = true;
                    ParsedEntries::default()
                }
            }
            None => ParsedEntries::default(),
        };
        let tail_count = tail.entries.len() as u64;
        entries.extend(tail.entries);
        svc.replay(&entries)?;
        // The journal's staged view supersedes the base's (rotation
        // rewrites the full staged set, and a journaled commit consumed
        // the base's staged events) — but an empty journal against a
        // base that recorded staged events means rotation was torn, so
        // the base's copy is the surviving record, unless a delta
        // landed after the base: its rotation superseded them too.
        let staged_events = if journal.is_some()
            && !journal_discarded
            && (tail_count > 0 || !tail.staged.is_empty())
        {
            tail.staged
        } else if deltas_applied == 0 {
            info.staged
        } else {
            Vec::new()
        };
        for ev in &staged_events {
            svc.stage(*ev)?;
        }
        // Self-check against the newest applied artifact's recorded
        // hash, when that artifact captured a quiescent service and
        // nothing was replayed past it.
        if quiescent
            && tail_count == 0
            && fallback.is_none()
            && svc.coloring_hash() != recorded_hash
        {
            return Err(ServiceError::Replay(format!(
                "replayed coloring hash {:#018x} != recorded {recorded_hash:#018x}",
                svc.coloring_hash()
            )));
        }
        Ok((
            svc,
            RestoreReport {
                snapshot_entries,
                chain_epoch,
                tail_entries: tail_count,
                staged: staged_events.len() as u64,
                torn_tail: tail.torn,
                deltas_applied,
                delta_entries,
                deltas_discarded,
                journal_discarded,
                fallback,
            },
        ))
    }

    /// Parse and verify the chain's base file and rebuild the settled
    /// service it records, with the linkage info the delta walk
    /// continues from. No round is executed.
    fn parse_base(base: &str, engine: Engine) -> Result<(Self, BaseInfo), ServiceError> {
        let (body, crc) = verify_crc(base)?;
        let crc_lineno = body.lines().count() + 1;
        let mut lines = body.lines().enumerate();
        let (_, header_text) = lines
            .next()
            .ok_or(ServiceError::Snapshot { line: 1, message: "empty snapshot".into() })?;
        // Any checkpoint header but a delta's names a base format: this
        // one, or an earlier one that is refused by its version.
        let header = parse_line(header_text)
            .filter(|r| r.tag().is_some_and(|t| t.starts_with("serve-") && t != "serve-delta"))
            .ok_or(ServiceError::Snapshot {
                line: 1,
                message: "first line is not a serve-base header".into(),
            })?;
        let version = header_num(&header, "version")?;
        if header.tag() != Some("serve-base") || version != BASE_VERSION {
            return Err(ServiceError::Snapshot {
                line: 1,
                message: format!("unsupported snapshot version {version}"),
            });
        }
        if header_num(&header, "settled")? != 1 {
            return Err(ServiceError::Snapshot {
                line: 1,
                message: "the base was taken while a repair ran; only a settled base restores"
                    .into(),
            });
        }
        let cfg = config_from_header(&header, engine)?;
        cfg.validate()?;
        let n = header_num(&header, "n")? as usize;
        let num_edges = header_num(&header, "edges")? as usize;
        let num_dead = header_num(&header, "dead")? as usize;
        let num_history = header_num(&header, "history")? as usize;
        let num_staged = header_num(&header, "staged")? as usize;
        // No degree reaches n, so no run records a palette bound (1 on an
        // empty graph), or an Algorithm 1 color, above 2n. A larger one
        // would size the automata's color rows by it.
        let limit = (2 * n as u64).max(1);
        let bound0 = header_num(&header, "bound")?;
        let bound0 =
            u32::try_from(bound0).ok().filter(|&b| u64::from(b) <= limit).ok_or_else(|| {
                ServiceError::Snapshot {
                    line: 1,
                    message: format!("palette bound {bound0} above 2n = {limit}"),
                }
            })?;
        let recorded_hash = header_num(&header, "hash")?;
        // A live clock never comes near the top of the range; one that
        // does would overflow on the next tick.
        let round = header_num(&header, "round")?;
        if round > i64::MAX as u64 {
            return Err(ServiceError::Snapshot {
                line: 1,
                message: format!("round clock {round} out of range"),
            });
        }
        let mut next = |what: &str, tag: &str| -> Result<(usize, Record), ServiceError> {
            let (idx, text) = lines.next().ok_or_else(|| ServiceError::Snapshot {
                line: crc_lineno,
                message: format!("base ends before {what}"),
            })?;
            parse_line(text).filter(|r| r.tag() == Some(tag)).map(|r| (idx + 1, r)).ok_or_else(
                || ServiceError::Snapshot { line: idx + 1, message: format!("expected {what}") },
            )
        };
        let mut dead = Vec::with_capacity(num_dead.min(1 << 20));
        for _ in 0..num_dead {
            let (line, rec) = next("a dead line", "dead")?;
            let v = rec.num("node").filter(|&v| v < n as u64).ok_or(ServiceError::Snapshot {
                line,
                message: "dead line missing node (or out of range)".into(),
            })?;
            dead.push(VertexId(v as u32));
        }
        let mut edges = Vec::with_capacity(num_edges.min(1 << 20));
        let mut nodes = Vec::with_capacity(n.min(1 << 20));
        for u in 0..n {
            let (line, rec) = next("a node line", "node")?;
            let node = NodeLine::parse(&rec, u, n, &mut edges).map_err(|message| {
                ServiceError::Snapshot { line, message: format!("node {u}: {message}") }
            })?;
            nodes.push((line, node));
        }
        if edges.len() != num_edges {
            return Err(ServiceError::Snapshot {
                line: 1,
                message: format!("header declares {num_edges} edges, found {}", edges.len()),
            });
        }
        let g0 = Graph::from_edges(n, edges).map_err(|e| ServiceError::Snapshot {
            line: 1,
            message: format!("invalid base graph: {e}"),
        })?;
        // The history and the staged events after it share the journal's
        // line format: the events after the last marker are the staged
        // ones.
        let rest = parse_entry_stream(lines, 0, 0, true)?;
        if rest.entries.len() != num_history || rest.staged.len() != num_staged {
            return Err(ServiceError::Snapshot {
                line: crc_lineno,
                message: format!(
                    "header declares {num_history} history entries and {num_staged} staged \
                     events, found {} and {}",
                    rest.entries.len(),
                    rest.staged.len()
                ),
            });
        }
        let history: Vec<HistoryEntry> = rest.entries.into_iter().map(|(_, e)| e).collect();
        // The live topology is the graph at the fold with the history's
        // batches applied.
        let mut feed = EventFeed::with_dead(&g0, &dead);
        for entry in &history {
            if let HistoryEntry::Batch { seq, round, events } = entry {
                let applies = events.iter().all(|&ev| feed.stage(ev).is_ok());
                if !applies || feed.commit(*round).is_none() {
                    return Err(ServiceError::Snapshot {
                        line: crc_lineno,
                        message: format!("history batch {seq} does not apply to the base graph"),
                    });
                }
            }
        }
        let topo = Topology::from_graph(&feed.committed_graph());
        let mut inner = Self::build_inner(&topo, &cfg, bound0)?;
        let rows: Vec<&[Option<Color>]> = nodes.iter().map(|(_, node)| &node.row[..]).collect();
        for (u, (line, node)) in nodes.iter().enumerate() {
            let u = VertexId(u as u32);
            let wrong = |message: &str| ServiceError::Snapshot {
                line: *line,
                message: format!("node {u}: {message}"),
            };
            let nbrs = topo.neighbors(u);
            if node.row.len() != nbrs.len() {
                return Err(wrong("row length differs from the node's degree"));
            }
            match &mut inner {
                Inner::Ec(s) => {
                    let bound = node.bound.unwrap_or(bound0);
                    if u64::from(bound) > limit {
                        return Err(wrong(&format!("palette bound {bound} above 2n = {limit}")));
                    }
                    if let Some(c) = node.row.iter().flatten().find(|c| u64::from(c.0) > limit) {
                        return Err(wrong(&format!("color {c} above 2n = {limit}")));
                    }
                    s.nodes_mut()[u.index()].resume_parked(&node.row, bound)
                }
                Inner::Strong(s) => {
                    let forbidden = node.forbid.clone();
                    let tried = node.tried(nbrs.len()).ok_or_else(|| wrong("bad tried"))?;
                    // Each in-arc's channel is its tail's out-slot.
                    let inc: Vec<Option<Color>> = nbrs
                        .iter()
                        .map(|&w| {
                            let q = topo.neighbors(w).binary_search(&u).ok()?;
                            rows[w.index()].get(q).copied().flatten()
                        })
                        .collect();
                    s.nodes_mut()[u.index()].resume_parked(&node.row, &inc, forbidden, tried);
                }
            }
        }
        let streams = nodes.into_iter().map(|(_, node)| node.rng).collect();
        inner.resume(round, streams);
        let mut svc = Self::assemble(cfg, g0, dead, bound0, feed, inner);
        svc.epoch = header_num(&header, "epoch")?;
        svc.history = history;
        svc.batches_committed = header_num(&header, "batches")?;
        svc.escalations = header_num(&header, "escalations")?;
        if svc.coloring_hash() != recorded_hash {
            return Err(ServiceError::Snapshot {
                line: 1,
                message: format!(
                    "restored coloring hash {:#018x} != recorded {recorded_hash:#018x}",
                    svc.coloring_hash()
                ),
            });
        }
        Ok((svc, BaseInfo { crc, hash: recorded_hash, staged: rest.staged }))
    }

    /// Verify one delta against its expected chain position. Any CRC or
    /// structural failure is [`ChainFallback::Corrupt`]; a clean file
    /// that belongs to a different chain state (stale after compaction,
    /// replaced checkpoint) is [`ChainFallback::BrokenLink`].
    fn parse_delta(
        text: &str,
        chain: u64,
        epoch: u64,
        h_base: u64,
        parent_crc: u32,
    ) -> Result<ParsedDelta, ChainFallback> {
        let (body, crc) = verify_crc(text).map_err(|_| ChainFallback::Corrupt)?;
        let mut lines = body.lines().enumerate();
        let Some((_, header_text)) = lines.next() else {
            return Err(ChainFallback::Corrupt);
        };
        let Some(header) = parse_line(header_text).filter(|r| r.tag() == Some("serve-delta"))
        else {
            return Err(ChainFallback::Corrupt);
        };
        if header.num("version") != Some(DELTA_VERSION) {
            return Err(ChainFallback::Corrupt);
        }
        if header.num("chain") != Some(chain)
            || header.num("epoch") != Some(epoch)
            || header.num("h_base") != Some(h_base)
            || header.num("parent_crc") != Some(u64::from(parent_crc))
        {
            return Err(ChainFallback::BrokenLink);
        }
        let (Some(count), Some(quiescent), Some(hash)) =
            (header.num("entries"), header.num("quiescent"), header.num("hash"))
        else {
            return Err(ChainFallback::Corrupt);
        };
        let Ok(parsed) = parse_entry_stream(lines, 0, 0, true) else {
            return Err(ChainFallback::Corrupt);
        };
        if parsed.torn || !parsed.staged.is_empty() || parsed.entries.len() as u64 != count {
            return Err(ChainFallback::Corrupt);
        }
        Ok(ParsedDelta { entries: parsed.entries, crc, quiescent: quiescent != 0, hash })
    }
}

fn color_policy_name(p: ColorPolicy) -> &'static str {
    match p {
        ColorPolicy::LowestIndex => "lowest-index",
        ColorPolicy::RandomLegal => "random-legal",
    }
}

fn parse_color_policy(s: &str) -> Option<ColorPolicy> {
    match s {
        "lowest-index" => Some(ColorPolicy::LowestIndex),
        "random-legal" => Some(ColorPolicy::RandomLegal),
        _ => None,
    }
}

fn header_num(rec: &Record, key: &str) -> Result<u64, ServiceError> {
    rec.num(key).ok_or_else(|| ServiceError::Snapshot {
        line: 1,
        message: format!("header missing numeric field '{key}'"),
    })
}

/// Split a checkpoint file into its CRC-verified body and trailer CRC.
fn verify_crc(text: &str) -> Result<(&str, u32), ServiceError> {
    let trimmed = text.trim_end();
    let (body, crc_text) = trimmed.rsplit_once('\n').ok_or(ServiceError::Snapshot {
        line: 1,
        message: "truncated checkpoint: missing CRC trailer".into(),
    })?;
    let crc_lineno = body.lines().count() + 1;
    let crc_rec =
        parse_line(crc_text).filter(|r| r.tag() == Some("crc")).ok_or(ServiceError::Snapshot {
            line: crc_lineno,
            message: "truncated checkpoint: last line is not a CRC trailer".into(),
        })?;
    let value = crc_rec.num("value").ok_or(ServiceError::Snapshot {
        line: crc_lineno,
        message: "CRC trailer has no value".into(),
    })?;
    let expected = u32::try_from(value).map_err(|_| ServiceError::Snapshot {
        line: crc_lineno,
        message: format!("CRC trailer value {value} does not fit in 32 bits"),
    })?;
    // The CRC covers the body and its newline, which the input holds
    // verbatim as a prefix.
    let actual = crc32(&text.as_bytes()[..body.len() + 1]);
    if expected != actual {
        return Err(ServiceError::CrcMismatch { expected, actual });
    }
    Ok((body, expected))
}

static CRC32_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// IEEE CRC-32 of `data` (the Ethernet/zip polynomial), the checksum
/// every checkpoint file's trailer records.
pub(super) fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The CRC-32 a checkpoint file's trailer records, if the file
/// verifies. Hosts chain the next delta's `parent_crc` to it.
pub fn checkpoint_crc(text: &str) -> Option<u32> {
    verify_crc(text).ok().map(|(_, crc)| crc)
}

/// Rebuild the [`ServiceConfig`] a checkpoint header recorded, with the
/// restoring host's engine choice substituted in (checkpoints do not
/// record the engine — the coloring is bit-identical on either).
fn config_from_header(header: &Record, engine: Engine) -> Result<ServiceConfig, ServiceError> {
    let protocol: ServeProtocol = header
        .str("protocol")
        .unwrap_or("")
        .parse()
        .map_err(|e| ServiceError::Snapshot { line: 1, message: e })?;
    // Listeners always accept a uniformly random invitation (paper line
    // 1.21); the header records that rule, and a checkpoint naming any
    // other cannot be replayed.
    if header.str("response_policy") != Some("random") {
        return Err(ServiceError::Snapshot { line: 1, message: "unknown response_policy".into() });
    }
    // Older headers record the Kempe pass's chain cap, attempt budget and
    // round budget, which are constants now; 0 meant the default. A
    // header recording any other value asks for a pass this build cannot
    // run.
    let fixed = [
        ("reduce_chain", kempe::MAX_CHAIN),
        ("reduce_attempts", kempe::MAX_ATTEMPTS),
        ("reduce_rounds", 0),
    ];
    for (key, constant) in fixed {
        if let Some(v) = header.num(key).filter(|&v| v != 0 && v != u64::from(constant)) {
            return Err(ServiceError::Snapshot {
                line: 1,
                message: format!("unsupported {key} {v}: the Kempe pass fixes it"),
            });
        }
    }
    let coloring = ColoringConfig {
        seed: header_num(header, "seed")?,
        invite_probability: f64::from_bits(header_num(header, "invite_bits")?),
        color_policy: parse_color_policy(header.str("color_policy").unwrap_or("")).ok_or_else(
            || ServiceError::Snapshot { line: 1, message: "unknown color_policy".into() },
        )?,
        proposal_width: header_num(header, "width")? as usize,
        rejection: match header.str("rejection") {
            None => Rejection::Hint,
            Some("silent") => Rejection::Silent,
            Some(_) => {
                return Err(ServiceError::Snapshot { line: 1, message: "unknown rejection".into() })
            }
        },
        max_compute_rounds: match header_num(header, "max_compute")? {
            0 => None,
            m => Some(m),
        },
        validate_sends: header_num(header, "validate_sends")? != 0,
        collect_round_stats: false,
        collect_metrics: false,
        engine,
        faults: FaultPlan::reliable(),
        transport: Transport::Bare,
        profile: false,
        // Absent in pre-reduction snapshots: off.
        reduction: if header.num("reduce").unwrap_or(0) == 1 {
            ColorReduction::Kempe(KempeConfig {
                target_colors: match header.num("reduce_target").unwrap_or(0) {
                    0 => None,
                    t => Some(t as u32),
                },
            })
        } else {
            ColorReduction::Off
        },
    };
    Ok(ServiceConfig { protocol, coloring, watchdog_ticks: header_num(header, "watchdog")? })
}

/// Write `entries` (occupying history indices `from_h + 1 ..`) in the
/// journal wire format — shared by base bodies and delta checkpoints.
fn push_history_lines(out: &mut String, epoch: u64, from_h: u64, entries: &[HistoryEntry]) {
    for (i, entry) in entries.iter().enumerate() {
        let h = from_h + i as u64 + 1;
        match entry {
            HistoryEntry::Batch { seq, round, events } => {
                for ev in events {
                    out.push_str(&event_line(ev));
                }
                out.push_str(&ColoringService::journal_commit_line(epoch, h, *seq, *round));
            }
            HistoryEntry::Recolor { round } => {
                out.push_str(&ColoringService::journal_recolor_line(epoch, h, *round));
            }
        }
    }
}

/// Verified linkage facts about a chain's base file.
struct BaseInfo {
    crc: u32,
    hash: u64,
    /// Staged events the base carried — restaged when no journal or
    /// delta supersedes them.
    staged: Vec<ChurnEvent>,
}

/// One node line of a base (see [`ColoringService::snapshot_text`]),
/// parsed, but for its edges in the graph at the last fold.
struct NodeLine {
    rng: Option<SmallRng>,
    row: Vec<Option<Color>>,
    bound: Option<u32>,
    forbid: ColorSet,
    /// `(port, colors)` for each port with a retry memory.
    tried: Vec<(usize, ColorSet)>,
}

impl NodeLine {
    /// Node `u`'s line of a base over `n` nodes, or what is wrong with
    /// it. Its edges to the neighbors above it in the graph at the last
    /// fold go to `edges`.
    fn parse(
        rec: &Record,
        u: usize,
        n: usize,
        edges: &mut Vec<(VertexId, VertexId)>,
    ) -> Result<NodeLine, String> {
        let field = |key: &str| rec.str(key).ok_or_else(|| format!("missing {key}"));
        let num = |x: &str| x.parse::<u32>().map_err(|_| format!("bad number '{x}'"));
        let colors = |s: &str, sep| {
            items(s, sep).map(|x| num(x).map(Color)).collect::<Result<ColorSet, String>>()
        };
        let mut last = u as u32;
        for x in items(field("g0")?, ',') {
            let w = num(x)?;
            if w <= last || w as usize >= n {
                return Err(format!("g0 neighbor {w} out of order or range"));
            }
            edges.push((VertexId(u as u32), VertexId(w)));
            last = w;
        }
        let rng = match field("rng")? {
            "-" => None,
            hex => Some(parse_stream(hex).ok_or("bad rng stream")?),
        };
        let row = items(field("row")?, ',')
            .map(|x| if x == "-" { Ok(None) } else { num(x).map(|c| Some(Color(c))) })
            .collect::<Result<_, _>>()?;
        let bound = match rec.get("bound") {
            Some(_) => {
                Some(rec.num("bound").and_then(|b| u32::try_from(b).ok()).ok_or("bad bound")?)
            }
            None => None,
        };
        let forbid = colors(rec.str("forbid").unwrap_or(""), ',')?;
        let mut tried = Vec::new();
        for x in items(rec.str("tried").unwrap_or(""), ',') {
            let (port, set) = x.split_once(':').ok_or("bad tried entry")?;
            tried.push((num(port)? as usize, colors(set, '.')?));
        }
        Ok(NodeLine { rng, row, bound, forbid, tried })
    }

    /// The retry memory as one set per port of `ports`, or `None` when
    /// an entry names a port the node does not have.
    fn tried(&self, ports: usize) -> Option<Vec<ColorSet>> {
        let mut out = vec![ColorSet::new(); ports];
        for (p, set) in &self.tried {
            *out.get_mut(*p)? = set.clone();
        }
        Some(out)
    }
}

/// The `sep`-separated items of `s`: none when `s` is empty.
fn items(s: &str, sep: char) -> impl Iterator<Item = &str> {
    s.split(sep).filter(move |_| !s.is_empty())
}

/// Append `xs` to `out`, `sep`-separated.
fn push_list(out: &mut String, sep: char, xs: impl Iterator<Item = u32>) {
    for (k, x) in xs.enumerate() {
        if k > 0 {
            out.push(sep);
        }
        let _ = write!(out, "{x}");
    }
}

/// A stream written as 64 hex digits, if that is what `hex` is (and
/// not the all-zero state no stream reaches).
fn parse_stream(hex: &str) -> Option<SmallRng> {
    if hex.len() != 64 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let mut state = [0u64; 4];
    for (k, word) in state.iter_mut().enumerate() {
        *word = u64::from_str_radix(&hex[16 * k..16 * (k + 1)], 16).ok()?;
    }
    SmallRng::from_state(state)
}

/// One verified delta checkpoint.
struct ParsedDelta {
    entries: Vec<(u64, HistoryEntry)>,
    crc: u32,
    quiescent: bool,
    hash: u64,
}

fn event_line(ev: &ChurnEvent) -> String {
    // Link endpoints are written normalized (min, max) — the feed
    // stores them that way, so journal replay reconstructs the exact
    // history the live service recorded.
    match ev {
        ChurnEvent::LinkUp(u, v) => {
            let (a, b) = (u.min(v), u.max(v));
            format!("{{\"type\":\"event\",\"kind\":\"link-up\",\"u\":{},\"v\":{}}}\n", a.0, b.0)
        }
        ChurnEvent::LinkDown(u, v) => {
            let (a, b) = (u.min(v), u.max(v));
            format!("{{\"type\":\"event\",\"kind\":\"link-down\",\"u\":{},\"v\":{}}}\n", a.0, b.0)
        }
        ChurnEvent::NodeJoin(v) => {
            format!("{{\"type\":\"event\",\"kind\":\"join\",\"node\":{}}}\n", v.0)
        }
        ChurnEvent::NodeLeave(v) => {
            format!("{{\"type\":\"event\",\"kind\":\"leave\",\"node\":{}}}\n", v.0)
        }
    }
}

fn event_from_record(rec: &Record) -> Option<ChurnEvent> {
    let vertex = |key: &str| -> Option<VertexId> {
        let n = rec.num(key)?;
        (n <= u32::MAX as u64).then_some(VertexId(n as u32))
    };
    match rec.str("kind")? {
        "link-up" => Some(ChurnEvent::LinkUp(vertex("u")?, vertex("v")?)),
        "link-down" => Some(ChurnEvent::LinkDown(vertex("u")?, vertex("v")?)),
        "join" => Some(ChurnEvent::NodeJoin(vertex("node")?)),
        "leave" => Some(ChurnEvent::NodeLeave(vertex("node")?)),
        _ => None,
    }
}

#[derive(Default)]
struct ParsedEntries {
    /// Each entry with the epoch its marker names.
    entries: Vec<(u64, HistoryEntry)>,
    staged: Vec<ChurnEvent>,
    torn: bool,
    /// `(epoch, h)` of the first marker that survived staleness
    /// filtering — the point this stream attaches to. `None` when every
    /// marker was stale (or there were none).
    first_marker: Option<(u64, u64)>,
}

/// Parse a history-entry stream (shared between base bodies, delta
/// checkpoints, and the journal). Markers already captured by the
/// checkpoint being restored — an earlier epoch, or `skip_epoch` with
/// `h <= skip_h` (markers without an epoch field predate compaction and
/// read as epoch 0) — are dropped, commits along with their buffered
/// events. In `strict` mode any unparseable line is an error; otherwise
/// it is a torn tail and parsing stops there.
fn parse_entry_stream<'a>(
    lines: impl Iterator<Item = (usize, &'a str)>,
    skip_epoch: u64,
    skip_h: u64,
    strict: bool,
) -> Result<ParsedEntries, ServiceError> {
    let stale = |e: u64, h: u64| e < skip_epoch || (e == skip_epoch && h <= skip_h);
    let mut out = ParsedEntries::default();
    let mut buffer: Vec<ChurnEvent> = Vec::new();
    for (idx, raw) in lines {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let bad = |message: &str| -> Result<(), ServiceError> {
            if strict {
                Err(ServiceError::Snapshot { line: idx + 1, message: message.into() })
            } else {
                Ok(())
            }
        };
        let Some(rec) = parse_line(line) else {
            bad("unparseable history line")?;
            out.torn = true;
            break;
        };
        match rec.tag() {
            Some("event") => match event_from_record(&rec) {
                Some(ev) => buffer.push(ev),
                None => {
                    bad("malformed event line")?;
                    out.torn = true;
                    break;
                }
            },
            Some("commit") => {
                let (Some(h), Some(seq), Some(round)) =
                    (rec.num("h"), rec.num("seq"), rec.num("round"))
                else {
                    bad("commit marker missing h/seq/round")?;
                    out.torn = true;
                    break;
                };
                let e = rec.num("e").unwrap_or(0);
                if stale(e, h) {
                    buffer.clear();
                } else {
                    if out.first_marker.is_none() {
                        out.first_marker = Some((e, h));
                    }
                    let events = std::mem::take(&mut buffer);
                    out.entries.push((e, HistoryEntry::Batch { seq, round, events }));
                }
            }
            Some("recolor") => {
                let (Some(h), Some(round)) = (rec.num("h"), rec.num("round")) else {
                    bad("recolor marker missing h/round")?;
                    out.torn = true;
                    break;
                };
                let e = rec.num("e").unwrap_or(0);
                if !stale(e, h) {
                    if out.first_marker.is_none() {
                        out.first_marker = Some((e, h));
                    }
                    out.entries.push((e, HistoryEntry::Recolor { round }));
                }
            }
            _ => {
                bad("unknown history line type")?;
                out.torn = true;
                break;
            }
        }
    }
    out.staged = buffer;
    Ok(out)
}
