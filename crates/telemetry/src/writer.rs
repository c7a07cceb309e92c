//! Streaming JSONL trace writer.
//!
//! One JSON object per line: a `header` line with run metadata, one
//! line per [`Event`], and a `footer` line with the run's aggregate
//! totals. The format is hand-rolled (this workspace vendors no JSON
//! dependency): every value is an unsigned integer, a boolean, or a
//! short string, so a [few lines of escaping](json_escape) suffice.

use crate::event::Event;
use crate::tracer::Tracer;
use std::io::Write;

/// Trace file schema version, bumped on incompatible format changes.
pub const SCHEMA_VERSION: u32 = 1;

/// Run metadata written to the `header` line.
#[derive(Clone, Debug, Default)]
pub struct TraceMeta {
    /// Workload name (e.g. `color`, `strong-color`, `matching`).
    pub workload: String,
    /// Input graph description (path or generator spec).
    pub graph: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Number of nodes.
    pub nodes: u64,
    /// Engine name (`seq` / `par`).
    pub engine: String,
    /// Engine shards (1 without `--threads`).
    pub threads: u32,
    /// Node sampling modulus (0/1 = every node).
    pub sample: u32,
}

/// Aggregate run totals written to the `footer` line (mirrors the
/// simulator's `RunStats` scalars).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunTotals {
    /// Engine rounds executed.
    pub rounds: u64,
    /// Messages sent.
    pub messages_sent: u64,
    /// Messages delivered.
    pub deliveries: u64,
    /// Messages dropped by the fault plan.
    pub dropped: u64,
    /// Messages corrupted by the fault plan.
    pub corrupted: u64,
    /// Extra copies injected by the fault plan.
    pub duplicated: u64,
    /// Nodes crash-stopped by the fault plan.
    pub crashed: u64,
    /// Idle rounds fast-forwarded over by the engine.
    pub idle_rounds_skipped: u64,
    /// Churn batches applied.
    pub churn_batches: u64,
    /// Individual churn events applied.
    pub churn_events: u64,
}

/// Escape a string for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Streaming JSONL sink. IO errors are sticky: the first one is kept
/// and reported by [`TraceWriter::finish`]; later writes are skipped.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    sample: u32,
    err: Option<std::io::Error>,
    events_written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Create a writer over `w` and write the header line. `sample`
    /// (from `meta.sample`) keeps node events only for nodes with
    /// `node % sample == 0`; 0 or 1 keeps everything. Engine-level
    /// events are always kept.
    pub fn new(w: W, meta: &TraceMeta) -> Self {
        let mut tw = TraceWriter { w, sample: meta.sample, err: None, events_written: 0 };
        let line = format!(
            concat!(
                "{{\"type\":\"header\",\"schema\":{},\"workload\":\"{}\",\"graph\":\"{}\",",
                "\"seed\":{},\"nodes\":{},\"engine\":\"{}\",\"threads\":{},\"sample\":{}}}"
            ),
            SCHEMA_VERSION,
            json_escape(&meta.workload),
            json_escape(&meta.graph),
            meta.seed,
            meta.nodes,
            meta.engine,
            meta.threads,
            meta.sample,
        );
        tw.line(&line);
        tw
    }

    fn line(&mut self, s: &str) {
        if self.err.is_none() {
            if let Err(e) = writeln!(self.w, "{s}") {
                self.err = Some(e);
            }
        }
    }

    fn keeps(&self, node: u32) -> bool {
        self.sample <= 1 || node.is_multiple_of(self.sample)
    }

    /// Events written so far (excluding header/footer).
    pub fn events_written(&self) -> u64 {
        self.events_written
    }

    /// Write the footer line, flush, and surface any sticky IO error.
    pub fn finish(mut self, totals: &RunTotals) -> std::io::Result<()> {
        let line = format!(
            concat!(
                "{{\"type\":\"footer\",\"rounds\":{},\"messages_sent\":{},\"deliveries\":{},",
                "\"dropped\":{},\"corrupted\":{},\"duplicated\":{},\"crashed\":{},",
                "\"idle_rounds_skipped\":{},\"churn_batches\":{},\"churn_events\":{}}}"
            ),
            totals.rounds,
            totals.messages_sent,
            totals.deliveries,
            totals.dropped,
            totals.corrupted,
            totals.duplicated,
            totals.crashed,
            totals.idle_rounds_skipped,
            totals.churn_batches,
            totals.churn_events,
        );
        self.line(&line);
        match self.err.take() {
            Some(e) => Err(e),
            None => self.w.flush(),
        }
    }
}

impl<W: Write> Tracer for TraceWriter<W> {
    fn emit(&mut self, ev: Event) {
        let line = match ev {
            Event::State { round, node, label, reason } => {
                if !self.keeps(node) {
                    return;
                }
                format!(
                    "{{\"type\":\"state\",\"round\":{round},\"node\":{node},\"label\":\"{label}\",\"reason\":\"{reason}\"}}"
                )
            }
            Event::Palette { round, node, action, color, peer } => {
                if !self.keeps(node) {
                    return;
                }
                format!(
                    "{{\"type\":\"palette\",\"round\":{round},\"node\":{node},\"action\":\"{}\",\"color\":{color},\"peer\":{peer}}}",
                    action.name()
                )
            }
            Event::Arq { round, node, kind, peer } => {
                if !self.keeps(node) {
                    return;
                }
                format!(
                    "{{\"type\":\"arq\",\"round\":{round},\"node\":{node},\"kind\":\"{}\",\"peer\":{peer}}}",
                    kind.name()
                )
            }
            Event::Churn { round, joins, leaves, changes } => format!(
                "{{\"type\":\"churn\",\"round\":{round},\"joins\":{joins},\"leaves\":{leaves},\"changes\":{changes}}}"
            ),
            Event::MsgKind { round, kind, sent, delivered, dropped, corrupted, duplicated } => {
                format!(
                    "{{\"type\":\"msgkind\",\"round\":{round},\"kind\":\"{kind}\",\"sent\":{sent},\"delivered\":{delivered},\"dropped\":{dropped},\"corrupted\":{corrupted},\"duplicated\":{duplicated}}}"
                )
            }
            Event::Round { round, active, done, sent, delivered } => format!(
                "{{\"type\":\"round\",\"round\":{round},\"active\":{active},\"done\":{done},\"sent\":{sent},\"delivered\":{delivered}}}"
            ),
        };
        self.events_written += 1;
        self.line(&line);
    }

    fn sample(&self, node: u32) -> bool {
        self.keeps(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PaletteAction;

    #[test]
    fn writes_header_events_footer() {
        let mut buf = Vec::new();
        let meta = TraceMeta {
            workload: "color".into(),
            graph: "g.edges".into(),
            seed: 7,
            nodes: 2,
            engine: "seq".into(),
            threads: 1,
            sample: 0,
        };
        let mut w = TraceWriter::new(&mut buf, &meta);
        w.emit(Event::State { round: 0, node: 1, label: "I", reason: "coin" });
        w.emit(Event::Palette {
            round: 0,
            node: 1,
            action: PaletteAction::Committed,
            color: 3,
            peer: 0,
        });
        w.finish(&RunTotals { rounds: 4, ..Default::default() }).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"type\":\"header\"") && lines[0].contains("\"seed\":7"));
        assert!(lines[1].contains("\"label\":\"I\""));
        assert!(lines[2].contains("\"action\":\"committed\""));
        assert!(lines[3].contains("\"idle_rounds_skipped\":0"));
    }

    #[test]
    fn sampling_filters_node_events_only() {
        let mut buf = Vec::new();
        let meta = TraceMeta { sample: 2, ..Default::default() };
        let mut w = TraceWriter::new(&mut buf, &meta);
        assert!(w.sample(0) && !w.sample(1));
        w.emit(Event::State { round: 0, node: 1, label: "I", reason: "coin" });
        w.emit(Event::Round { round: 0, active: 2, done: 0, sent: 0, delivered: 0 });
        assert_eq!(w.events_written(), 1, "node 1 filtered, round kept");
        w.finish(&RunTotals::default()).unwrap();
    }

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
