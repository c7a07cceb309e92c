//! The benchmark's own span recorder.
//!
//! Every public library call the benchmark makes is wrapped in a span:
//! name, start, end, parent span and operation id. Timing is always
//! taken (the end-to-end metrics need it); the spans themselves are
//! kept only when tracing is on. They stay in memory and are written
//! out once, when the run ends.

use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// A span that has been entered but not exited.
#[must_use = "exit the span to record it and read its duration"]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

pub struct Spans {
    on: bool,
    origin: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans { on, origin: Instant::now(), op: 0, stack: Vec::new(), spans: Vec::new() }
    }

    /// Tag the spans that follow with operation id `op`, and record them
    /// only if `record` (untraced operations of a traced run record
    /// nothing, so their timings carry no recording cost).
    pub fn start_op(&mut self, op: u64, record: bool) {
        self.op = op;
        self.on = record;
        // A panic inside an operation leaves its spans open; the next
        // operation starts from the root again.
        self.stack.clear();
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.on.then(|| {
            let ns = start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                op: self.op,
                start_ns: ns,
                end_ns: ns,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Close `open` and return its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = end.duration_since(self.origin).as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans must nest");
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Run `f` inside a leaf span; returns its result and duration in
    /// seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.enter(name);
        let r = std::hint::black_box(f());
        (r, self.exit(open))
    }

    /// Self time of every span: its duration minus the part its
    /// children cover (children never overlap — the benchmark is one
    /// thread and spans nest).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Write every span as one JSON line, after a header line.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"self_ns\":{own}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        let outer = s.enter("outer");
        let (_, inner) =
            s.time("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        let total = s.exit(outer);
        assert!(inner > 0.004 && total >= inner);
        let own = s.self_ns();
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(own[0], (s.spans[0].end_ns - s.spans[0].start_ns) - own[1]);
    }

    #[test]
    fn untraced_recorder_keeps_nothing_but_still_times() {
        let mut s = Spans::new(false);
        let (_, t) = s.time("x", || std::thread::sleep(std::time::Duration::from_millis(1)));
        assert!(t > 0.0);
        assert!(s.spans.is_empty());
    }
}
