//! Aggregate metrics plane: named counters, gauges, and log-bucketed
//! histograms.
//!
//! Where the trace plane ([`crate::tracer`]) records *events*, this
//! module records *totals*: cheap always-on aggregates a run can carry
//! around, merge across engine shards, and diff between runs. The
//! design constraints mirror the trace plane:
//!
//! * **Zero-cost when off.** Instrumented code holds a
//!   [`MetricsHandle`] — a nullable reference, one branch per update
//!   when disabled, nothing allocated.
//! * **Deterministic across shard counts.** Every update is commutative
//!   (counter adds, gauge maxima, histogram bucket increments), so the
//!   engine can give each worker shard its own [`MetricsRegistry`] and
//!   [`MetricsRegistry::merge`] them in any order at the end of the run:
//!   the result is bit-identical to a single-shard registry. Proptests
//!   pin this at threads ∈ {1, 2, 3, 8}.
//! * **Deterministic content.** Registries that participate in the
//!   cross-engine equality contract must only record quantities that
//!   are pure functions of `(topology, seed, config)` — counts and
//!   round-denominated latencies, never wall-clock time. Wall-clock
//!   metrics (per-shard work, barrier waits, serve commit latency)
//!   live in registries or name prefixes that are only populated when
//!   profiling is on, exactly like
//!   [`PhaseNanos`](crate::profile::PhaseNanos).
//!
//! Histograms use log₂ buckets: value `v` lands in bucket
//! `bit_length(v)` (0 for 0, 1 for 1, 2 for 2–3, 3 for 4–7, …), plus
//! exact `count`/`sum`/`min`/`max`. That is enough resolution for
//! round counts and chain lengths while keeping the merge a plain
//! vector add.
//!
//! Serialization is the repo's flat-JSONL dialect (one object per
//! line, parseable by [`crate::read::parse_line`]): a `metrics-meta`
//! header, one `counter`/`gauge` line per scalar, one `hist` line per
//! histogram with sparse `b<i>` bucket fields.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::read::parse_line;
use crate::writer::json_escape;

/// Metric name: `&'static str` on the hot path, owned when parsed
/// back from a dump.
pub type MetricName = Cow<'static, str>;

/// Number of log₂ buckets a u64 can land in (bit lengths 0..=64).
pub const HIST_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` observations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// `buckets[i]` counts observations whose bit length is `i`; the
    /// value range of bucket `i > 0` is `[2^(i-1), 2^i)`.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; HIST_BUCKETS] }
    }
}

/// Bucket index of a value: its bit length.
pub fn hist_bucket(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl LogHistogram {
    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[hist_bucket(v)] += 1;
    }

    /// Fold another histogram in (commutative, associative).
    pub fn merge(&mut self, other: &LogHistogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// Mean observation, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `min` normalized to 0 for empty histograms (display form).
    pub fn display_min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// All update operations are commutative, so per-shard registries
/// merge to the same result in any order; `BTreeMap` keys make every
/// iteration (reports, dumps, diffs, `==`) canonically sorted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricName, u64>,
    gauges: BTreeMap<MetricName, u64>,
    histograms: BTreeMap<MetricName, LogHistogram>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Add `by` to counter `name` (creating it at 0).
    pub fn inc(&mut self, name: impl Into<MetricName>, by: u64) {
        *self.counters.entry(name.into()).or_insert(0) += by;
    }

    /// Raise gauge `name` to `v` if `v` is a new maximum.
    pub fn gauge_max(&mut self, name: impl Into<MetricName>, v: u64) {
        let g = self.gauges.entry(name.into()).or_insert(0);
        *g = (*g).max(v);
    }

    /// Record observation `v` into histogram `name`.
    pub fn observe(&mut self, name: impl Into<MetricName>, v: u64) {
        self.histograms.entry(name.into()).or_default().observe(v);
    }

    /// Current value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name` (0 if absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_ref(), *v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_ref(), *v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LogHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_ref(), v))
    }

    /// Fold another registry in: counters add, gauges max, histograms
    /// bucket-add. Commutative and associative, which is the whole
    /// determinism argument for per-shard collection — see the module
    /// docs.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += *v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(0);
            *g = (*g).max(*v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Render as flat JSONL: a `metrics-meta` header, then one line
    /// per metric in canonical (kind, name) order. Round-trips
    /// through [`MetricsRegistry::from_jsonl`].
    pub fn to_jsonl(&self, label: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"metrics-meta\",\"schema\":1,\"label\":\"{}\"}}",
            json_escape(label)
        );
        for (k, v) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
                json_escape(k),
                v
            );
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(
                out,
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
                json_escape(k),
                v
            );
        }
        for (k, h) in &self.histograms {
            let _ = write!(
                out,
                "{{\"type\":\"hist\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{}",
                json_escape(k),
                h.count,
                h.sum,
                h.display_min(),
                h.max
            );
            for (i, b) in h.buckets.iter().enumerate() {
                if *b != 0 {
                    let _ = write!(out, ",\"b{}\":{}", i, b);
                }
            }
            out.push_str("}\n");
        }
        out
    }

    /// Parse a dump produced by [`MetricsRegistry::to_jsonl`].
    /// Returns the registry and its label, or `None` on any malformed
    /// line.
    pub fn from_jsonl(text: &str) -> Option<(MetricsRegistry, String)> {
        let mut reg = MetricsRegistry::new();
        let mut label = String::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let rec = parse_line(line)?;
            match rec.tag()? {
                "metrics-meta" => label = rec.str("label")?.to_string(),
                "counter" => {
                    let name: MetricName = Cow::Owned(rec.str("name")?.to_string());
                    *reg.counters.entry(name).or_insert(0) += rec.num("value")?;
                }
                "gauge" => {
                    let name: MetricName = Cow::Owned(rec.str("name")?.to_string());
                    let v = rec.num("value")?;
                    let g = reg.gauges.entry(name).or_insert(0);
                    *g = (*g).max(v);
                }
                "hist" => {
                    let name: MetricName = Cow::Owned(rec.str("name")?.to_string());
                    let mut h = LogHistogram {
                        count: rec.num("count")?,
                        sum: rec.num("sum")?,
                        min: rec.num("min")?,
                        max: rec.num("max")?,
                        buckets: [0; HIST_BUCKETS],
                    };
                    if h.count == 0 {
                        h.min = u64::MAX;
                    }
                    for (k, _) in rec.fields.iter() {
                        if let Some(i) = k.strip_prefix('b').and_then(|s| s.parse::<usize>().ok()) {
                            if i < HIST_BUCKETS {
                                h.buckets[i] = rec.num(k)?;
                            }
                        }
                    }
                    reg.histograms.insert(name, h);
                }
                _ => return None,
            }
        }
        Some((reg, label))
    }

    /// Drop every entry whose name starts with `prefix`. `metrics diff`
    /// uses this to exclude environment-dependent families (`mem/`,
    /// `pool/`) before a determinism comparison.
    pub fn remove_prefix(&mut self, prefix: &str) {
        self.counters.retain(|k, _| !k.starts_with(prefix));
        self.gauges.retain(|k, _| !k.starts_with(prefix));
        self.histograms.retain(|k, _| !k.starts_with(prefix));
    }

    /// Line-per-difference comparison against `other` (names present
    /// on one side only, or present on both with different values).
    /// Empty means identical.
    pub fn diff(&self, other: &MetricsRegistry) -> Vec<String> {
        let mut out = Vec::new();
        diff_maps("counter", &self.counters, &other.counters, &mut out);
        diff_maps("gauge", &self.gauges, &other.gauges, &mut out);
        let names: std::collections::BTreeSet<&MetricName> =
            self.histograms.keys().chain(other.histograms.keys()).collect();
        for name in names {
            match (self.histograms.get(name), other.histograms.get(name)) {
                (Some(a), Some(b)) if a == b => {}
                (Some(a), Some(b)) => out.push(format!(
                    "hist {}: count {} vs {}, sum {} vs {}, max {} vs {}",
                    name, a.count, b.count, a.sum, b.sum, a.max, b.max
                )),
                (Some(_), None) => out.push(format!("hist {}: only in left", name)),
                (None, Some(_)) => out.push(format!("hist {}: only in right", name)),
                (None, None) => unreachable!(),
            }
        }
        out
    }

    /// Human-readable multi-line report (the `metrics` section of run
    /// reports). Histograms render as `count/mean/min/max`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "  {} = {}", k, v);
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "  {} (max) = {}", k, v);
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "  {} : n={} mean={:.2} min={} max={}",
                k,
                h.count,
                h.mean(),
                h.display_min(),
                h.max
            );
        }
        out
    }
}

fn diff_maps(
    kind: &str,
    a: &BTreeMap<MetricName, u64>,
    b: &BTreeMap<MetricName, u64>,
    out: &mut Vec<String>,
) {
    let names: std::collections::BTreeSet<&MetricName> = a.keys().chain(b.keys()).collect();
    for name in names {
        match (a.get(name), b.get(name)) {
            (Some(x), Some(y)) if x == y => {}
            (Some(x), Some(y)) => out.push(format!("{} {}: {} vs {}", kind, name, x, y)),
            (Some(x), None) => out.push(format!("{} {}: {} vs absent", kind, name, x)),
            (None, Some(y)) => out.push(format!("{} {}: absent vs {}", kind, name, y)),
            (None, None) => unreachable!(),
        }
    }
}

/// A nullable borrow of a [`MetricsRegistry`] — the hot-path handle
/// instrumented code holds, mirroring
/// [`TraceHandle`](crate::tracer::TraceHandle). Disabled is a `None`
/// and every update is a single predictable branch.
#[derive(Default)]
pub struct MetricsHandle<'a>(Option<&'a mut MetricsRegistry>);

impl<'a> MetricsHandle<'a> {
    /// The disabled handle.
    pub fn none() -> Self {
        MetricsHandle(None)
    }

    /// A handle recording into `reg`.
    pub fn to(reg: &'a mut MetricsRegistry) -> Self {
        MetricsHandle(Some(reg))
    }

    /// A handle from an optional registry (the engine's enablement
    /// switch collapses to this one constructor).
    pub fn from_opt(reg: Option<&'a mut MetricsRegistry>) -> Self {
        MetricsHandle(reg)
    }

    /// `true` when updates are being recorded.
    pub fn on(&self) -> bool {
        self.0.is_some()
    }

    /// Add `by` to counter `name`.
    pub fn inc(&mut self, name: &'static str, by: u64) {
        if let Some(reg) = self.0.as_deref_mut() {
            reg.inc(name, by);
        }
    }

    /// Raise gauge `name` to `v` if it is a new maximum.
    pub fn gauge_max(&mut self, name: &'static str, v: u64) {
        if let Some(reg) = self.0.as_deref_mut() {
            reg.gauge_max(name, v);
        }
    }

    /// Record observation `v` into histogram `name`.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        if let Some(reg) = self.0.as_deref_mut() {
            reg.observe(name, v);
        }
    }

    /// A reborrowed handle with a shorter lifetime (for passing into
    /// nested contexts without giving this one up).
    pub fn reborrow(&mut self) -> MetricsHandle<'_> {
        MetricsHandle(self.0.as_deref_mut())
    }
}

impl std::fmt::Debug for MetricsHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("MetricsHandle").field(&self.on()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_bit_length() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(2), 2);
        assert_eq!(hist_bucket(3), 2);
        assert_eq!(hist_bucket(4), 3);
        assert_eq!(hist_bucket(7), 3);
        assert_eq!(hist_bucket(8), 4);
        assert_eq!(hist_bucket(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_extremes_and_mean() {
        let mut h = LogHistogram::default();
        assert_eq!(h.display_min(), 0);
        for v in [3u64, 5, 12] {
            h.observe(v);
        }
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 20);
        assert_eq!(h.min, 3);
        assert_eq!(h.max, 12);
        assert!((h.mean() - 20.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.buckets[hist_bucket(3)], 1);
        assert_eq!(h.buckets[hist_bucket(5)], 1);
        assert_eq!(h.buckets[hist_bucket(12)], 1);
    }

    #[test]
    fn merge_is_order_independent() {
        // Simulate 3 shards recording interleaved updates; any merge
        // order must equal the single-registry recording.
        let mut seq = MetricsRegistry::new();
        let mut shards =
            vec![MetricsRegistry::new(), MetricsRegistry::new(), MetricsRegistry::new()];
        for i in 0..100u64 {
            let s = (i % 3) as usize;
            seq.inc("msgs", i);
            shards[s].inc("msgs", i);
            seq.gauge_max("peak", i * 7 % 41);
            shards[s].gauge_max("peak", i * 7 % 41);
            seq.observe("len", i % 9);
            shards[s].observe("len", i % 9);
        }
        let mut fwd = MetricsRegistry::new();
        for s in &shards {
            fwd.merge(s);
        }
        let mut rev = MetricsRegistry::new();
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(fwd, seq);
        assert_eq!(rev, seq);
    }

    #[test]
    fn jsonl_roundtrips() {
        let mut reg = MetricsRegistry::new();
        reg.inc("engine/messages", 42);
        reg.gauge_max("engine/peak_active", 17);
        reg.observe("arq/ack_rounds", 3);
        reg.observe("arq/ack_rounds", 900);
        let text = reg.to_jsonl("demo");
        let (back, label) = MetricsRegistry::from_jsonl(&text).expect("parses");
        assert_eq!(label, "demo");
        assert_eq!(back, reg);
        assert!(reg.diff(&back).is_empty());
    }

    #[test]
    fn empty_registry_roundtrips() {
        let reg = MetricsRegistry::new();
        let (back, _) = MetricsRegistry::from_jsonl(&reg.to_jsonl("x")).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn diff_reports_each_divergence() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.inc("only_left", 1);
        a.inc("both", 2);
        b.inc("both", 3);
        b.gauge_max("g", 5);
        a.observe("h", 1);
        b.observe("h", 2);
        let d = a.diff(&b);
        assert_eq!(d.len(), 4, "{:?}", d);
        assert!(d.iter().any(|l| l.contains("only_left")));
        assert!(d.iter().any(|l| l.contains("both: 2 vs 3")));
    }

    #[test]
    fn handle_is_inert_when_off() {
        let mut h = MetricsHandle::none();
        assert!(!h.on());
        h.inc("x", 1);
        h.observe("y", 2);
        h.gauge_max("z", 3);
        let mut reg = MetricsRegistry::new();
        {
            let mut h = MetricsHandle::to(&mut reg);
            assert!(h.on());
            h.inc("x", 1);
            let mut r = h.reborrow();
            r.inc("x", 2);
            h.inc("x", 4);
        }
        assert_eq!(reg.counter("x"), 7);
    }

    #[test]
    fn text_report_lists_everything() {
        let mut reg = MetricsRegistry::new();
        reg.inc("c", 1);
        reg.gauge_max("g", 2);
        reg.observe("h", 3);
        let t = reg.to_text();
        assert!(t.contains("c = 1"));
        assert!(t.contains("g (max) = 2"));
        assert!(t.contains("h : n=1"));
    }
}
