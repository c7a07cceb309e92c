//! Metric names, the result line, small statistics and host provenance.

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
/// Must match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("color_s", "s"),
    ("colors_used", "colors"),
    ("compute_rounds", "rounds"),
    ("heap_peak_mb", "MB"),
    ("batch_p50_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run; 0
/// where the layer does no work on the workload (or the program exposes
/// no counter for it there). Must match `per_layer` in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.parse_s", "s"),
    ("engine.step_s", "s"),
    ("engine.collect_s", "s"),
    ("engine.ns_per_message", "ns/message"),
    ("engine.messages", "messages"),
    ("engine.deliveries", "deliveries"),
    ("engine.rounds", "rounds"),
    ("engine.barrier_s", "s"),
    ("engine.shard_imbalance", "ratio"),
    ("engine.ns_per_round", "ns/round"),
    ("mem.allocs_per_message", "allocs/message"),
    ("mem.heap_peak_over_live", "ratio"),
    ("mem.bytes_per_node", "B/node"),
    ("arq.frames_per_message", "frames/message"),
    ("arq.tax_x", "x"),
    ("arq.recovery_share", "share"),
    ("arq.retransmits", "frames"),
    ("arq.acks_standalone", "frames"),
    ("arq.dup_bundles", "bundles"),
    ("arq.overhead_rounds", "rounds"),
    ("arq.dropped", "frames"),
    ("dimaec.messages_per_edge", "messages/edge"),
    ("dima2ed.messages_per_arc", "messages/arc"),
    ("service.init_s", "s"),
    ("service.commit_s", "s"),
    ("service.repair_s", "s"),
    ("service.repair_rounds", "rounds"),
    ("service.ms_per_repair_round", "ms/round"),
    ("service.stage_accept_ratio", "ratio"),
    ("service.colors_changed_per_event", "edges/event"),
    ("kempe.rounds", "rounds"),
    ("kempe.messages", "messages"),
    ("kempe.chains_flipped", "chains"),
    ("kempe.trivial_recolors", "edges"),
    ("kempe.aborts", "operations"),
    ("kempe.useful_ratio", "ratio"),
    ("persist.snapshot_s", "s"),
    ("persist.snapshot_bytes", "bytes"),
    ("persist.delta_s", "s"),
    ("persist.delta_bytes", "bytes"),
    ("persist.journal_bytes", "bytes"),
    ("persist.restore_entries", "entries"),
    ("persist.restore_ms_per_entry", "ms/entry"),
    ("verify.edge_s", "s"),
    ("verify.strong_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("batch_p90_ms", "ms"),
    ("strong_s", "s"),
    ("strong_channels", "channels"),
    ("frames_sent", "frames"),
    ("restore_s", "s"),
];

/// What a workload measured. Metrics not set read 0 in traced runs
/// (layer idle); an untraced run must set every end-to-end metric.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The result line: exactly the declared metrics of the mode, in
    /// declaration order. A missing end-to-end value or a non-finite
    /// value marks the run incorrect.
    pub fn to_json(&self, traced: bool) -> String {
        let declared = if traced { PER_LAYER } else { END_TO_END };
        let mut correct = self.correct && self.attempted > 0;
        let mut fields = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    eprintln!("error: metric {name} is {v}");
                    correct = false;
                    0.0
                }
                None if traced => 0.0,
                None => {
                    eprintln!("error: metric {name} was not measured");
                    correct = false;
                    0.0
                }
            };
            fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// Median of `xs` (mean of the middle pair for even counts); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Lower quartile (nearest rank) of `xs`: the timing estimate for
/// repeated identical operations. Interference from other tenants of a
/// shared host only ever slows an operation down, so the lower quartile
/// follows the program's own cost while the median follows the host's
/// load.
pub fn low_quartile(xs: &[f64]) -> f64 {
    percentile(xs, 25.0)
}

/// Arithmetic mean of `xs`; NaN when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; NaN when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `a / b`, or 0 when `b` is 0 (a ratio over work that did not happen).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The host a result came from.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub l3: String,
    pub rustc: String,
}

impl Host {
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|rest| rest.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".into(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
        Host { nproc: dima_sim::pool::hardware_threads(), cpu_model, l3, rustc }
    }

    pub fn json(&self, threads: usize) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":\"{}\",\"l3\":\"{}\",\"rustc\":\"{}\",\"engine_threads\":{threads}}}",
            self.nproc,
            self.cpu_model.replace('"', "'"),
            self.l3,
            self.rustc.replace('"', "'")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_and_median() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(median(&xs), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[4.0, 1.0], 90.0), 4.0);
    }

    #[test]
    fn missing_end_to_end_metric_marks_run_incorrect() {
        let mut r = Report { correct: true, attempted: 1, ..Default::default() };
        r.set("setup_s", 0.5);
        assert!(r.to_json(false).starts_with("{\"correct\": false"));
        for &(name, _) in END_TO_END {
            r.set(name, 1.0);
        }
        assert!(r.to_json(false).starts_with("{\"correct\": true"));
    }

    /// The declared metric lists must be exactly the ones in
    /// `BENCHMARK.json` (checked by scanning its `"name"` fields).
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section ends")];
            body.split("\"name\"")
                .skip(1)
                .map(|item| {
                    let field = |k: &str| {
                        let s = if k == "name" { item } else { &item[item.find(k).expect(k)..] };
                        let s = &s[s.find(':').expect(":") + 1..];
                        let s = &s[s.find('"').expect("quote") + 1..];
                        s[..s.find('"').expect("quote")].to_string()
                    };
                    (field("name"), field("\"unit\""))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
    }
}
