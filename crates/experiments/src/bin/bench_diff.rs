//! Noise-aware comparator for two `bench_baseline` snapshots.
//!
//! ```text
//! bench_diff <old.json> <new.json> [--threshold R] [--gate-par RATIO]
//! ```
//!
//! A scenario counts as a **regression** only when both hold:
//!
//! * the rep ranges are disjoint on the slow side — the new run's
//!   fastest rep is slower than the old run's slowest (`new.min >
//!   old.max`), so no pair of observed reps contradicts the slowdown —
//!   and
//! * the mean moved by more than `--threshold` (relative, default
//!   0.10), so overlapping-tail flukes on low-rep snapshots don't gate.
//!
//! Improvements are the mirror image and are reported but never fail
//! the run. Exit is nonzero on any regression, which makes this bin the
//! CI perf gate (replacing the old inline thread-sweep script).
//!
//! `--gate-par R` additionally checks the *new* snapshot's parallel
//! sanity invariant: at the largest thread-sweep point the recorded
//! host could actually parallelize, N shards may be at most `R`× 1 shard
//! on the big coloring workload (the old CI heredoc used 1.10). This is an intra-snapshot check — it needs no baseline
//! and is immune to cross-host noise.

use std::process::ExitCode;

/// One scenario row from a snapshot's `"scenarios"` array.
#[derive(Clone, Debug, PartialEq)]
struct Row {
    name: String,
    mean_ms: f64,
    min_ms: f64,
    max_ms: f64,
}

/// The fields of a `BENCH_engine.json` this comparator reads.
#[derive(Debug)]
struct Snapshot {
    label: String,
    cpu_model: Option<String>,
    host_threads: u64,
    rows: Vec<Row>,
}

/// Pull `"key":<number>` out of one scenario row. Matches the compact
/// format `bench_baseline` writes; not a general JSON parser.
fn num_field(row: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = row.find(&pat)?;
    let rest = &row[at + pat.len()..];
    let num: String =
        rest.chars().take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-').collect();
    num.parse().ok()
}

fn str_field(text: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let at = text.find(&pat)?;
    let rest = &text[at + pat.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

fn parse_snapshot(text: &str, path: &str) -> Result<Snapshot, String> {
    let start = text
        .find("\"scenarios\":[")
        .ok_or_else(|| format!("{path}: no \"scenarios\" array (not a bench_baseline snapshot)"))?;
    let body = &text[start + "\"scenarios\":[".len()..];
    let end = body.find(']').ok_or_else(|| format!("{path}: unterminated scenarios array"))?;
    let mut rows = Vec::new();
    for row in body[..end].split("{\"name\":\"").skip(1) {
        let Some(name_end) = row.find('"') else { continue };
        let name = row[..name_end].to_string();
        let (Some(mean_ms), Some(min_ms), Some(max_ms)) =
            (num_field(row, "mean_ms"), num_field(row, "min_ms"), num_field(row, "max_ms"))
        else {
            return Err(format!("{path}: scenario '{name}' is missing mean/min/max"));
        };
        rows.push(Row { name, mean_ms, min_ms, max_ms });
    }
    if rows.is_empty() {
        return Err(format!("{path}: empty scenarios array"));
    }
    Ok(Snapshot {
        label: str_field(text, "label").unwrap_or_else(|| "?".into()),
        cpu_model: str_field(text, "cpu_model"),
        host_threads: num_field(text, "host_threads").map_or(0, |v| v as u64),
        rows,
    })
}

/// One scenario's verdict, most severe first in the report.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Regression,
    Improvement,
    Noise,
}

/// The noise-aware rule: a move only counts when the rep ranges are
/// disjoint AND the mean shifted by more than `threshold` (relative).
fn judge(old: &Row, new: &Row, threshold: f64) -> Verdict {
    let rel = (new.mean_ms - old.mean_ms) / old.mean_ms;
    if new.min_ms > old.max_ms && rel > threshold {
        Verdict::Regression
    } else if old.min_ms > new.max_ms && -rel > threshold {
        Verdict::Improvement
    } else {
        Verdict::Noise
    }
}

/// Compare both snapshots scenario by scenario; returns the regression
/// count (the exit-code driver).
fn diff_snapshots(old: &Snapshot, new: &Snapshot, threshold: f64) -> usize {
    if let (Some(a), Some(b)) = (&old.cpu_model, &new.cpu_model) {
        if a != b {
            eprintln!(
                "warning: snapshots come from different CPUs\n  old: {a}\n  new: {b}\n\
                 absolute comparisons across hosts are indicative, not conclusive"
            );
        }
    }
    let mut regressions = 0;
    for new_row in &new.rows {
        let Some(old_row) = old.rows.iter().find(|r| r.name == new_row.name) else {
            println!("  + {:<28} new scenario ({:.3} ms)", new_row.name, new_row.mean_ms);
            continue;
        };
        let rel = (new_row.mean_ms - old_row.mean_ms) / old_row.mean_ms * 100.0;
        match judge(old_row, new_row, threshold) {
            Verdict::Regression => {
                regressions += 1;
                println!(
                    "  ! {:<28} {:.3} -> {:.3} ms ({rel:+.1}%)  REGRESSION \
                     (ranges disjoint: old max {:.3} < new min {:.3})",
                    new_row.name, old_row.mean_ms, new_row.mean_ms, old_row.max_ms, new_row.min_ms
                );
            }
            Verdict::Improvement => println!(
                "  - {:<28} {:.3} -> {:.3} ms ({rel:+.1}%)  improvement",
                new_row.name, old_row.mean_ms, new_row.mean_ms
            ),
            Verdict::Noise => println!(
                "  ~ {:<28} {:.3} -> {:.3} ms ({rel:+.1}%)  within noise",
                new_row.name, old_row.mean_ms, new_row.mean_ms
            ),
        }
    }
    for old_row in &old.rows {
        if !new.rows.iter().any(|r| r.name == old_row.name) {
            println!("  x {:<28} dropped (was {:.3} ms)", old_row.name, old_row.mean_ms);
        }
    }
    regressions
}

/// The intra-snapshot parallel gate: at the widest sweep point the
/// snapshot's host could really parallelize, N shards must be within
/// `max_ratio` of 1 shard.
fn gate_par(snap: &Snapshot, max_ratio: f64) -> Result<(), String> {
    let mean = |name: &str| {
        snap.rows
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.mean_ms)
            .ok_or_else(|| format!("--gate-par: snapshot has no '{name}' scenario"))
    };
    let seq = mean("color_big_seq")?;
    let pick = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t as u64 <= snap.host_threads.max(1))
        .filter(|&t| snap.rows.iter().any(|r| r.name == format!("thread_sweep_t{t}")))
        .max()
        .ok_or("--gate-par: snapshot has no runnable thread_sweep_t* scenario")?;
    let par = mean(&format!("thread_sweep_t{pick}"))?;
    let ratio = par / seq;
    println!(
        "gate-par: host_threads={} seq={seq:.1}ms thread_sweep_t{pick}={par:.1}ms \
         ratio={ratio:.3} (budget {max_ratio:.2})",
        snap.host_threads
    );
    if ratio > max_ratio {
        return Err(format!(
            "engine at t={pick} shards is {ratio:.2}x 1 shard (budget {max_ratio:.2}x) \
             — pool regression"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold = 0.10f64;
    let mut gate: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                let v = it.next().expect("--threshold needs a ratio");
                threshold = v.parse().unwrap_or_else(|_| panic!("--threshold {v}: not a number"));
            }
            "--gate-par" => {
                let v = it.next().expect("--gate-par needs a max par/seq ratio");
                gate = Some(v.parse().unwrap_or_else(|_| panic!("--gate-par {v}: not a number")));
            }
            other => paths.push(other.to_string()),
        }
    }
    if paths.len() != 2 {
        eprintln!("usage: bench_diff <old.json> <new.json> [--threshold R] [--gate-par RATIO]");
        return ExitCode::from(2);
    }
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        parse_snapshot(&text, path).unwrap_or_else(|e| panic!("{e}"))
    };
    let old = load(&paths[0]);
    let new = load(&paths[1]);
    println!(
        "bench diff: '{}' ({}) -> '{}' ({}), threshold {:.0}%",
        old.label,
        paths[0],
        new.label,
        paths[1],
        threshold * 100.0
    );
    let regressions = diff_snapshots(&old, &new, threshold);
    let mut failed = regressions > 0;
    if regressions > 0 {
        eprintln!("{regressions} scenario(s) regressed beyond noise");
    }
    if let Some(max_ratio) = gate {
        if let Err(e) = gate_par(&new, max_ratio) {
            eprintln!("{e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("no regressions");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(rows: &[(&str, f64, f64, f64)]) -> Snapshot {
        Snapshot {
            label: "test".into(),
            cpu_model: None,
            host_threads: 8,
            rows: rows
                .iter()
                .map(|&(name, mean_ms, min_ms, max_ms)| Row {
                    name: name.into(),
                    mean_ms,
                    min_ms,
                    max_ms,
                })
                .collect(),
        }
    }

    #[test]
    fn parses_bench_baseline_output() {
        let text = r#"{
"schema":"dima-bench-v1",
"label":"seeded",
"quick":true,
"par_threads":4,
"host_threads":8,
"cpu_model":"Test CPU 3000",
"rustc":"rustc 1.0.0",
"interleaved":false,
"scenarios":[{"name":"color_seq","reps":2,"mean_ms":10.500,"min_ms":10.100,"max_ms":10.900},{"name":"serve_slo","reps":2,"mean_ms":5.000,"min_ms":4.000,"max_ms":6.000,"p50_ms":1.000,"p99_ms":2.000}]
}"#;
        let s = parse_snapshot(text, "t.json").unwrap();
        assert_eq!(s.label, "seeded");
        assert_eq!(s.cpu_model.as_deref(), Some("Test CPU 3000"));
        assert_eq!(s.host_threads, 8);
        assert_eq!(s.rows.len(), 2);
        assert_eq!(
            s.rows[0],
            Row { name: "color_seq".into(), mean_ms: 10.5, min_ms: 10.1, max_ms: 10.9 }
        );
        assert!(parse_snapshot("{}", "t.json").is_err());
    }

    #[test]
    fn disjoint_ranges_and_threshold_both_required() {
        let old = Row { name: "s".into(), mean_ms: 100.0, min_ms: 95.0, max_ms: 105.0 };
        // Slower, disjoint, above threshold: regression.
        let slow = Row { name: "s".into(), mean_ms: 130.0, min_ms: 125.0, max_ms: 135.0 };
        assert_eq!(judge(&old, &slow, 0.10), Verdict::Regression);
        // Slower on the mean but the ranges overlap: noise.
        let noisy = Row { name: "s".into(), mean_ms: 130.0, min_ms: 101.0, max_ms: 160.0 };
        assert_eq!(judge(&old, &noisy, 0.10), Verdict::Noise);
        // Disjoint but under the relative threshold: noise.
        let slight = Row { name: "s".into(), mean_ms: 107.0, min_ms: 106.0, max_ms: 108.0 };
        assert_eq!(judge(&old, &slight, 0.10), Verdict::Noise);
        // The mirror image reports an improvement.
        let fast = Row { name: "s".into(), mean_ms: 70.0, min_ms: 65.0, max_ms: 75.0 };
        assert_eq!(judge(&old, &fast, 0.10), Verdict::Improvement);
    }

    #[test]
    fn seeded_regression_is_counted() {
        let old = snap(&[("color_seq", 100.0, 95.0, 105.0), ("kempe_reduce", 50.0, 48.0, 52.0)]);
        let new = snap(&[("color_seq", 140.0, 136.0, 144.0), ("kempe_reduce", 51.0, 47.0, 55.0)]);
        assert_eq!(diff_snapshots(&old, &new, 0.10), 1);
        assert_eq!(diff_snapshots(&old, &old, 0.10), 0);
    }

    #[test]
    fn gate_par_picks_widest_runnable_sweep_point() {
        let mut s = snap(&[
            ("color_big_seq", 100.0, 98.0, 102.0),
            ("thread_sweep_t1", 110.0, 108.0, 112.0),
            ("thread_sweep_t2", 80.0, 78.0, 82.0),
            ("thread_sweep_t4", 60.0, 58.0, 62.0),
            ("thread_sweep_t8", 200.0, 198.0, 202.0),
        ]);
        // host_threads = 8: t8 is picked and busts the budget.
        assert!(gate_par(&s, 1.10).is_err());
        // A 4-thread host never judges the oversubscribed t8 point.
        s.host_threads = 4;
        assert!(gate_par(&s, 1.10).is_ok());
        // Missing scenarios are structural errors, not passes.
        assert!(gate_par(&snap(&[("color_big_seq", 1.0, 1.0, 1.0)]), 1.10).is_err());
    }
}
