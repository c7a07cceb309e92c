//! Same behaviour as a committed check: every line of
//! `tests/golden/cli.tsv` (at the repository root) is a `dima-cli`
//! workload case (`color`, `strong-color` or `matching`) whose exit code,
//! `--out` file, trace and metrics dump are pinned by hash.
//!
//! Each case runs at `--threads 1` and `--threads 3`, and both runs must
//! match the pinned line. The trace hash leaves out what a change to the
//! message plane's delivery accounting may move without moving the
//! algorithm: the header (it names the file and the engine), the per-kind
//! `msgkind` rows, the run footer and each round line's `delivered`
//! count. Every state, palette, ARQ and churn event stays in. The
//! metrics hash covers the `--metrics-out` dump without its `mem/` and
//! `time/` rows, which measure the host rather than the run.
//!
//! Lines of tier `debug` run in every `cargo test`; the rest run only
//! when `DIMA_GOLDEN=all` is set (a release CI step). Two more variables
//! serve a change that moves outputs on purpose:
//!
//! - `DIMA_GOLDEN_REPIN=1` rewrites the hashes of the lines that ran
//!   with what this build produced, so the moved outputs show as a diff
//!   of one file;
//! - `DIMA_GOLDEN_CLI=<path>` runs another build of `dima-cli` (say, the
//!   parent commit's) against the same file.

use std::path::{Path, PathBuf};
use std::process::Command;

const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/cli.tsv");

/// One pinned case.
#[derive(Clone, Debug, PartialEq)]
struct Case {
    name: String,
    tier: String,
    /// The workload command: `color`, `strong-color` or `matching`.
    command: String,
    /// `dima-cli gen` arguments for the input graph.
    graph: String,
    /// The command's arguments after the graph file.
    args: String,
    /// Exit code, `--out` hash, trace hash and metrics hash ("-" for a
    /// missing file).
    pinned: Outcome,
}

#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    exit: i32,
    out: String,
    trace: String,
    metrics: String,
}

fn parse(text: &str) -> Vec<Case> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            assert_eq!(f.len(), 9, "a line has 9 tab-separated fields: {l}");
            Case {
                name: f[0].into(),
                tier: f[1].into(),
                command: f[2].into(),
                graph: f[3].into(),
                args: f[4].into(),
                pinned: Outcome {
                    exit: f[5].parse().expect("exit code"),
                    out: f[6].into(),
                    trace: f[7].into(),
                    metrics: f[8].into(),
                },
            }
        })
        .collect()
}

fn render(text: &str, cases: &[Case]) -> String {
    let header: String =
        text.lines().take_while(|l| l.starts_with('#')).map(|l| l.to_owned() + "\n").collect();
    let body: String = cases
        .iter()
        .map(|c| {
            let p = &c.pinned;
            format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                c.name, c.tier, c.command, c.graph, c.args, p.exit, p.out, p.trace, p.metrics
            )
        })
        .collect();
    header + &body
}

/// FNV-1a, 64 bits.
fn fnv(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The trace with the parts a delivery-accounting change may move left
/// out (see the module docs).
fn trace_core(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let skip = ["header", "msgkind", "footer"];
        if skip.iter().any(|t| line.starts_with(&format!("{{\"type\":\"{t}\""))) {
            continue;
        }
        match line.find(",\"delivered\":").filter(|_| line.starts_with("{\"type\":\"round\"")) {
            Some(at) => {
                let rest = &line[at + 1..];
                let end = rest.find([',', '}']).expect("a field ends");
                out.push_str(&line[..at]);
                out.push_str(&rest[end..]);
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// The metrics dump without its host-dependent `mem/` and `time/` rows.
fn metrics_core(text: &str) -> String {
    let host = ["mem/", "time/"].map(|f| format!("\"name\":\"{f}"));
    text.lines()
        .filter(|l| !host.iter().any(|h| l.contains(h.as_str())))
        .map(|l| l.to_owned() + "\n")
        .collect()
}

fn cli() -> PathBuf {
    std::env::var_os("DIMA_GOLDEN_CLI")
        .map_or_else(|| PathBuf::from(env!("CARGO_BIN_EXE_dima-cli")), PathBuf::from)
}

fn run_cli(args: &[&str], dir: &Path) -> i32 {
    let out = Command::new(cli()).args(args).current_dir(dir).output().expect("spawn dima-cli");
    out.status.code().expect("dima-cli exited normally")
}

fn read_hash(path: &Path, map: impl Fn(&str) -> String) -> String {
    std::fs::read_to_string(path).map_or_else(|_| "-".into(), |t| fnv(map(&t).as_bytes()))
}

/// Run `case` at `threads` in `dir`, on the graph file `graph`.
fn outcome(case: &Case, graph: &Path, threads: usize, dir: &Path) -> Outcome {
    let (out, trace, metrics) =
        (dir.join("out.colors"), dir.join("trace.jsonl"), dir.join("metrics.jsonl"));
    for file in [&out, &trace, &metrics] {
        std::fs::remove_file(file).ok();
    }
    let threads = threads.to_string();
    let mut args = vec![case.command.as_str(), graph.to_str().expect("utf-8 path")];
    args.extend(case.args.split_whitespace());
    args.extend(["--threads", &threads, "--out", "out.colors", "--trace", "trace.jsonl"]);
    args.extend(["--metrics-out", "metrics.jsonl"]);
    Outcome {
        exit: run_cli(&args, dir),
        out: read_hash(&out, str::to_owned),
        trace: read_hash(&trace, trace_core),
        metrics: read_hash(&metrics, metrics_core),
    }
}

#[test]
fn cli_outputs_match_the_golden_manifest() {
    let text = std::fs::read_to_string(MANIFEST).expect("read tests/golden/cli.tsv");
    let mut cases = parse(&text);
    let all = std::env::var("DIMA_GOLDEN").is_ok_and(|v| v == "all");
    let repin = std::env::var("DIMA_GOLDEN_REPIN").is_ok_and(|v| v == "1");
    let dir = std::env::temp_dir().join(format!("dima-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut graphs: Vec<(String, PathBuf)> = Vec::new();
    let mut failures = Vec::new();
    for case in cases.iter_mut().filter(|c| all || c.tier == "debug") {
        let graph = match graphs.iter().find(|(spec, _)| *spec == case.graph) {
            Some((_, path)) => path.clone(),
            None => {
                let path = dir.join(format!("g{}.edges", graphs.len()));
                let mut args = vec!["gen"];
                args.extend(case.graph.split_whitespace());
                args.extend(["--out", path.to_str().expect("utf-8 path")]);
                assert_eq!(run_cli(&args, &dir), 0, "gen {}", case.graph);
                graphs.push((case.graph.clone(), path.clone()));
                path
            }
        };
        let got = outcome(case, &graph, 1, &dir);
        let par = outcome(case, &graph, 3, &dir);
        if par != got {
            failures.push(format!("{}: 3 shards {par:?} vs 1 shard {got:?}", case.name));
        }
        if got != case.pinned {
            failures.push(format!("{}: got {got:?}, pinned {:?}", case.name, case.pinned));
            if repin {
                case.pinned = got;
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    if repin {
        std::fs::write(MANIFEST, render(&text, &cases)).expect("rewrite tests/golden/cli.tsv");
    }
    assert!(failures.is_empty(), "{} golden mismatches:\n{}", failures.len(), failures.join("\n"));
}

#[test]
fn metrics_core_drops_only_host_rows() {
    let dump = concat!(
        "{\"type\":\"metrics-meta\",\"schema\":1,\"label\":\"color\"}\n",
        "{\"type\":\"counter\",\"name\":\"engine/rounds\",\"value\":9}\n",
        "{\"type\":\"gauge\",\"name\":\"mem/heap_peak_bytes\",\"value\":4096}\n",
        "{\"type\":\"gauge\",\"name\":\"time/color_s\",\"value\":1}\n",
    );
    assert_eq!(
        metrics_core(dump),
        concat!(
            "{\"type\":\"metrics-meta\",\"schema\":1,\"label\":\"color\"}\n",
            "{\"type\":\"counter\",\"name\":\"engine/rounds\",\"value\":9}\n",
        )
    );
}

#[test]
fn trace_core_drops_only_accounting() {
    let trace = concat!(
        "{\"type\":\"header\",\"schema\":1,\"threads\":3}\n",
        "{\"type\":\"state\",\"round\":0,\"node\":1,\"label\":\"I\",\"reason\":\"coin\"}\n",
        "{\"type\":\"msgkind\",\"round\":0,\"kind\":\"used\",\"sent\":2,\"delivered\":2}\n",
        "{\"type\":\"round\",\"round\":0,\"active\":2,\"done\":0,\"sent\":2,\"delivered\":4}\n",
        "{\"type\":\"footer\",\"rounds\":1,\"deliveries\":4}\n",
    );
    assert_eq!(
        trace_core(trace),
        concat!(
            "{\"type\":\"state\",\"round\":0,\"node\":1,\"label\":\"I\",\"reason\":\"coin\"}\n",
            "{\"type\":\"round\",\"round\":0,\"active\":2,\"done\":0,\"sent\":2}\n",
        )
    );
}
