//! Process-level check of how `dima-cli` reports a failed command: the
//! `error:` line, then a one-line pointer to `dima-cli help`, exit code
//! 2, and no usage text burying the error.

use std::process::Command;

#[test]
fn failures_end_in_their_error_line_and_a_help_pointer() {
    let missing = std::env::temp_dir().join(format!("dima-missing-{}.edges", std::process::id()));
    let missing = missing.to_str().expect("utf-8 temp path");
    for (args, error) in [
        // A runtime failure: the graph file does not exist.
        (&["color", missing, "--seed", "1"][..], format!("error: reading {missing}: ")),
        (&["frobnicate"], "error: unknown command 'frobnicate'".into()),
        (&["color"], "error: color needs a graph file".into()),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dima-cli")).args(args).output().expect("spawn");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("usage:"), "{args:?}: usage text printed:\n{stderr}");
        let tail: Vec<&str> = stderr.lines().rev().take(2).collect();
        assert_eq!(tail.len(), 2, "{args:?}: {stderr}");
        assert_eq!(tail[0], "run 'dima-cli help' for usage", "{args:?}: {stderr}");
        assert!(tail[1].starts_with(&error), "{args:?}: {stderr}");
    }
}

#[test]
fn proposal_width_past_the_inline_capacity_is_refused() {
    let dir = std::env::temp_dir().join(format!("dima-width-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let graph = dir.join("path.edges");
    std::fs::write(&graph, "0 1\n1 2\n").expect("write graph");
    let out = Command::new(env!("CARGO_BIN_EXE_dima-cli"))
        .args(["strong-color", graph.to_str().expect("utf-8 temp path"), "--width", "9"])
        .output()
        .expect("spawn");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{stderr}");
    assert!(errors[0].contains("proposal_width = 9"), "{stderr}");
}

#[test]
fn unknown_flags_are_refused_by_every_command() {
    let dir = std::env::temp_dir().join(format!("dima-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let graph = dir.join("path.edges");
    std::fs::write(&graph, "0 1\n1 2\n").expect("write graph");
    let g = graph.to_str().expect("utf-8 temp path");
    for (args, key) in [
        (&["color", g, "--seed", "1", "--no-such-flag", "3"][..], "no-such-flag"),
        // Not a flag: a run that ignored it would silently go fault-free.
        (&["color", g, "--fault-dup", "0.5"], "fault-dup"),
        (&["strong-color", g, "--fault-los", "0.1"], "fault-los"),
        (&["matching", g, "--seeds", "2"], "seeds"),
        // Real flags of other workloads: matching has no churn mode and
        // only edge coloring runs the Kempe pass.
        (&["matching", g, "--churn-rate", "0.1"], "churn-rate"),
        (&["strong-color", g, "--reduce", "kempe"], "reduce"),
        (&["trace", "record", g, "--workload", "matching", "--width", "2"], "width"),
        (&["metrics", "dump", g, "--workload", "color", "--trace", "t.jsonl"], "trace"),
        (&["trace", "record", g, "--trace", "t.jsonl", "--out", "x"], "out"),
        (&["gen", "er", "--nodes", "10"], "nodes"),
        (&["verify", g, g, "--strict"], "strict"),
        (&["serve", g, "--snapshot-evry", "2"], "snapshot-evry"),
        // serve records no trace, so it takes no trace flags.
        (&["serve", g, "--trace", "t.jsonl"], "trace"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dima-cli"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors, [format!("error: unknown flag '--{key}'")], "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let dir = std::env::temp_dir().join(format!("dima-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let graph = dir.join("er.edges");
    let g = graph.to_str().expect("utf-8 temp path");
    let bin = env!("CARGO_BIN_EXE_dima-cli");
    let gen = ["gen", "er", "--n", "4000", "--avg-degree", "10", "--seed", "1", "--out", g];
    assert!(Command::new(bin).args(gen).output().expect("spawn").status.success());
    // About 20,000 coloring lines: more than a pipe buffers, so the
    // writer meets the closed pipe.
    let mut child = Command::new(bin)
        .args(["color", g, "--seed", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("read one line");
    drop(stdout);
    let out = child.wait_with_output().expect("wait");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(first.split_whitespace().count(), 2, "an `edge color` line: {first:?}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("error:"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
