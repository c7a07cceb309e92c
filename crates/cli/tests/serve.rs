//! Process-level chaos tests for `dima-cli serve`.
//!
//! These drive the real binary (`CARGO_BIN_EXE_dima-cli`) through its
//! stdin/stdout protocol and its crash-recovery machinery: the
//! deterministic kill-point harness (`--chaos-kill-at`) hard-kills the
//! process at every labeled persistence stage, and each interleaving
//! must restart to a coloring bit-identical to the uninterrupted
//! control run. Corrupted state must be rejected with a structured
//! error (nonzero exit, no panic), and garbage input must never poison
//! a live service.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_dima-cli")
}

struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> TmpDir {
        let dir = std::env::temp_dir().join(format!(
            "dima-serve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TmpDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A 16-node wheel-ish fixture written directly so the tests know
/// exactly which edges exist.
fn write_graph(path: &Path) {
    let mut text = String::from("n 16\n");
    for v in 0..16u32 {
        text.push_str(&format!("{} {}\n", v, (v + 1) % 16));
    }
    for v in 0..8u32 {
        text.push_str(&format!("{} {}\n", v, v + 8));
    }
    std::fs::write(path, text).expect("write graph");
}

/// The churn session every test replays: valid against the fixture
/// graph whatever prefix survives a crash.
fn session_events() -> Vec<String> {
    vec![
        r#"{"ev":"link-down","u":0,"v":1}"#.into(),
        r#"{"ev":"link-up","u":0,"v":2}"#.into(),
        r#"{"ev":"leave","node":5}"#.into(),
        r#"{"ev":"link-down","u":9,"v":10}"#.into(),
        r#"{"ev":"join","node":5}"#.into(),
        r#"{"ev":"link-up","u":5,"v":11}"#.into(),
    ]
}

struct Run {
    status: std::process::ExitStatus,
    stdout: String,
    stderr: String,
}

/// Run `serve` on `graph` with `extra` flags, feeding `lines` then (if
/// `shutdown`) a shutdown command.
fn serve(graph: &Path, state: &Path, extra: &[&str], lines: &[String], shutdown: bool) -> Run {
    let mut cmd = Command::new(bin());
    cmd.arg("serve")
        .arg(graph)
        .args(["--seed", "7", "--state-dir"])
        .arg(state)
        .args(["--snapshot-every", "1"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn dima-cli serve");
    {
        let stdin = child.stdin.as_mut().expect("stdin piped");
        for line in lines {
            // The process may die mid-write at a kill point; that is
            // the scenario under test, not a failure.
            if writeln!(stdin, "{line}").is_err() {
                break;
            }
        }
        if shutdown {
            let _ = writeln!(stdin, r#"{{"cmd":"shutdown"}}"#);
        }
    }
    let out = child.wait_with_output().expect("collect output");
    Run {
        status: out.status,
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// The `final hash 0x…` line every clean shutdown prints to stderr.
fn final_hash(run: &Run) -> u64 {
    let line = run
        .stderr
        .lines()
        .find(|l| l.contains("final hash"))
        .unwrap_or_else(|| panic!("no final hash in stderr:\n{}", run.stderr));
    let hex = line.split("final hash ").nth(1).unwrap().split(',').next().unwrap();
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).expect("parse hash")
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// The recovery guarantees the chaos harness pins down, per kill point:
/// the interrupted state restarts at all (structured recovery, exit 0,
/// a settled service), and recovery is **deterministic** — two
/// restarts from byte-identical surviving state reach byte-identical
/// colorings. Bit-identity of snapshot + journal replay against the
/// live pre-crash service is proven in-process over 50 seeds in
/// `tests/serve_recovery.rs`; here the clean-shutdown round-trip pins
/// the same property end to end through the real binary.
#[test]
fn every_kill_point_restarts_deterministically() {
    let tmp = TmpDir::new("killpoints");
    let graph = tmp.path("g.edges");
    write_graph(&graph);

    // Control: the uninterrupted session, then a round-trip restart of
    // its flushed state — the snapshot must reproduce the exact final
    // coloring the control reported.
    let control_state = tmp.path("control");
    let control = serve(&graph, &control_state, &[], &session_events(), true);
    assert!(control.status.success(), "control failed:\n{}", control.stderr);
    let want = final_hash(&control);
    let round_trip = serve(&graph, &control_state, &[], &[], true);
    assert!(round_trip.status.success(), "round trip failed:\n{}", round_trip.stderr);
    assert_eq!(
        final_hash(&round_trip),
        want,
        "clean-shutdown snapshot does not restart bit-identically"
    );

    // The base stages fire once without a fold (the startup anchor);
    // the periodic and final checkpoints are incremental deltas. With
    // `--compact-after` armed the history folds mid-session, and the
    // fold's base is the second occurrence. The commit stages fire once
    // — the whole event stream can drain into a single batch.
    let kill_points: [(&str, &[u32], &[&str]); 11] = [
        ("journal-pre-commit", &[1], &[]),
        ("journal-post-commit", &[1], &[]),
        ("snapshot-pre-write", &[1], &[]),
        ("snapshot-pre-rename", &[1], &[]),
        ("snapshot-post-rename", &[1], &[]),
        ("delta-pre-write", &[1], &[]),
        ("delta-pre-rename", &[1], &[]),
        ("delta-post-rename", &[1], &[]),
        ("snapshot-pre-write", &[2], &["--compact-after", "1"]),
        ("snapshot-pre-rename", &[2], &["--compact-after", "1"]),
        ("snapshot-post-rename", &[2], &["--compact-after", "1"]),
    ];
    for (point, occurrences, extra) in kill_points {
        for &occurrence in occurrences {
            let state = tmp.path(&format!("kill-{point}-{occurrence}-{}", extra.len()));
            let spec = format!("{point}:{occurrence}");
            let mut flags = vec!["--chaos-kill-at", spec.as_str()];
            flags.extend_from_slice(extra);
            let killed = serve(&graph, &state, &flags, &session_events(), true);
            assert_eq!(
                killed.status.code(),
                Some(137),
                "{spec}: expected the chaos kill, got {:?}\n{}",
                killed.status,
                killed.stderr
            );
            // Preserve the surviving bytes, then restart twice from
            // them: both recoveries must succeed and agree exactly.
            let replica = tmp.path(&format!("kill-{point}-{occurrence}-{}-replica", extra.len()));
            copy_dir(&state, &replica);
            let a = serve(&graph, &state, &[], &[], true);
            assert!(a.status.success(), "{spec}: recovery failed:\n{}", a.stderr);
            let b = serve(&graph, &replica, &[], &[], true);
            assert!(b.status.success(), "{spec}: replica recovery failed:\n{}", b.stderr);
            assert_eq!(final_hash(&a), final_hash(&b), "{spec}: recovery is not deterministic");
            let status = serve(&graph, &state, &[], &[r#"{"cmd":"status"}"#.to_string()], true);
            assert!(status.status.success(), "{spec}: post-recovery serve failed");
            let line = status
                .stdout
                .lines()
                .find(|l| l.contains("\"type\":\"status\""))
                .unwrap_or_else(|| panic!("{spec}: no status reply:\n{}", status.stdout));
            assert!(line.contains("\"nodes\":16"), "{spec}: wrong universe: {line}");
            assert!(line.contains("\"settled\":1"), "{spec}: not settled: {line}");
        }
    }
}

/// Torn-write storage faults: the process dies with a genuinely
/// damaged artifact on disk, and recovery must route around it —
/// bridging the journal over a lost delta, tolerating a torn journal
/// tail, and rejecting a torn base with a structured error.
#[test]
fn torn_storage_faults_recover_or_fail_typed() {
    let tmp = TmpDir::new("torn");
    let graph = tmp.path("g.edges");
    write_graph(&graph);

    // Torn delta checkpoint: the delta is lost but the journal was not
    // yet rotated, so it still attaches to the base and replays every
    // acked batch — fallback without data loss.
    let state = tmp.path("delta");
    let killed =
        serve(&graph, &state, &["--chaos-storage", "torn:delta:1"], &session_events(), true);
    assert_eq!(killed.status.code(), Some(137), "torn delta kills:\n{}", killed.stderr);
    let replica = tmp.path("delta-replica");
    copy_dir(&state, &replica);
    let a = serve(&graph, &state, &[], &[], true);
    assert!(a.status.success(), "torn-delta recovery failed:\n{}", a.stderr);
    assert!(a.stderr.contains("fell back"), "expected a chain fallback:\n{}", a.stderr);
    assert!(
        !a.stderr.contains("+ journal"),
        "the journal must bridge the torn delta, not be discarded:\n{}",
        a.stderr
    );
    assert!(!a.stderr.contains("panicked"), "must not panic:\n{}", a.stderr);
    let b = serve(&graph, &replica, &[], &[], true);
    assert!(b.status.success(), "replica recovery failed:\n{}", b.stderr);
    assert_eq!(final_hash(&a), final_hash(&b), "torn-delta recovery is not deterministic");

    // Torn journal append (half an event line lands): the torn tail is
    // recognized and everything before it is recovered.
    let state = tmp.path("journal");
    let killed =
        serve(&graph, &state, &["--chaos-storage", "torn:journal:2"], &session_events(), true);
    assert_eq!(killed.status.code(), Some(137), "torn append kills:\n{}", killed.stderr);
    let a = serve(&graph, &state, &[], &[], true);
    assert!(a.status.success(), "torn-journal recovery failed:\n{}", a.stderr);
    assert!(a.stderr.contains("torn journal tail"), "torn tail unreported:\n{}", a.stderr);
    assert!(!a.stderr.contains("panicked"), "must not panic:\n{}", a.stderr);

    // Torn base write (rename landed, data did not): unrecoverable by
    // construction — a structured error, never a panic.
    let state = tmp.path("base");
    let killed =
        serve(&graph, &state, &["--chaos-storage", "torn:snapshot:1"], &session_events(), true);
    assert_eq!(killed.status.code(), Some(137), "torn base kills:\n{}", killed.stderr);
    let run = serve(&graph, &state, &[], &[], false);
    assert_eq!(run.status.code(), Some(2), "torn base must exit 2:\n{}", run.stderr);
    assert!(run.stderr.contains("error:"), "expected a structured error:\n{}", run.stderr);
    assert!(!run.stderr.contains("panicked"), "must not panic:\n{}", run.stderr);
}

/// Injected disk-full errors: clean refusals on a live service — a
/// failed journal append un-stages the event and answers a retryable
/// refusal, a failed checkpoint (a fold's base included) degrades to a
/// warning and retries, and a failed snapshot command reports retryable
/// instead of dying.
#[test]
fn injected_disk_full_is_refused_retryably_and_never_poisons() {
    let tmp = TmpDir::new("diskfull");
    let graph = tmp.path("g.edges");
    write_graph(&graph);

    // First event append fails: that one event is refused with a retry
    // hint, the rest of the session lands, and the durable state
    // round-trips bit-identically.
    let state = tmp.path("journal");
    let run =
        serve(&graph, &state, &["--chaos-storage", "full:journal:2"], &session_events(), true);
    assert!(run.status.success(), "serve failed:\n{}", run.stderr);
    assert!(
        run.stdout.contains("\"retryable\":1"),
        "expected a retryable refusal:\n{}",
        run.stdout
    );
    assert!(!run.stderr.contains("panicked"), "must not panic:\n{}", run.stderr);
    let restarted = serve(&graph, &state, &[], &[], true);
    assert!(restarted.status.success(), "restart failed:\n{}", restarted.stderr);
    assert_eq!(
        final_hash(&restarted),
        final_hash(&run),
        "a refused event must not poison the durable state"
    );

    // Delta checkpoint write fails: a warning, a later retry, and the
    // session still shuts down cleanly and round-trips.
    let state = tmp.path("delta");
    let run = serve(&graph, &state, &["--chaos-storage", "full:delta:1"], &session_events(), true);
    assert!(run.status.success(), "serve failed:\n{}", run.stderr);
    assert!(run.stderr.contains("checkpoint failed"), "expected a warning:\n{}", run.stderr);
    assert!(!run.stderr.contains("panicked"), "must not panic:\n{}", run.stderr);
    let restarted = serve(&graph, &state, &[], &[], true);
    assert!(restarted.status.success(), "restart failed:\n{}", restarted.stderr);
    assert_eq!(final_hash(&restarted), final_hash(&run), "failed checkpoint lost state");

    // Snapshot command hits disk-full: the client gets a retryable
    // reply and the service keeps serving. The command writes a delta;
    // with periodic checkpoints off it is the first.
    let state = tmp.path("snapshot");
    let mut lines = session_events();
    lines.push(r#"{"cmd":"snapshot"}"#.into());
    lines.push(r#"{"cmd":"status"}"#.into());
    let flags = ["--snapshot-every", "0", "--chaos-storage", "full:delta:1"];
    let run = serve(&graph, &state, &flags, &lines, true);
    assert!(run.status.success(), "serve failed:\n{}", run.stderr);
    assert!(run.stdout.contains("\"retryable\":1"), "expected a retryable reply:\n{}", run.stdout);
    assert!(
        run.stdout.contains("\"type\":\"status\""),
        "service must keep serving:\n{}",
        run.stdout
    );
    assert!(!run.stderr.contains("panicked"), "must not panic:\n{}", run.stderr);

    // The first fold's base and the next base write both hit disk-full
    // (the second base write of a fresh state dir is the first fold's):
    // the service keeps serving on the old chain, and the restart, from
    // that chain and a journal past the fold when the events landed as
    // one batch, or from a later fold's base, reaches the same coloring.
    let state = tmp.path("fold");
    let flags = ["--compact-after", "1", "--chaos-storage", "full:snapshot:2,full:snapshot:2"];
    let run = serve(&graph, &state, &flags, &session_events(), true);
    assert!(run.status.success(), "serve failed:\n{}", run.stderr);
    assert!(run.stderr.contains("fold base deferred"), "expected a deferral:\n{}", run.stderr);
    let restarted = serve(&graph, &state, &["--compact-after", "1"], &[], true);
    assert!(restarted.status.success(), "restart failed:\n{}", restarted.stderr);
    assert_eq!(final_hash(&restarted), final_hash(&run), "a deferred fold base lost state");

    // Disk-full on the very first base write: startup fails with a
    // structured error, not a panic.
    let state = tmp.path("startup");
    let run = serve(&graph, &state, &["--chaos-storage", "full:snapshot:1"], &[], false);
    assert_eq!(run.status.code(), Some(2), "startup disk-full must exit 2:\n{}", run.stderr);
    assert!(run.stderr.contains("injected disk-full"), "typed cause:\n{}", run.stderr);
    assert!(!run.stderr.contains("panicked"), "must not panic:\n{}", run.stderr);
}

/// Compaction through the real binary: a session past the threshold
/// folds its history and writes the fold's base, and the restart
/// recovers the folded epoch bit-identically.
#[test]
fn compaction_round_trips_through_the_real_binary() {
    let tmp = TmpDir::new("compact");
    let graph = tmp.path("g.edges");
    write_graph(&graph);
    let state = tmp.path("state");
    let run = serve(&graph, &state, &["--compact-after", "1"], &session_events(), true);
    assert!(run.status.success(), "serve failed:\n{}", run.stderr);
    assert!(run.stderr.contains("compacted"), "history must fold:\n{}", run.stderr);
    let h = final_hash(&run);
    let restarted = serve(&graph, &state, &["--compact-after", "1"], &[], true);
    assert!(restarted.status.success(), "restart failed:\n{}", restarted.stderr);
    let epoch_line = restarted
        .stderr
        .lines()
        .find(|l| l.contains("restored epoch"))
        .unwrap_or_else(|| panic!("no restore line:\n{}", restarted.stderr));
    assert!(!epoch_line.contains("epoch 0 base"), "must restore a folded epoch: {epoch_line}");
    assert_eq!(final_hash(&restarted), h, "compacted state does not restart bit-identically");
}

/// Algorithm 2 through the real binary: its parked automata remember
/// more than their rows (the `forbidden` set, the retry memory), all of
/// which a base must carry. A folding session restarts bit-identically,
/// and a kill inside the fold's base write recovers deterministically
/// and goes on serving.
#[test]
fn strong_protocol_checkpoints_round_trip_and_survive_a_kill() {
    let tmp = TmpDir::new("strong");
    let graph = tmp.path("g.edges");
    write_graph(&graph);
    let strong = ["--protocol", "strong", "--compact-after", "1"];
    let events = session_events();
    let (first, rest) = (events[..3].to_vec(), events[3..].to_vec());

    let control_state = tmp.path("control");
    let control = serve(&graph, &control_state, &strong, &first, true);
    assert!(control.status.success(), "control failed:\n{}", control.stderr);
    let control = serve(&graph, &control_state, &strong, &rest, true);
    assert!(control.status.success(), "control restart failed:\n{}", control.stderr);
    assert!(control.stderr.contains("restored epoch"), "must restore:\n{}", control.stderr);
    let want = final_hash(&control);
    let round_trip = serve(&graph, &control_state, &strong, &[], true);
    assert!(round_trip.status.success(), "round trip failed:\n{}", round_trip.stderr);
    assert_eq!(final_hash(&round_trip), want, "strong state does not restart bit-identically");

    // Die inside the first fold's base write, restart from two copies of
    // the surviving bytes, then finish the session on one of them.
    let state = tmp.path("killed");
    let mut flags = strong.to_vec();
    flags.extend_from_slice(&["--chaos-kill-at", "snapshot-pre-rename:2"]);
    let killed = serve(&graph, &state, &flags, &first, true);
    assert_eq!(killed.status.code(), Some(137), "expected the chaos kill:\n{}", killed.stderr);
    let replica = tmp.path("killed-replica");
    copy_dir(&state, &replica);
    let a = serve(&graph, &state, &strong, &[], true);
    assert!(a.status.success(), "recovery failed:\n{}", a.stderr);
    let b = serve(&graph, &replica, &strong, &[], true);
    assert!(b.status.success(), "replica recovery failed:\n{}", b.stderr);
    assert_eq!(final_hash(&a), final_hash(&b), "strong recovery is not deterministic");
    let finished = serve(&graph, &state, &strong, &rest, true);
    assert!(finished.status.success(), "post-recovery session failed:\n{}", finished.stderr);
    assert!(!finished.stderr.contains("panicked"), "must not panic:\n{}", finished.stderr);
}

#[test]
fn corrupted_snapshot_is_rejected_with_a_structured_error() {
    let tmp = TmpDir::new("corrupt");
    let graph = tmp.path("g.edges");
    write_graph(&graph);
    let state = tmp.path("state");
    let clean = serve(&graph, &state, &[], &session_events(), true);
    assert!(clean.status.success(), "seeding run failed:\n{}", clean.stderr);

    let snapshot_path = state.join("snapshot.dima");
    let original = std::fs::read_to_string(&snapshot_path).expect("snapshot exists");

    // Bit-flip in the body: the CRC must catch it.
    let mut flipped = original.clone().into_bytes();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    std::fs::write(&snapshot_path, &flipped).unwrap();
    let run = serve(&graph, &state, &[], &[], false);
    assert_eq!(run.status.code(), Some(2), "corrupt snapshot must exit 2");
    assert!(run.stderr.contains("error:"), "expected a structured error, got:\n{}", run.stderr);
    assert!(!run.stderr.contains("panicked"), "must not panic:\n{}", run.stderr);

    // Truncation: ditto.
    std::fs::write(&snapshot_path, &original[..original.len() / 2]).unwrap();
    let run = serve(&graph, &state, &[], &[], false);
    assert_eq!(run.status.code(), Some(2), "truncated snapshot must exit 2");
    assert!(!run.stderr.contains("panicked"), "must not panic:\n{}", run.stderr);

    // Garbage: ditto.
    std::fs::write(&snapshot_path, "not a snapshot at all\n").unwrap();
    let run = serve(&graph, &state, &[], &[], false);
    assert_eq!(run.status.code(), Some(2), "garbage snapshot must exit 2");
    assert!(!run.stderr.contains("panicked"), "must not panic:\n{}", run.stderr);
}

#[test]
fn garbage_and_invalid_input_never_poison_the_service() {
    let tmp = TmpDir::new("garbage");
    let graph = tmp.path("g.edges");
    write_graph(&graph);
    let state = tmp.path("state");
    let lines: Vec<String> = vec![
        "this is not json".into(),
        r#"{"ev":"link-up","u":0,"v":0}"#.into(), // self loop
        r#"{"ev":"link-up","u":0,"v":1}"#.into(), // duplicate edge
        r#"{"ev":"leave","node":4000000000}"#.into(), // out of range
        r#"{"ev":"warp","u":1,"v":2}"#.into(),    // unknown kind
        r#"{"cmd":"color","u":99}"#.into(),       // malformed command
        r#"{"ev":"link-down","u":0,"v":1}"#.into(), // valid
        r#"{"cmd":"status"}"#.into(),
    ];
    let run = serve(&graph, &state, &[], &lines, true);
    assert!(run.status.success(), "serve failed:\n{}", run.stderr);
    let errors = run.stdout.lines().filter(|l| l.contains("\"type\":\"error\"")).count();
    assert_eq!(errors, 6, "each bad line answers one error:\n{}", run.stdout);
    let status = run
        .stdout
        .lines()
        .find(|l| l.contains("\"type\":\"status\""))
        .expect("status reply after the garbage");
    assert!(status.contains("\"nodes\":16"), "service still serving: {status}");
    assert!(!run.stderr.contains("panicked"), "must not panic:\n{}", run.stderr);
}

/// Spawn a serve process listening on a socket, returning the child,
/// the resolved listen address (after a port-0 bind), and a thread
/// collecting its stderr.
fn spawn_listening(
    graph: &Path,
    state: &Path,
    extra: &[&str],
) -> (std::process::Child, String, std::thread::JoinHandle<String>) {
    let mut child = Command::new(bin())
        .arg("serve")
        .arg(graph)
        .args(["--seed", "7", "--state-dir"])
        .arg(state)
        .args(["--snapshot-every", "1"])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stderr = child.stderr.take().expect("stderr piped");
    let (tx, rx) = std::sync::mpsc::channel();
    let collector = std::thread::spawn(move || {
        use std::io::BufRead;
        let mut collected = String::new();
        for line in std::io::BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            let _ = tx.send(line.clone());
            collected.push_str(&line);
            collected.push('\n');
        }
        collected
    });
    let addr = loop {
        let line = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("serve never announced its listen address");
        if let Some(rest) = line.split("listening on tcp:").nth(1) {
            break rest.trim().to_string();
        }
    };
    (child, addr, collector)
}

fn connect(addr: &str) -> (std::net::TcpStream, std::io::BufReader<std::net::TcpStream>) {
    let s = std::net::TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
    let r = std::io::BufReader::new(s.try_clone().expect("clone stream"));
    (s, r)
}

fn read_reply(r: &mut std::io::BufReader<std::net::TcpStream>) -> String {
    use std::io::BufRead;
    let mut line = String::new();
    r.read_line(&mut line).expect("read reply");
    line
}

/// The socket front end: several concurrent clients over one TCP
/// listener, each getting its replies on its own connection — queries,
/// churn, typed parse errors, and a clean shutdown whose flushed state
/// matches what the clients observed.
#[test]
fn socket_front_end_serves_concurrent_clients() {
    let tmp = TmpDir::new("socket");
    let graph = tmp.path("g.edges");
    write_graph(&graph);
    let state = tmp.path("state");
    let (child, addr, collector) =
        spawn_listening(&graph, &state, &["--listen", "tcp:127.0.0.1:0"]);

    let mut clients: Vec<_> = (0..4).map(|_| connect(&addr)).collect();
    // All four clients in flight at once, each answered on its own
    // connection.
    for (s, _) in clients.iter_mut() {
        writeln!(s, r#"{{"cmd":"status"}}"#).unwrap();
    }
    for (i, (_, r)) in clients.iter_mut().enumerate() {
        let line = read_reply(r);
        assert!(line.contains("\"type\":\"status\""), "client {i}: {line}");
        assert!(line.contains("\"nodes\":16"), "client {i}: {line}");
    }

    // Client 0 streams the churn; client 1's garbage earns a typed
    // error on client 1's connection only.
    for ev in session_events() {
        writeln!(clients[0].0, "{ev}").unwrap();
    }
    writeln!(clients[1].0, "this is not json").unwrap();
    let line = read_reply(&mut clients[1].1);
    assert!(line.contains("\"type\":\"error\""), "typed parse error: {line}");

    // Wait for the churn to commit and settle, polling over client 2.
    let mut settled = false;
    for _ in 0..300 {
        writeln!(clients[2].0, r#"{{"cmd":"status"}}"#).unwrap();
        let line = read_reply(&mut clients[2].1);
        if line.contains("\"settled\":1")
            && line.contains("\"staged\":0")
            && !line.contains("\"batches\":0,")
        {
            settled = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(settled, "churn never settled over the socket");

    // Hash queries agree across distinct connections.
    writeln!(clients[2].0, r#"{{"cmd":"hash"}}"#).unwrap();
    writeln!(clients[3].0, r#"{{"cmd":"hash"}}"#).unwrap();
    let h2 = read_reply(&mut clients[2].1);
    let h3 = read_reply(&mut clients[3].1);
    assert_eq!(h2, h3, "clients disagree on the coloring hash");
    let served_hash: u64 = h2
        .split("\"value\":")
        .nth(1)
        .and_then(|t| t.trim_end_matches(['}', '\n']).parse().ok())
        .expect("parse hash reply");

    // Shutdown over the socket: a bye reply, then a clean exit.
    writeln!(clients[3].0, r#"{{"cmd":"shutdown"}}"#).unwrap();
    let bye = read_reply(&mut clients[3].1);
    assert!(bye.contains("\"type\":\"bye\""), "shutdown reply: {bye}");
    let status = child.wait_with_output().expect("wait serve").status;
    assert!(status.success(), "socket serve did not exit cleanly");
    let stderr = collector.join().expect("stderr thread");
    assert!(!stderr.contains("panicked"), "must not panic:\n{stderr}");

    // The flushed state restarts to exactly the hash the clients saw.
    let restarted = serve(&graph, &state, &[], &[], true);
    assert!(restarted.status.success(), "restart failed:\n{}", restarted.stderr);
    assert_eq!(final_hash(&restarted), served_hash, "socket session state does not round-trip");
}

/// Past `--max-clients` the listener answers a typed admission
/// overload instead of accepting the connection.
#[test]
fn socket_admission_limit_sheds_with_typed_overload() {
    let tmp = TmpDir::new("admission");
    let graph = tmp.path("g.edges");
    write_graph(&graph);
    let state = tmp.path("state");
    let (child, addr, collector) =
        spawn_listening(&graph, &state, &["--listen", "tcp:127.0.0.1:0", "--max-clients", "1"]);

    // Register the first client with a full round trip so its reader
    // thread is live before the second connection arrives.
    let (mut s1, mut r1) = connect(&addr);
    writeln!(s1, r#"{{"cmd":"status"}}"#).unwrap();
    assert!(read_reply(&mut r1).contains("\"type\":\"status\""));

    let (_s2, mut r2) = connect(&addr);
    let line = read_reply(&mut r2);
    assert!(
        line.contains("\"type\":\"overload\"") && line.contains("\"where\":\"admission\""),
        "expected a typed admission overload: {line}"
    );
    assert!(line.contains("\"retry_ms\""), "overload carries a retry hint: {line}");

    writeln!(s1, r#"{{"cmd":"shutdown"}}"#).unwrap();
    assert!(read_reply(&mut r1).contains("\"type\":\"bye\""));
    assert!(child.wait_with_output().expect("wait").status.success());
    let stderr = collector.join().expect("stderr thread");
    assert!(!stderr.contains("panicked"), "must not panic:\n{stderr}");
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip() {
    let tmp = TmpDir::new("unixsock");
    let graph = tmp.path("g.edges");
    write_graph(&graph);
    let state = tmp.path("state");
    let sock = tmp.path("serve.sock");
    let spec = format!("unix:{}", sock.display());
    let child = Command::new(bin())
        .arg("serve")
        .arg(&graph)
        .args(["--seed", "7", "--state-dir"])
        .arg(&state)
        .args(["--listen", &spec])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    // Wait for the socket file to appear.
    let mut tries = 0;
    while !sock.exists() {
        tries += 1;
        assert!(tries < 500, "unix socket never appeared");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let s = loop {
        match std::os::unix::net::UnixStream::connect(&sock) {
            Ok(s) => break s,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    };
    s.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
    let mut w = s.try_clone().unwrap();
    let mut r = std::io::BufReader::new(s);
    writeln!(w, r#"{{"cmd":"status"}}"#).unwrap();
    let mut line = String::new();
    {
        use std::io::BufRead;
        r.read_line(&mut line).unwrap();
    }
    assert!(line.contains("\"type\":\"status\""), "unix status reply: {line}");
    writeln!(w, r#"{{"cmd":"shutdown"}}"#).unwrap();
    let out = child.wait_with_output().expect("wait serve");
    assert!(out.status.success(), "unix serve did not exit cleanly");
}

#[cfg(unix)]
#[test]
fn sigterm_flushes_state_that_restarts_bit_identically() {
    let tmp = TmpDir::new("sigterm");
    let graph = tmp.path("g.edges");
    write_graph(&graph);

    let state = tmp.path("state");
    let mut child = Command::new(bin())
        .arg("serve")
        .arg(&graph)
        .args(["--seed", "7", "--state-dir"])
        .arg(&state)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    {
        let stdin = child.stdin.as_mut().unwrap();
        for line in session_events() {
            writeln!(stdin, "{line}").unwrap();
        }
        stdin.flush().unwrap();
    }
    // Give the service a moment to drain, then deliver SIGTERM.
    std::thread::sleep(std::time::Duration::from_millis(600));
    let term =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("run kill");
    assert!(term.success());
    let out = child.wait_with_output().expect("collect output");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "graceful shutdown exits 0:\n{stderr}");
    assert!(stderr.contains("signal received"), "handler ran:\n{stderr}");
    let first = Run { status: out.status, stdout: String::new(), stderr };
    let h1 = final_hash(&first);

    // Restart from the flushed state with no further events: the hash
    // must be exactly what the terminated process reported.
    let restarted = serve(&graph, &state, &[], &[], true);
    assert!(restarted.status.success(), "restart failed:\n{}", restarted.stderr);
    assert_eq!(final_hash(&restarted), h1, "SIGTERM state does not restart bit-identically");
}
