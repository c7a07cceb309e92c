//! Durable state for `dima serve`: the checkpoint chain (base +
//! deltas), the write-ahead journal, and the fault-injection hooks the
//! chaos tests arm against them.
//!
//! On-disk layout under `--state-dir`:
//!
//! - `snapshot.dima` — the chain base: the state of the settled service
//!   ([`ColoringService::snapshot_text`]), written at startup and after
//!   every history fold.
//! - `delta-0001.dima`, `delta-0002.dima`, … — incremental checkpoints,
//!   each CRC-linked to its parent so stale leftovers from before a
//!   new base can never be misapplied.
//! - `journal.jsonl` — the write-ahead tail past the newest checkpoint.
//!
//! Every checkpoint is written temp-file-then-rename; the journal is
//! append-only and rotated (atomically rewritten to the still-staged
//! events) whenever a checkpoint lands.

use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use dima_core::{checkpoint_crc, ColoringService, Engine, RestoreReport};
use dima_sim::ChurnEvent;

/// The labeled kill points, in pipeline order. `--chaos-kill-at LABEL[:N]`
/// hard-exits the process at the Nth occurrence of the label.
pub const KILL_POINTS: &[&str] = &[
    "journal-pre-commit",
    "journal-post-commit",
    "snapshot-pre-write",
    "snapshot-pre-rename",
    "snapshot-post-rename",
    "delta-pre-write",
    "delta-pre-rename",
    "delta-post-rename",
];

/// `--chaos-kill-at LABEL[:N]`: hard-exit (code 137, like a kill) at
/// the Nth occurrence of the labeled persistence stage.
pub struct Chaos {
    label: Option<String>,
    at: u64,
    seen: HashMap<&'static str, u64>,
}

impl Chaos {
    pub fn parse(spec: Option<&String>) -> Result<Chaos, String> {
        let Some(spec) = spec else {
            return Ok(Chaos { label: None, at: 1, seen: HashMap::new() });
        };
        let (label, at) = match spec.split_once(':') {
            Some((l, n)) => {
                let at: u64 = n
                    .parse()
                    .map_err(|_| format!("bad occurrence count in --chaos-kill-at '{spec}'"))?;
                (l, at.max(1))
            }
            None => (spec.as_str(), 1),
        };
        if !KILL_POINTS.contains(&label) {
            return Err(format!(
                "unknown kill point '{label}' (expected one of {})",
                KILL_POINTS.join(", ")
            ));
        }
        Ok(Chaos { label: Some(label.to_string()), at, seen: HashMap::new() })
    }

    pub fn hit(&mut self, label: &'static str) {
        let Some(want) = &self.label else { return };
        if want != label {
            return;
        }
        let count = self.seen.entry(label).or_insert(0);
        *count += 1;
        if *count >= self.at {
            eprintln!("chaos: killing at {label} (occurrence {})", *count);
            std::process::exit(137);
        }
    }
}

/// What an armed storage fault does when it fires.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// Write a truncated prefix where the full content should be, then
    /// hard-exit — the on-disk artifact is genuinely torn and recovery
    /// must route around it.
    Torn,
    /// Fail the write with an injected disk-full error; nothing is
    /// written and the caller sees a retryable storage error.
    Full,
}

/// `--chaos-storage KIND:TARGET:N` — one armed fault per target write
/// stream, firing on the Nth write to that target. Targets: `snapshot`
/// (base writes), `delta`, `journal` (appends and rotations).
pub struct StorageFaults {
    faults: Vec<(FaultKind, String, u64, u64)>,
}

impl StorageFaults {
    pub fn parse(spec: Option<&String>) -> Result<StorageFaults, String> {
        let mut faults = Vec::new();
        if let Some(spec) = spec {
            for part in spec.split(',') {
                let mut it = part.splitn(3, ':');
                let (kind, target, at) = (it.next(), it.next(), it.next());
                let kind = match kind {
                    Some("torn") => FaultKind::Torn,
                    Some("full") => FaultKind::Full,
                    _ => {
                        return Err(format!("--chaos-storage '{part}': kind must be torn or full"))
                    }
                };
                let target = match target {
                    Some(t @ ("snapshot" | "delta" | "journal")) => t.to_string(),
                    _ => {
                        return Err(format!(
                            "--chaos-storage '{part}': target must be snapshot, delta, or journal"
                        ))
                    }
                };
                let at: u64 = at
                    .unwrap_or("1")
                    .parse()
                    .map_err(|_| format!("bad occurrence count in --chaos-storage '{part}'"))?;
                faults.push((kind, target, at.max(1), 0));
            }
        }
        Ok(StorageFaults { faults })
    }

    /// Count a write to `target`; returns the fault kind if one fires.
    fn arm(&mut self, target: &str) -> Option<FaultKind> {
        for (kind, t, at, seen) in &mut self.faults {
            if t == target {
                *seen += 1;
                if *seen == *at {
                    return Some(*kind);
                }
            }
        }
        None
    }
}

/// A storage failure the serve loop can react to. Everything here is
/// retryable in principle — nothing in the store panics or poisons the
/// in-memory service.
pub struct StoreError {
    pub what: &'static str,
    pub message: String,
}

impl StoreError {
    fn new(what: &'static str, message: String) -> StoreError {
        StoreError { what, message }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.what, self.message)
    }
}

/// The checkpoint chain + journal under `--state-dir`, with the linkage
/// facts (`chain_len`, `checkpointed_h`, `parent_crc`, `epoch`) the next
/// delta must extend.
pub struct CheckpointStore {
    base: PathBuf,
    journal: PathBuf,
    dir: PathBuf,
    journal_file: Option<fs::File>,
    /// Bytes appended to the write-ahead journal since startup
    /// (rotations count the rewritten tail, not the discarded bytes).
    pub wal_bytes: u64,
    /// Deltas on disk that verifiably chain from the current base.
    chain_len: u64,
    /// History index (within the chain's epoch) the chain covers.
    checkpointed_h: u64,
    /// Trailer CRC of the newest chain artifact — the linkage the next
    /// delta records as `parent_crc`.
    parent_crc: u32,
    /// Epoch of the on-disk chain. Behind the service's after a fold
    /// whose base has not landed yet: the next checkpoint is a base.
    epoch: u64,
    faults: StorageFaults,
}

impl CheckpointStore {
    pub fn open(dir: &str, faults: StorageFaults) -> Result<CheckpointStore, String> {
        fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        let dir = Path::new(dir);
        Ok(CheckpointStore {
            base: dir.join("snapshot.dima"),
            journal: dir.join("journal.jsonl"),
            dir: dir.to_path_buf(),
            journal_file: None,
            wal_bytes: 0,
            chain_len: 0,
            checkpointed_h: 0,
            parent_crc: 0,
            epoch: 0,
            faults,
        })
    }

    pub fn base_path(&self) -> &Path {
        &self.base
    }

    pub fn has_base(&self) -> bool {
        self.base.exists()
    }

    pub fn chain_len(&self) -> u64 {
        self.chain_len
    }

    fn delta_path(&self, chain: u64) -> PathBuf {
        self.dir.join(format!("delta-{chain:04}.dima"))
    }

    /// Restore the service from the on-disk chain + journal and adopt
    /// the verified linkage state. Stale delta files past the applied
    /// prefix are left on disk for [`CheckpointStore::reanchor`].
    pub fn load(&mut self, engine: Engine) -> Result<(ColoringService, RestoreReport), String> {
        let base =
            fs::read_to_string(&self.base).map_err(|e| format!("reading checkpoint base: {e}"))?;
        let mut deltas = Vec::new();
        for chain in 1.. {
            let path = self.delta_path(chain);
            if !path.exists() {
                break;
            }
            deltas.push(
                fs::read_to_string(&path)
                    .map_err(|e| format!("reading {}: {e}", path.display()))?,
            );
        }
        let journal = match fs::read_to_string(&self.journal) {
            Ok(t) => Some(t),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("reading journal: {e}")),
        };
        let delta_refs: Vec<&str> = deltas.iter().map(String::as_str).collect();
        let (svc, report) =
            ColoringService::restore_chain(&base, &delta_refs, journal.as_deref(), engine)
                .map_err(|e| format!("restoring {}: {e}", self.base.display()))?;
        self.chain_len = report.deltas_applied;
        self.checkpointed_h = report.snapshot_entries + report.delta_entries;
        self.epoch = report.chain_epoch;
        self.parent_crc = if report.deltas_applied > 0 {
            checkpoint_crc(&deltas[report.deltas_applied as usize - 1])
        } else {
            checkpoint_crc(&base)
        }
        .ok_or("restored checkpoint lost its CRC trailer")?;
        Ok((svc, report))
    }

    /// Re-anchor the on-disk state to the restored service: drop delta
    /// files the restore discarded (or that never belonged to this
    /// chain), checkpoint any journal tail, and rotate the journal down
    /// to the staged events.
    pub fn reanchor(&mut self, svc: &ColoringService, chaos: &mut Chaos) -> Result<(), StoreError> {
        for chain in self.chain_len + 1.. {
            let path = self.delta_path(chain);
            if !path.exists() {
                break;
            }
            fs::remove_file(&path)
                .map_err(|e| StoreError::new("checkpoint", format!("dropping stale delta: {e}")))?;
        }
        if self.is_behind(svc) {
            self.checkpoint(svc, chaos)?;
        } else {
            self.rotate_journal(svc.staged_events())?;
        }
        Ok(())
    }

    /// The service holds history the chain does not: entries past the
    /// newest checkpoint, or a fold whose base has not landed.
    pub fn is_behind(&self, svc: &ColoringService) -> bool {
        svc.epoch() != self.epoch || svc.history_len() > self.checkpointed_h
    }

    /// Append one line to the write-ahead journal. A `journal` storage
    /// fault either fails the append cleanly (disk-full: no bytes land)
    /// or tears it (half the line lands, then the process dies).
    pub fn append_journal(&mut self, line: &str) -> Result<(), StoreError> {
        let fault = self.faults.arm("journal");
        if fault == Some(FaultKind::Full) {
            return Err(StoreError::new("journal", "injected disk-full on append".into()));
        }
        if self.journal_file.is_none() {
            self.journal_file = Some(
                fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.journal)
                    .map_err(|e| StoreError::new("journal", format!("opening journal: {e}")))?,
            );
        }
        let Some(file) = self.journal_file.as_mut() else {
            return Err(StoreError::new("journal", "journal handle unavailable".into()));
        };
        if fault == Some(FaultKind::Torn) {
            let half = &line.as_bytes()[..line.len() / 2];
            let _ = file.write_all(half);
            let _ = file.flush();
            eprintln!("chaos: torn journal append ({} of {} bytes)", half.len(), line.len());
            std::process::exit(137);
        }
        self.wal_bytes += line.len() as u64;
        file.write_all(line.as_bytes())
            .map_err(|e| StoreError::new("journal", format!("appending journal: {e}")))
    }

    /// Atomically replace the journal with exactly the still-staged
    /// events (called right after a checkpoint lands).
    fn rotate_journal(&mut self, staged: &[ChurnEvent]) -> Result<(), StoreError> {
        self.journal_file = None;
        let mut text = String::new();
        for ev in staged {
            text.push_str(&ColoringService::journal_event_line(ev));
        }
        match self.faults.arm("journal") {
            Some(FaultKind::Full) => {
                return Err(StoreError::new("journal", "injected disk-full on rotation".into()))
            }
            Some(FaultKind::Torn) => {
                let _ = fs::write(&self.journal, &text.as_bytes()[..text.len() / 2]);
                eprintln!("chaos: torn journal rotation");
                std::process::exit(137);
            }
            None => {}
        }
        let tmp = self.journal.with_extension("jsonl.tmp");
        self.wal_bytes += text.len() as u64;
        fs::write(&tmp, text)
            .map_err(|e| StoreError::new("journal", format!("writing journal: {e}")))?;
        fs::rename(&tmp, &self.journal)
            .map_err(|e| StoreError::new("journal", format!("rotating journal: {e}")))
    }

    /// Write `text` to `path` via temp-file-then-rename, bracketing each
    /// stage with the given kill points and honoring an armed fault on
    /// `target`. A torn fault writes a truncated prefix to the *final*
    /// path — the worst case, where the rename landed but the data did
    /// not — then dies.
    fn publish(
        &mut self,
        target: &'static str,
        path: PathBuf,
        text: &str,
        points: [&'static str; 3],
        chaos: &mut Chaos,
    ) -> Result<(), StoreError> {
        chaos.hit(points[0]);
        match self.faults.arm(target) {
            Some(FaultKind::Full) => {
                return Err(StoreError::new(
                    target,
                    format!("injected disk-full writing {}", path.display()),
                ))
            }
            Some(FaultKind::Torn) => {
                let _ = fs::write(&path, &text.as_bytes()[..text.len() / 2]);
                eprintln!("chaos: torn write to {}", path.display());
                std::process::exit(137);
            }
            None => {}
        }
        let tmp = path.with_extension("dima.tmp");
        fs::write(&tmp, text)
            .map_err(|e| StoreError::new(target, format!("writing {}: {e}", path.display())))?;
        chaos.hit(points[1]);
        fs::rename(&tmp, &path)
            .map_err(|e| StoreError::new(target, format!("publishing {}: {e}", path.display())))?;
        chaos.hit(points[2]);
        Ok(())
    }

    fn drop_deltas(&mut self) -> Result<(), StoreError> {
        for chain in 1.. {
            let path = self.delta_path(chain);
            if !path.exists() {
                break;
            }
            fs::remove_file(&path)
                .map_err(|e| StoreError::new("checkpoint", format!("dropping delta: {e}")))?;
        }
        Ok(())
    }

    /// Write the service's base as the new chain base, discarding the
    /// old chain. Returns the bytes written. A base records a settled
    /// service only; while a repair runs this is a retryable refusal.
    pub fn write_base(
        &mut self,
        svc: &ColoringService,
        chaos: &mut Chaos,
    ) -> Result<u64, StoreError> {
        if !svc.is_settled() {
            return Err(StoreError::new("snapshot", "a base waits for a settled service".into()));
        }
        let text = svc.snapshot_text();
        self.publish(
            "snapshot",
            self.base.clone(),
            &text,
            ["snapshot-pre-write", "snapshot-pre-rename", "snapshot-post-rename"],
            chaos,
        )?;
        // Old deltas chain to the replaced base; on restore they fail
        // the parent-CRC link and fall back, so dropping them after the
        // rename is safe in every kill window.
        self.drop_deltas()?;
        self.chain_len = 0;
        self.checkpointed_h = svc.history_len();
        self.epoch = svc.epoch();
        self.parent_crc = checkpoint_crc(&text)
            .ok_or_else(|| StoreError::new("snapshot", "snapshot lost its CRC trailer".into()))?;
        self.rotate_journal(svc.staged_events())?;
        Ok(text.len() as u64)
    }

    /// Checkpoint the history past the newest checkpoint: a delta that
    /// extends the chain, or a base when the service folded since the
    /// chain's base was written (a delta cannot span a fold). Returns
    /// the kind written (`delta` or `base`) and its bytes.
    pub fn checkpoint(
        &mut self,
        svc: &ColoringService,
        chaos: &mut Chaos,
    ) -> Result<(&'static str, u64), StoreError> {
        if svc.epoch() != self.epoch {
            return self.write_base(svc, chaos).map(|bytes| ("base", bytes));
        }
        let text = svc
            .delta_text(self.checkpointed_h, self.chain_len + 1, self.parent_crc)
            .map_err(|e| StoreError::new("delta", e.to_string()))?;
        self.publish(
            "delta",
            self.delta_path(self.chain_len + 1),
            &text,
            ["delta-pre-write", "delta-pre-rename", "delta-post-rename"],
            chaos,
        )?;
        self.chain_len += 1;
        self.checkpointed_h = svc.history_len();
        self.parent_crc = checkpoint_crc(&text)
            .ok_or_else(|| StoreError::new("delta", "delta lost its CRC trailer".into()))?;
        self.rotate_journal(svc.staged_events())?;
        Ok(("delta", text.len() as u64))
    }
}
