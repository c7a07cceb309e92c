//! Crash-recovery acceptance for the serve-mode [`ColoringService`].
//!
//! The bar the service must clear: interrupting a session at any batch
//! boundary — snapshot, "kill", restore, replay the journaled tail,
//! keep serving — must land on a coloring **bit-identical** to the
//! uninterrupted session, across a 50-seed sweep, for both protocols.
//! On top of that, the offline `recompute` cross-check (replaying the
//! recorded history through the ordinary batch engines) must agree
//! with the live automata on both the sequential and parallel engine.

use dima::core::{
    checkpoint_crc, ColorReduction, ColoringService, Engine, HistoryEntry, KempeConfig,
    ServeProtocol, ServiceConfig, ServiceError,
};
use dima::graph::gen::erdos_renyi_gnm;
use dima::graph::{Graph, VertexId};
use dima::sim::ChurnEvent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn er(n: usize, m: usize, seed: u64) -> Graph {
    erdos_renyi_gnm(n, m, &mut SmallRng::seed_from_u64(seed)).expect("valid parameters")
}

/// Stage `want` random-but-valid events of every kind (rejections are
/// skipped — the generator probes until the feed accepts).
fn stage_batch(
    svc: &mut ColoringService,
    rng: &mut SmallRng,
    n: u32,
    want: usize,
) -> Vec<ChurnEvent> {
    stage_kinds(svc, rng, n, want, ALL_KINDS)
}

/// Event kinds [`stage_kinds`] draws from: link up, link down, leave,
/// join, in that order; a smaller count drops kinds from the end.
const ALL_KINDS: u32 = 4;
/// Link churn and leaves, no joins.
const LINKS_AND_LEAVES: u32 = 3;

/// [`stage_batch`] over the first `kinds` event kinds.
fn stage_kinds(
    svc: &mut ColoringService,
    rng: &mut SmallRng,
    n: u32,
    want: usize,
    kinds: u32,
) -> Vec<ChurnEvent> {
    let mut accepted = Vec::new();
    let mut attempts = 0;
    while accepted.len() < want && attempts < 200 {
        attempts += 1;
        let ev = match rng.random_range(0..kinds) {
            0 => ChurnEvent::LinkUp(
                VertexId(rng.random_range(0..n)),
                VertexId(rng.random_range(0..n)),
            ),
            1 => ChurnEvent::LinkDown(
                VertexId(rng.random_range(0..n)),
                VertexId(rng.random_range(0..n)),
            ),
            2 => ChurnEvent::NodeLeave(VertexId(rng.random_range(0..n))),
            _ => ChurnEvent::NodeJoin(VertexId(rng.random_range(0..n))),
        };
        if svc.stage(ev).is_ok() {
            accepted.push(ev);
        }
    }
    assert!(!accepted.is_empty(), "generator starved after {attempts} attempts");
    accepted
}

fn commit_and_settle(svc: &mut ColoringService) {
    assert!(svc.next_commit().is_some(), "staged events should be committable");
    svc.commit().expect("commit applies");
    svc.run_to_quiescence(svc.tick_budget()).expect("repair converges");
}

/// One interrupted session: run `pre_batches`, snapshot, keep running
/// `journal_batches` with journaling only (the "crash" forgets the
/// in-memory service), then restore from snapshot + journal and finish
/// with `post_batches`. Returns the final service.
#[allow(clippy::too_many_arguments)]
fn interrupted(
    g0: &Graph,
    cfg: &ServiceConfig,
    n: u32,
    rng_seed: u64,
    pre_batches: usize,
    journal_batches: usize,
    post_batches: usize,
    batch_events: usize,
) -> ColoringService {
    let mut rng = SmallRng::seed_from_u64(rng_seed);
    let mut svc = ColoringService::new(g0, cfg.clone()).expect("service construction");
    svc.run_to_quiescence(svc.tick_budget()).expect("initial coloring");
    for _ in 0..pre_batches {
        stage_batch(&mut svc, &mut rng, n, batch_events);
        commit_and_settle(&mut svc);
    }
    let snapshot = svc.snapshot_text();
    // Post-snapshot traffic goes to the journal exactly as the CLI
    // writes it: event lines on accept, a write-ahead commit marker.
    let mut journal = String::new();
    let mut h_written = svc.history_len() as usize;
    for _ in 0..journal_batches {
        for ev in stage_batch(&mut svc, &mut rng, n, batch_events) {
            journal.push_str(&ColoringService::journal_event_line(&ev));
        }
        let (seq, round) = svc.next_commit().expect("committable");
        journal.push_str(&ColoringService::journal_commit_line(
            svc.epoch(),
            svc.history_len() + 1,
            seq,
            round,
        ));
        commit_and_settle(&mut svc);
        // Journal any watchdog escalations the repair recorded, exactly
        // as the CLI does when a tick reports one.
        for (i, entry) in svc.history().iter().enumerate().skip(h_written) {
            if let HistoryEntry::Recolor { round } = entry {
                journal.push_str(&ColoringService::journal_recolor_line(
                    svc.epoch(),
                    i as u64 + 1,
                    *round,
                ));
            }
        }
        h_written = svc.history_len() as usize;
    }
    // Crash: drop `svc`, recover from the persisted artifacts.
    drop(svc);
    let (mut svc, report) =
        ColoringService::restore_chain(&snapshot, &[], Some(&journal), Engine::Sequential)
            .expect("restore succeeds");
    assert!(
        report.tail_entries as usize >= journal_batches,
        "journal tail replays fully ({} entries for {journal_batches} batches)",
        report.tail_entries
    );
    assert!(!report.torn_tail);
    for _ in 0..post_batches {
        stage_batch(&mut svc, &mut rng, n, batch_events);
        commit_and_settle(&mut svc);
    }
    svc
}

/// The uninterrupted control: same seeds, same batches, no crash.
fn uninterrupted(
    g0: &Graph,
    cfg: &ServiceConfig,
    n: u32,
    rng_seed: u64,
    batches: usize,
    batch_events: usize,
) -> ColoringService {
    let mut rng = SmallRng::seed_from_u64(rng_seed);
    let mut svc = ColoringService::new(g0, cfg.clone()).expect("service construction");
    svc.run_to_quiescence(svc.tick_budget()).expect("initial coloring");
    for _ in 0..batches {
        stage_batch(&mut svc, &mut rng, n, batch_events);
        commit_and_settle(&mut svc);
    }
    svc
}

fn sweep(protocol: ServeProtocol) {
    for seed in 0..50u64 {
        let n = 16 + (seed % 3) as usize * 4; // 16, 20, 24
        let g0 = er(n, 2 * n, seed);
        let cfg = ServiceConfig::new(protocol, seed.wrapping_mul(31).wrapping_add(5));
        let rng_seed = seed.wrapping_mul(97).wrapping_add(13);
        // 1 batch before the snapshot, 2 journaled across the crash,
        // 1 after recovery = 4 total.
        let recovered = interrupted(&g0, &cfg, n as u32, rng_seed, 1, 2, 1, 2);
        let control = uninterrupted(&g0, &cfg, n as u32, rng_seed, 4, 2);
        assert_eq!(
            recovered.coloring_hash(),
            control.coloring_hash(),
            "seed {seed} ({protocol}): recovered hash diverges from control"
        );
        assert_eq!(
            recovered.coloring(),
            control.coloring(),
            "seed {seed} ({protocol}): recovered coloring diverges edge-by-edge"
        );
        assert_eq!(recovered.round(), control.round(), "seed {seed}: round drift");
        assert_eq!(recovered.history(), control.history(), "seed {seed}: history drift");
        // The recorded history must also replay through the ordinary
        // batch engines (both of them) to the same coloring.
        if recovered.history().iter().all(|h| matches!(h, HistoryEntry::Batch { .. })) {
            let live = recovered.coloring();
            let seq = recovered.recompute(Engine::Sequential).expect("sequential recompute");
            assert_eq!(seq, live, "seed {seed} ({protocol}): sequential recompute diverges");
            let par =
                recovered.recompute(Engine::Parallel { threads: 2 }).expect("parallel recompute");
            assert_eq!(par, live, "seed {seed} ({protocol}): parallel recompute diverges");
        }
    }
}

#[test]
fn ec_snapshot_kill_restore_replay_is_bit_identical_across_fifty_seeds() {
    sweep(ServeProtocol::EdgeColoring);
}

#[test]
fn strong_snapshot_kill_restore_replay_is_bit_identical_across_fifty_seeds() {
    sweep(ServeProtocol::StrongColoring);
}

/// One session persisted as a checkpoint chain, mirroring the CLI's
/// trigger logic exactly: a base anchors the chain, a delta checkpoint
/// lands every `DELTA_EVERY` batches, and the history is folded and a
/// fresh base written (journal and deltas reset) once it reaches
/// `COMPACT_AFTER` entries at a settled point. With
/// `crash_after = Some(b)` the in-memory service is dropped after batch
/// `b` and recovered from the chain + journal tail. Every checkpoint is
/// restored as soon as it is written and must hash like the live
/// service. Events are drawn from the first `kinds` kinds (see
/// [`stage_kinds`]).
fn chain_session(
    g0: &Graph,
    cfg: &ServiceConfig,
    n: u32,
    rng_seed: u64,
    batches: usize,
    crash_after: Option<usize>,
    kinds: u32,
) -> ColoringService {
    const COMPACT_AFTER: u64 = 3;
    const DELTA_EVERY: usize = 2;
    let mut rng = SmallRng::seed_from_u64(rng_seed);
    let mut svc = ColoringService::new(g0, cfg.clone()).expect("service construction");
    svc.run_to_quiescence(svc.tick_budget()).expect("initial coloring");
    let mut base = svc.snapshot_text();
    let mut deltas: Vec<String> = Vec::new();
    let mut checkpointed_h = svc.history_len();
    let mut parent_crc = checkpoint_crc(&base).expect("base CRC");
    let mut journal = String::new();
    let mut h_written = svc.history_len() as usize;
    for b in 1..=batches {
        for ev in stage_kinds(&mut svc, &mut rng, n, 2, kinds) {
            journal.push_str(&ColoringService::journal_event_line(&ev));
        }
        let (seq, round) = svc.next_commit().expect("committable");
        journal.push_str(&ColoringService::journal_commit_line(
            svc.epoch(),
            svc.history_len() + 1,
            seq,
            round,
        ));
        commit_and_settle(&mut svc);
        for (i, entry) in svc.history().iter().enumerate().skip(h_written) {
            if let HistoryEntry::Recolor { round } = entry {
                journal.push_str(&ColoringService::journal_recolor_line(
                    svc.epoch(),
                    i as u64 + 1,
                    *round,
                ));
            }
        }
        h_written = svc.history_len() as usize;
        if svc.history_len() >= COMPACT_AFTER {
            svc.compact_history().expect("settled service compacts");
            base = svc.snapshot_text();
            deltas.clear();
            checkpointed_h = 0;
            parent_crc = checkpoint_crc(&base).expect("base CRC");
            journal.clear();
            h_written = 0;
        } else if b % DELTA_EVERY == 0 {
            let d = svc
                .delta_text(checkpointed_h, deltas.len() as u64 + 1, parent_crc)
                .expect("delta serializes");
            parent_crc = checkpoint_crc(&d).expect("delta CRC");
            checkpointed_h = svc.history_len();
            deltas.push(d);
            journal.clear();
        }
        if checkpointed_h == svc.history_len() {
            let refs: Vec<&str> = deltas.iter().map(String::as_str).collect();
            let (restored, _) =
                ColoringService::restore_chain(&base, &refs, None, Engine::Sequential)
                    .expect("a fresh checkpoint restores");
            assert_eq!(
                restored.coloring_hash(),
                svc.coloring_hash(),
                "batch {b}: the checkpoint just written restores to another coloring"
            );
        }
        if crash_after == Some(b) {
            let epoch = svc.epoch();
            drop(svc);
            let refs: Vec<&str> = deltas.iter().map(String::as_str).collect();
            let (recovered, report) =
                ColoringService::restore_chain(&base, &refs, Some(&journal), Engine::Sequential)
                    .expect("chain restore succeeds");
            assert_eq!(report.fallback, None, "healthy chain must not fall back");
            assert!(!report.torn_tail);
            assert_eq!(recovered.epoch(), epoch, "restored epoch drifts");
            svc = recovered;
        }
    }
    svc
}

/// The chain acceptance bar: incremental checkpoints and history
/// folds enabled, a crash in the middle, and the
/// recovered trajectory must stay bit-identical to the uninterrupted
/// one across the 50-seed sweep.
fn chain_sweep(protocol: ServeProtocol) {
    for seed in 0..50u64 {
        let n = 16 + (seed % 3) as usize * 4; // 16, 20, 24
        let g0 = er(n, 2 * n, seed);
        let cfg = ServiceConfig::new(protocol, seed.wrapping_mul(29).wrapping_add(7));
        let rng_seed = seed.wrapping_mul(101).wrapping_add(3);
        // Six batches: compaction triggers around batch 3 (epoch 1) and
        // again near the end (epoch 2); the crash at batch 5 recovers
        // through base + delta + journal tail.
        let recovered = chain_session(&g0, &cfg, n as u32, rng_seed, 6, Some(5), ALL_KINDS);
        let control = chain_session(&g0, &cfg, n as u32, rng_seed, 6, None, ALL_KINDS);
        assert!(control.epoch() > 0, "seed {seed} ({protocol}): compaction never triggered");
        assert_eq!(
            recovered.coloring_hash(),
            control.coloring_hash(),
            "seed {seed} ({protocol}): chain-recovered hash diverges from control"
        );
        assert_eq!(
            recovered.coloring(),
            control.coloring(),
            "seed {seed} ({protocol}): chain-recovered coloring diverges edge-by-edge"
        );
        assert_eq!(recovered.epoch(), control.epoch(), "seed {seed}: epoch drift");
        assert_eq!(recovered.round(), control.round(), "seed {seed}: round drift");
        assert_eq!(recovered.history(), control.history(), "seed {seed}: history drift");
    }
}

#[test]
fn ec_chain_restore_with_compaction_is_bit_identical_across_fifty_seeds() {
    chain_sweep(ServeProtocol::EdgeColoring);
}

#[test]
fn strong_chain_restore_with_compaction_is_bit_identical_across_fifty_seeds() {
    chain_sweep(ServeProtocol::StrongColoring);
}

/// The chain bar with the Kempe post-pass on: compaction rewrites the
/// parked automata after every batch, and each checkpoint must restore
/// to the live coloring under link churn and node leaves.
#[test]
fn ec_kempe_chain_restore_matches_live_at_every_checkpoint() {
    let mut write_backs = 0;
    for seed in 0..24u64 {
        let n = 24 + (seed % 3) as usize * 4; // 24, 28, 32
        let g0 = er(n, 3 * n, seed.wrapping_add(500));
        let mut cfg = ServiceConfig::new(ServeProtocol::EdgeColoring, seed.wrapping_mul(43) + 1);
        cfg.coloring.reduction = ColorReduction::Kempe(KempeConfig::default());
        let rng_seed = seed.wrapping_mul(61).wrapping_add(17);
        let recovered = chain_session(&g0, &cfg, n as u32, rng_seed, 6, Some(5), LINKS_AND_LEAVES);
        let mut control = chain_session(&g0, &cfg, n as u32, rng_seed, 6, None, LINKS_AND_LEAVES);
        assert_eq!(
            recovered.coloring_hash(),
            control.coloring_hash(),
            "seed {seed}: chain-recovered hash diverges from control"
        );
        assert_eq!(recovered.history(), control.history(), "seed {seed}: history drift");
        write_backs += control
            .take_reports()
            .iter()
            .filter_map(|r| r.reduction)
            .filter(|k| k.trivial_recolors + k.chains_flipped > 0)
            .count();
    }
    assert!(write_backs > 0, "no compaction ever moved a color");
}

/// One step of a scripted session.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// A batch of one event of each listed kind, in [`stage_kinds`]'
    /// order: 0 link up, 1 link down, 2 leave, 3 join.
    Batch(&'static [u32]),
    /// An operator's [`ColoringService::force_recolor`].
    Recolor,
    /// A history fold ([`ColoringService::compact_history`]).
    Fold,
}

/// Every event kind, a forced recolor and a fold, with settle points
/// on either side of each. Each join takes back a node an earlier batch
/// saw leave; the last one, a node that left before the fold.
const SCRIPT: [Step; 8] = [
    Step::Batch(&[0, 1]),
    Step::Batch(&[2, 2, 0]),
    Step::Batch(&[3, 1]),
    Step::Recolor,
    Step::Batch(&[0, 3, 2]),
    Step::Fold,
    Step::Batch(&[1, 0]),
    Step::Batch(&[3, 2, 0]),
];

/// Stage one event of `kind` (see [`Step::Batch`]) that the feed
/// accepts.
fn stage_one(svc: &mut ColoringService, rng: &mut SmallRng, n: u32, kind: u32) -> ChurnEvent {
    for _ in 0..500 {
        let (a, b) = (VertexId(rng.random_range(0..n)), VertexId(rng.random_range(0..n)));
        let ev = match kind {
            0 => ChurnEvent::LinkUp(a, b),
            1 => ChurnEvent::LinkDown(a, b),
            2 => ChurnEvent::NodeLeave(a),
            _ => ChurnEvent::NodeJoin(a),
        };
        if svc.stage(ev).is_ok() {
            return ev;
        }
    }
    panic!("no event of kind {kind} is valid");
}

/// A persisted chain as the CLI keeps it: a base, the deltas past it
/// and the journal past those.
struct Chain {
    base: String,
    deltas: Vec<String>,
    journal: String,
    checkpointed_h: u64,
    parent_crc: u32,
    /// History entries already in the journal or the chain.
    h_written: usize,
}

impl Chain {
    fn anchor(svc: &ColoringService) -> Chain {
        let base = svc.snapshot_text();
        let parent_crc = checkpoint_crc(&base).expect("base CRC");
        let h = svc.history_len();
        Chain {
            base,
            deltas: Vec::new(),
            journal: String::new(),
            checkpointed_h: h,
            parent_crc,
            h_written: h as usize,
        }
    }

    fn restore(&self) -> ColoringService {
        let refs: Vec<&str> = self.deltas.iter().map(String::as_str).collect();
        let (svc, report) = ColoringService::restore_chain(
            &self.base,
            &refs,
            Some(&self.journal),
            Engine::Sequential,
        )
        .expect("the chain restores");
        assert_eq!((report.fallback, report.journal_discarded), (None, false));
        svc
    }

    /// Journal the recolor entries `svc` recorded since the last call,
    /// as the CLI does when a tick or a command reports one.
    fn journal_recolors(&mut self, svc: &ColoringService) {
        for (i, entry) in svc.history().iter().enumerate().skip(self.h_written) {
            if let HistoryEntry::Recolor { round } = entry {
                self.journal.push_str(&ColoringService::journal_recolor_line(
                    svc.epoch(),
                    i as u64 + 1,
                    *round,
                ));
            }
        }
        self.h_written = svc.history_len() as usize;
    }

    fn write_delta(&mut self, svc: &ColoringService) {
        let d = svc
            .delta_text(self.checkpointed_h, self.deltas.len() as u64 + 1, self.parent_crc)
            .expect("delta serializes");
        self.parent_crc = checkpoint_crc(&d).expect("delta CRC");
        self.checkpointed_h = svc.history_len();
        self.deltas.push(d);
        self.journal.clear();
    }
}

/// Restore-and-continue at every settle point of [`SCRIPT`]: each
/// settle point's own base, and the chain persisted so far (base,
/// deltas, journal), restore to copies that then run through the rest
/// of the session beside the live service. After every step each copy
/// must match the live service in coloring, hash, round, epoch and
/// history. A base restore replays nothing: it reports no repair.
fn restore_and_continue(cfg: &ServiceConfig, seed: u64) {
    let n = 16 + (seed % 3) as u32 * 4; // 16, 20, 24
    let g0 = er(n as usize, 3 * n as usize, seed);
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(71).wrapping_add(9));
    let mut live = ColoringService::new(&g0, cfg.clone()).expect("service construction");
    live.run_to_quiescence(live.tick_budget()).expect("initial coloring");
    live.take_reports();
    let mut chain = Chain::anchor(&live);
    let mut copies: Vec<(String, ColoringService)> = Vec::new();
    for (k, step) in SCRIPT.iter().enumerate() {
        let (mut at_base, report) =
            ColoringService::restore_chain(&live.snapshot_text(), &[], None, Engine::Sequential)
                .expect("a settled base restores");
        assert_eq!(report.snapshot_entries, live.history_len());
        assert!(at_base.take_reports().is_empty(), "step {k}: a base restore ran a repair");
        copies.push((format!("base before step {k}"), at_base));
        copies.push((format!("chain before step {k}"), chain.restore()));
        match *step {
            Step::Batch(kinds) => {
                let events: Vec<ChurnEvent> =
                    kinds.iter().map(|&kind| stage_one(&mut live, &mut rng, n, kind)).collect();
                for ev in &events {
                    chain.journal.push_str(&ColoringService::journal_event_line(ev));
                }
                let (seq, round) = live.next_commit().expect("committable");
                chain.journal.push_str(&ColoringService::journal_commit_line(
                    live.epoch(),
                    live.history_len() + 1,
                    seq,
                    round,
                ));
                commit_and_settle(&mut live);
                for (_, copy) in &mut copies {
                    for &ev in &events {
                        copy.stage(ev).expect("the copy's feed accepts the live event");
                    }
                    commit_and_settle(copy);
                }
            }
            Step::Recolor => {
                let round = live.force_recolor();
                live.run_to_quiescence(live.tick_budget()).expect("recolor converges");
                for (_, copy) in &mut copies {
                    assert_eq!(copy.force_recolor(), round);
                    copy.run_to_quiescence(copy.tick_budget()).expect("recolor converges");
                }
            }
            Step::Fold => {
                live.compact_history().expect("a settled service folds");
                for (_, copy) in &mut copies {
                    copy.compact_history().expect("a settled copy folds");
                }
                chain = Chain::anchor(&live);
            }
        }
        chain.journal_recolors(&live);
        if k % 2 == 1 && live.history_len() > chain.checkpointed_h {
            chain.write_delta(&live);
        }
        for (label, copy) in &copies {
            let what = format!("seed {seed}, {label}, after step {k} ({step:?})");
            assert_eq!(copy.coloring(), live.coloring(), "{what}: coloring");
            assert_eq!(copy.coloring_hash(), live.coloring_hash(), "{what}: hash");
            assert_eq!(copy.round(), live.round(), "{what}: round");
            assert_eq!(copy.epoch(), live.epoch(), "{what}: epoch");
            assert_eq!(copy.history(), live.history(), "{what}: history");
        }
    }
    assert!(live.escalations() > 0, "the script's recolor is an escalation");
}

#[test]
fn restored_copies_continue_like_the_live_service_from_every_settle_point() {
    let mut kempe = ServiceConfig::new(ServeProtocol::EdgeColoring, 0);
    kempe.coloring.reduction = ColorReduction::Kempe(KempeConfig::default());
    let configs = [
        ServiceConfig::new(ServeProtocol::EdgeColoring, 0),
        kempe,
        ServiceConfig::new(ServeProtocol::StrongColoring, 0),
    ];
    for cfg in configs {
        for seed in 0..3u64 {
            let mut cfg = cfg.clone();
            cfg.coloring.seed = seed.wrapping_mul(53).wrapping_add(3);
            restore_and_continue(&cfg, seed);
        }
    }
}

/// A base and a delta as the earlier formats wrote them, for a
/// settled three-node path at seed 1: version 1 was restored by
/// replaying its history from the initial graph, version 2 by
/// rebuilding the automata on fresh streams.
const EARLIER_BASES: [(&str, u64); 2] = [
    (
        "{\"type\":\"serve-snapshot\",\"version\":1,\"protocol\":\"ec\",\"seed\":1,\
         \"invite_bits\":4602678819172646912,\"color_policy\":\"lowest-index\",\
         \"response_policy\":\"random\",\"width\":1,\"max_compute\":0,\"validate_sends\":0,\
         \"watchdog\":512,\"reduce\":0,\"reduce_target\":0,\"epoch\":0,\"n\":3,\"edges\":2,\
         \"history\":0,\"batches\":0,\"quiescent\":1,\"round\":6,\"hash\":5667456995990929175}\n\
         {\"type\":\"edge\",\"u\":0,\"v\":1}\n\
         {\"type\":\"edge\",\"u\":1,\"v\":2}\n\
         {\"type\":\"crc\",\"value\":3638292092}\n",
        1,
    ),
    (
        "{\"type\":\"serve-base\",\"version\":2,\"protocol\":\"ec\",\"seed\":1,\
         \"invite_bits\":4602678819172646912,\"color_policy\":\"lowest-index\",\
         \"response_policy\":\"random\",\"width\":1,\"max_compute\":0,\"validate_sends\":0,\
         \"watchdog\":512,\"reduce\":0,\"reduce_target\":0,\"epoch\":1,\"n\":3,\"edges\":2,\
         \"dead\":0,\"staged\":0,\"batches\":0,\"escalations\":0,\"quiescent\":1,\"round\":0,\
         \"hash\":5667456995990929175}\n\
         {\"type\":\"cedge\",\"u\":0,\"v\":1,\"f\":2,\"r\":2}\n\
         {\"type\":\"cedge\",\"u\":1,\"v\":2,\"f\":1,\"r\":1}\n\
         {\"type\":\"crc\",\"value\":2205730858}\n",
        2,
    ),
];

#[test]
fn bases_of_the_earlier_formats_are_refused_by_version() {
    for (text, version) in EARLIER_BASES {
        assert!(checkpoint_crc(text).is_some(), "the version {version} base must verify");
        let err = ColoringService::restore_chain(text, &[], None, Engine::Sequential)
            .err()
            .expect("an earlier format must not restore");
        let ServiceError::Snapshot { line, message } = &err else { panic!("{err}") };
        assert_eq!(
            (*line, message.as_str()),
            (1, &*format!("unsupported snapshot version {version}"))
        );
    }
}

/// IEEE CRC-32, to re-seal a checkpoint whose body a test edits.
fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
    }
    c ^ 0xFFFF_FFFF
}

/// `text` with its first `key` value (the characters after `"key":`,
/// up to the next `,` or `}` outside quotes) replaced by `value`, and
/// its CRC trailer recomputed.
fn resealed(text: &str, line_tag: &str, key: &str, value: &str) -> String {
    let (body, _) = text.trim_end().rsplit_once('\n').expect("a trailer");
    let mut out = String::new();
    let mut done = false;
    for line in body.lines() {
        let pat = format!("\"{key}\":");
        match line
            .find(&pat)
            .filter(|_| !done && line.contains(&format!("\"type\":\"{line_tag}\"")))
        {
            Some(at) => {
                let start = at + pat.len();
                let rest = &line[start..];
                let len = if let Some(quoted) = rest.strip_prefix('"') {
                    quoted.find('"').expect("closing quote") + 2
                } else {
                    rest.find([',', '}']).expect("value end")
                };
                out.push_str(&line[..start]);
                out.push_str(value);
                out.push_str(&rest[len..]);
                done = true;
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    assert!(done, "no {line_tag} line holds {key}");
    let crc = crc32(out.as_bytes());
    format!("{out}{{\"type\":\"crc\",\"value\":{crc}}}\n")
}

/// The corruption matrix: every artifact of a persisted chain — the
/// folded base, both deltas, and the journal — is truncated at every
/// line boundary, cut mid-line, and bit-flipped in each region (header,
/// body, CRC trailer) and in each field the base records of the
/// settled state (round clock, engine stream, row, and Algorithm 2's
/// memory). Every mutation must yield a typed error or a clean
/// recovery to a verifiable prefix, never a panic; recovery from
/// identical damage must be deterministic; and a recovered service
/// must keep serving. A base whose state fields are malformed but
/// re-sealed under a valid CRC is refused with a typed error.
#[test]
fn corruption_matrix_yields_typed_errors_or_clean_recovery() {
    for protocol in [ServeProtocol::EdgeColoring, ServeProtocol::StrongColoring] {
        corruption_matrix(protocol);
    }
}

fn corruption_matrix(protocol: ServeProtocol) {
    let n = 16u32;
    let g0 = er(16, 32, 90);
    let cfg = ServiceConfig::new(protocol, 91);
    let mut rng = SmallRng::seed_from_u64(92);
    let mut svc = ColoringService::new(&g0, cfg).expect("service construction");
    svc.run_to_quiescence(svc.tick_budget()).expect("initial coloring");
    // Fold a few batches into an epoch 1 base, then grow
    // a two-delta chain with a journal tail past it, ending on a
    // staged-but-uncommitted event — every artifact kind is populated.
    for _ in 0..3 {
        stage_batch(&mut svc, &mut rng, n, 2);
        commit_and_settle(&mut svc);
    }
    svc.compact_history().expect("settled service compacts");
    let base = svc.snapshot_text();
    let base_crc = checkpoint_crc(&base).expect("base CRC");
    stage_batch(&mut svc, &mut rng, n, 2);
    commit_and_settle(&mut svc);
    let h1 = svc.history_len();
    let delta1 = svc.delta_text(0, 1, base_crc).expect("delta 1 serializes");
    let d1_crc = checkpoint_crc(&delta1).expect("delta 1 CRC");
    stage_batch(&mut svc, &mut rng, n, 2);
    commit_and_settle(&mut svc);
    let h2 = svc.history_len();
    let delta2 = svc.delta_text(h1, 2, d1_crc).expect("delta 2 serializes");
    let mut journal = String::new();
    for ev in stage_batch(&mut svc, &mut rng, n, 2) {
        journal.push_str(&ColoringService::journal_event_line(&ev));
    }
    let (seq, round) = svc.next_commit().expect("committable");
    journal.push_str(&ColoringService::journal_commit_line(
        svc.epoch(),
        svc.history_len() + 1,
        seq,
        round,
    ));
    commit_and_settle(&mut svc);
    for (i, entry) in svc.history().iter().enumerate().skip(h2 as usize) {
        if let HistoryEntry::Recolor { round } = entry {
            journal.push_str(&ColoringService::journal_recolor_line(
                svc.epoch(),
                i as u64 + 1,
                *round,
            ));
        }
    }
    for ev in stage_batch(&mut svc, &mut rng, n, 1) {
        journal.push_str(&ColoringService::journal_event_line(&ev));
    }

    let restore = |b: &str, d1: &str, d2: &str, j: &str| {
        ColoringService::restore_chain(b, &[d1, d2], Some(j), Engine::Sequential)
    };
    let (pristine, rep) = restore(&base, &delta1, &delta2, &journal).expect("pristine chain");
    assert_eq!(rep.fallback, None);
    assert_eq!(pristine.coloring_hash(), svc.coloring_hash(), "pristine chain round-trips");

    // Malformed state under a valid CRC: the parser refuses it.
    let mut malformed = vec![
        resealed(&base, "serve-base", "round", "\"x\""),
        resealed(&base, "serve-base", "round", &u64::MAX.to_string()),
        resealed(&base, "node", "rng", &format!("\"{}\"", "0".repeat(64))),
        resealed(&base, "node", "rng", "\"abc\""),
        resealed(&base, "node", "row", "\"x\""),
        resealed(&base, "node", "g0", "\"99\""),
    ];
    if protocol == ServeProtocol::StrongColoring {
        malformed.push(resealed(&base, "node", "forbid", "\"x\""));
        malformed.push(resealed(&base, "node", "tried", "\"99:1\""));
    }
    // A palette bound above 2n, in the header or on a node line, and an
    // Algorithm 1 row color above it: no run records one, and restore
    // would size the automata's color rows by it.
    malformed.push(resealed(&base, "serve-base", "bound", &u32::MAX.to_string()));
    if protocol == ServeProtocol::EdgeColoring {
        let tagged = format!("\"node\",\"bound\":{}", u32::MAX);
        malformed.push(resealed(&base, "node", "type", &tagged));
        let row = base
            .lines()
            .find_map(|l| l.split_once("\"row\":\"").map(|(_, rest)| rest))
            .and_then(|rest| rest.split_once('"'))
            .map(|(row, _)| row)
            .expect("a node row");
        let (_, rest) = row.split_once(',').unwrap_or(("", ""));
        let forged = [(u32::MAX - 1).to_string(), rest.to_string()].join(",");
        let forged = forged.trim_end_matches(',');
        malformed.push(resealed(&base, "node", "row", &format!("\"{forged}\"")));
    }
    for (i, m) in malformed.iter().enumerate() {
        assert!(checkpoint_crc(m).is_some(), "{protocol} malformed #{i} must verify");
        let err = restore(m, &delta1, &delta2, &journal)
            .err()
            .unwrap_or_else(|| panic!("{protocol} malformed #{i} restored"));
        assert!(matches!(err, ServiceError::Snapshot { .. }), "{protocol} malformed #{i}: {err}");
    }

    let artifacts: [(&str, &String); 4] =
        [("base", &base), ("delta1", &delta1), ("delta2", &delta2), ("journal", &journal)];
    let mut cases = 0usize;
    let mut typed_errors = 0usize;
    let mut recoveries = 0usize;
    for (which, text) in artifacts {
        let mut mutations: Vec<String> = Vec::new();
        // Truncate at every line boundary, shortest first (the empty
        // file is the k = 0 case).
        let lines: Vec<&str> = text.lines().collect();
        for k in 0..lines.len() {
            let mut t = lines[..k].join("\n");
            if k > 0 {
                t.push('\n');
            }
            mutations.push(t);
        }
        // Mid-line cuts: a quarter and half of the raw bytes.
        for frac in [4, 2] {
            mutations
                .push(String::from_utf8_lossy(&text.as_bytes()[..text.len() / frac]).into_owned());
        }
        // One flipped byte in the header, the body middle, the CRC
        // trailer, and (in the base) the first value of each state
        // field.
        let header_end = text.find('\n').unwrap_or(text.len());
        let mut flips = vec![header_end / 2, text.len() / 2, text.len().saturating_sub(5)];
        if which == "base" {
            for key in ["\"round\":", "\"rng\":\"", "\"row\":\"", "\"forbid\":\"", "\"tried\":\""] {
                flips.extend(text.find(key).map(|at| at + key.len()));
            }
        }
        for at in flips {
            let mut bytes = text.clone().into_bytes();
            bytes[at] ^= 0x08;
            mutations.push(String::from_utf8_lossy(&bytes).into_owned());
        }
        for (mi, m) in mutations.iter().enumerate() {
            cases += 1;
            let (b, d1, d2, j) = match which {
                "base" => (m.as_str(), delta1.as_str(), delta2.as_str(), journal.as_str()),
                "delta1" => (base.as_str(), m.as_str(), delta2.as_str(), journal.as_str()),
                "delta2" => (base.as_str(), delta1.as_str(), m.as_str(), journal.as_str()),
                _ => (base.as_str(), delta1.as_str(), delta2.as_str(), m.as_str()),
            };
            match restore(b, d1, d2, j) {
                Err(_) => typed_errors += 1,
                Ok((mut r, _)) => {
                    recoveries += 1;
                    let (r2, _) = restore(b, d1, d2, j).unwrap_or_else(|e| {
                        panic!("{protocol} {which} #{mi}: second restore failed: {e}")
                    });
                    assert_eq!(
                        r.coloring_hash(),
                        r2.coloring_hash(),
                        "{protocol} {which} #{mi}: recovery is not deterministic"
                    );
                    r.run_to_quiescence(r.tick_budget()).unwrap_or_else(|e| {
                        panic!("{protocol} {which} #{mi}: recovered service wedged: {e}")
                    });
                }
            }
        }
    }
    // The matrix must exercise both outcomes: damage the chain can
    // route around (fallback, torn tails, stale prefixes) and damage
    // it must refuse (a corrupt base).
    assert!(typed_errors > 0, "no mutation produced a typed error ({cases} cases)");
    assert!(recoveries > 0, "no mutation recovered cleanly ({cases} cases)");
}

/// Pooled restore pin: replaying a snapshot + journal on the worker
/// pool must land on the same bits as the sequential replay, across
/// randomized sessions (the property the `serve --threads N` restore
/// path depends on).
#[test]
fn pooled_restore_is_bit_identical_to_sequential() {
    for seed in 0..20u64 {
        let protocol =
            if seed % 2 == 0 { ServeProtocol::EdgeColoring } else { ServeProtocol::StrongColoring };
        let n = 16usize;
        let g0 = er(n, 2 * n, seed.wrapping_mul(7).wrapping_add(1));
        let cfg = ServiceConfig::new(protocol, seed.wrapping_mul(13).wrapping_add(11));
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(41).wrapping_add(17));
        let mut svc = ColoringService::new(&g0, cfg).expect("service construction");
        svc.run_to_quiescence(svc.tick_budget()).expect("initial coloring");
        stage_batch(&mut svc, &mut rng, n as u32, 2);
        commit_and_settle(&mut svc);
        let snapshot = svc.snapshot_text();
        let mut journal = String::new();
        for ev in stage_batch(&mut svc, &mut rng, n as u32, 2) {
            journal.push_str(&ColoringService::journal_event_line(&ev));
        }
        let (seq, round) = svc.next_commit().expect("committable");
        journal.push_str(&ColoringService::journal_commit_line(
            svc.epoch(),
            svc.history_len() + 1,
            seq,
            round,
        ));
        let (seq_svc, _) =
            ColoringService::restore_chain(&snapshot, &[], Some(&journal), Engine::Sequential)
                .expect("sequential restore");
        let (par_svc, _) = ColoringService::restore_chain(
            &snapshot,
            &[],
            Some(&journal),
            Engine::Parallel { threads: 2 },
        )
        .expect("pooled restore");
        assert_eq!(par_svc.coloring_hash(), seq_svc.coloring_hash(), "seed {seed}: hash diverges");
        assert_eq!(par_svc.coloring(), seq_svc.coloring(), "seed {seed}: coloring diverges");
        assert_eq!(par_svc.history(), seq_svc.history(), "seed {seed}: history diverges");
        assert_eq!(par_svc.round(), seq_svc.round(), "seed {seed}: round diverges");
    }
}
