//! Run instrumentation: the quantities the paper's figures report.

use dima_telemetry::{MetricsRegistry, PhaseNanos};

/// Per-communication-round counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// 0-based round index.
    pub round: u64,
    /// Nodes that executed this round.
    pub active: usize,
    /// Nodes done after this round (cumulative).
    pub done: usize,
    /// `send`/`broadcast` calls this round.
    pub sent: u64,
    /// Individual deliveries this round (a broadcast to `d` neighbors
    /// counts `d`).
    pub delivered: u64,
}

/// Aggregate counters for a whole run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Communication rounds executed until the last node finished.
    pub rounds: u64,
    /// Total `send`/`broadcast` calls.
    pub messages_sent: u64,
    /// Total individual deliveries.
    pub deliveries: u64,
    /// Node steps: the sum of every executed round's
    /// [`RoundStats::active`], the work a round costs in the step phase.
    pub node_steps: u64,
    /// Deliveries suppressed by fault injection (silent loss).
    pub dropped: u64,
    /// Deliveries discarded because they arrived corrupted (detected by
    /// the checksummed wire envelope, hence counted apart from `dropped`).
    pub corrupted: u64,
    /// Extra deliveries injected by duplication faults.
    pub duplicated: u64,
    /// Nodes that crash-stopped during the run.
    pub crashed: usize,
    /// Quiescent rounds the engine fast-forwarded over instead of
    /// executing (every node parked, next churn batch still in the
    /// future). These rounds appear in no per-round breakdown and do not
    /// count against the round budget; `rounds` still reports the
    /// absolute round clock.
    pub idle_rounds_skipped: u64,
    /// Churn batches applied during the run (0 for static runs).
    pub churn_batches: u64,
    /// Primitive churn events across the applied batches.
    pub churn_events: u64,
    /// Wall-clock nanoseconds per engine stage. All-zero unless the run
    /// was profiled ([`crate::EngineConfig::profile`]), so run
    /// statistics stay comparable across shard counts with `==`.
    pub phase_nanos: PhaseNanos,
    /// Per-shard phase breakdown, indexed by shard id — attributes the
    /// wall-clock to step/collect/barrier per worker. Empty unless the
    /// run was profiled, so run statistics stay comparable across shard
    /// counts with `==`.
    pub shard_phases: Vec<PhaseNanos>,
    /// Aggregate metrics registry (present iff
    /// [`crate::EngineConfig::metrics`] was on). Deterministic content
    /// — the engine merges its per-shard registries commutatively, so
    /// this compares bit-identically across shard counts with `==`. It
    /// is where the per-kind message fates (`kind/`) and the
    /// control-plane words (`engine/control_words`, of which
    /// `engine/control_lost` were lost) are counted; words are not
    /// messages, so they count in neither `messages_sent` nor
    /// `deliveries`.
    pub metrics: Option<Box<MetricsRegistry>>,
    /// Per-round breakdown (present iff the engine was configured to
    /// collect it).
    pub per_round: Option<Vec<RoundStats>>,
}

/// Record one finished round's engine-level metrics, called once per
/// round from the single thread that owns the round's [`RoundStats`] —
/// that (plus the commutative shard merge for protocol-level updates) is
/// why the final registries are bit-identical across shard counts.
pub(crate) fn note_round_metrics(reg: &mut MetricsRegistry, rs: &RoundStats) {
    reg.inc("engine/rounds", 1);
    reg.inc("engine/messages_sent", rs.sent);
    reg.inc("engine/deliveries", rs.delivered);
    reg.inc("engine/node_steps", rs.active as u64);
    reg.observe("engine/msgs_per_round", rs.sent);
    reg.observe("engine/active_per_round", rs.active as u64);
    reg.gauge_max("engine/peak_active", rs.active as u64);
}

impl RunStats {
    /// Record one round's counters.
    pub(crate) fn push_round(&mut self, rs: RoundStats) {
        self.rounds = rs.round + 1;
        self.messages_sent += rs.sent;
        self.deliveries += rs.delivered;
        self.node_steps += rs.active as u64;
        if let Some(v) = self.per_round.as_mut() {
            v.push(rs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_round_accumulates() {
        let mut s = RunStats { per_round: Some(Vec::new()), ..Default::default() };
        s.push_round(RoundStats { round: 0, active: 5, done: 0, sent: 3, delivered: 6 });
        s.push_round(RoundStats { round: 1, active: 5, done: 5, sent: 2, delivered: 4 });
        assert_eq!(s.rounds, 2);
        assert_eq!(s.messages_sent, 5);
        assert_eq!(s.deliveries, 10);
        assert_eq!(s.node_steps, 10);
        assert_eq!(s.per_round.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn per_round_collection_is_optional() {
        let mut s = RunStats::default();
        s.push_round(RoundStats { round: 0, active: 1, done: 1, sent: 1, delivered: 1 });
        assert!(s.per_round.is_none());
        assert_eq!(s.rounds, 1);
    }
}
