//! Wall-clock phase timers around the engines' stage boundaries.
//!
//! Profiling is off by default (`EngineConfig::profile`) so that
//! [`PhaseNanos`] stays all-zero and run statistics remain comparable
//! across engines with `==` (the bit-identity tests rely on it).

use std::time::Instant;

/// Nanoseconds spent per engine stage over a whole run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Applying churn batches (topology swap + node re-seeding).
    pub churn: u64,
    /// Stepping protocol state machines, including depositing each
    /// delivery in place into the mail grid.
    pub step: u64,
    /// Collecting/delivering messages into inbox arenas.
    pub collect: u64,
    /// Waiting at the engine's round barriers — the imbalance signal: a
    /// shard with large `barrier` relative to its `step` finished early
    /// and idled. Near 0 on one shard, whose barriers return at once.
    pub barrier: u64,
}

impl PhaseNanos {
    /// Sum of all stages (barrier wait included — it is wall-clock the
    /// worker spent, just not useful work).
    pub fn total(&self) -> u64 {
        self.churn + self.step + self.collect + self.barrier
    }

    /// Accumulate another reading (used to fold per-worker profiles).
    pub fn add(&mut self, other: PhaseNanos) {
        self.churn += other.churn;
        self.step += other.step;
        self.collect += other.collect;
        self.barrier += other.barrier;
    }
}

/// A started (or disabled) stage timer. Not RAII: the engine explicitly
/// stops it into the counter for the stage that just ended, which keeps
/// the borrow of the counters out of the hot loop.
#[derive(Clone, Copy, Debug)]
pub struct ProfileScope {
    start: Option<Instant>,
}

impl ProfileScope {
    /// Start timing if `enabled`; otherwise a free no-op.
    pub fn start(enabled: bool) -> Self {
        ProfileScope { start: enabled.then(Instant::now) }
    }

    /// Add the elapsed time to `slot` (no-op when disabled).
    pub fn stop_into(self, slot: &mut u64) {
        if let Some(t) = self.start {
            *slot += t.elapsed().as_nanos() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_scope_records_nothing() {
        let mut slot = 0u64;
        ProfileScope::start(false).stop_into(&mut slot);
        assert_eq!(slot, 0);
    }

    #[test]
    fn enabled_scope_accumulates() {
        let mut p = PhaseNanos::default();
        ProfileScope::start(true).stop_into(&mut p.step);
        ProfileScope::start(true).stop_into(&mut p.step);
        assert!(p.total() == p.step);
        let mut q = PhaseNanos::default();
        q.add(p);
        assert_eq!(q, p);
    }
}
