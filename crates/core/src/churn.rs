//! Churn-run reporting: per-batch repair metrics assembled from the
//! engine's per-round statistics.
//!
//! The event side of the dynamic-topology subsystem lives in
//! [`dima_sim::churn`] (re-exported here for convenience); this module
//! holds what the *algorithms* add on top — the result types returned by
//! [`crate::edge_coloring::color_edges_churn`] and
//! [`crate::strong_coloring::strong_color_churn`], and the
//! [`BatchReport`]s that quantify each repair: how many edges the batch
//! dirtied and how many communication rounds the automata needed to
//! converge back to quiescence.
//!
//! There is no separate static path: a static run is a churn run with
//! [`ChurnSchedule::empty`]. Each algorithm has one body, which the
//! static entry points ([`crate::color_edges`],
//! [`crate::strong_color_digraph`]) and the churn entry points share,
//! and every run reaches the engine through the crate's one runner. So
//! a churn call with an empty schedule is exactly the static call: it
//! accepts the reliable transport (only a non-empty schedule needs the
//! bare one) and yields no batch reports.

pub use dima_sim::churn::{
    ChurnBatch, ChurnEvent, ChurnKinds, ChurnPlan, ChurnSchedule, NeighborhoodChange,
};

use dima_graph::{Digraph, Graph};
use dima_sim::RunStats;

use crate::edge_coloring::EdgeColoringResult;
use crate::palette::Color;
use crate::strong_coloring::StrongColoringResult;

/// What one churn batch cost the protocol to repair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchReport {
    /// The communication round the batch fired at.
    pub round: u64,
    /// Primitive events in the batch.
    pub events: usize,
    /// Edges touched by the batch's net diff (see
    /// [`ChurnBatch::dirty_edges`]).
    pub dirty_edges: usize,
    /// Nodes that (re)joined.
    pub joins: usize,
    /// Nodes that left.
    pub leaves: usize,
    /// Communication rounds from the batch firing until every node was
    /// parked again (quiescence). `None` if the next batch fired before
    /// the repair converged — its cost is then folded into that batch's
    /// window.
    pub repair_rounds: Option<u64>,
}

/// Derive per-batch repair costs from the run's per-round breakdown.
///
/// Quiescence is detected as the first round in the batch's window (from
/// its firing round up to the next batch, or the end of the run) where no
/// node executed. A run under a non-empty schedule always collects
/// per-round stats, so the window scan cannot miss.
pub(crate) fn batch_reports(schedule: &ChurnSchedule, stats: &RunStats) -> Vec<BatchReport> {
    let per_round = stats.per_round.as_deref().unwrap_or(&[]);
    let batches = schedule.batches();
    batches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let window_end =
                batches.get(i + 1).map_or(stats.rounds, |next| next.round.min(stats.rounds));
            let quiesced = per_round
                .iter()
                .filter(|rs| rs.round >= b.round && rs.round < window_end)
                .find(|rs| rs.active == 0)
                .map(|rs| rs.round - b.round);
            // The run terminates the moment the last node parks, so the
            // final batch's quiescent round never appears in per_round:
            // the end of the run is its quiescence point.
            let repair_rounds = quiesced.or_else(|| {
                (i + 1 == batches.len() && stats.rounds >= b.round).then(|| stats.rounds - b.round)
            });
            BatchReport {
                round: b.round,
                events: b.events.len(),
                dirty_edges: b.dirty_edges(),
                joins: b.joins.len(),
                leaves: b.leaves.len(),
                repair_rounds,
            }
        })
        .collect()
}

/// The outcome of [`crate::edge_coloring::color_edges_churn`].
#[derive(Clone, Debug)]
pub struct ChurnColoringResult {
    /// The final coloring, assembled against [`Self::final_graph`]. Its
    /// round and message statistics cover the *whole* run, including all
    /// repairs.
    pub coloring: EdgeColoringResult,
    /// The topology after the last batch.
    pub final_graph: Graph,
    /// Per-batch repair metrics, in firing order.
    pub batches: Vec<BatchReport>,
}

impl ChurnColoringResult {
    /// Fraction of the final graph's edges whose color differs from
    /// `baseline` (a same-seed static run on the final graph, say) —
    /// the stability metric the churn experiments report. Edges uncolored
    /// on either side count as differing; an edgeless graph yields 0.
    pub fn recolored_fraction(&self, baseline: &[Option<Color>]) -> f64 {
        recolored_fraction(&self.coloring.colors, baseline)
    }
}

/// The outcome of [`crate::strong_coloring::strong_color_churn`].
#[derive(Clone, Debug)]
pub struct ChurnStrongResult {
    /// The final strong coloring, assembled against
    /// [`Self::final_digraph`].
    pub coloring: StrongColoringResult,
    /// The undirected topology after the last batch.
    pub final_graph: Graph,
    /// The symmetric closure of [`Self::final_graph`] the coloring is
    /// indexed by.
    pub final_digraph: Digraph,
    /// Per-batch repair metrics, in firing order.
    pub batches: Vec<BatchReport>,
}

/// Shared stability metric: fraction of positions that differ between two
/// colorings of equal length (`None` on either side counts as differing
/// unless both are `None`).
fn recolored_fraction(a: &[Option<Color>], b: &[Option<Color>]) -> f64 {
    assert_eq!(a.len(), b.len(), "colorings index the same edge set");
    if a.is_empty() {
        return 0.0;
    }
    let differing = a.iter().zip(b).filter(|(x, y)| x != y).count();
    differing as f64 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dima_sim::RoundStats;

    fn schedule_with_rounds(g: &Graph, rounds: &[u64]) -> ChurnSchedule {
        // Build a real schedule, then check the helper against its
        // batches; rate 0 would be empty, so use a tiny links-only plan
        // with the requested cadence.
        assert!(!rounds.is_empty());
        let every = if rounds.len() > 1 { rounds[1] - rounds[0] } else { 3 };
        let plan = ChurnPlan {
            kinds: ChurnKinds::links_only(),
            batches: rounds.len(),
            first_round: rounds[0],
            every,
            ..ChurnPlan::new(1, 0.2)
        };
        let s = ChurnSchedule::generate(g, &plan);
        assert_eq!(s.batches().iter().map(|b| b.round).collect::<Vec<_>>(), rounds, "plan cadence");
        s
    }

    fn stats_with_active(active: &[usize]) -> RunStats {
        RunStats {
            rounds: active.len() as u64,
            per_round: Some(
                active
                    .iter()
                    .enumerate()
                    .map(|(r, &a)| RoundStats { round: r as u64, active: a, ..Default::default() })
                    .collect(),
            ),
            ..Default::default()
        }
    }

    #[test]
    fn repair_rounds_find_first_quiescent_round() {
        let g = dima_graph::gen::structured::cycle(12);
        let schedule = schedule_with_rounds(&g, &[3, 9]);
        // Rounds:      0  1  2  3  4  5  6  7  8  9 10 11
        let active = [12, 12, 12, 4, 4, 0, 0, 0, 0, 6, 6, 1];
        let reports = batch_reports(&schedule, &stats_with_active(&active));
        assert_eq!(reports.len(), 2);
        // Batch at round 3: first inactive round in [3, 9) is 5 → 2.
        assert_eq!(reports[0].repair_rounds, Some(2));
        // Final batch at round 9: run ends at round 12 → 3.
        assert_eq!(reports[1].repair_rounds, Some(3));
    }

    #[test]
    fn unconverged_window_reports_none() {
        let g = dima_graph::gen::structured::cycle(12);
        let schedule = schedule_with_rounds(&g, &[2, 5]);
        // No inactive round in [2, 5): the first repair never converged.
        let active = [12, 12, 3, 3, 3, 7, 7, 1];
        let reports = batch_reports(&schedule, &stats_with_active(&active));
        assert_eq!(reports[0].repair_rounds, None);
        assert_eq!(reports[1].repair_rounds, Some(3));
    }

    #[test]
    fn recolored_fraction_counts_mismatches() {
        let a = vec![Some(Color(0)), Some(Color(1)), None, Some(Color(2))];
        let b = vec![Some(Color(0)), Some(Color(2)), None, None];
        assert_eq!(recolored_fraction(&a, &b), 0.5);
        assert_eq!(recolored_fraction(&[], &[]), 0.0);
    }
}
