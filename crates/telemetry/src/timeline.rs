//! [`StateTimeline`]: a bounded-memory aggregating sink that turns the
//! event stream into per-round automata-state censuses, matching /
//! colored-edge progress, and a color histogram.
//!
//! Memory is `O(n + rounds · |states| + colors)` — independent of the
//! message volume — so the timeline is safe to attach to long runs
//! where buffering raw events would not be.

use crate::event::{Event, PaletteAction};
use crate::tracer::Tracer;
use std::collections::BTreeMap;

/// Canonical automata state order (the paper's states plus a catch-all
/// for unknown labels).
pub const STATES: [&str; 9] = ["C", "I", "L", "R", "W", "U", "E", "D", "?"];

fn state_slot(label: &str) -> usize {
    STATES.iter().position(|s| *s == label).unwrap_or(STATES.len() - 1)
}

/// One engine round's aggregate view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundSnapshot {
    /// Engine round.
    pub round: u64,
    /// Nodes per automata state, indexed like [`STATES`]. Counts cover
    /// *all* nodes: done/parked nodes keep their last label.
    pub census: [u32; 9],
    /// Cumulative matched pairs (palette commits counted once per edge,
    /// at the smaller-id endpoint).
    pub matched_pairs: u64,
    /// Cumulative colored edges/arcs net of releases.
    pub colored_edges: u64,
    /// Nodes that executed this round.
    pub active: u64,
    /// Nodes done after this round.
    pub done: u64,
}

impl RoundSnapshot {
    /// Nodes in `state` (by label) this round.
    pub fn count(&self, state: &str) -> u32 {
        self.census[state_slot(state)]
    }

    /// The census as `(label, count)` pairs over non-empty states, in
    /// canonical order.
    pub fn states(&self) -> impl Iterator<Item = (&'static str, u32)> + '_ {
        STATES.iter().zip(self.census).filter(|&(_, c)| c > 0).map(|(&s, c)| (s, c))
    }
}

/// Aggregating tracer: per-round state census + progress + palette
/// histogram. Node labels carry forward between transitions (a done
/// node keeps `"D"` until churn says otherwise), so every snapshot
/// covers all `n` nodes.
#[derive(Clone, Debug)]
pub struct StateTimeline {
    labels: Vec<&'static str>,
    rounds: Vec<RoundSnapshot>,
    matched_pairs: u64,
    colored_edges: u64,
    /// Commits per color over the whole run (releases subtract).
    histogram: BTreeMap<u32, i64>,
    /// High-water mark of distinct in-use colors — a Kempe compaction
    /// pass shows up as `peak_colors > colors_used` at the end.
    peak_colors: usize,
    /// Palette proposals that the responder rejected.
    pub conflicts: u64,
    /// Last protocol round in which each node changed state, and the
    /// label it changed to — the raw material of "top-k slowest nodes".
    last_transition: Vec<(u64, &'static str)>,
}

impl StateTimeline {
    /// Timeline over `n` nodes, all starting in the churn/creation
    /// state `"C"`.
    pub fn new(n: usize) -> Self {
        StateTimeline {
            labels: vec!["C"; n],
            rounds: Vec::new(),
            matched_pairs: 0,
            colored_edges: 0,
            histogram: BTreeMap::new(),
            peak_colors: 0,
            conflicts: 0,
            last_transition: vec![(0, "C"); n],
        }
    }

    /// Per-round snapshots, in round order (idle-skipped rounds produce
    /// no snapshot).
    pub fn rounds(&self) -> &[RoundSnapshot] {
        &self.rounds
    }

    /// Final cumulative matched pairs.
    pub fn matched_pairs(&self) -> u64 {
        self.matched_pairs
    }

    /// Final cumulative colored edges (net of releases).
    pub fn colored_edges(&self) -> u64 {
        self.colored_edges
    }

    /// `(color, net commits)` rows of the color histogram, ascending.
    pub fn color_histogram(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.histogram.iter().filter(|&(_, &c)| c > 0).map(|(&color, &c)| (color, c as u64))
    }

    /// Distinct colors with a net-positive commit count.
    pub fn colors_used(&self) -> usize {
        self.histogram.values().filter(|&&c| c > 0).count()
    }

    /// High-water mark of [`colors_used`](Self::colors_used) across the
    /// run. Exceeds the final count exactly when colors were later
    /// vacated — by fault-induced releases or by the Kempe post-pass.
    pub fn peak_colors(&self) -> usize {
        self.peak_colors
    }

    /// The `k` nodes that kept transitioning longest, as
    /// `(node, last transition round, final label)`, slowest first.
    /// Nodes never reaching `"D"` sort before nodes that did.
    pub fn slowest_nodes(&self, k: usize) -> Vec<(u32, u64, &'static str)> {
        let mut rows: Vec<(u32, u64, &'static str)> =
            self.last_transition.iter().enumerate().map(|(v, &(r, l))| (v as u32, r, l)).collect();
        rows.sort_by_key(|&(v, r, l)| (l == "D", std::cmp::Reverse(r), v));
        rows.truncate(k);
        rows
    }
}

impl Tracer for StateTimeline {
    fn emit(&mut self, ev: Event) {
        match ev {
            Event::State { round, node, label, .. } => {
                if let Some(slot) = self.labels.get_mut(node as usize) {
                    *slot = label;
                    self.last_transition[node as usize] = (round, label);
                }
            }
            Event::Palette { node, action, color, peer, .. } => match action {
                PaletteAction::Committed => {
                    if node < peer {
                        self.matched_pairs += 1;
                        self.colored_edges += 1;
                        *self.histogram.entry(color).or_insert(0) += 1;
                        self.peak_colors = self.peak_colors.max(self.colors_used());
                    }
                }
                PaletteAction::Released => {
                    if node < peer {
                        self.colored_edges = self.colored_edges.saturating_sub(1);
                        *self.histogram.entry(color).or_insert(0) -= 1;
                    }
                }
                PaletteAction::Conflicted => self.conflicts += 1,
                PaletteAction::Proposed => {}
            },
            Event::Round { round, active, done, .. } => {
                let mut census = [0u32; 9];
                for l in &self.labels {
                    census[state_slot(l)] += 1;
                }
                self.rounds.push(RoundSnapshot {
                    round,
                    census,
                    matched_pairs: self.matched_pairs,
                    colored_edges: self.colored_edges,
                    active,
                    done,
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(round: u64, node: u32, label: &'static str) -> Event {
        Event::State { round, node, label, reason: "t" }
    }

    fn commit(node: u32, peer: u32, color: u32) -> Event {
        Event::Palette { round: 0, node, action: PaletteAction::Committed, color, peer }
    }

    fn round(round: u64, active: u64, done: u64) -> Event {
        Event::Round { round, active, done, sent: 0, delivered: 0 }
    }

    #[test]
    fn census_carries_labels_forward() {
        let mut t = StateTimeline::new(3);
        t.emit(state(0, 0, "I"));
        t.emit(state(0, 1, "L"));
        t.emit(round(0, 3, 0));
        t.emit(state(1, 0, "D"));
        t.emit(round(1, 3, 1));
        assert_eq!(t.rounds()[0].count("I"), 1);
        assert_eq!(t.rounds()[0].count("L"), 1);
        assert_eq!(t.rounds()[0].count("C"), 1, "untouched node keeps its initial label");
        assert_eq!(t.rounds()[1].count("D"), 1);
        assert_eq!(t.rounds()[1].count("L"), 1, "labels persist across rounds");
        assert_eq!(t.rounds()[1].census.iter().sum::<u32>(), 3);
        t.emit(state(2, 2, "weird"));
        t.emit(round(2, 3, 1));
        assert_eq!(t.rounds()[2].count("?"), 1, "unknown labels land in the catch-all");
    }

    #[test]
    fn commits_count_once_per_edge_and_releases_subtract() {
        let mut t = StateTimeline::new(4);
        t.emit(commit(1, 2, 5)); // counted (1 < 2)
        t.emit(commit(2, 1, 5)); // other endpoint: not counted
        t.emit(commit(0, 3, 6));
        t.emit(Event::Palette {
            round: 1,
            node: 0,
            action: PaletteAction::Released,
            color: 6,
            peer: 3,
        });
        assert_eq!(t.matched_pairs(), 2);
        assert_eq!(t.colored_edges(), 1);
        assert_eq!(t.colors_used(), 1);
        assert_eq!(t.peak_colors(), 2);
        assert_eq!(t.color_histogram().collect::<Vec<_>>(), vec![(5, 1)]);
    }

    #[test]
    fn slowest_nodes_rank_unfinished_first() {
        let mut t = StateTimeline::new(3);
        t.emit(state(4, 0, "D"));
        t.emit(state(9, 1, "D"));
        t.emit(state(2, 2, "W"));
        let slow = t.slowest_nodes(2);
        assert_eq!(slow[0], (2, 2, "W"), "never-done node is slowest");
        assert_eq!(slow[1], (1, 9, "D"));
    }
}
