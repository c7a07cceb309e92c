//! Run observation: per-round state censuses over the executing protocol
//! population.
//!
//! The paper's Figure 1 is a state machine; watching how the node
//! population distributes over its states round by round is the most
//! direct way to see the automata working (and to debug a protocol that
//! stalls). Protocols opt in by implementing [`StateLabel`]; the census
//! is folded from a [`dima_telemetry::StateTimeline`] or read round by
//! round off [`crate::Stepper::view`].

use std::collections::BTreeMap;

/// A protocol whose nodes can name their current automata state.
pub trait StateLabel {
    /// A short, static label for the node's state after the current
    /// round (for the DiMa automata: `C`, `I`, `L`, `R`, `W`, `U`, `E`,
    /// `D`).
    fn state_label(&self) -> &'static str;
}

/// Per-round histogram of node states.
#[derive(Clone, Debug, Default)]
pub struct StateCensus {
    rounds: Vec<BTreeMap<&'static str, usize>>,
}

impl StateCensus {
    /// An empty census.
    pub fn new() -> Self {
        StateCensus::default()
    }

    /// Record the state labels of every live node after a round.
    pub fn record<'a>(&mut self, labels: impl Iterator<Item = &'a str>) {
        let mut hist: BTreeMap<&'static str, usize> = BTreeMap::new();
        for l in labels {
            // Labels are &'static str by the trait contract; the map key
            // uses the static lifetime via the small fixed vocabulary.
            let key: &'static str = match l {
                "C" => "C",
                "I" => "I",
                "L" => "L",
                "R" => "R",
                "W" => "W",
                "U" => "U",
                "E" => "E",
                "D" => "D",
                _ => "?",
            };
            *hist.entry(key).or_default() += 1;
        }
        self.rounds.push(hist);
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Count of nodes in `state` at `round` (0 if absent).
    pub fn count(&self, round: usize, state: &str) -> usize {
        self.rounds.get(round).and_then(|h| h.get(state)).copied().unwrap_or(0)
    }

    /// Render as an aligned table: one row per round, one column per
    /// state observed anywhere.
    pub fn render(&self) -> String {
        let mut states: Vec<&'static str> = Vec::new();
        for h in &self.rounds {
            for &s in h.keys() {
                if !states.contains(&s) {
                    states.push(s);
                }
            }
        }
        // Canonical automata ordering where applicable.
        let order = ["C", "I", "L", "R", "W", "U", "E", "D", "?"];
        states.sort_by_key(|s| order.iter().position(|o| o == s).unwrap_or(order.len()));
        let mut out = String::new();
        out.push_str("round");
        for s in &states {
            out.push_str(&format!(" {s:>6}"));
        }
        out.push('\n');
        for (r, h) in self.rounds.iter().enumerate() {
            out.push_str(&format!("{r:>5}"));
            for s in &states {
                out.push_str(&format!(" {:>6}", h.get(s).copied().unwrap_or(0)));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut c = StateCensus::new();
        c.record(["I", "L", "L", "D"].into_iter());
        c.record(["R", "W"].into_iter());
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.count(0, "L"), 2);
        assert_eq!(c.count(0, "I"), 1);
        assert_eq!(c.count(1, "R"), 1);
        assert_eq!(c.count(1, "L"), 0);
        assert_eq!(c.count(9, "L"), 0);
    }

    #[test]
    fn unknown_labels_bucketed() {
        let mut c = StateCensus::new();
        c.record(["weird"].into_iter());
        assert_eq!(c.count(0, "?"), 1);
    }

    #[test]
    fn render_orders_states_canonically() {
        let mut c = StateCensus::new();
        c.record(["D", "C", "E"].into_iter());
        let s = c.render();
        let header = s.lines().next().unwrap();
        let c_pos = header.find(" C").unwrap();
        let e_pos = header.find(" E").unwrap();
        let d_pos = header.find(" D").unwrap();
        assert!(c_pos < e_pos && e_pos < d_pos, "{header}");
        assert!(s.lines().nth(1).unwrap().starts_with("    0"));
    }
}
