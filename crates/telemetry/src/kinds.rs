//! Per-message-kind counters: the engine's one account of message fates.
//!
//! Each engine shard accumulates a [`KindTable`] while a round executes.
//! At the round boundary the table flushes the round's rows — as
//! [`crate::Event::MsgKind`] trace rows when the run is traced — and adds
//! them to its run totals, which land in the metrics registry as
//! `kind/<kind>/<fate>` counters ([`KindTable::record`]). Run reports
//! read them back with [`kind_totals`].

use std::collections::BTreeMap;

use crate::event::Event;
use crate::metrics::MetricsRegistry;

/// Counter totals for one message kind (within a round or across a run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindTotals {
    /// Messages sent (one per recipient for broadcasts).
    pub sent: u64,
    /// Copies delivered.
    pub delivered: u64,
    /// Copies dropped by the fault plan.
    pub dropped: u64,
    /// Copies corrupted in flight by the fault plan.
    pub corrupted: u64,
    /// Extra copies injected by the fault plan.
    pub duplicated: u64,
}

impl KindTotals {
    /// The fates by counter name, in a fixed order.
    pub fn fates(&self) -> [(&'static str, u64); 5] {
        [
            ("sent", self.sent),
            ("delivered", self.delivered),
            ("dropped", self.dropped),
            ("corrupted", self.corrupted),
            ("duplicated", self.duplicated),
        ]
    }

    /// The counter of fate `name` (as in [`KindTotals::fates`]).
    fn fate_mut(&mut self, name: &str) -> Option<&mut u64> {
        Some(match name {
            "sent" => &mut self.sent,
            "delivered" => &mut self.delivered,
            "dropped" => &mut self.dropped,
            "corrupted" => &mut self.corrupted,
            "duplicated" => &mut self.duplicated,
            _ => return None,
        })
    }

    /// Add `other` field by field.
    pub fn add(&mut self, other: &KindTotals) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.corrupted += other.corrupted;
        self.duplicated += other.duplicated;
    }
}

/// A tiny table of kind → totals for the current round and the run so
/// far. Protocols declare a handful of kinds at most, so lookup is a
/// linear scan; rows are created on first use and kept across rounds.
#[derive(Clone, Debug, Default)]
pub struct KindTable {
    /// `(kind, this round, earlier rounds)`.
    rows: Vec<(&'static str, KindTotals, KindTotals)>,
}

impl KindTable {
    /// Fresh empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The (mutable) current-round totals for `kind`, created zeroed on
    /// first use.
    pub fn row(&mut self, kind: &'static str) -> &mut KindTotals {
        // `position` + index instead of `iter_mut().find` keeps the
        // borrow checker happy across the push in the miss path.
        match self.rows.iter().position(|(k, ..)| *k == kind) {
            Some(i) => &mut self.rows[i].1,
            None => {
                self.rows.push((kind, KindTotals::default(), KindTotals::default()));
                &mut self.rows.last_mut().unwrap().1
            }
        }
    }

    /// End the round: hand each non-empty row to `emit` as an
    /// [`Event::MsgKind`] for `round`, sorted by kind name (the canonical
    /// order), add it to the run totals and zero it.
    pub fn flush(&mut self, round: u64, mut emit: impl FnMut(Event)) {
        self.rows.sort_by_key(|(k, ..)| *k);
        for (kind, t, run) in &mut self.rows {
            if *t != KindTotals::default() {
                emit(Event::MsgKind {
                    round,
                    kind,
                    sent: t.sent,
                    delivered: t.delivered,
                    dropped: t.dropped,
                    corrupted: t.corrupted,
                    duplicated: t.duplicated,
                });
                run.add(t);
                *t = KindTotals::default();
            }
        }
    }

    /// Add the flushed run totals to `reg` as `kind/<kind>/<fate>`
    /// counters. Only nonzero values are written, so the merged registry
    /// of any shard split has the same keys.
    pub fn record(&self, reg: &mut MetricsRegistry) {
        for (kind, _, run) in &self.rows {
            for (fate, v) in run.fates() {
                if v > 0 {
                    reg.inc(format!("kind/{kind}/{fate}"), v);
                }
            }
        }
    }
}

/// The per-kind totals a registry holds in its `kind/` counters, by
/// kind name. A fate with no counter is 0.
pub fn kind_totals(reg: &MetricsRegistry) -> BTreeMap<&str, KindTotals> {
    let mut out: BTreeMap<&str, KindTotals> = BTreeMap::new();
    for (name, v) in reg.counters() {
        let Some((kind, fate)) = name.strip_prefix("kind/").and_then(|s| s.rsplit_once('/')) else {
            continue;
        };
        if let Some(slot) = out.entry(kind).or_default().fate_mut(fate) {
            *slot += v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_accumulate_and_flush_sorted_then_reset() {
        let mut t = KindTable::new();
        t.row("invite").sent += 2;
        t.row("accept").sent += 1;
        t.row("invite").delivered += 2;
        let mut out = Vec::new();
        t.flush(7, |ev| out.push(ev));
        assert_eq!(
            out,
            vec![
                Event::MsgKind {
                    round: 7,
                    kind: "accept",
                    sent: 1,
                    delivered: 0,
                    dropped: 0,
                    corrupted: 0,
                    duplicated: 0,
                },
                Event::MsgKind {
                    round: 7,
                    kind: "invite",
                    sent: 2,
                    delivered: 2,
                    dropped: 0,
                    corrupted: 0,
                    duplicated: 0,
                },
            ]
        );
        let mut again = Vec::new();
        t.flush(8, |ev| again.push(ev));
        assert!(again.is_empty(), "rows are zeroed after a flush");
    }

    #[test]
    fn run_totals_reach_the_registry_nonzero_only_and_read_back() {
        let mut t = KindTable::new();
        t.row("invite").sent += 2;
        t.row("invite").delivered += 1;
        t.row("invite").dropped += 1;
        t.flush(0, |_| {});
        t.row("invite").sent += 3;
        t.row("invite").delivered += 3;
        // Not flushed yet: not part of the run totals.
        t.row("accept").sent += 1;
        let mut reg = MetricsRegistry::new();
        t.record(&mut reg);
        let names: Vec<&str> = reg.counters().map(|(k, _)| k).collect();
        assert_eq!(names, ["kind/invite/delivered", "kind/invite/dropped", "kind/invite/sent"]);
        t.flush(1, |_| {});
        let mut reg = MetricsRegistry::new();
        t.record(&mut reg);
        reg.inc("engine/rounds", 2);
        let totals = kind_totals(&reg);
        assert_eq!(totals.keys().copied().collect::<Vec<_>>(), ["accept", "invite"]);
        assert_eq!(
            totals["invite"],
            KindTotals { sent: 5, delivered: 4, dropped: 1, corrupted: 0, duplicated: 0 }
        );
        assert_eq!(totals["accept"], KindTotals { sent: 1, ..KindTotals::default() });
    }
}
