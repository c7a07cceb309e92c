//! The structured event taxonomy of the telemetry plane, plus the
//! deterministic merge used by the sharded engine.
//!
//! Every event is a small `Copy` value built exclusively from integers
//! and `&'static str` labels: emitting one never allocates, and a
//! buffered trace can be compared bit-for-bit across engines.
//!
//! ## Deterministic ordering
//!
//! A trace is a sequence of events; two runs are *trace-equal* when the
//! sequences match element-wise. The engine buffers events per shard
//! worker and merges them at each round boundary, normalized to the
//! same canonical key for every shard count, per engine round:
//!
//! 1. class 0 — the round's [`Event::Churn`] batch summary (if any),
//! 2. class 1 — node events ([`Event::State`], [`Event::Palette`],
//!    [`Event::Arq`]) in increasing node id, preserving each node's own
//!    emission order,
//! 3. class 2 — per-message-kind counters ([`Event::MsgKind`]) in
//!    lexicographic kind order, partial shard rows summed,
//! 4. class 3 — the round footer ([`Event::Round`]).
//!
//! Node events under the reliable transport carry the *inner* protocol
//! round in their `round` field (that is the round the protocol logic
//! observed), so the merge key cannot be derived from the event alone;
//! the engines stamp each buffered event with the engine round and node
//! id at emission time ([`Stamped`]).

/// What happened to a color in a palette negotiation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PaletteAction {
    /// An invitor proposed the color to a neighbor.
    Proposed,
    /// An endpoint committed the color on an incident edge/arc. For the
    /// plain matching protocol the "color" is 0 and the event marks the
    /// pairing itself.
    Committed,
    /// A previously committed color was released (churn repair).
    Released,
    /// A proposed color was rejected by the responder (unusable there,
    /// or collided with an overheard competing proposal).
    Conflicted,
}

impl PaletteAction {
    /// Lowercase wire name, as written to JSONL traces.
    pub fn name(self) -> &'static str {
        match self {
            PaletteAction::Proposed => "proposed",
            PaletteAction::Committed => "committed",
            PaletteAction::Released => "released",
            PaletteAction::Conflicted => "conflicted",
        }
    }
}

/// Reliable-transport (ARQ) link events.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArqEventKind {
    /// A data bundle was sent again: a control word showed it lost.
    Retransmit,
    /// The link was declared dead after prolonged silence from the peer.
    LinkDownSilent,
}

impl ArqEventKind {
    /// Lowercase wire name, as written to JSONL traces.
    pub fn name(self) -> &'static str {
        match self {
            ArqEventKind::Retransmit => "retransmit",
            ArqEventKind::LinkDownSilent => "link-down-silent",
        }
    }
}

/// One structured telemetry event.
///
/// `round` on node events is the round *as seen by the emitting
/// protocol* — under the reliable transport that is the inner protocol
/// round, which can lag the engine round. Engine-level events
/// ([`Event::Churn`], [`Event::MsgKind`], [`Event::Round`]) always carry
/// the engine round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A node's automata state after (part of) a round, with the reason
    /// for entering it.
    State {
        /// Protocol-visible round of the transition.
        round: u64,
        /// Emitting node id.
        node: u32,
        /// Automata state label (`"C"`, `"I"`, `"L"`, `"W"`, `"R"`,
        /// `"U"`, `"E"`, `"D"`).
        label: &'static str,
        /// Why the state was entered (e.g. `"coin"`, `"paired"`,
        /// `"all-colored"`).
        reason: &'static str,
    },
    /// A palette negotiation step at one endpoint.
    Palette {
        /// Protocol-visible round.
        round: u64,
        /// Emitting node id.
        node: u32,
        /// What happened to the color.
        action: PaletteAction,
        /// The color (0 for the plain matching protocol).
        color: u32,
        /// The neighbor on the other end of the edge/arc.
        peer: u32,
    },
    /// A reliable-transport link event.
    Arq {
        /// Engine round (ARQ logic runs on engine rounds).
        round: u64,
        /// Emitting node id.
        node: u32,
        /// What happened on the link.
        kind: ArqEventKind,
        /// The link's peer.
        peer: u32,
    },
    /// A churn batch was applied at the start of this round.
    Churn {
        /// Engine round the batch took effect in.
        round: u64,
        /// Nodes that joined.
        joins: u32,
        /// Nodes that left.
        leaves: u32,
        /// Surviving nodes whose neighborhood changed.
        changes: u32,
    },
    /// Per-message-kind counters for one engine round (message fates
    /// are attributed to the *sender's* round).
    MsgKind {
        /// Engine round.
        round: u64,
        /// Protocol-declared message kind (see `Protocol::kind_of`).
        kind: &'static str,
        /// Messages of this kind sent (per-recipient for broadcasts).
        sent: u64,
        /// Copies delivered.
        delivered: u64,
        /// Copies dropped by the fault plan.
        dropped: u64,
        /// Copies corrupted by the fault plan.
        corrupted: u64,
        /// Extra copies injected by the fault plan.
        duplicated: u64,
    },
    /// Round footer: engine-wide totals after every node stepped.
    Round {
        /// Engine round.
        round: u64,
        /// Nodes that executed this round.
        active: u64,
        /// Nodes done after this round.
        done: u64,
        /// Messages sent this round.
        sent: u64,
        /// Messages delivered this round.
        delivered: u64,
    },
}

impl Event {
    /// Canonical within-round ordering class (see the module docs).
    pub fn class(&self) -> u8 {
        match self {
            Event::Churn { .. } => 0,
            Event::State { .. } | Event::Palette { .. } | Event::Arq { .. } => 1,
            Event::MsgKind { .. } => 2,
            Event::Round { .. } => 3,
        }
    }

    /// The emitting node for node events, 0 otherwise (engine-level
    /// events never share a sort class with node events).
    pub fn node(&self) -> u32 {
        match *self {
            Event::State { node, .. } | Event::Palette { node, .. } | Event::Arq { node, .. } => {
                node
            }
            _ => 0,
        }
    }

    /// Message-kind name for [`Event::MsgKind`], `""` otherwise.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Event::MsgKind { kind, .. } => kind,
            _ => "",
        }
    }
}

/// An event stamped with its *engine* round and emitting node, as
/// buffered by the engine's shard workers. The stamp — not the
/// event's own `round` field — drives the deterministic merge, because
/// node events under the reliable transport carry inner rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stamped {
    /// Engine round the event was emitted in.
    pub round: u64,
    /// Emitting node (0 for engine-level events).
    pub node: u32,
    /// The event itself.
    pub ev: Event,
}

impl Stamped {
    fn key(&self) -> (u64, u8, u32, &'static str) {
        (self.round, self.ev.class(), self.node, self.ev.kind_name())
    }
}

/// Merge per-worker event buffers into the canonical order.
///
/// `shards` must be passed in worker (thread) order; each worker's
/// buffer is already in that worker's emission order, and workers own
/// contiguous node ranges, so a stable sort by the canonical key
/// reproduces exactly the order a one-shard run emits in.
/// Adjacent [`Event::MsgKind`] partial rows from different workers with
/// equal `(round, kind)` are summed into one row.
pub fn merge_shards(shards: Vec<Vec<Stamped>>) -> Vec<Event> {
    let mut all: Vec<Stamped> = shards.into_iter().flatten().collect();
    all.sort_by(|a, b| a.key().cmp(&b.key()));
    let mut out: Vec<Event> = Vec::with_capacity(all.len());
    for s in all {
        if let Event::MsgKind { round: _, kind, sent, delivered, dropped, corrupted, duplicated } =
            s.ev
        {
            if let Some(Event::MsgKind {
                round: pr,
                kind: pk,
                sent: ps,
                delivered: pd,
                dropped: pdr,
                corrupted: pc,
                duplicated: pdu,
            }) = out.last_mut()
            {
                if *pr == s.round && *pk == kind {
                    *ps += sent;
                    *pd += delivered;
                    *pdr += dropped;
                    *pc += corrupted;
                    *pdu += duplicated;
                    continue;
                }
            }
        }
        out.push(s.ev);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(round: u64, node: u32) -> Stamped {
        Stamped { round, node, ev: Event::State { round, node, label: "I", reason: "coin" } }
    }

    fn mk(round: u64, kind: &'static str, sent: u64) -> Stamped {
        Stamped {
            round,
            node: 0,
            ev: Event::MsgKind {
                round,
                kind,
                sent,
                delivered: sent,
                dropped: 0,
                corrupted: 0,
                duplicated: 0,
            },
        }
    }

    #[test]
    fn merge_orders_rounds_then_classes_then_nodes() {
        let round_ev = Stamped {
            round: 0,
            node: 0,
            ev: Event::Round { round: 0, active: 2, done: 0, sent: 2, delivered: 0 },
        };
        let churn_ev = Stamped {
            round: 0,
            node: 0,
            ev: Event::Churn { round: 0, joins: 1, leaves: 0, changes: 0 },
        };
        // Worker 0 owns node 0, worker 1 owns node 5; engine events from
        // worker 0 (tid 0).
        let merged =
            merge_shards(vec![vec![churn_ev, st(0, 0), round_ev, st(1, 0)], vec![st(0, 5)]]);
        assert_eq!(merged, vec![churn_ev.ev, st(0, 0).ev, st(0, 5).ev, round_ev.ev, st(1, 0).ev]);
    }

    #[test]
    fn merge_sums_msgkind_partials_and_sorts_kinds() {
        let merged = merge_shards(vec![
            vec![mk(0, "invite", 3), mk(0, "accept", 1)],
            vec![mk(0, "invite", 2)],
        ]);
        assert_eq!(
            merged,
            vec![
                Event::MsgKind {
                    round: 0,
                    kind: "accept",
                    sent: 1,
                    delivered: 1,
                    dropped: 0,
                    corrupted: 0,
                    duplicated: 0,
                },
                Event::MsgKind {
                    round: 0,
                    kind: "invite",
                    sent: 5,
                    delivered: 5,
                    dropped: 0,
                    corrupted: 0,
                    duplicated: 0,
                },
            ]
        );
    }

    #[test]
    fn merge_preserves_per_node_emission_order() {
        let a = Stamped {
            round: 0,
            node: 3,
            ev: Event::State { round: 0, node: 3, label: "W", reason: "invited" },
        };
        let b = Stamped {
            round: 0,
            node: 3,
            ev: Event::Palette {
                round: 0,
                node: 3,
                action: PaletteAction::Committed,
                color: 2,
                peer: 4,
            },
        };
        let merged = merge_shards(vec![vec![a, b]]);
        assert_eq!(merged, vec![a.ev, b.ev]);
    }

    #[test]
    fn inner_round_stamps_do_not_reorder_across_nodes() {
        // Node 2's protocol saw inner round 7 while node 9 saw inner
        // round 1 in the same engine round: engine-round stamps keep
        // node order.
        let slow = Stamped {
            round: 4,
            node: 2,
            ev: Event::State { round: 7, node: 2, label: "R", reason: "coin" },
        };
        let fast = Stamped {
            round: 4,
            node: 9,
            ev: Event::State { round: 1, node: 9, label: "I", reason: "coin" },
        };
        let merged = merge_shards(vec![vec![slow], vec![fast]]);
        assert_eq!(merged, vec![slow.ev, fast.ev]);
    }
}
