//! The [`Tracer`] trait and its in-memory implementations.
//!
//! Engines are generic over `T: Tracer`; with the default
//! [`NoopTracer`] the associated `ENABLED` constant is `false`, every
//! tracing branch is `if false` after monomorphization, and the
//! telemetry plane compiles away entirely. Protocols, which cannot be
//! generic over the tracer (the `Protocol` trait knows nothing about
//! telemetry), instead receive a [`TraceHandle`] inside their round
//! context: a nullable `&mut dyn` sink that costs one pointer test per
//! emission attempt when tracing is off at the engine level.

use crate::event::{Event, Stamped};
use crate::kinds::KindTotals;
use std::collections::BTreeMap;

/// A consumer of telemetry [`Event`]s.
///
/// The associated `ENABLED` constant is the zero-cost switch: engines
/// test it (a compile-time constant) before doing *any* tracing work —
/// building kind tables, consulting sampling, buffering shard events.
pub trait Tracer {
    /// Whether this tracer observes anything at all. Engines skip all
    /// telemetry bookkeeping when this is `false`.
    const ENABLED: bool = true;

    /// Consume one event. Events arrive in the canonical deterministic
    /// order (see [`crate::event`]) regardless of engine.
    fn emit(&mut self, ev: Event);

    /// Per-node sampling predicate: when `false`, engines do not hand
    /// node `node` a live [`TraceHandle`], so its state/palette/ARQ
    /// events are never produced. Engine-level events (round footers,
    /// churn, message-kind counters) are unaffected.
    fn sample(&self, node: u32) -> bool {
        let _ = node;
        true
    }
}

/// Forwarding impl so call sites can pass `&mut tracer` without giving
/// up ownership.
impl<T: Tracer + ?Sized> Tracer for &mut T {
    const ENABLED: bool = true;

    fn emit(&mut self, ev: Event) {
        (**self).emit(ev);
    }

    fn sample(&self, node: u32) -> bool {
        (**self).sample(node)
    }
}

/// The default tracer: observes nothing, compiles to nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    const ENABLED: bool = false;

    fn emit(&mut self, _ev: Event) {}

    fn sample(&self, _node: u32) -> bool {
        false
    }
}

/// Object-safe companion of [`Tracer`] (the associated const makes
/// `dyn Tracer` illegal). [`TraceHandle`] is a nullable `&mut dyn
/// EventSink`; the blanket impl lets any tracer — and any plain
/// `Vec<Stamped>`-backed shard buffer — serve as the target.
pub trait EventSink {
    /// Consume one event.
    fn sink(&mut self, ev: Event);
}

impl<T: Tracer> EventSink for T {
    fn sink(&mut self, ev: Event) {
        self.emit(ev);
    }
}

/// A per-worker shard buffer used by the engine: stamps each
/// event with the engine round and node id currently being stepped
/// (both set by the engine before handing the node its context).
#[derive(Debug, Default)]
pub struct ShardBuf {
    /// Buffered stamped events, in this worker's emission order.
    pub events: Vec<Stamped>,
    /// Stamp applied to the next sunk event: engine round.
    pub round: u64,
    /// Stamp applied to the next sunk event: node id.
    pub node: u32,
}

impl EventSink for ShardBuf {
    fn sink(&mut self, ev: Event) {
        self.events.push(Stamped { round: self.round, node: self.node, ev });
    }
}

/// Nullable dynamic event sink carried inside a protocol round context.
/// `None` when tracing is off or the node is sampled out — emitting
/// through a dead handle is a single branch.
#[derive(Default)]
pub struct TraceHandle<'a>(Option<&'a mut (dyn EventSink + 'a)>);

impl<'a> TraceHandle<'a> {
    /// A dead handle: every emission is dropped.
    pub fn none() -> Self {
        TraceHandle(None)
    }

    /// A live handle feeding `sink`.
    pub fn to(sink: &'a mut (dyn EventSink + 'a)) -> TraceHandle<'a> {
        TraceHandle(Some(sink))
    }

    /// Whether emissions go anywhere. Protocols can test this before
    /// assembling an event with non-trivial arguments.
    pub fn on(&self) -> bool {
        self.0.is_some()
    }

    /// Emit one event (dropped if the handle is dead).
    pub fn emit(&mut self, ev: Event) {
        if let Some(sink) = self.0.as_deref_mut() {
            sink.sink(ev);
        }
    }

    /// Reborrow for a nested context (the reliable transport hands its
    /// inner protocol a sub-context sharing the outer handle).
    pub fn reborrow(&mut self) -> TraceHandle<'_> {
        match &mut self.0 {
            Some(sink) => TraceHandle(Some(&mut **sink)),
            None => TraceHandle(None),
        }
    }
}

/// In-memory tracer capturing the full event sequence — the workhorse
/// of trace-equality tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BufferTracer {
    /// Captured events, in canonical order.
    pub events: Vec<Event>,
}

impl Tracer for BufferTracer {
    fn emit(&mut self, ev: Event) {
        self.events.push(ev);
    }
}

/// Which terminal class a reliable-transport link ended the run in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LinkClass {
    /// Link never declared dead.
    Healthy,
    /// Link declared dead after prolonged peer silence.
    DiedSilent,
}

impl LinkClass {
    /// Human-readable class name for reports.
    pub fn name(self) -> &'static str {
        match self {
            LinkClass::Healthy => "healthy",
            LinkClass::DiedSilent => "died-silent",
        }
    }
}

/// Retransmission totals for one link class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkClassTotals {
    /// Directed links (node → peer) that ended the run in this class
    /// and saw at least one ARQ event.
    pub links: u64,
    /// Data-bundle retransmissions on those links.
    pub retransmits: u64,
}

/// Cheap aggregating tracer behind the CLI transport report: tallies
/// per-message-kind counters and ARQ link outcomes without buffering
/// events. Never samples — its inputs are engine-level counters plus
/// the (rare) ARQ events.
#[derive(Clone, Debug, Default)]
pub struct TransportTally {
    /// Totals per protocol-declared message kind, keyed by kind name.
    pub kinds: BTreeMap<&'static str, KindTotals>,
    /// Per directed link (node, peer): retransmit count and final class.
    links: BTreeMap<(u32, u32), (u64, LinkClass)>,
    /// Total retransmissions across all links.
    pub retransmits: u64,
}

impl TransportTally {
    /// Retransmission totals grouped by final link class, in
    /// `[healthy, died-silent]` order.
    pub fn by_link_class(&self) -> [(LinkClass, LinkClassTotals); 2] {
        let mut out = [
            (LinkClass::Healthy, LinkClassTotals::default()),
            (LinkClass::DiedSilent, LinkClassTotals::default()),
        ];
        for &(retransmits, class) in self.links.values() {
            let slot = &mut out.iter_mut().find(|(c, _)| *c == class).unwrap().1;
            slot.links += 1;
            slot.retransmits += retransmits;
        }
        out
    }

    /// Directed links that were declared dead.
    pub fn links_down(&self) -> u64 {
        self.links.values().filter(|&&(_, c)| c != LinkClass::Healthy).count() as u64
    }
}

impl Tracer for TransportTally {
    fn emit(&mut self, ev: Event) {
        match ev {
            Event::MsgKind { kind, sent, delivered, dropped, corrupted, duplicated, .. } => {
                let t = self.kinds.entry(kind).or_default();
                t.sent += sent;
                t.delivered += delivered;
                t.dropped += dropped;
                t.corrupted += corrupted;
                t.duplicated += duplicated;
            }
            Event::Arq { node, kind, peer, .. } => {
                let link = self.links.entry((node, peer)).or_insert((0, LinkClass::Healthy));
                match kind {
                    crate::event::ArqEventKind::Retransmit => {
                        link.0 += 1;
                        self.retransmits += 1;
                    }
                    crate::event::ArqEventKind::LinkDownSilent => {
                        link.1 = LinkClass::DiedSilent;
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ArqEventKind;

    #[test]
    fn noop_is_disabled_and_samples_nothing() {
        const { assert!(!NoopTracer::ENABLED) };
        assert!(!NoopTracer.sample(0));
    }

    #[test]
    fn handle_routes_and_dead_handle_drops() {
        let mut buf = BufferTracer::default();
        let ev = Event::Round { round: 0, active: 1, done: 0, sent: 0, delivered: 0 };
        {
            let mut h = TraceHandle::to(&mut buf);
            assert!(h.on());
            h.reborrow().emit(ev);
        }
        let mut dead = TraceHandle::none();
        assert!(!dead.on());
        dead.emit(ev);
        assert_eq!(buf.events, vec![ev]);
    }

    #[test]
    fn transport_tally_classifies_links() {
        let mut t = TransportTally::default();
        let arq = |node, kind, peer| Event::Arq { round: 0, node, kind, peer };
        t.emit(arq(0, ArqEventKind::Retransmit, 1));
        t.emit(arq(0, ArqEventKind::Retransmit, 1));
        t.emit(arq(0, ArqEventKind::LinkDownSilent, 1));
        t.emit(arq(2, ArqEventKind::Retransmit, 3));
        t.emit(arq(4, ArqEventKind::LinkDownSilent, 5));
        assert_eq!(t.retransmits, 3);
        assert_eq!(t.links_down(), 2);
        let [h, s] = t.by_link_class();
        assert_eq!(h.1, LinkClassTotals { links: 1, retransmits: 1 });
        assert_eq!(s.1, LinkClassTotals { links: 2, retransmits: 2 });
    }
}
