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

/// A consumer of telemetry [`Event`]s.
///
/// The associated `ENABLED` constant is the zero-cost switch: engines
/// test it (a compile-time constant) before doing *any* tracing work —
/// consulting sampling, buffering shard events, emitting the kind
/// table's rows. (The kind table itself also runs for a run that
/// collects metrics: its totals are the registry's `kind/` counters.)
pub trait Tracer {
    /// Whether this tracer observes anything at all. Engines skip all
    /// tracing work when this is `false`.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
