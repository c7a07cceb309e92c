//! Zero-cost-when-off structured telemetry for the DiMa simulator and
//! protocols.
//!
//! The plane has three layers:
//!
//! * **Events** ([`Event`]) — small `Copy` records of automata state
//!   transitions, palette negotiation steps, ARQ link events, churn
//!   batches, per-message-kind counters, and round footers.
//! * **Tracers** ([`Tracer`]) — consumers of the event stream. The
//!   default [`NoopTracer`] carries `ENABLED = false`, which the
//!   engines test as a compile-time constant: with it, the whole plane
//!   monomorphizes away. Production sinks are the bounded-memory
//!   [`StateTimeline`] aggregator and the streaming JSONL
//!   [`TraceWriter`]; [`BufferTracer`] captures raw events for tests.
//! * **Determinism** — every shard count emits the same event sequence
//!   for the same seed. The engine buffers per-worker
//!   ([`ShardBuf`]) and normalizes with [`merge_shards`]; the canonical
//!   order is defined in [`event`].
//!
//! Alongside the event stream sits the **metrics plane** ([`metrics`]):
//! always-cheap aggregate counters, gauges, and log-bucketed
//! histograms behind a nullable [`MetricsHandle`], sharded per worker
//! and merged commutatively so seq/par registries are bit-identical.
//! [`mem`] adds byte-level memory accounting (tracking allocator +
//! peak RSS) for run reports.
//!
//! This crate is dependency-free and knows nothing about graphs or
//! protocols: nodes are `u32` ids, states are `&'static str` labels.

#![deny(missing_docs)]
// `deny` rather than `forbid`: `mem` needs a scoped allow for its
// `GlobalAlloc` impl; everything else stays unsafe-free.
#![deny(unsafe_code)]

pub mod event;
pub mod kinds;
pub mod mem;
pub mod metrics;
pub mod profile;
pub mod read;
pub mod slo;
pub mod timeline;
pub mod tracer;
pub mod writer;

pub use event::{merge_shards, ArqEventKind, Event, PaletteAction, Stamped};
pub use kinds::{kind_totals, KindTable, KindTotals};
pub use mem::{CountingAlloc, MemReport};
pub use metrics::{LogHistogram, MetricsHandle, MetricsRegistry};
pub use profile::{PhaseNanos, ProfileScope};
pub use slo::{percentile_f64, percentile_u64, BatchSample, SloRecorder, SloReport};
pub use timeline::{RoundSnapshot, StateTimeline, STATES};
pub use tracer::{BufferTracer, EventSink, NoopTracer, ShardBuf, TraceHandle, Tracer};
pub use writer::{json_escape, RunTotals, TraceMeta, TraceWriter, SCHEMA_VERSION};
