//! # dima-sim — a synchronous message-passing network simulator
//!
//! The paper's model of computation (§I-C) makes exactly two assumptions:
//!
//! 1. communication rounds proceed **synchronously**, and
//! 2. each node can communicate with each of its neighbors once per round,
//!    **reliably**.
//!
//! This crate implements that model. Each vertex of a graph becomes a
//! compute node running a [`Protocol`] — a state machine that is handed
//! its inbox once per communication round and fills an outbox. One
//! engine executes protocols: [`run`] (batch) or a [`Stepper`] driven
//! one round per tick (step-wise hosts such as `dima serve`). It splits
//! the nodes into `threads` shards stepped in lockstep on a persistent
//! worker pool ([`pool`]); with `threads == 1` the single shard runs
//! inline on the caller's thread. Results are **bit-identical** for
//! every shard count, because all randomness is drawn from per-node RNGs
//! seeded only by `(master seed, node id)` and inboxes are delivered in
//! sender order. A ~100-line reference model in the crate's plane
//! proptests replays the mailbox and churn semantics independently and
//! is the determinism oracle the engine is checked against.
//!
//! Instrumentation ([`stats`]) counts rounds, sends and deliveries —
//! the quantities the paper's figures report. [`fault`] can inject
//! deterministic message loss to demonstrate that the algorithms' safety
//! depends on the reliable-delivery assumption. [`churn`] compiles
//! deterministic topology-mutation schedules (`LinkUp` / `LinkDown` /
//! `NodeJoin` / `NodeLeave`) that the engine applies mid-run — still
//! bit-identically — so protocols can repair their state incrementally
//! instead of restarting.
//!
//! The telemetry plane ([`dima_telemetry`], re-exported as
//! [`telemetry`]) adds structured per-round tracing through the
//! [`telemetry::Tracer`] that [`run`] takes; with
//! [`telemetry::NoopTracer`] every tracing branch folds away at
//! monomorphization. Event streams are deterministic and
//! shard-independent; per-round automata-state censuses are recorded by
//! the [`telemetry::StateTimeline`] tracer.

#![deny(missing_docs)]
// Unsafe is denied crate-wide; only the worker pool ([`pool`]) opts back
// in locally, with a module-level safety argument. The engine's mail grid
// and control plane are safe code.
#![deny(unsafe_code)]

pub mod churn;
pub mod engine;
pub mod error;
pub mod fault;
pub mod pool;
pub mod protocol;
pub mod reliable;
pub mod rng;
pub mod stats;
pub mod topology;

#[cfg(test)]
mod plane_proptests;

pub use dima_telemetry as telemetry;

pub use churn::{
    ChurnBatch, ChurnEvent, ChurnKinds, ChurnPlan, ChurnSchedule, EventFeed, FeedError,
    NeighborhoodChange,
};
pub use engine::{mail_entry_bytes, run, EngineConfig, RunOutcome, Stepper};
pub use error::SimError;
pub use protocol::{
    outbox_entry_bytes, ControlWord, Envelope, NodeSeed, NodeStatus, Protocol, RoundCtx, Shared,
};
pub use reliable::{ArqMsg, ReliableNode};
pub use stats::{RoundStats, RunStats};
pub use topology::Topology;
