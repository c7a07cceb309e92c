//! # dima-core — matching-discovery automata and two edge-coloring
//! algorithms
//!
//! This crate is the primary contribution of the reproduced paper:
//!
//! > J. P. Daigle and S. K. Prasad, *“Two Edge Coloring Algorithms Using a
//! > Simple Matching Discovery Automata”*, IPDPS Workshops 2012.
//!
//! All three protocols are instances of one per-vertex automata
//! ([`automata`]) running on the synchronous message-passing simulator of
//! [`dima_sim`]:
//!
//! * [`matching`] — the underlying matching-discovery protocol from the
//!   authors' 2011 framework paper: every computation round produces a
//!   matching; iterated to maximality.
//! * [`edge_coloring`] — **Algorithm 1 (DiMaEC)**: edge coloring of an
//!   undirected graph with at most `2Δ−1` colors in `O(Δ)` expected
//!   computation rounds, one-hop information only.
//! * [`strong_coloring`] — **Algorithm 2 (DiMa2ED)**: strong (distance-2)
//!   edge coloring of a symmetric digraph, the model for channel /
//!   time-slot assignment in ad-hoc radio networks.
//!
//! [`verify`] checks every output independently (direct neighborhood
//! scans, cross-checked in the test suite against the conflict-graph
//! constructions of [`dima_graph::conflict`]).
//!
//! ## Quickstart
//!
//! ```
//! use dima_core::{color_edges, ColoringConfig};
//! use dima_graph::gen::structured;
//!
//! let g = structured::petersen();
//! let result = color_edges(&g, &ColoringConfig::seeded(42)).unwrap();
//! assert!(dima_core::verify::verify_edge_coloring(&g, &result.colors).is_ok());
//! // Never more than 2Δ−1 colors (Proposition 3).
//! assert!(result.colors_used <= 2 * g.max_degree() - 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod automata;
pub mod churn;
pub mod config;
pub mod edge_coloring;
pub mod error;
pub mod kempe;
pub mod matching;
pub mod palette;
mod runner;
pub mod schedule;
pub mod service;
pub mod strong_coloring;
pub mod verify;
pub mod vertex_cover;

pub use churn::{
    BatchReport, ChurnColoringResult, ChurnKinds, ChurnPlan, ChurnSchedule, ChurnStrongResult,
};
pub use config::{
    ColorPolicy, ColorReduction, ColoringConfig, Engine, KempeConfig, Rejection, Transport,
};
pub use edge_coloring::{
    color_edges, color_edges_churn, color_edges_churn_traced, color_edges_traced,
    EdgeColoringResult,
};
pub use error::CoreError;
pub use kempe::{reduce_palette, KempeReport};
pub use matching::{maximal_matching, maximal_matching_traced, MatchingResult};
pub use palette::{Color, ColorSet};
pub use service::{
    checkpoint_crc, hash_coloring, ChainFallback, ColoredEdge, ColoringService, CompactReport,
    HistoryEntry, RestoreReport, ServeBatchReport, ServeProtocol, ServiceConfig, ServiceError,
    ServiceStatus, Tick,
};
pub use strong_coloring::{
    strong_color_churn, strong_color_churn_traced, strong_color_digraph,
    strong_color_digraph_traced, StrongColoringResult,
};
pub use vertex_cover::{vertex_cover, vertex_cover_traced, VertexCoverResult};
