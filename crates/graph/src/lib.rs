//! # dima-graph — graph substrate for the DiMa workspace
//!
//! This crate provides every graph facility the DiMa edge-coloring
//! reproduction needs, implemented from scratch:
//!
//! * [`Graph`] — a simple undirected graph with stable vertex and edge
//!   identifiers, adjacency-list storage and an immutable, validated
//!   construction path through [`GraphBuilder`].
//! * [`Digraph`] — a directed graph with arc identifiers, used by the
//!   strong edge-coloring algorithm. Symmetric digraphs (every arc paired
//!   with its reverse) are first-class: see [`Digraph::symmetric_closure`].
//! * [`DynGraph`] — a mutable graph with incremental degree/Δ tracking,
//!   the substrate for churn (dynamic-topology) schedules.
//! * [`gen`] — random and structured graph generators covering all of the
//!   paper's experimental workloads (Erdős–Rényi, Barabási–Albert
//!   scale-free, Watts–Strogatz small-world) plus fixtures for testing.
//! * [`analysis`] — degree statistics, connected components, clustering
//!   coefficients and a power-law tail estimate.
//! * [`io`] — plain-text edge-list parsing/serialisation and DOT export.
//! * [`conflict`] — line graphs and the strong (distance-2) conflict graph
//!   of a digraph, used to verify edge colorings through the
//!   vertex-coloring lens.
//!
//! The crate has no dependencies besides `rand` (generators only) and uses
//! no `unsafe`.
//!
//! ## Example
//!
//! ```
//! use dima_graph::{Graph, GraphBuilder, VertexId};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(VertexId(0), VertexId(1));
//! b.add_edge(VertexId(1), VertexId(2));
//! b.add_edge(VertexId(2), VertexId(3));
//! let g: Graph = b.build().unwrap();
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.max_degree(), 2);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod conflict;
pub mod digraph;
pub mod dyn_graph;
pub mod error;
pub mod gen;
pub mod graph;
pub mod ids;
pub mod io;

pub use digraph::{Digraph, DigraphBuilder};
pub use dyn_graph::DynGraph;
pub use error::GraphError;
pub use graph::{Graph, GraphBuilder};
pub use ids::{ArcId, EdgeId, VertexId};
