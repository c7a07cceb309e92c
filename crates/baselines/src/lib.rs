//! # dima-baselines — comparison algorithms for the DiMa reproduction
//!
//! The paper positions DiMa against classical and distributed
//! alternatives; this crate implements the yardsticks the experiment
//! harness compares against:
//!
//! * [`greedy`] — sequential first-fit edge coloring (the same `2Δ−1`
//!   worst case as DiMaEC, but centralised; with natural or randomised
//!   edge orders).
//! * [`misra_gries`] — the Misra–Gries constructive proof of Vizing's
//!   theorem: a full fan-rotation / alternating-path implementation that
//!   always colors with at most `Δ+1` colors. This is the quality optimum
//!   (±1) that Conjecture 2 measures DiMaEC against.
//! * [`strong_greedy`] — sequential first-fit strong (distance-2)
//!   coloring of a symmetric digraph via its conflict graph.
//! * [`luby_matching`](luby_matching()) — Luby-style maximal matching via
//!   local-minimum edge values, the classic comparator for the paper's
//!   invitation automata.
//! * [`random_trial`] — a *distributed* comparator in the same
//!   message-passing model: every uncolored edge repeatedly samples a
//!   random legal color from a `2Δ`-palette and keeps it if no adjacent
//!   proposal or committed color collides (the folklore simplification of
//!   Panconesi–Srinivasan-style randomized coloring). Runs on the same
//!   [`dima_sim`] engines as DiMa, so rounds and messages are directly
//!   comparable.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod greedy;
pub mod luby_matching;
pub mod misra_gries;
pub mod random_trial;
pub mod strong_greedy;

pub use greedy::{greedy_edge_coloring, EdgeOrder};
pub use luby_matching::{luby_matching, LubyMatchingResult};
pub use misra_gries::misra_gries_edge_coloring;
pub use random_trial::{random_trial_coloring, RandomTrialResult};
pub use strong_greedy::strong_greedy_coloring;
