//! TDMA schedules from colorings — the semantic layer of the paper's
//! motivating application.
//!
//! Edge colorings and strong colorings are *means*; the end is a
//! collision-free transmission schedule (Gandham et al., Barrett et al.,
//! both cited by the paper). This module turns colorings into explicit
//! slot tables and — crucially — provides an **independent, semantic
//! verifier** ([`verify_half_duplex`], [`verify_interference_free`]) that
//! checks radio constraints directly, without reference to coloring
//! theory. A bug in the coloring verifiers cannot hide here, and vice
//! versa.

use std::fmt;

use dima_graph::{ArcId, Digraph, EdgeId, Graph, VertexId};

use crate::palette::Color;

/// A schedule was asked of a partial coloring: the edge (or arc) with
/// this id has no color. Crash-faulted and lossy runs leave such holes;
/// run the coloring verifier first.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Uncolored {
    /// Id of the first uncolored edge or arc.
    pub index: usize,
}

impl fmt::Display for Uncolored {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule needs a complete coloring; entry {} is uncolored", self.index)
    }
}

impl std::error::Error for Uncolored {}

/// Slot `s` lists the ids (built by `id`) of the entries colored `s`.
fn slot_table<T>(
    colors: &[Option<Color>],
    id: impl Fn(u32) -> T,
) -> Result<Vec<Vec<T>>, Uncolored> {
    let mut slots: Vec<Vec<T>> = Vec::new();
    for (i, c) in colors.iter().enumerate() {
        let c = c.ok_or(Uncolored { index: i })?;
        if slots.len() <= c.index() {
            slots.resize_with(c.index() + 1, Vec::new);
        }
        slots[c.index()].push(id(i as u32));
    }
    Ok(slots)
}

/// A TDMA frame for an undirected graph: slot `s` carries the edges
/// colored `s`. Built from a complete proper edge coloring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeSchedule {
    /// `slots[s]` — the edges transmitting in slot `s`.
    pub slots: Vec<Vec<EdgeId>>,
}

impl EdgeSchedule {
    /// Build the frame from a complete coloring; [`Uncolored`] names
    /// the first uncolored edge of a partial one.
    pub fn from_coloring(colors: &[Option<Color>]) -> Result<EdgeSchedule, Uncolored> {
        Ok(EdgeSchedule { slots: slot_table(colors, EdgeId)? })
    }

    /// Frame length (number of slots).
    pub fn frame_len(&self) -> usize {
        self.slots.len()
    }

    /// Total scheduled transmissions (= number of edges).
    pub fn num_transmissions(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// Average slot utilisation (`edges / (slots × max slot size)` is
    /// fragile; we report transmissions per slot).
    pub fn avg_slot_size(&self) -> f64 {
        if self.slots.is_empty() {
            0.0
        } else {
            self.num_transmissions() as f64 / self.slots.len() as f64
        }
    }
}

/// Semantic check for half-duplex radio: within every slot, no node is
/// an endpoint of two scheduled edges (it cannot take part in two
/// conversations at once). Returns the first offending
/// `(slot, node)` pair.
pub fn verify_half_duplex(g: &Graph, sched: &EdgeSchedule) -> Result<(), (usize, VertexId)> {
    let mut busy = vec![usize::MAX; g.num_vertices()];
    for (slot, edges) in sched.slots.iter().enumerate() {
        for &e in edges {
            let (u, v) = g.endpoints(e);
            for w in [u, v] {
                if busy[w.index()] == slot {
                    return Err((slot, w));
                }
                busy[w.index()] = slot;
            }
        }
    }
    Ok(())
}

/// A TDMA frame for a symmetric digraph: slot `s` carries the directed
/// transmissions (arcs) with channel `s`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArcSchedule {
    /// `slots[s]` — the arcs transmitting in slot `s`.
    pub slots: Vec<Vec<ArcId>>,
}

impl ArcSchedule {
    /// Build the frame from a complete strong coloring; [`Uncolored`]
    /// names the first uncolored arc of a partial one.
    pub fn from_coloring(colors: &[Option<Color>]) -> Result<ArcSchedule, Uncolored> {
        Ok(ArcSchedule { slots: slot_table(colors, ArcId)? })
    }

    /// Frame length (number of slots/channels).
    pub fn frame_len(&self) -> usize {
        self.slots.len()
    }
}

/// Semantic check for interference-free reception: within a slot, for
/// every scheduled transmission `u → v`, no *other* scheduled sender may
/// be audible at `v` (equal to `v` — half-duplex — or adjacent to it).
///
/// Note this is **strictly stronger** than the paper's Definition 2: the
/// definition does not forbid a node from transmitting on the channel it
/// is simultaneously receiving (arcs `(u→v)` and `(v→x)`, `x ≠ u`, are
/// not in its conflict set). DiMa2ED's conservative one-hop palette —
/// a node never reuses any color heard in its neighborhood — happens to
/// satisfy the stronger property anyway (tested), but a coloring that is
/// merely Definition-2-proper may fail here. A reproduction-worthy
/// finding: the definition under-specifies half-duplex radio.
/// Returns the first offending `(slot, receiver, interfering sender)`.
pub fn verify_interference_free(
    d: &Digraph,
    sched: &ArcSchedule,
) -> Result<(), (usize, VertexId, VertexId)> {
    for (slot, arcs) in sched.slots.iter().enumerate() {
        let senders: Vec<VertexId> = arcs.iter().map(|&a| d.arc(a).0).collect();
        for &a in arcs {
            let (_tx, rx) = d.arc(a);
            for (&b, &sender) in arcs.iter().zip(&senders) {
                if b == a {
                    continue;
                }
                // Any *other* same-slot sender audible at this receiver
                // collides (including the own sender transmitting a
                // second arc — the receiver hears both frames).
                if sender == rx || d.arc_between(sender, rx).is_some() {
                    return Err((slot, rx, sender));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ColoringConfig;
    use crate::edge_coloring::color_edges;
    use crate::strong_coloring::strong_color_digraph;
    use dima_graph::gen::structured;

    #[test]
    fn edge_schedule_from_dimaec_is_half_duplex() {
        let g = structured::grid(5, 5);
        let r = color_edges(&g, &ColoringConfig::seeded(3)).unwrap();
        let sched = EdgeSchedule::from_coloring(&r.colors).unwrap();
        assert_eq!(sched.num_transmissions(), g.num_edges());
        assert_eq!(sched.frame_len(), r.max_color.unwrap().index() + 1);
        verify_half_duplex(&g, &sched).unwrap();
        assert!(sched.avg_slot_size() > 0.0);
    }

    #[test]
    fn half_duplex_detects_conflicts() {
        // P3: both edges share vertex 1; same slot must be rejected.
        let g = structured::path(3);
        let sched = EdgeSchedule { slots: vec![vec![EdgeId(0), EdgeId(1)]] };
        assert_eq!(verify_half_duplex(&g, &sched), Err((0, VertexId(1))));
        // Distinct slots pass.
        let sched = EdgeSchedule { slots: vec![vec![EdgeId(0)], vec![EdgeId(1)]] };
        assert!(verify_half_duplex(&g, &sched).is_ok());
    }

    #[test]
    fn arc_schedule_from_dima2ed_is_interference_free() {
        let g = structured::grid(4, 4);
        let d = Digraph::symmetric_closure(&g);
        let r = strong_color_digraph(&d, &ColoringConfig::seeded(4)).unwrap();
        let sched = ArcSchedule::from_coloring(&r.colors).unwrap();
        assert_eq!(sched.frame_len(), r.max_color.unwrap().index() + 1);
        verify_interference_free(&d, &sched).unwrap();
    }

    #[test]
    fn interference_detects_audible_second_sender() {
        // Symmetric P3 (0-1-2): transmissions 0→1 and 2→1 in the same
        // slot collide at receiver 1.
        let g = structured::path(3);
        let d = Digraph::symmetric_closure(&g);
        let a01 = d.arc_between(VertexId(0), VertexId(1)).unwrap();
        let a21 = d.arc_between(VertexId(2), VertexId(1)).unwrap();
        let sched = ArcSchedule { slots: vec![vec![a01, a21]] };
        let err = verify_interference_free(&d, &sched).unwrap_err();
        assert_eq!(err.0, 0);
        assert_eq!(err.1, VertexId(1));
        // 0→1 and 1→2 also collide: receiver 1's own partner... receiver
        // 2 hears sender... sender 1 transmits to 2 while receiving from
        // 0: the reverse/entering constraint catches it at receiver 1
        // (sender 1 == receiver 1).
        let a12 = d.arc_between(VertexId(1), VertexId(2)).unwrap();
        let sched = ArcSchedule { slots: vec![vec![a01, a12]] };
        assert!(verify_interference_free(&d, &sched).is_err());
        // Disjoint faraway arcs in one slot are fine: use P4.
        let g = structured::path(5);
        let d = Digraph::symmetric_closure(&g);
        let a01 = d.arc_between(VertexId(0), VertexId(1)).unwrap();
        let a43 = d.arc_between(VertexId(4), VertexId(3)).unwrap();
        let sched = ArcSchedule { slots: vec![vec![a01, a43]] };
        assert!(verify_interference_free(&d, &sched).is_ok());
    }

    #[test]
    fn definition2_alone_does_not_imply_half_duplex() {
        // Symmetric P3: arcs (0→1) and (1→2) are *not* in Definition-2
        // conflict (see the verifier tests), so a Def-2-proper coloring
        // may give them one channel — yet node 1 would then transmit and
        // receive simultaneously. The semantic check catches it.
        let g = structured::path(3);
        let d = Digraph::symmetric_closure(&g);
        let a01 = d.arc_between(VertexId(0), VertexId(1)).unwrap();
        let a10 = d.arc_between(VertexId(1), VertexId(0)).unwrap();
        let a12 = d.arc_between(VertexId(1), VertexId(2)).unwrap();
        let a21 = d.arc_between(VertexId(2), VertexId(1)).unwrap();
        let mut colors = vec![None; d.num_arcs()];
        colors[a01.index()] = Some(Color(0));
        colors[a12.index()] = Some(Color(0)); // legal per Definition 2
        colors[a10.index()] = Some(Color(1));
        colors[a21.index()] = Some(Color(2));
        crate::verify::verify_strong_coloring(&d, &colors).unwrap(); // Def 2 OK
        let sched = ArcSchedule::from_coloring(&colors).unwrap();
        assert!(verify_interference_free(&d, &sched).is_err()); // radio not OK
    }

    #[test]
    fn empty_schedules() {
        let sched = EdgeSchedule::from_coloring(&[]).unwrap();
        assert_eq!(sched.frame_len(), 0);
        assert_eq!(sched.avg_slot_size(), 0.0);
        let sched = ArcSchedule::from_coloring(&[]).unwrap();
        assert_eq!(sched.frame_len(), 0);
    }

    #[test]
    fn incomplete_coloring_is_an_error() {
        let err = EdgeSchedule::from_coloring(&[Some(Color(0)), None]).unwrap_err();
        assert_eq!(err, Uncolored { index: 1 });
        assert!(err.to_string().contains("complete coloring"));
        let err = ArcSchedule::from_coloring(&[None, Some(Color(2))]).unwrap_err();
        assert_eq!(err, Uncolored { index: 0 });
    }
}
