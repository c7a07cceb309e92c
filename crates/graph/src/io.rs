//! Plain-text edge-list I/O and DOT export.
//!
//! The edge-list format is one `u v` pair per line, `#` comments and blank
//! lines ignored, with an optional leading `n <count>` header to pin the
//! vertex count (otherwise it is `1 + max id`). This is the lingua franca
//! of graph tooling (SNAP, NetworkX, iGraph all read it).

use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder};
use crate::ids::VertexId;

/// Serialise `g` as an edge list with an `n` header.
pub fn to_edge_list(g: &Graph) -> String {
    let mut out = String::with_capacity(16 + g.num_edges() * 8);
    out.push_str(&format!("n {}\n", g.num_vertices()));
    for (_, (u, v)) in g.edges() {
        out.push_str(&format!("{u} {v}\n"));
    }
    out
}

/// Hard cap on the vertex count [`from_edge_list`] will accept, declared
/// or inferred. Edge lists come from untrusted files; a header like
/// `n 18446744073709551615` must fail cleanly instead of driving an
/// allocation. `2^27` vertices is ~0.5 GiB of builder adjacency before a
/// single edge lands — far beyond any workload this code base targets.
pub const MAX_EDGE_LIST_VERTICES: usize = 1 << 27;

/// Parse an edge list produced by [`to_edge_list`] (or any whitespace
/// separated `u v` pairs).
///
/// Input is treated as untrusted: the `n` header is parsed and bounded by
/// [`MAX_EDGE_LIST_VERTICES`] *before* any allocation is sized from it,
/// and every endpoint must lie below the declared count. All rejections
/// are structured [`GraphError`]s carrying the offending line — never a
/// panic, never an unchecked allocation.
pub fn from_edge_list(text: &str) -> Result<Graph, GraphError> {
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut declared_n: Option<usize> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let Some(first) = tokens.next() else { continue };
        if first == "n" {
            // Endpoints are range-checked against the header as they are
            // read, so it must come before them.
            if !pairs.is_empty() {
                return Err(GraphError::Parse {
                    line: lineno + 1,
                    message: "'n' header must precede every edge".into(),
                });
            }
            let val = tokens.next().ok_or_else(|| GraphError::Parse {
                line: lineno + 1,
                message: "expected vertex count after 'n'".into(),
            })?;
            let n: usize = val.parse().map_err(|_| GraphError::Parse {
                line: lineno + 1,
                message: format!("bad vertex count '{val}'"),
            })?;
            if n > MAX_EDGE_LIST_VERTICES {
                return Err(GraphError::Parse {
                    line: lineno + 1,
                    message: format!(
                        "vertex count {n} exceeds the limit of {MAX_EDGE_LIST_VERTICES}"
                    ),
                });
            }
            if declared_n.is_some() {
                return Err(GraphError::Parse {
                    line: lineno + 1,
                    message: "duplicate 'n' header".into(),
                });
            }
            declared_n = Some(n);
            continue;
        }
        let u: u32 = first.parse().map_err(|_| GraphError::Parse {
            line: lineno + 1,
            message: format!("bad vertex id '{first}'"),
        })?;
        let vtok = tokens.next().ok_or_else(|| GraphError::Parse {
            line: lineno + 1,
            message: "expected two vertex ids".into(),
        })?;
        let v: u32 = vtok.parse().map_err(|_| GraphError::Parse {
            line: lineno + 1,
            message: format!("bad vertex id '{vtok}'"),
        })?;
        if tokens.next().is_some() {
            return Err(GraphError::Parse {
                line: lineno + 1,
                message: "trailing tokens after edge".into(),
            });
        }
        // Endpoints must respect a declared header (checked per line so
        // the error names the offending line) and the global cap (an
        // inferred `1 + max id` must not overflow the limit either).
        let hi = u.max(v) as usize;
        if let Some(n) = declared_n {
            if hi >= n {
                return Err(GraphError::Parse {
                    line: lineno + 1,
                    message: format!("vertex id {hi} out of range: header declares n {n}"),
                });
            }
        } else if hi >= MAX_EDGE_LIST_VERTICES {
            return Err(GraphError::Parse {
                line: lineno + 1,
                message: format!(
                    "vertex id {hi} exceeds the limit of {MAX_EDGE_LIST_VERTICES} vertices"
                ),
            });
        }
        pairs.push((u, v));
    }
    let max_id = pairs.iter().map(|&(u, v)| u.max(v)).max();
    let n = declared_n.unwrap_or_else(|| max_id.map_or(0, |m| m as usize + 1));
    let mut b = GraphBuilder::with_capacity(n, pairs.len());
    for (u, v) in pairs {
        b.add_edge(VertexId(u), VertexId(v));
    }
    b.build()
}

/// Graphviz DOT representation of an undirected graph. `edge_label` may
/// attach a label per edge (e.g. its color), or return `None` for no
/// label.
pub fn to_dot(
    g: &Graph,
    name: &str,
    edge_label: impl Fn(crate::ids::EdgeId) -> Option<String>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("graph {name} {{\n"));
    for v in g.vertices() {
        out.push_str(&format!("  {v};\n"));
    }
    for (e, (u, v)) in g.edges() {
        match edge_label(e) {
            Some(l) => out.push_str(&format!("  {u} -- {v} [label=\"{l}\"];\n")),
            None => out.push_str(&format!("  {u} -- {v};\n")),
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::structured;

    #[test]
    fn edge_list_roundtrip() {
        let g = structured::petersen();
        let text = to_edge_list(&g);
        let back = from_edge_list(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn roundtrip_preserves_isolated_vertices() {
        let g = Graph::from_edges(5, [(VertexId(0), VertexId(1))]).unwrap();
        let back = from_edge_list(&to_edge_list(&g)).unwrap();
        assert_eq!(back.num_vertices(), 5);
    }

    #[test]
    fn parse_without_header_infers_n() {
        let g = from_edge_list("0 1\n1 2\n").unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let g = from_edge_list("# a comment\n\nn 4\n0 1\n# another\n2 3\n").unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = from_edge_list("0 1\nbogus 2\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err:?}");
        let err = from_edge_list("0\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
        let err = from_edge_list("0 1 2\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
        let err = from_edge_list("n\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
        let err = from_edge_list("n x\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn hostile_headers_are_rejected_before_allocation() {
        // Overflowing and oversized counts fail with a parse error (and
        // in particular must not size an allocation first).
        for bad in ["n 18446744073709551616", "n 99999999999999999999", "n 134217729"] {
            let err = from_edge_list(bad).unwrap_err();
            assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{bad}: {err:?}");
        }
        let err = from_edge_list("n 3\nn 4\n0 1\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err:?}");
    }

    #[test]
    fn out_of_range_endpoints_are_rejected_with_line_numbers() {
        let err = from_edge_list("n 3\n0 1\n1 3\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 3, .. }), "{err:?}");
        let err = from_edge_list("n 2\n4294967295 0\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err:?}");
        // Without a header the global cap still applies to raw ids.
        let err = from_edge_list("0 200000000\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err:?}");
    }

    #[test]
    fn header_after_an_edge_is_rejected_at_its_line() {
        // Would otherwise skip the per-line range check (0 9 vs n 3) or
        // silently widen the graph (0 1 then n 5).
        for bad in ["0 9\nn 3\n", "0 1\nn 5\n", "# c\n0 1\n\n1 2\nn 3\n"] {
            let line = bad.lines().count();
            let err = from_edge_list(bad).unwrap_err();
            assert!(
                matches!(err, GraphError::Parse { line: l, .. } if l == line),
                "{bad:?}: {err:?}"
            );
        }
        // Comments and blanks before the header are fine.
        assert_eq!(from_edge_list("# c\n\nn 3\n0 1\n").unwrap().num_vertices(), 3);
    }

    #[test]
    fn parse_propagates_graph_validation() {
        assert!(matches!(from_edge_list("1 1\n").unwrap_err(), GraphError::SelfLoop(_)));
        assert!(matches!(
            from_edge_list("0 1\n1 0\n").unwrap_err(),
            GraphError::DuplicateEdge(_, _)
        ));
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = from_edge_list("").unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn dot_output_shape() {
        let g = structured::path(3);
        let dot = to_dot(&g, "p3", |_| None);
        assert!(dot.starts_with("graph p3 {"));
        assert!(dot.contains("0 -- 1;"));
        assert!(dot.contains("1 -- 2;"));
        let dot = to_dot(&g, "p3", |e| Some(format!("c{}", e.0)));
        assert!(dot.contains("[label=\"c0\"]"));
    }
}
