//! Topology (de)serialization.
//!
//! Two formats:
//!
//! A line-oriented **edge list** (`u v` per line, `#` comments) — the
//! same shape as the crawls the paper's prototype "reads ... from a
//! local file at launch time".

use crate::DiGraph;
use pcn_types::{NodeId, PcnError, Result};
use std::fmt::Write as _;

/// Serializes the graph as a directed edge list: a header line
/// `# nodes <n>` followed by one `u v` pair per directed edge.
#[expect(clippy::unwrap_used, reason = "fmt::Write to a String cannot fail")]
pub fn to_edge_list(g: &DiGraph) -> String {
    let mut out = String::new();
    writeln!(out, "# nodes {}", g.node_count()).unwrap();
    for (_, u, v) in g.edges() {
        writeln!(out, "{} {}", u.0, v.0).unwrap();
    }
    out
}

/// Parses an edge list produced by [`to_edge_list`] (or hand-written in
/// the same format). Node count is taken from the `# nodes` header when
/// present, otherwise inferred as `max id + 1`.
pub fn from_edge_list(text: &str) -> Result<DiGraph> {
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut declared_nodes: Option<usize> = None;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim();
            if let Some(n) = rest.strip_prefix("nodes") {
                declared_nodes = Some(n.trim().parse().map_err(|e| {
                    PcnError::InvalidConfig(format!("line {}: bad node count: {e}", lineno + 1))
                })?);
            }
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(a), Some(b)) = (it.next(), it.next()) else {
            return Err(PcnError::InvalidConfig(format!(
                "line {}: expected `u v`",
                lineno + 1
            )));
        };
        let u: u32 = a.parse().map_err(|e| {
            PcnError::InvalidConfig(format!("line {}: bad node id: {e}", lineno + 1))
        })?;
        let v: u32 = b.parse().map_err(|e| {
            PcnError::InvalidConfig(format!("line {}: bad node id: {e}", lineno + 1))
        })?;
        pairs.push((NodeId(u), NodeId(v)));
    }
    let inferred = pairs
        .iter()
        .map(|&(u, v)| u.max(v).index() + 1)
        .max()
        .unwrap_or(0);
    let n = declared_nodes.unwrap_or(inferred).max(inferred);
    DiGraph::from_edge_vec(n, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn round_trip() {
        let mut g = DiGraph::new(4);
        g.add_channel(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(3), n(0)).unwrap();
        let text = to_edge_list(&g);
        let g2 = from_edge_list(&text).unwrap();
        assert_eq!(g2.node_count(), 4);
        assert_eq!(g2.edge_count(), 4);
        assert!(g2.edge(n(0), n(1)).is_some());
        assert!(g2.edge(n(1), n(0)).is_some());
        assert!(g2.edge(n(3), n(0)).is_some());
    }

    #[test]
    fn header_preserves_isolated_trailing_nodes() {
        let text = "# nodes 10\n0 1\n";
        let g = from_edge_list(text).unwrap();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn infers_node_count_without_header() {
        let g = from_edge_list("0 5\n2 3\n").unwrap();
        assert_eq!(g.node_count(), 6);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = from_edge_list("# a comment\n\n0 1\n# another\n1 2\n").unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn malformed_lines_error() {
        assert!(from_edge_list("0\n").is_err());
        assert!(from_edge_list("a b\n").is_err());
        assert!(from_edge_list("# nodes x\n").is_err());
    }

    #[test]
    fn duplicate_edge_rejected() {
        assert!(from_edge_list("0 1\n0 1\n").is_err());
    }
}
