//! Simple paths through a directed graph.

use crate::DiGraph;
use pcn_types::{NodeId, PcnError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A simple (loop-free) path: an ordered node sequence with at least two
/// nodes and no repeats.
///
/// Paths are the currency of every router in this workspace: Algorithm 1
/// returns a set of them, mice routing tables cache them, and the testbed
/// prototype embeds them verbatim in its `Path` wire field (Table 1).
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Path(Vec<NodeId>);

impl Path {
    /// Validates and wraps a node sequence.
    ///
    /// Requires ≥ 2 nodes, no repeated node (simple/loopless — Yen's
    /// algorithm's guarantee), and, when `graph` is provided, every
    /// consecutive pair connected by a directed edge.
    pub fn new(nodes: Vec<NodeId>, graph: Option<&DiGraph>) -> Result<Self> {
        if nodes.len() < 2 {
            return Err(PcnError::InvalidConfig(
                "path must contain at least two nodes".into(),
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        for &n in &nodes {
            if !seen.insert(n) {
                return Err(PcnError::InvalidConfig(format!("path revisits node {n}")));
            }
        }
        if let Some(g) = graph {
            for w in nodes.windows(2) {
                if g.edge(w[0], w[1]).is_none() {
                    return Err(PcnError::UnknownChannel(w[0], w[1]));
                }
            }
        }
        Ok(Path(nodes))
    }

    /// Wraps a node sequence without validation.
    ///
    /// For use by algorithms whose construction already guarantees
    /// simplicity (BFS/Dijkstra parent chains).
    pub(crate) fn from_vec_unchecked(nodes: Vec<NodeId>) -> Self {
        debug_assert!(nodes.len() >= 2);
        Path(nodes)
    }

    /// The node sequence.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.0
    }

    /// First node (the sender).
    #[inline]
    pub fn source(&self) -> NodeId {
        self.0[0]
    }

    /// Last node (the receiver).
    #[inline]
    #[expect(clippy::unwrap_used, reason = "Path construction rejects < 2 nodes")]
    pub fn target(&self) -> NodeId {
        *self.0.last().unwrap()
    }

    /// Number of hops (edges) on the path.
    #[inline]
    pub fn hops(&self) -> usize {
        self.0.len() - 1
    }

    /// Iterates over the directed `(from, to)` pairs along the path.
    pub fn channels(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.0.windows(2).map(|w| (w[0], w[1]))
    }

    /// Whether the path traverses the directed pair `(u, v)`.
    pub fn uses_channel(&self, u: NodeId, v: NodeId) -> bool {
        self.channels().any(|(a, b)| a == u && b == v)
    }

    /// The reversed node sequence (receiver back to sender), used by the
    /// prototype's ACK messages which "replace the Path field with the
    /// reversed version of the forward path".
    pub fn reversed(&self) -> Path {
        let mut v = self.0.clone();
        v.reverse();
        Path(v)
    }

    /// The prefix of the path up to and including `node`, if present.
    pub fn prefix_through(&self, node: NodeId) -> Option<Path> {
        let pos = self.0.iter().position(|&n| n == node)?;
        if pos == 0 {
            return None;
        }
        Some(Path(self.0[..=pos].to_vec()))
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Path[")?;
        for (i, n) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "→")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn chain_graph(len: u32) -> DiGraph {
        let mut g = DiGraph::new(len as usize);
        for i in 0..len - 1 {
            g.add_edge(n(i), n(i + 1)).unwrap();
        }
        g
    }

    #[test]
    fn valid_path_passes() {
        let g = chain_graph(4);
        let p = Path::new(vec![n(0), n(1), n(2), n(3)], Some(&g)).unwrap();
        assert_eq!(p.hops(), 3);
        assert_eq!(p.source(), n(0));
        assert_eq!(p.target(), n(3));
    }

    #[test]
    fn too_short_path_rejected() {
        assert!(Path::new(vec![n(0)], None).is_err());
        assert!(Path::new(vec![], None).is_err());
    }

    #[test]
    fn looping_path_rejected() {
        assert!(Path::new(vec![n(0), n(1), n(0)], None).is_err());
    }

    #[test]
    fn missing_edge_rejected() {
        let g = chain_graph(3);
        // 2 → 1 does not exist (chain is directed forward only).
        assert_eq!(
            Path::new(vec![n(2), n(1)], Some(&g)).unwrap_err(),
            PcnError::UnknownChannel(n(2), n(1))
        );
    }

    #[test]
    fn channels_iterates_pairs() {
        let p = Path::new(vec![n(0), n(1), n(2)], None).unwrap();
        let pairs: Vec<_> = p.channels().collect();
        assert_eq!(pairs, vec![(n(0), n(1)), (n(1), n(2))]);
        assert!(p.uses_channel(n(1), n(2)));
        assert!(!p.uses_channel(n(2), n(1)));
    }

    #[test]
    fn reversal() {
        let p = Path::new(vec![n(0), n(1), n(2)], None).unwrap();
        assert_eq!(p.reversed().nodes(), &[n(2), n(1), n(0)]);
        assert_eq!(p.reversed().reversed(), p);
    }

    #[test]
    fn prefix_through_cuts_at_node() {
        let p = Path::new(vec![n(0), n(1), n(2), n(3)], None).unwrap();
        let pre = p.prefix_through(n(2)).unwrap();
        assert_eq!(pre.nodes(), &[n(0), n(1), n(2)]);
        assert!(p.prefix_through(n(0)).is_none()); // would be a 1-node path
        assert!(p.prefix_through(n(9)).is_none());
    }
}
