//! Compact adjacency-list directed graph.

use pcn_types::{NodeId, PcnError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense identifier of a directed edge in a [`DiGraph`].
///
/// Edge ids index flat attribute vectors (balances, fees, probe state)
/// owned by higher layers, keeping the graph itself attribute-free.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Dense index of this edge.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A directed graph over dense [`NodeId`]s with O(1) edge lookup.
///
/// Payment channels are bidirectional, so a channel between `u` and `v`
/// is inserted as two directed edges with distinct [`EdgeId`]s. The
/// [`DiGraph::reverse_edge`] accessor links the two directions, which the
/// simulator uses to apply the paper's reverse-direction capacity offsets.
#[derive(Clone, Debug)]
pub struct DiGraph {
    /// Out-adjacency: for each node, (neighbor, edge id) pairs.
    out_edges: Vec<Vec<(NodeId, EdgeId)>>,
    /// In-adjacency: for each node, (predecessor, edge id) pairs.
    in_edges: Vec<Vec<(NodeId, EdgeId)>>,
    /// Edge table: `edges[e] = (from, to)`.
    edges: Vec<(NodeId, NodeId)>,
    /// `reverse[e]` = id of the edge `(to, from)` if present.
    reverse: Vec<Option<EdgeId>>,
    /// Fast lookup of `(from, to) → EdgeId`.
    #[expect(
        clippy::disallowed_types,
        reason = "point lookups only, never iterated; `edge(u, v)` is on the benchmarked per-hop path"
    )]
    index: std::collections::HashMap<(NodeId, NodeId), EdgeId>,
}

impl DiGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            out_edges: vec![Vec::new(); n],
            in_edges: vec![Vec::new(); n],
            edges: Vec::new(),
            reverse: Vec::new(),
            index: Default::default(),
        }
    }

    /// Builds a graph from a directed edge list over `n` nodes.
    ///
    /// Duplicate edges and self-loops are rejected.
    pub fn from_edges(n: usize, list: &[(NodeId, NodeId)]) -> Result<Self> {
        let mut g = DiGraph::new(n);
        for &(u, v) in list {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out_edges.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// Iterates over `(EdgeId, from, to)` for every directed edge.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| (EdgeId(i as u32), u, v))
    }

    /// Validates that a node id belongs to this graph.
    pub fn check_node(&self, n: NodeId) -> Result<()> {
        if n.index() < self.node_count() {
            Ok(())
        } else {
            Err(PcnError::UnknownNode(n))
        }
    }

    /// Adds a directed edge `u → v`, returning its id.
    ///
    /// Rejects self-loops, duplicate edges, and unknown endpoints. If the
    /// opposite edge `v → u` already exists, the two are linked as
    /// reverse pairs.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeId> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(PcnError::InvalidConfig(format!("self-loop at {u}")));
        }
        if self.index.contains_key(&(u, v)) {
            return Err(PcnError::InvalidConfig(format!("duplicate edge {u}→{v}")));
        }
        #[expect(
            clippy::expect_used,
            reason = "EdgeId is u32 by design; 4B edges is beyond any PCN topology"
        )]
        let id = EdgeId(u32::try_from(self.edges.len()).expect("edge count exceeds u32"));
        self.edges.push((u, v));
        self.out_edges[u.index()].push((v, id));
        self.in_edges[v.index()].push((u, id));
        let rev = self.index.get(&(v, u)).copied();
        self.reverse.push(rev);
        if let Some(r) = rev {
            self.reverse[r.index()] = Some(id);
        }
        self.index.insert((u, v), id);
        Ok(id)
    }

    /// Adds the two directed edges of a bidirectional channel, returning
    /// `(u → v, v → u)`.
    pub fn add_channel(&mut self, u: NodeId, v: NodeId) -> Result<(EdgeId, EdgeId)> {
        let a = self.add_edge(u, v)?;
        let b = self.add_edge(v, u)?;
        Ok((a, b))
    }

    /// Looks up the edge id of `u → v`.
    #[inline]
    pub fn edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.index.get(&(u, v)).copied()
    }

    /// The endpoints `(from, to)` of an edge.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e.index()]
    }

    /// The id of the opposite-direction edge, if the channel is
    /// bidirectional.
    #[inline]
    pub fn reverse_edge(&self, e: EdgeId) -> Option<EdgeId> {
        self.reverse[e.index()]
    }

    /// Out-neighbors of `n` with the connecting edge ids.
    #[inline]
    pub fn out_neighbors(&self, n: NodeId) -> &[(NodeId, EdgeId)] {
        &self.out_edges[n.index()]
    }

    /// In-neighbors of `n` with the connecting edge ids.
    #[inline]
    pub fn in_neighbors(&self, n: NodeId) -> &[(NodeId, EdgeId)] {
        &self.in_edges[n.index()]
    }

    /// Out-degree of `n`.
    #[inline]
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out_edges[n.index()].len()
    }

    /// Total degree (in + out) of `n`.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.out_edges[n.index()].len() + self.in_edges[n.index()].len()
    }

    /// Nodes reachable from `s` following directed edges (including `s`).
    pub fn reachable_from(&self, s: NodeId) -> Vec<bool> {
        self.reach(s, false)
    }

    /// Nodes that reach `t` following directed edges (including `t`).
    pub fn reaching(&self, t: NodeId) -> Vec<bool> {
        self.reach(t, true)
    }

    /// Depth-first reach from `root` along out-edges, or (`backwards`)
    /// in-edges.
    fn reach(&self, root: NodeId, backwards: bool) -> Vec<bool> {
        let mut seen = vec![false; self.node_count()];
        if root.index() >= self.node_count() {
            return seen;
        }
        let mut stack = vec![root];
        seen[root.index()] = true;
        while let Some(u) = stack.pop() {
            let adjacent = if backwards {
                self.in_neighbors(u)
            } else {
                self.out_neighbors(u)
            };
            for &(v, _) in adjacent {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    stack.push(v);
                }
            }
        }
        seen
    }

    /// Size of the largest weakly connected component, treating every
    /// directed edge as undirected. Used when pruning generated
    /// topologies the way the paper prunes its Ripple crawl.
    pub fn largest_weak_component(&self) -> Vec<NodeId> {
        let n = self.node_count();
        let mut comp = vec![usize::MAX; n];
        let mut best: (usize, Vec<NodeId>) = (0, Vec::new());
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            let mut members = vec![NodeId::from_index(start)];
            comp[start] = start;
            let mut stack = vec![NodeId::from_index(start)];
            while let Some(u) = stack.pop() {
                let nbrs = self
                    .out_neighbors(u)
                    .iter()
                    .chain(self.in_neighbors(u).iter());
                for &(v, _) in nbrs {
                    if comp[v.index()] == usize::MAX {
                        comp[v.index()] = start;
                        members.push(v);
                        stack.push(v);
                    }
                }
            }
            if members.len() > best.0 {
                best = (members.len(), members);
            }
        }
        best.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn add_edge_and_lookup() {
        let mut g = DiGraph::new(3);
        let e = g.add_edge(n(0), n(1)).unwrap();
        assert_eq!(g.edge(n(0), n(1)), Some(e));
        assert_eq!(g.edge(n(1), n(0)), None);
        assert_eq!(g.endpoints(e), (n(0), n(1)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn rejects_self_loops_and_duplicates() {
        let mut g = DiGraph::new(2);
        assert!(g.add_edge(n(0), n(0)).is_err());
        g.add_edge(n(0), n(1)).unwrap();
        assert!(g.add_edge(n(0), n(1)).is_err());
    }

    #[test]
    fn rejects_unknown_nodes() {
        let mut g = DiGraph::new(2);
        assert_eq!(
            g.add_edge(n(0), n(5)).unwrap_err(),
            PcnError::UnknownNode(n(5))
        );
    }

    #[test]
    fn channel_links_reverse_edges() {
        let mut g = DiGraph::new(2);
        let (a, b) = g.add_channel(n(0), n(1)).unwrap();
        assert_eq!(g.reverse_edge(a), Some(b));
        assert_eq!(g.reverse_edge(b), Some(a));
    }

    #[test]
    fn reverse_links_even_when_added_separately() {
        let mut g = DiGraph::new(2);
        let a = g.add_edge(n(0), n(1)).unwrap();
        assert_eq!(g.reverse_edge(a), None);
        let b = g.add_edge(n(1), n(0)).unwrap();
        assert_eq!(g.reverse_edge(a), Some(b));
        assert_eq!(g.reverse_edge(b), Some(a));
    }

    #[test]
    fn adjacency_is_consistent() {
        let mut g = DiGraph::new(4);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(0), n(2)).unwrap();
        g.add_edge(n(2), n(3)).unwrap();
        assert_eq!(g.out_degree(n(0)), 2);
        assert_eq!(g.out_degree(n(3)), 0);
        assert_eq!(g.in_neighbors(n(3)).len(), 1);
        assert_eq!(g.in_neighbors(n(3))[0].0, n(2));
        assert_eq!(g.degree(n(2)), 2);
    }

    #[test]
    fn reachability_follows_direction() {
        let mut g = DiGraph::new(3);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        let r = g.reachable_from(n(0));
        assert_eq!(r, vec![true, true, true]);
        let r = g.reachable_from(n(2));
        assert_eq!(r, vec![false, false, true]);
        assert_eq!(g.reaching(n(2)), vec![true, true, true]);
        assert_eq!(g.reaching(n(0)), vec![true, false, false]);
        assert_eq!(g.reaching(n(3)), vec![false; 3]);
    }

    #[test]
    fn weak_component_ignores_direction() {
        let mut g = DiGraph::new(5);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(2), n(1)).unwrap();
        g.add_edge(n(3), n(4)).unwrap();
        let mut c = g.largest_weak_component();
        c.sort();
        assert_eq!(c, vec![n(0), n(1), n(2)]);
    }

    #[test]
    fn from_edges_builds_whole_graph() {
        let g = DiGraph::from_edges(3, &[(n(0), n(1)), (n(1), n(2))]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(g.edge(n(1), n(2)).is_some());
    }
}
