//! Directed graph on compressed sparse rows.

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

/// A directed graph over dense [`NodeId`]s, stored as compressed sparse
/// rows.
///
/// Payment channels are bidirectional, so a channel between `u` and `v`
/// is inserted as two directed edges with distinct [`EdgeId`]s. The
/// [`DiGraph::reverse_edge`] accessor links the two directions, which the
/// simulator uses to apply the paper's reverse-direction capacity offsets.
///
/// Besides the edge table and its reverse links, the graph keeps two
/// flat arrays of `(node, edge)` entries, cut into rows by `n + 1`
/// offsets: the out-rows and the in-rows, 28 bytes per edge in all.
/// Both list their edges in [`EdgeId`] order, which is the order they
/// were added, so every BFS tie-break, Yen rank and plan built on them
/// follows insertion order. The layout records whether every out-row
/// is also sorted by head, which holds for every generated topology
/// (the generators add channels in pair order). Then
/// [`DiGraph::edge`] binary-searches the out-row; otherwise, as for a
/// loaded edge list or a graph built by hand, it scans the row.
///
/// [`DiGraph::from_edges`] lays the rows out by counting sort, in time
/// linear in the graph, and builds graphs of any size. [`DiGraph::add_edge`] and
/// [`DiGraph::add_channel`] re-run that layout, at O(n + E) per call:
/// they suit small graphs and tests.
#[derive(Clone, Debug)]
pub struct DiGraph {
    /// Edge table: `edges[e] = (from, to)`.
    edges: Vec<(NodeId, NodeId)>,
    /// `reverse[e]` = id of the edge `(to, from)`, or [`NO_EDGE`].
    reverse: Vec<u32>,
    /// Out-row bounds: node `u`'s out-row is `out[out_at[u]..out_at[u + 1]]`.
    out_at: Vec<u32>,
    /// Out-rows: `(head, edge)` of every edge, grouped by tail, in
    /// `EdgeId` order within a row.
    out: Vec<(NodeId, EdgeId)>,
    /// Whether every out-row's heads strictly increase, so that
    /// `edge(u, v)` may binary-search it.
    heads_sorted: bool,
    /// In-row bounds: node `v`'s in-row is `inn[in_at[v]..in_at[v + 1]]`.
    in_at: Vec<u32>,
    /// In-rows: `(tail, edge)` of every edge, grouped by head, in
    /// `EdgeId` order within a row.
    inn: Vec<(NodeId, EdgeId)>,
}

/// A `reverse` entry for an edge with no opposite direction. No edge
/// has this id: [`edge_id`] admits at most `u32::MAX` edges, whose ids
/// stop one below it.
const NO_EDGE: u32 = u32::MAX;

/// The id of the edge at position `i` of the edge table.
#[expect(
    clippy::expect_used,
    reason = "EdgeId and row offsets are u32 by design; 4B edges is beyond any PCN topology"
)]
fn edge_id(i: usize) -> EdgeId {
    EdgeId(u32::try_from(i).expect("edge count exceeds u32"))
}

/// Why `u → v` cannot join a graph of `n` nodes, duplicates aside.
fn endpoint_error(n: usize, u: NodeId, v: NodeId) -> Option<PcnError> {
    if u.index() >= n {
        Some(PcnError::UnknownNode(u))
    } else if v.index() >= n {
        Some(PcnError::UnknownNode(v))
    } else if u == v {
        Some(PcnError::InvalidConfig(format!("self-loop at {u}")))
    } else {
        None
    }
}

fn duplicate_error(u: NodeId, v: NodeId) -> PcnError {
    PcnError::InvalidConfig(format!("duplicate edge {u}→{v}"))
}

/// Bytes a vector holds on the heap.
fn capacity_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

impl DiGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            edges: Vec::new(),
            reverse: Vec::new(),
            out_at: vec![0; n + 1],
            out: Vec::new(),
            heads_sorted: true,
            in_at: vec![0; n + 1],
            inn: Vec::new(),
        }
    }

    /// Builds a graph from a directed edge list over `n` nodes; edge `i`
    /// of the list gets `EdgeId(i)`.
    ///
    /// Equivalent to [`DiGraph::add_edge`] on each pair in turn, errors
    /// included: an unknown endpoint, a self-loop or a duplicate edge is
    /// rejected with the error that loop returns for the first offending
    /// pair in list order. Costs O(n + E), where that loop costs
    /// O(E · (n + E)).
    pub fn from_edges(n: usize, list: &[(NodeId, NodeId)]) -> Result<Self> {
        Self::from_edge_vec(n, list.to_vec())
    }

    /// [`DiGraph::from_edges`] on a list it may keep as its edge table.
    /// The generators and the loader build through this one, so a
    /// paper-scale list is not copied while it is laid out.
    pub(crate) fn from_edge_vec(n: usize, mut edges: Vec<(NodeId, NodeId)>) -> Result<Self> {
        let first_bad = edges
            .iter()
            .enumerate()
            .find_map(|(i, &(u, v))| Some((i, endpoint_error(n, u, v)?)));
        if let Some((i, _)) = first_bad {
            edges.truncate(i);
        }
        let mut g = DiGraph::new(n);
        g.edges = edges;
        g.lay_out_rows();
        // A duplicate among the valid prefix comes before `first_bad`.
        if let Some(e) = g.first_duplicate() {
            let (u, v) = g.endpoints(e);
            return Err(duplicate_error(u, v));
        }
        if let Some((_, err)) = first_bad {
            return Err(err);
        }
        g.reverse = g
            .edges
            .iter()
            .map(|&(u, v)| g.edge(v, u).map_or(NO_EDGE, |r| r.0))
            .collect();
        Ok(g)
    }

    /// Rebuilds the two row arrays from the edge table: one pass counts
    /// the row lengths, and one places every edge in its out-row and
    /// in-row in id order, so no row is sorted by comparison. A last
    /// pass records whether the out-rows came out sorted by head.
    fn lay_out_rows(&mut self) {
        let n = self.node_count();
        // Every offset is at most the edge count, which must fit an id.
        let m = edge_id(self.edges.len()).index();
        self.out_at.fill(0);
        self.in_at.fill(0);
        for &(u, v) in &self.edges {
            self.out_at[u.index() + 1] += 1;
            self.in_at[v.index() + 1] += 1;
        }
        for i in 0..n {
            self.out_at[i + 1] += self.out_at[i];
            self.in_at[i + 1] += self.in_at[i];
        }
        let blank = (NodeId(0), EdgeId(0));
        for row in [&mut self.out, &mut self.inn] {
            row.clear();
            row.resize(m, blank);
        }
        let mut out_next = self.out_at.clone();
        let mut in_next = self.in_at.clone();
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            let e = EdgeId(i as u32);
            self.out[out_next[u.index()] as usize] = (v, e);
            out_next[u.index()] += 1;
            self.inn[in_next[v.index()] as usize] = (u, e);
            in_next[v.index()] += 1;
        }
        let sorted = self
            .nodes()
            .all(|u| self.out_neighbors(u).windows(2).all(|w| w[0].0 < w[1].0));
        self.heads_sorted = sorted;
    }

    /// The lowest id of an edge whose `(from, to)` an earlier edge
    /// already has: one pass over the out-rows, stamping each head with
    /// the tail whose row last reached it. Rows list edges in id order,
    /// so the first repeat in a row is that row's lowest duplicate.
    fn first_duplicate(&self) -> Option<EdgeId> {
        let mut tail_of = vec![usize::MAX; self.node_count()];
        self.nodes()
            .filter_map(|u| {
                self.out_neighbors(u).iter().find_map(|&(v, e)| {
                    let repeat = tail_of[v.index()] == u.index();
                    tail_of[v.index()] = u.index();
                    repeat.then_some(e)
                })
            })
            .min()
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out_at.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Heap bytes held by the graph's arrays, counted by capacity.
    pub fn heap_bytes(&self) -> usize {
        capacity_bytes(&self.edges)
            + capacity_bytes(&self.reverse)
            + capacity_bytes(&self.out_at)
            + capacity_bytes(&self.out)
            + capacity_bytes(&self.in_at)
            + capacity_bytes(&self.inn)
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
    /// Rejects unknown endpoints, self-loops and duplicate edges, in
    /// that order. If the opposite edge `v → u` already exists, the two
    /// are linked as reverse pairs. Re-lays every row, so a call costs
    /// O(n + E): build large graphs with [`DiGraph::from_edges`].
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeId> {
        if let Some(err) = endpoint_error(self.node_count(), u, v) {
            return Err(err);
        }
        if self.edge(u, v).is_some() {
            return Err(duplicate_error(u, v));
        }
        let id = edge_id(self.edges.len());
        let rev = self.edge(v, u);
        self.edges.push((u, v));
        self.reverse.push(rev.map_or(NO_EDGE, |r| r.0));
        if let Some(r) = rev {
            self.reverse[r.index()] = id.0;
        }
        self.lay_out_rows();
        Ok(id)
    }

    /// Adds the two directed edges of a bidirectional channel, returning
    /// `(u → v, v → u)`. Costs two [`DiGraph::add_edge`] calls.
    pub fn add_channel(&mut self, u: NodeId, v: NodeId) -> Result<(EdgeId, EdgeId)> {
        let a = self.add_edge(u, v)?;
        let b = self.add_edge(v, u)?;
        Ok((a, b))
    }

    /// Looks up the edge id of `u → v` in `u`'s out-row: by binary
    /// search, O(log out-degree), when every row is sorted by head, and
    /// by a scan of the row otherwise. `None` when either end is not a
    /// node.
    #[inline]
    pub fn edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let (&start, &end) = (self.out_at.get(u.index())?, self.out_at.get(u.index() + 1)?);
        let row = &self.out[start as usize..end as usize];
        if self.heads_sorted {
            let k = row.binary_search_by_key(&v, |&(w, _)| w).ok()?;
            Some(row[k].1)
        } else {
            row.iter().find(|&&(w, _)| w == v).map(|&(_, e)| e)
        }
    }

    /// Whether every out-row lists its edges in strictly increasing head
    /// order, as every generated topology's rows do; [`DiGraph::edge`]
    /// then binary-searches them.
    pub fn heads_sorted(&self) -> bool {
        self.heads_sorted
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
        let r = self.reverse[e.index()];
        (r != NO_EDGE).then_some(EdgeId(r))
    }

    /// Out-neighbors of `n` with the connecting edge ids, in the order
    /// the edges were added.
    #[inline]
    pub fn out_neighbors(&self, n: NodeId) -> &[(NodeId, EdgeId)] {
        let i = n.index();
        &self.out[self.out_at[i] as usize..self.out_at[i + 1] as usize]
    }

    /// In-neighbors of `n` with the connecting edge ids, in the order
    /// the edges were added.
    #[inline]
    pub fn in_neighbors(&self, n: NodeId) -> &[(NodeId, EdgeId)] {
        let i = n.index();
        &self.inn[self.in_at[i] as usize..self.in_at[i + 1] as usize]
    }

    /// Out-degree of `n`.
    #[inline]
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out_neighbors(n).len()
    }

    /// Total degree (in + out) of `n`.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.out_neighbors(n).len() + self.in_neighbors(n).len()
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
    fn rows_out_of_head_order_are_scanned() {
        let g = DiGraph::from_edges(3, &[(n(0), n(2)), (n(0), n(1)), (n(1), n(0))]).unwrap();
        assert!(!g.heads_sorted());
        assert_eq!(g.edge(n(0), n(1)), Some(EdgeId(1)));
        assert_eq!(g.edge(n(0), n(2)), Some(EdgeId(0)));
        assert_eq!(g.edge(n(2), n(0)), None);
        assert_eq!(g.reverse_edge(EdgeId(1)), Some(EdgeId(2)));
        assert_eq!(g.reverse_edge(EdgeId(0)), None);
        let dup = DiGraph::from_edges(3, &[(n(0), n(2)), (n(0), n(1)), (n(0), n(2))]);
        assert_eq!(dup.unwrap_err(), duplicate_error(n(0), n(2)));
    }

    #[test]
    fn from_edges_builds_whole_graph() {
        let g = DiGraph::from_edges(3, &[(n(0), n(1)), (n(1), n(2))]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(g.edge(n(1), n(2)).is_some());
    }
}
