//! Breadth-first shortest paths with edge filtering.
//!
//! Algorithm 1 of the paper calls `Breadth-First-Search(G, C', s, t)`: a
//! BFS over the locally known topology that only traverses edges whose
//! *residual* capacity is non-zero. [`shortest_path_filtered`] is that
//! primitive; the filter closure receives the edge id so callers can
//! consult any side table (residual matrices, exclusion sets, ...).
//!
//! The search loop itself lives in [`BfsScratch`], which keeps its
//! arrays between calls and can [`BfsScratch::resume`] a search whose
//! filter changed only along the path it last returned — what Algorithm
//! 1 does between two probes (`docs/algorithm1.md` has the invariant).

use crate::{path::Path, DiGraph, EdgeId};
use pcn_types::NodeId;

/// Reusable state of one `s → t` breadth-first search: discovery stamps,
/// the discovery tree and the queue, all kept between calls so a caller
/// that searches repeatedly allocates once.
///
/// The queue is a plain `Vec` that is never popped: `queue[..head]` are
/// the expanded nodes, `queue[head..]` the frontier, and the whole of it
/// is the discovery order — which is what lets [`BfsScratch::resume`]
/// rewind to the point where the last result stopped being valid.
#[derive(Clone, Debug, Default)]
pub struct BfsScratch {
    /// `seen[v] == stamp` iff `v` is discovered in the current search.
    seen: Vec<u32>,
    stamp: u32,
    /// The node and edge each discovered node was reached by.
    parent: Vec<(NodeId, EdgeId)>,
    /// Index of each discovered node in `queue`.
    qpos: Vec<u32>,
    queue: Vec<NodeId>,
    head: usize,
    /// Endpoints of the current search; `None` before the first one.
    ends: Option<(NodeId, NodeId)>,
}

impl BfsScratch {
    /// An empty scratch; arrays are sized by the first search.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds a fewest-hops path `s → t` using only edges accepted by
    /// `edge_ok`, or `None` if `t` is unreachable. Ties are broken by
    /// adjacency order.
    pub fn search(
        &mut self,
        g: &DiGraph,
        s: NodeId,
        t: NodeId,
        edge_ok: impl FnMut(EdgeId) -> bool,
    ) -> Option<Path> {
        self.ends = None;
        if s == t || s.index() >= g.node_count() || t.index() >= g.node_count() {
            return None;
        }
        self.start(g, s);
        self.ends = Some((s, t));
        self.scan(g, Some(t), false, edge_ok)
    }

    /// Discovers every node reachable from `root` — along in-edges when
    /// `backwards` — and returns them (without `root`) in discovery
    /// order, each with the node it was discovered from.
    fn explore(
        &mut self,
        g: &DiGraph,
        root: NodeId,
        backwards: bool,
    ) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.ends = None;
        self.start(g, root);
        self.scan(g, None, backwards, |_| true);
        self.queue[1..]
            .iter()
            .map(|&v| (v, self.parent[v.index()].0))
    }

    /// Sizes the arrays for `g`, opens a new stamp and queues `root`.
    fn start(&mut self, g: &DiGraph, root: NodeId) {
        let n = g.node_count();
        if self.seen.len() != n {
            self.seen.clear();
            self.seen.resize(n, 0);
            self.parent.resize(n, (root, EdgeId(0)));
            self.qpos.resize(n, 0);
            self.queue.reserve(n);
        }
        if self.stamp == u32::MAX {
            self.seen.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.seen[root.index()] = self.stamp;
        self.qpos[root.index()] = 0;
        self.queue.clear();
        self.queue.push(root);
        self.head = 0;
    }

    /// Continues the last search under a filter that has changed since
    /// it returned its path `P`, and returns exactly what a fresh
    /// [`BfsScratch::search`] with the new filter would.
    ///
    /// The filter may differ from the one `P` was found under only on
    /// edges of `P`, which may have become blocked, and on the reverse
    /// `y → x` of an edge `x → y` of `P`, which may have changed either
    /// way. Then everything discovered before the head of the first
    /// blocked edge of `P` is what a fresh search would rediscover: every
    /// newly blocked edge is a tree edge at or after that point, and a
    /// reverse edge `y → x` was never a discovery edge, because `x` was
    /// discovered before `y` was. The search rewinds to there and goes
    /// on; with no edge of `P` blocked it returns `P` again.
    ///
    /// Returns `None` when the last search found no path (or none was
    /// run). `g` must be the graph that search ran on.
    pub fn resume(&mut self, g: &DiGraph, mut edge_ok: impl FnMut(EdgeId) -> bool) -> Option<Path> {
        let (s, t) = self.ends?;
        if self.seen[t.index()] != self.stamp {
            return None;
        }
        // The blocked tree edge of the last path nearest to `s`.
        let mut cut = None;
        let mut v = t;
        while v != s {
            let (u, e) = self.parent[v.index()];
            if !edge_ok(e) {
                cut = Some((u, v));
            }
            v = u;
        }
        let Some((tail, head)) = cut else {
            return Some(self.path_to(s, t));
        };
        let keep = self.qpos[head.index()] as usize;
        for v in self.queue.drain(keep..) {
            self.seen[v.index()] = 0;
        }
        self.head = self.qpos[tail.index()] as usize;
        self.scan(g, Some(t), false, edge_ok)
    }

    /// The one breadth-first loop of this crate: expands the frontier
    /// from `queue[head]` on, along out-edges or (`backwards`) in-edges,
    /// until `t` is discovered or the queue runs out. On success `head`
    /// stays at `t`'s parent and `t` is the last queue entry, so the
    /// state describes a search stopped mid-scan.
    // pcn-lint: hot — Algorithm 1 runs one per probe and Yen one per spur node; every array is scratch-owned
    fn scan(
        &mut self,
        g: &DiGraph,
        t: Option<NodeId>,
        backwards: bool,
        mut edge_ok: impl FnMut(EdgeId) -> bool,
    ) -> Option<Path> {
        while let Some(&u) = self.queue.get(self.head) {
            let adjacent = if backwards {
                g.in_neighbors(u)
            } else {
                g.out_neighbors(u)
            };
            for &(v, e) in adjacent {
                if self.seen[v.index()] == self.stamp || !edge_ok(e) {
                    continue;
                }
                self.seen[v.index()] = self.stamp;
                self.parent[v.index()] = (u, e);
                self.qpos[v.index()] = self.queue.len() as u32;
                self.queue.push(v);
                if Some(v) == t {
                    return Some(self.path_to(self.queue[0], v));
                }
            }
            self.head += 1;
        }
        None
    }

    /// The tree path `s → t` of the current search.
    fn path_to(&self, s: NodeId, t: NodeId) -> Path {
        // pcn-lint: allow(hot-alloc) — the result path is the search's return value, one per search and not per scanned edge
        let mut nodes = vec![t];
        let mut cur = t;
        while cur != s {
            cur = self.parent[cur.index()].0;
            nodes.push(cur);
        }
        nodes.reverse();
        Path::from_vec_unchecked(nodes)
    }
}

/// Finds a fewest-hops path `s → t` using only edges accepted by
/// `edge_ok`, or `None` if `t` is unreachable.
///
/// Ties are broken by adjacency order, which is deterministic for a given
/// graph construction order — important for reproducible experiments.
pub fn shortest_path_filtered(
    g: &DiGraph,
    s: NodeId,
    t: NodeId,
    edge_ok: impl FnMut(EdgeId) -> bool,
) -> Option<Path> {
    BfsScratch::new().search(g, s, t, edge_ok)
}

/// Finds a fewest-hops path using every edge (no filter).
pub fn shortest_path(g: &DiGraph, s: NodeId, t: NodeId) -> Option<Path> {
    shortest_path_filtered(g, s, t, |_| true)
}

/// Hop distances from `s` to every node (`usize::MAX` when unreachable).
pub fn distances_from(g: &DiGraph, s: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.node_count()];
    if s.index() >= g.node_count() {
        return dist;
    }
    dist[s.index()] = 0;
    for (v, parent) in BfsScratch::new().explore(g, s, false) {
        dist[v.index()] = dist[parent.index()] + 1;
    }
    dist
}

/// A BFS spanning tree rooted at `root`, following edges *backwards*
/// (each entry is the parent on a shortest path **to** the root) when
/// `toward_root` is true, or forwards otherwise.
///
/// SpeedyMurmurs' landmark trees and SilentWhispers-style landmark
/// routing both build on this primitive.
pub fn spanning_tree(g: &DiGraph, root: NodeId, toward_root: bool) -> Vec<Option<NodeId>> {
    let mut parent: Vec<Option<NodeId>> = vec![None; g.node_count()];
    if root.index() >= g.node_count() {
        return parent;
    }
    // With `toward_root`, v is discovered from u when v → u exists: v's
    // route toward the root goes through u.
    for (v, from) in BfsScratch::new().explore(g, root, toward_root) {
        parent[v.index()] = Some(from);
    }
    parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_types::Result;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// The Figure 5(a) topology: node 1 reaches 6 via 2 (bottleneck) or
    /// via the longer 1-5-4-6 route. Node ids are 0-based (paper − 1).
    fn fig5a() -> Result<DiGraph> {
        let mut g = DiGraph::new(6);
        for (u, v) in [(1, 2), (1, 5), (2, 3), (2, 4), (3, 6), (4, 6), (5, 4)] {
            g.add_edge(n(u - 1), n(v - 1))?;
        }
        Ok(g)
    }

    #[test]
    fn finds_fewest_hops() {
        let g = fig5a().unwrap();
        let p = shortest_path(&g, n(0), n(5)).unwrap();
        assert_eq!(p.hops(), 3);
        assert_eq!(p.source(), n(0));
        assert_eq!(p.target(), n(5));
    }

    #[test]
    fn filter_excludes_edges() {
        let g = fig5a().unwrap();
        let via_2 = g.edge(n(0), n(1)).unwrap();
        // Block 1→2; the only remaining route is 1-5-4-6.
        let p = shortest_path_filtered(&g, n(0), n(5), |e| e != via_2).unwrap();
        assert_eq!(p.nodes(), &[n(0), n(4), n(3), n(5)]);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g = DiGraph::new(3);
        g.add_edge(n(0), n(1)).unwrap();
        assert!(shortest_path(&g, n(0), n(2)).is_none());
        // Directed: cannot go backwards.
        assert!(shortest_path(&g, n(1), n(0)).is_none());
    }

    #[test]
    fn same_source_target_is_none() {
        let g = fig5a().unwrap();
        assert!(shortest_path(&g, n(0), n(0)).is_none());
    }

    #[test]
    fn distances_match_paths() {
        let g = fig5a().unwrap();
        let d = distances_from(&g, n(0));
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1); // node 2
        assert_eq!(d[5], 3); // node 6
    }

    #[test]
    fn spanning_tree_toward_root_points_at_parent() {
        let mut g = DiGraph::new(3);
        g.add_channel(n(0), n(1)).unwrap();
        g.add_channel(n(1), n(2)).unwrap();
        let tree = spanning_tree(&g, n(0), true);
        assert_eq!(tree[0], None);
        assert_eq!(tree[1], Some(n(0)));
        assert_eq!(tree[2], Some(n(1)));
    }

    #[test]
    fn spanning_tree_respects_direction() {
        let mut g = DiGraph::new(3);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        // toward_root: need edges INTO the visited set; 0 has in-degree 0
        // from 1's perspective... here only 0→1→2 exist so no node can
        // route toward root 2 except via those edges.
        let tree = spanning_tree(&g, n(2), true);
        assert_eq!(tree[1], Some(n(2)));
        assert_eq!(tree[0], Some(n(1)));
    }

    #[test]
    fn resume_routes_around_the_blocked_edge() {
        let g = fig5a().unwrap();
        let mut bfs = BfsScratch::new();
        let p = bfs.search(&g, n(0), n(5), |_| true).unwrap();
        assert_eq!(p.nodes(), &[n(0), n(1), n(2), n(5)]);
        // Nothing blocked: the same path again.
        assert_eq!(bfs.resume(&g, |_| true), Some(p));
        // Block 2→3 (0-based 1→2): the search continues through 2→4.
        let dead = g.edge(n(1), n(2)).unwrap();
        let p = bfs.resume(&g, |e| e != dead).unwrap();
        assert_eq!(p.nodes(), &[n(0), n(1), n(3), n(5)]);
        // Block the first hop too: only 1-5-4-6 is left, then nothing.
        let first = g.edge(n(0), n(1)).unwrap();
        let p = bfs.resume(&g, |e| e != dead && e != first).unwrap();
        assert_eq!(p.nodes(), &[n(0), n(4), n(3), n(5)]);
        let last = g.edge(n(3), n(5)).unwrap();
        assert_eq!(bfs.resume(&g, |e| ![dead, first, last].contains(&e)), None);
        assert_eq!(
            bfs.resume(&g, |_| true),
            None,
            "a failed search stays failed"
        );
    }

    #[test]
    fn scratch_survives_resizing() {
        let small = fig5a().unwrap();
        let mut big = DiGraph::new(9);
        for i in 0..8 {
            big.add_channel(n(i), n(i + 1)).unwrap();
        }
        let mut bfs = BfsScratch::new();
        for (g, t) in [(&small, n(5)), (&big, n(8)), (&small, n(5))] {
            assert_eq!(bfs.search(g, n(0), t, |_| true), shortest_path(g, n(0), t));
            assert_eq!(bfs.resume(g, |_| true), shortest_path(g, n(0), t));
        }
        assert_eq!(bfs.search(&small, n(0), n(9), |_| true), None);
        assert_eq!(bfs.resume(&small, |_| true), None);
    }

    /// Four billion searches later the stamp wraps to a value the array
    /// still holds from the first search.
    #[test]
    fn stamp_wrap_forgets_stale_discoveries() {
        let g = fig5a().unwrap();
        let mut bfs = BfsScratch::new();
        let first = bfs.search(&g, n(0), n(5), |_| true);
        bfs.stamp = u32::MAX;
        assert_eq!(bfs.search(&g, n(0), n(5), |_| true), first);
        assert_eq!(bfs.stamp, 1);
    }

    mod properties {
        use super::*;
        use crate::generators;
        use proptest::prelude::*;
        use std::collections::HashSet;

        proptest! {
            /// After any sequence of "block an edge of the last result"
            /// and "flip the reverse of one", `resume` returns exactly
            /// what a fresh search under the same filter returns.
            #[test]
            fn resume_equals_a_fresh_search(
                nodes in 4usize..16,
                seed in 0u64..500,
                preblocked in proptest::collection::vec(0usize..1000, 0..6),
                ops in proptest::collection::vec((0usize..1000, 0usize..4, 1usize..4), 1..24),
            ) {
                let g = generators::erdos_renyi(nodes, 0.35, seed);
                prop_assume!(g.edge_count() > 0);
                let (s, t) = (n(0), n(nodes as u32 - 1));
                let mut blocked: HashSet<EdgeId> = preblocked
                    .iter()
                    .map(|i| EdgeId((i % g.edge_count()) as u32))
                    .collect();
                let mut bfs = BfsScratch::new();
                let mut last = bfs.search(&g, s, t, |e| !blocked.contains(&e));
                prop_assert_eq!(&last, &shortest_path_filtered(&g, s, t, |e| !blocked.contains(&e)));
                // Each step applies up to three changes, as one probe does.
                let mut ops = ops.into_iter();
                while let Some(path) = last {
                    let Some((at, kind, batch)) = ops.next() else { break };
                    for k in 0..batch {
                        let hop = (at + k) % path.hops();
                        let (u, v) = (path.nodes()[hop], path.nodes()[hop + 1]);
                        let edge = g.edge(u, v).unwrap();
                        match (kind + k) % 4 {
                            // A path edge used up (twice as likely as the rest).
                            0 | 1 => { blocked.insert(edge); }
                            // Its reverse credited...
                            2 => { g.reverse_edge(edge).map(|r| blocked.remove(&r)); }
                            // ...or probed for the first time, at zero.
                            _ => { g.reverse_edge(edge).map(|r| blocked.insert(r)); }
                        }
                    }
                    last = bfs.resume(&g, |e| !blocked.contains(&e));
                    prop_assert_eq!(&last, &shortest_path_filtered(&g, s, t, |e| !blocked.contains(&e)));
                }
            }
        }
    }
}
