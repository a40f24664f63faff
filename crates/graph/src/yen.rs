//! Yen's algorithm for k shortest loopless paths.
//!
//! Flash's mice routing computes "top-m shortest paths (i.e. using Yen's
//! algorithm) on the local topology G" (§3.3), and on a dead path
//! "replaces it with the next top shortest path". Both are one
//! enumeration: [`RankedPaths`] hands out the fewest-hops simple paths of
//! one `(s, t)` pair one rank at a time and keeps Yen's state (ranks
//! found, candidate pool) between calls, so rank `r + 1` costs one round
//! of spur searches off rank `r` rather than a rerun from rank 0.
//! [`k_shortest_paths_hops`] collects the first `k` ranks. Spur searches
//! are BFS with deterministic tie-breaking, so routing tables are
//! reproducible across runs.

use crate::{bfs, path::Path, DiGraph, EdgeId};
use pcn_types::NodeId;
use std::collections::HashSet;

/// A resumable enumeration of the simple paths `s → t` in non-decreasing
/// hop count, ties broken by node sequence (Yen 1971 over BFS).
///
/// The ranks do not depend on how many are eventually asked for: the
/// first `k` paths of a longer enumeration are the enumeration of `k`.
/// Every call to [`next_path`](Self::next_path) must pass the same
/// graph; ranks found on one topology say nothing about another.
#[derive(Clone, Debug)]
pub struct RankedPaths {
    s: NodeId,
    t: NodeId,
    /// Every rank handed out so far, in rank order.
    found: Vec<Path>,
    /// Spur paths generated but not yet promoted to a rank, each once.
    candidates: Vec<Path>,
    /// Whether the last rank's spur paths are already in `candidates`
    /// (for an empty `found`: whether the BFS for rank 0 has run). Makes
    /// the search lazy — a rank is spurred only when a later one is
    /// asked for — and makes asking an exhausted enumeration free.
    spurred: bool,
}

impl RankedPaths {
    /// Starts the enumeration for `s → t`; no search runs until the
    /// first [`next_path`](Self::next_path).
    pub fn new(s: NodeId, t: NodeId) -> Self {
        RankedPaths {
            s,
            t,
            found: Vec::new(),
            candidates: Vec::new(),
            spurred: false,
        }
    }

    /// The ranks handed out so far, in rank order.
    pub fn found(&self) -> &[Path] {
        &self.found
    }

    /// Finds and returns the next rank, or `None` once `g` holds no
    /// further simple path `s → t` — after which every call returns
    /// `None` without searching.
    pub fn next_path(&mut self, g: &DiGraph) -> Option<&Path> {
        if !self.spurred {
            self.spurred = true;
            match self.found.last() {
                None => self
                    .candidates
                    .extend(bfs::shortest_path(g, self.s, self.t)),
                Some(prev) => {
                    let prev_nodes = prev.nodes().to_vec();
                    self.spur(g, &prev_nodes);
                }
            }
        }
        // The candidate pool is small (≤ hops per rank found): a linear
        // scan for the (hops, nodes) minimum is fine at the k ≤ 30 scale
        // Flash uses.
        let (best, _) = self
            .candidates
            .iter()
            .enumerate()
            .min_by_key(|&(_, p)| (p.hops(), p.nodes()))?;
        self.found.push(self.candidates.swap_remove(best));
        self.spurred = false;
        self.found.last()
    }

    /// Adds to the pool, for each node of the newest rank except the
    /// last, the shortest deviation that leaves it by an edge no found
    /// path with the same root has taken.
    fn spur(&mut self, g: &DiGraph, prev_nodes: &[NodeId]) {
        for i in 0..prev_nodes.len() - 1 {
            let spur = prev_nodes[i];
            let root: &[NodeId] = &prev_nodes[..=i];
            let mut banned_edges: HashSet<EdgeId> = HashSet::new();
            for p in &self.found {
                let nodes = p.nodes();
                if nodes.len() > i + 1 && nodes[..=i] == *root {
                    if let Some(e) = g.edge(nodes[i], nodes[i + 1]) {
                        banned_edges.insert(e);
                    }
                }
            }
            // Nodes on the root (except the spur itself) are banned to
            // keep paths loopless.
            let banned_nodes: HashSet<NodeId> = root[..i].iter().copied().collect();
            let spur_path = bfs::shortest_path_filtered(g, spur, self.t, |e| {
                if banned_edges.contains(&e) {
                    return false;
                }
                let (u, v) = g.endpoints(e);
                !banned_nodes.contains(&u) && !banned_nodes.contains(&v)
            });
            let Some(sp) = spur_path else { continue };
            let mut nodes = root[..i].to_vec();
            nodes.extend_from_slice(sp.nodes());
            // Two ranks can spur the same deviation; it enters the pool
            // once. (It cannot equal a found path: every found path with
            // this root has its edge out of the spur node banned.)
            if !self.candidates.iter().any(|c| c.nodes() == nodes) {
                self.candidates.push(Path::from_vec_unchecked(nodes));
            }
        }
    }
}

/// Up to `k` fewest-hops simple paths `s → t` in rank order: the first
/// `k` steps of a [`RankedPaths`]. Fewer are returned when the graph
/// does not contain `k` distinct simple paths.
pub fn k_shortest_paths_hops(g: &DiGraph, s: NodeId, t: NodeId, k: usize) -> Vec<Path> {
    let mut ranked = RankedPaths::new(s, t);
    while ranked.found.len() < k && ranked.next_path(g).is_some() {}
    ranked.found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// The classic example graph from Yen's paper (adapted): multiple
    /// routes 0 → 5 with varying lengths.
    fn test_graph() -> DiGraph {
        let mut g = DiGraph::new(6);
        for (u, v) in [
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 3),
            (2, 3),
            (2, 4),
            (3, 4),
            (3, 5),
            (4, 5),
        ] {
            g.add_edge(n(u), n(v)).unwrap();
        }
        g
    }

    #[test]
    fn first_path_is_shortest() {
        let g = test_graph();
        let ps = k_shortest_paths_hops(&g, n(0), n(5), 3);
        assert_eq!(ps[0].hops(), 3);
    }

    #[test]
    fn paths_are_sorted_unique_and_simple() {
        let g = test_graph();
        let ps = k_shortest_paths_hops(&g, n(0), n(5), 10);
        assert!(!ps.is_empty());
        for w in ps.windows(2) {
            assert!(w[0].hops() <= w[1].hops(), "not sorted");
            assert_ne!(w[0].nodes(), w[1].nodes(), "duplicate path");
        }
        for p in &ps {
            let set: HashSet<_> = p.nodes().iter().collect();
            assert_eq!(set.len(), p.nodes().len(), "path has a loop");
            assert_eq!(p.source(), n(0));
            assert_eq!(p.target(), n(5));
        }
    }

    #[test]
    fn finds_all_simple_paths_when_k_large() {
        // Count simple paths 0→5 by brute force and check Yen finds all.
        let g = test_graph();
        fn count(g: &DiGraph, cur: NodeId, t: NodeId, seen: &mut Vec<NodeId>) -> usize {
            if cur == t {
                return 1;
            }
            let mut total = 0;
            for &(v, _) in g.out_neighbors(cur) {
                if !seen.contains(&v) {
                    seen.push(v);
                    total += count(g, v, t, seen);
                    seen.pop();
                }
            }
            total
        }
        let mut seen = vec![n(0)];
        let total = count(&g, n(0), n(5), &mut seen);
        let ps = k_shortest_paths_hops(&g, n(0), n(5), 1000);
        assert_eq!(ps.len(), total);
    }

    #[test]
    fn k_zero_and_unreachable() {
        let g = test_graph();
        assert!(k_shortest_paths_hops(&g, n(0), n(5), 0).is_empty());
        assert!(k_shortest_paths_hops(&g, n(5), n(0), 4).is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let g = test_graph();
        let a = k_shortest_paths_hops(&g, n(0), n(5), 6);
        let b = k_shortest_paths_hops(&g, n(0), n(5), 6);
        assert_eq!(
            a.iter().map(|p| p.nodes().to_vec()).collect::<Vec<_>>(),
            b.iter().map(|p| p.nodes().to_vec()).collect::<Vec<_>>()
        );
    }
}
