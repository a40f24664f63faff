//! k edge-disjoint shortest paths.
//!
//! Spider "uses 4 edge-disjoint paths for each payment" (§4.1). The
//! standard construction finds a BFS shortest path, removes its edges,
//! and repeats — yielding pairwise edge-disjoint paths in non-decreasing
//! hop order. The paper's Figure 5(b) shows why this can be suboptimal
//! (which is Flash's motivation); the unit tests reproduce that example.

use crate::{bfs, path::Path, DiGraph, EdgeId};
use pcn_types::NodeId;
use std::collections::BTreeSet;

/// Finds up to `k` pairwise edge-disjoint fewest-hops paths `s → t`,
/// greedily shortest-first.
pub fn edge_disjoint_paths(g: &DiGraph, s: NodeId, t: NodeId, k: usize) -> Vec<Path> {
    let mut used: BTreeSet<EdgeId> = BTreeSet::new();
    let mut out = Vec::new();
    while out.len() < k {
        let Some(p) = bfs::shortest_path_filtered(g, s, t, |e| !used.contains(&e)) else {
            break;
        };
        for (u, v) in p.channels() {
            #[expect(
                clippy::expect_used,
                reason = "the path was just produced by BFS over this graph"
            )]
            let e = g.edge(u, v).expect("path edge must exist");
            used.insert(e);
        }
        out.push(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Figure 5(b) of the paper: the 1→2 link has abundant capacity
    /// (100); two *edge-disjoint* paths are 1-2-3-6 and 1-5-4-6 with
    /// total capacity 20 + 30 = 50, while two simple shortest paths
    /// through 1→2 (1-2-3-6 and 1-2-4-6) give 20 + 20 capped by
    /// 1→2 = 100, i.e. 40... the paper says 60 using caps 2→3 = 30,
    /// 2→4 = 30. Either way the *structural* claim tested here is that
    /// edge-disjoint paths avoid reusing 1→2.
    fn fig5b() -> DiGraph {
        let mut g = DiGraph::new(6);
        for (u, v) in [(1, 2), (1, 5), (2, 3), (2, 4), (3, 6), (4, 6), (5, 4)] {
            g.add_edge(n(u - 1), n(v - 1)).unwrap();
        }
        g
    }

    #[test]
    fn paths_are_edge_disjoint() {
        let g = fig5b();
        let ps = edge_disjoint_paths(&g, n(0), n(5), 3);
        assert!(ps.len() >= 2);
        let mut seen = BTreeSet::new();
        for p in &ps {
            for (u, v) in p.channels() {
                assert!(seen.insert((u, v)), "edge {u}→{v} reused");
            }
        }
    }

    #[test]
    fn second_path_avoids_first_paths_edges() {
        let g = fig5b();
        let ps = edge_disjoint_paths(&g, n(0), n(5), 2);
        assert_eq!(ps.len(), 2);
        // First is a 3-hop path through node 2; second cannot reuse 1→2
        // if the first used it.
        let first_uses_12 = ps[0].uses_channel(n(0), n(1));
        let second_uses_12 = ps[1].uses_channel(n(0), n(1));
        assert!(!(first_uses_12 && second_uses_12));
    }

    #[test]
    fn shortest_first_ordering() {
        let g = fig5b();
        let ps = edge_disjoint_paths(&g, n(0), n(5), 3);
        for w in ps.windows(2) {
            assert!(w[0].hops() <= w[1].hops());
        }
    }

    #[test]
    fn k_larger_than_disjoint_count_returns_fewer() {
        let g = fig5b();
        // Out-degree of node 1 is 2, so at most 2 edge-disjoint paths.
        let ps = edge_disjoint_paths(&g, n(0), n(5), 10);
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn no_path_returns_empty() {
        let mut g = DiGraph::new(2);
        g.add_edge(n(1), n(0)).unwrap();
        assert!(edge_disjoint_paths(&g, n(0), n(1), 4).is_empty());
    }
}
