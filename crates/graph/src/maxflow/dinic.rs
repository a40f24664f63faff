//! Dinic's blocking-flow maximum flow.
//!
//! Level-graph BFS plus blocking-flow DFS with iterator-position
//! memoization, O(V²·E) worst case and far faster in practice on the
//! sparse small-world / scale-free topologies PCNs exhibit (unit-ish
//! bottlenecks make each phase cheap and the phase count small).
//!
//! The phase machinery itself lives in [`super::csr::DinicSearch`] on
//! the shared CSR residual graph: this file is the cold-solve entry
//! point, and [`super::IncrementalMaxFlow`] reuses the same search for
//! warm re-solves after capacity deltas.

use super::csr::{CsrResidual, DinicSearch};
use super::{cancel_opposing_flows, MaxFlow};
use crate::DiGraph;
use pcn_types::NodeId;

/// Computes the maximum `s → t` flow with Dinic's algorithm.
///
/// Same contract as [`super::edmonds_karp`]: `capacity` is indexed by
/// [`crate::EdgeId`] and the returned per-edge flows are net (opposing
/// flows on bidirectional channels cancelled).
pub fn dinic(g: &DiGraph, s: NodeId, t: NodeId, capacity: &[u64]) -> MaxFlow {
    assert_eq!(
        capacity.len(),
        g.edge_count(),
        "capacity table size mismatch"
    );
    let n = g.node_count();
    if s == t || s.index() >= n || t.index() >= n {
        return MaxFlow {
            value: 0,
            edge_flow: vec![0; g.edge_count()], // pcn-lint: allow(hot-alloc) — degenerate-query result, once per solve
        };
    }
    let mut residual = CsrResidual::build(g, capacity);
    let mut search = DinicSearch::new(n);
    let value = search.augment_to_max(&mut residual, s.index(), t.index());
    let mut flow = residual.edge_flows();
    cancel_opposing_flows(g, &mut flow);
    MaxFlow {
        value,
        edge_flow: flow,
    }
}
