//! Classic Edmonds–Karp maximum flow — the differential-testing oracle.
//!
//! The textbook algorithm: one BFS per augmentation, always along a
//! *shortest* residual path, O(V·E²). Flash cannot use it directly —
//! "probing each channel of each path whenever an elephant payment
//! arrives does not scale" (§3.2) — and it is the wrong kernel for
//! Lightning-scale topologies (use [`super::push_relabel`] there). It
//! earns its keep as the *oracle*: while both kernels share the same
//! CSR residual layout (so layout bugs are caught by the unit fixtures,
//! not hidden by duplication), the *search strategies* are
//! algorithmically independent — one shortest path per BFS here, local
//! preflow pushes in push-relabel — so agreement on random digraphs
//! (see the property tests in [`super`]) is strong evidence both are
//! correct.

use super::csr::CsrResidual;
use super::{cancel_opposing_flows, MaxFlow};
use crate::DiGraph;
use pcn_types::NodeId;
use std::collections::VecDeque;

/// Sentinel for "no predecessor arc" in BFS back-pointers.
const ARC_NONE: u32 = u32::MAX;

/// Computes the maximum `s → t` flow given per-edge capacities
/// (`capacity[e.index()]`) via BFS augmenting paths, O(V·E²).
///
/// Residual arcs come in two kinds: forward physical edges with remaining
/// capacity, and "undo" arcs that walk a flow-carrying physical edge
/// backwards (`arc ^ 1` in the shared CSR layout). Flows pushed on the
/// two directions of a bidirectional channel additionally cancel at the
/// end (partial payments on different directions of the same channel
/// offset each other), so the reported per-edge flows are net.
pub fn edmonds_karp(g: &DiGraph, s: NodeId, t: NodeId, capacity: &[u64]) -> MaxFlow {
    assert_eq!(
        capacity.len(),
        g.edge_count(),
        "capacity table size mismatch"
    );
    let n = g.node_count();
    if s == t || s.index() >= n || t.index() >= n {
        return MaxFlow {
            value: 0,
            edge_flow: vec![0; g.edge_count()],
        };
    }
    let mut residual = CsrResidual::build(g, capacity);
    let mut pred = vec![ARC_NONE; n];
    let mut frontier = VecDeque::with_capacity(n);
    let mut value = 0u64;
    loop {
        let pushed = bfs_augment_once(
            &mut residual,
            s.index(),
            t.index(),
            &mut pred,
            &mut frontier,
        );
        if pushed == 0 {
            break;
        }
        value += pushed;
    }
    let mut flow = residual.edge_flows();
    cancel_opposing_flows(g, &mut flow);
    MaxFlow {
        value,
        edge_flow: flow,
    }
}

/// One shortest-path augmentation: BFS from `from` to `to` over
/// positive-residual arcs, then push the bottleneck along the
/// discovered path. Returns the amount pushed (0 when unreachable).
///
/// `pred` (length `n`) and `frontier` are caller-owned scratch, reset
/// here, so the augmentation loop reuses one pair of buffers.
fn bfs_augment_once(
    r: &mut CsrResidual,
    from: usize,
    to: usize,
    pred: &mut [u32],
    frontier: &mut VecDeque<usize>,
) -> u64 {
    pred.fill(ARC_NONE);
    frontier.clear();
    frontier.push_back(from);
    'bfs: while let Some(u) = frontier.pop_front() {
        for &a in &r.adj[r.start[u]..r.start[u + 1]] {
            let a = a as usize;
            let v = r.to[a] as usize;
            if v != from && r.cap[a] > 0 && pred[v] == ARC_NONE {
                pred[v] = a as u32;
                if v == to {
                    break 'bfs;
                }
                frontier.push_back(v);
            }
        }
    }
    if pred[to] == ARC_NONE {
        return 0;
    }
    // Bottleneck along the discovered path, walking tails via `a ^ 1`.
    let mut bottleneck = u64::MAX;
    let mut cur = to;
    while cur != from {
        let a = pred[cur] as usize;
        bottleneck = bottleneck.min(r.cap[a]);
        cur = r.to[a ^ 1] as usize;
    }
    let mut cur = to;
    while cur != from {
        let a = pred[cur] as usize;
        r.push(a, bottleneck);
        cur = r.to[a ^ 1] as usize;
    }
    bottleneck
}
