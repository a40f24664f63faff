//! Warm-start incremental max-flow — the per-payment elephant oracle.
//!
//! Consecutive elephant payments perturb only the few channels the
//! previous payment debited, so recomputing the oracle max-flow from
//! scratch wastes almost all the work. [`IncrementalMaxFlow`] keeps the
//! CSR residual graph (and therefore the previous maximum flow) alive
//! across calls, applies capacity deltas edge by edge, and re-solves
//! with Dinic phases *from the surviving flow* — typically a single BFS
//! that immediately fails, against a full from-scratch solve.
//!
//! Delta semantics (see `docs/maxflow.md` for the worked example):
//!
//! * **increase** — the forward arc simply regains residual; the next
//!   solve tops the flow up through whatever new augmenting paths exist.
//! * **decrease above the current flow** — only slack is consumed; the
//!   standing flow is untouched and remains maximum.
//! * **decrease below the current flow** — the flow on the edge is
//!   clamped to the new capacity, leaving a surplus at its tail and a
//!   deficit at its head. The surplus is first **rerouted** tail → head
//!   through residual paths (the payment finds another way); whatever
//!   cannot be rerouted is **drained**: that amount is walked back
//!   tail → source and sink → head along residual undo arcs (both walks
//!   always succeed, by flow decomposition) and the flow value drops by
//!   exactly the undrainable remainder.

use super::csr::{bfs_augment_once, CsrResidual, DinicSearch};
use super::MaxFlow;
use crate::{DiGraph, EdgeId};
use pcn_types::NodeId;
use std::collections::VecDeque;

/// A max-flow instance that stays warm across capacity changes.
///
/// See the [`maxflow` module docs](super) for the delta semantics and
/// a usage example. Construction performs the cold
/// solve; [`IncrementalMaxFlow::solve`] after a batch of
/// [`IncrementalMaxFlow::set_capacity`] calls re-solves from the
/// previous flow. With no intervening deltas, `solve` returns the
/// cached result bit-identically.
pub struct IncrementalMaxFlow {
    r: CsrResidual,
    /// Current logical capacity of each physical edge.
    capacity: Vec<u64>,
    /// Reverse physical edge of each edge (`u32::MAX` when the channel
    /// is unidirectional) — lets net-flow extraction run without the
    /// originating [`DiGraph`].
    rev: Vec<u32>,
    s: usize,
    t: usize,
    value: u64,
    degenerate: bool,
    search: DinicSearch,
    pred: Vec<u32>,
    frontier: VecDeque<usize>,
    cached: Option<MaxFlow>,
}

impl IncrementalMaxFlow {
    /// Builds the residual graph and performs the initial cold solve.
    ///
    /// Degenerate queries (`s == t` or out-of-range endpoints) yield a
    /// permanently-zero instance, matching the stateless kernels.
    pub fn new(g: &DiGraph, s: NodeId, t: NodeId, capacity: &[u64]) -> Self {
        assert_eq!(
            capacity.len(),
            g.edge_count(),
            "capacity table size mismatch"
        );
        let n = g.node_count();
        let degenerate = s == t || s.index() >= n || t.index() >= n;
        let mut rev = vec![u32::MAX; g.edge_count()];
        for (e, _, _) in g.edges() {
            if let Some(re) = g.reverse_edge(e) {
                rev[e.index()] = re.index() as u32;
            }
        }
        let mut inc = IncrementalMaxFlow {
            r: CsrResidual::build(g, capacity),
            capacity: capacity.to_vec(),
            rev,
            s: s.index(),
            t: t.index(),
            value: 0,
            degenerate,
            search: DinicSearch::new(n.max(1)),
            pred: vec![u32::MAX; n.max(1)],
            frontier: VecDeque::with_capacity(n),
            cached: None,
        };
        if !inc.degenerate {
            inc.value = inc.search.augment_to_max(&mut inc.r, inc.s, inc.t);
        }
        inc
    }

    /// The flow value of the last completed solve (deltas applied since
    /// then may have already lowered it; they can never have raised it
    /// until [`IncrementalMaxFlow::solve`] runs).
    pub fn value(&self) -> u64 {
        self.value
    }

    /// The current logical capacity of edge `e`.
    pub fn capacity(&self, e: EdgeId) -> u64 {
        self.capacity[e.index()]
    }

    /// Sets edge `e`'s capacity to `new_cap`, repairing the standing
    /// flow in place (reroute, then drain — see the module docs). The
    /// flow stays feasible and conserving after every call; the next
    /// [`IncrementalMaxFlow::solve`] tops it back up to maximum.
    // pcn-lint: hot — the per-payment delta-apply path; scratch buffers live in the struct arena
    pub fn set_capacity(&mut self, e: EdgeId, new_cap: u64) {
        let ei = e.index();
        let old_cap = self.capacity[ei];
        if new_cap == old_cap {
            return;
        }
        self.capacity[ei] = new_cap;
        self.cached = None;
        if self.degenerate {
            return;
        }
        let fwd = 2 * ei;
        if new_cap > old_cap {
            self.r.cap[fwd] += new_cap - old_cap;
            return;
        }
        let flow = self.r.cap[fwd ^ 1];
        if flow <= new_cap {
            // Only slack shrinks; the standing (still maximum) flow fits.
            self.r.cap[fwd] = new_cap - flow;
            return;
        }
        // Clamp the edge to its new capacity; `excess` units of flow
        // must leave it.
        let excess = flow - new_cap;
        self.r.cap[fwd] = 0;
        self.r.cap[fwd ^ 1] = new_cap;
        let u = self.r.to[fwd ^ 1] as usize;
        let v = self.r.to[fwd] as usize;
        // Reroute u → v through whatever residual paths remain.
        let mut remaining = excess;
        while remaining > 0 {
            let pushed = bfs_augment_once(
                &mut self.r,
                u,
                v,
                remaining,
                &mut self.pred,
                &mut self.frontier,
            );
            if pushed == 0 {
                break;
            }
            remaining -= pushed;
        }
        // Drain what could not be rerouted: walk it back to the source
        // and forward from the sink along residual undo arcs. Both
        // drains move exactly `remaining` (flow decomposition guarantees
        // the paths exist), and the max-flow value drops with them.
        let mut back = if u == self.s { 0 } else { remaining };
        while back > 0 {
            let pushed = bfs_augment_once(
                &mut self.r,
                u,
                self.s,
                back,
                &mut self.pred,
                &mut self.frontier,
            );
            debug_assert!(pushed > 0, "u → s drain path must exist");
            if pushed == 0 {
                break;
            }
            back -= pushed;
        }
        let mut fwd_drain = if v == self.t { 0 } else { remaining };
        while fwd_drain > 0 {
            let pushed = bfs_augment_once(
                &mut self.r,
                self.t,
                v,
                fwd_drain,
                &mut self.pred,
                &mut self.frontier,
            );
            debug_assert!(pushed > 0, "t → v drain path must exist");
            if pushed == 0 {
                break;
            }
            fwd_drain -= pushed;
        }
        self.value -= remaining;
    }

    /// Re-solves to maximum from the standing flow and returns the
    /// result. With no deltas since the last solve this returns the
    /// cached [`MaxFlow`] bit-identically (no search runs at all).
    pub fn solve(&mut self) -> MaxFlow {
        if let Some(cached) = &self.cached {
            return cached.clone();
        }
        if !self.degenerate {
            self.value += self.search.augment_to_max(&mut self.r, self.s, self.t);
        }
        let mut flow = self.r.edge_flows();
        // Net opposing flows on bidirectional channels, same contract as
        // the stateless kernels (pairs captured at build time).
        for e in 0..flow.len() {
            let re = self.rev[e] as usize;
            if self.rev[e] != u32::MAX && e < re {
                let cancel = flow[e].min(flow[re]);
                flow[e] -= cancel;
                flow[re] -= cancel;
            }
        }
        let result = MaxFlow {
            value: self.value,
            edge_flow: flow,
        };
        self.cached = Some(result.clone());
        result
    }
}
