//! Highest-label push-relabel maximum flow — the workspace's one kernel.
//!
//! Goldberg–Tarjan preflow-push with the two heuristics that make it
//! the practical winner on sparse PCN topologies:
//!
//! * **gap heuristic** — when some height `h < n` empties, every node
//!   stranded at `h < height < n` can no longer reach the sink through
//!   a valid labeling and is lifted straight to `n + 1`, skipping the
//!   one-step relabels it would otherwise grind through;
//! * **periodic global relabeling** — every ~`n` relabels the exact
//!   distance labels are recomputed by backward BFS from the sink (and,
//!   for nodes cut off from the sink, from the source at offset `n`),
//!   collapsing the drift that accumulates from local relabels.
//!
//! The kernel runs a single phase with heights up to `2n`: excess that
//! cannot reach `t` climbs above `n` and drains back to `s` through the
//! same discharge loop, so termination leaves a genuine maximum *flow*
//! (conservation holds everywhere), not just a min-cut preflow. Worst
//! case O(V²·√E); in practice the discharge count on the paper's
//! small-world / scale-free graphs is near-linear (see `docs/maxflow.md`
//! for the measured times). Its flows are checked by
//! [`super::certify`], not against a second kernel.
//!
//! Selection is deterministic: buckets are plain `Vec` stacks, scanned
//! highest-first, and the CSR arc order fixes every push order.

use super::csr::CsrResidual;
use super::{cancel_opposing_flows, MaxFlow};
use crate::DiGraph;
use pcn_types::NodeId;
use std::collections::VecDeque;

/// Computes the maximum `s → t` flow with highest-label push-relabel.
///
/// `capacity` is indexed by [`crate::EdgeId`] and the returned per-edge
/// flows are net (opposing flows on bidirectional channels cancelled).
pub fn push_relabel(g: &DiGraph, s: NodeId, t: NodeId, capacity: &[u64]) -> MaxFlow {
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
    let mut r = CsrResidual::build(g, capacity);
    let value = HiLevel::new(n, s.index(), t.index()).run(&mut r);
    let mut flow = r.edge_flows();
    cancel_opposing_flows(g, &mut flow);
    MaxFlow {
        value,
        edge_flow: flow,
    }
}

/// Per-solve push-relabel state (heights, excess, buckets). All buffers
/// are sized once here — the discharge loop below allocates nothing.
struct HiLevel {
    n: usize,
    s: usize,
    t: usize,
    height: Vec<u32>,
    excess: Vec<u64>,
    /// Current-arc pointers into `adj` (the standard discharge cursor).
    cur: Vec<usize>,
    /// `buckets[h]` holds active nodes believed to be at height `h`;
    /// entries are validated lazily on pop, so gap lifts and global
    /// relabels never have to hunt down stale queue entries.
    buckets: Vec<Vec<u32>>,
    /// Number of nodes at each height (drives the gap heuristic).
    count: Vec<u32>,
    /// Highest bucket that may hold an active node.
    highest: usize,
    /// Relabels since the last global update.
    since_update: usize,
    frontier: VecDeque<usize>,
}

const UNSET: u32 = u32::MAX;

impl HiLevel {
    fn new(n: usize, s: usize, t: usize) -> Self {
        HiLevel {
            n,
            s,
            t,
            height: vec![0; n],
            excess: vec![0; n],
            cur: vec![0; n],
            buckets: vec![Vec::new(); 2 * n + 1],
            count: vec![0; 2 * n + 1],
            highest: 0,
            since_update: 0,
            frontier: VecDeque::with_capacity(n),
        }
    }

    /// Exact distance labels by backward BFS: height = dist-to-`t` over
    /// residual arcs; nodes cut off from `t` get `n +` dist-to-`s`
    /// (their excess can only drain back to the source); nodes cut off
    /// from both are parked at `2n` (they carry no excess). Rebuilds
    /// the buckets and height counts from scratch.
    fn global_relabel(&mut self, r: &CsrResidual) {
        let n = self.n;
        self.height.fill(UNSET);
        self.height[self.t] = 0;
        self.frontier.clear();
        self.frontier.push_back(self.t);
        // An arc `a: v → w` has a residual *reverse* `a ^ 1: w → v` iff
        // cap[a ^ 1] > 0, so scanning v's own arc list finds exactly the
        // nodes w that can reach v — a backward BFS without an inverse
        // adjacency structure.
        while let Some(v) = self.frontier.pop_front() {
            for &a in &r.adj[r.start[v]..r.start[v + 1]] {
                let a = a as usize;
                let w = r.to[a] as usize;
                if w != self.s && self.height[w] == UNSET && r.cap[a ^ 1] > 0 {
                    self.height[w] = self.height[v] + 1;
                    self.frontier.push_back(w);
                }
            }
        }
        self.height[self.s] = n as u32;
        self.frontier.clear();
        self.frontier.push_back(self.s);
        while let Some(v) = self.frontier.pop_front() {
            for &a in &r.adj[r.start[v]..r.start[v + 1]] {
                let a = a as usize;
                let w = r.to[a] as usize;
                if self.height[w] == UNSET && r.cap[a ^ 1] > 0 {
                    self.height[w] = self.height[v] + 1;
                    self.frontier.push_back(w);
                }
            }
        }
        for h in &mut self.height {
            if *h == UNSET {
                *h = 2 * n as u32;
            }
        }
        self.count.fill(0);
        for b in &mut self.buckets {
            b.clear();
        }
        self.highest = 0;
        self.cur.copy_from_slice(&r.start[..n]);
        for v in 0..n {
            let h = self.height[v] as usize;
            self.count[h] += 1;
            if v != self.s && v != self.t && self.excess[v] > 0 && h < 2 * n {
                self.buckets[h].push(v as u32);
                self.highest = self.highest.max(h);
            }
        }
        self.since_update = 0;
    }

    /// Makes `v` active at its current height (no-op bookkeeping for
    /// `s`/`t`, which never enter the buckets).
    fn activate(&mut self, v: usize) {
        let h = self.height[v] as usize;
        self.buckets[h].push(v as u32);
        self.highest = self.highest.max(h);
    }

    /// The main loop. Returns the max-flow value (the excess that
    /// reached `t`).
    fn run(&mut self, r: &mut CsrResidual) -> u64 {
        let n = self.n;
        // Saturate every source arc *first*: the undo arcs this creates
        // are what give source-adjacent nodes their residual path back
        // to `s`, and the global relabel must see them to give every
        // excess-holding node a drainable height.
        for ai in r.start[self.s]..r.start[self.s + 1] {
            let a = r.adj[ai] as usize;
            let v = r.to[a] as usize;
            let amount = r.cap[a];
            if amount > 0 && v != self.s {
                r.push(a, amount);
                self.excess[v] += amount;
            }
        }
        // Exact initial heights; also queues every active node.
        self.global_relabel(r);
        let update_freq = n.max(16);
        // `pop_active` finds the highest bucket with a *valid* entry.
        while let Some(u) = self.pop_active() {
            self.discharge(r, u);
            if self.since_update >= update_freq {
                self.global_relabel(r);
            }
        }
        self.excess[self.t]
    }

    /// Pops the highest active node, skipping entries staled by gap
    /// lifts or global relabels.
    fn pop_active(&mut self) -> Option<usize> {
        loop {
            while self.highest > 0 && self.buckets[self.highest].is_empty() {
                self.highest -= 1;
            }
            let h = self.highest;
            let v = self.buckets[h].pop()?;
            let v = v as usize;
            if self.height[v] as usize == h && self.excess[v] > 0 && h < 2 * self.n {
                return Some(v);
            }
            // Stale: the node moved height (gap/global relabel) or was
            // drained by an earlier discharge. If it is still active it
            // has a live entry in its current bucket.
            if self.buckets[h].is_empty() && h == 0 {
                return None;
            }
        }
    }

    /// Pushes `u`'s excess across admissible arcs, relabeling when the
    /// arc list is exhausted; returns when the excess hits zero or the
    /// node is relabeled (it is then requeued so the highest-label
    /// discipline can reconsider).
    fn discharge(&mut self, r: &mut CsrResidual, u: usize) {
        let n = self.n;
        while self.excess[u] > 0 {
            if self.cur[u] == r.start[u + 1] {
                // Arc list exhausted: relabel to one above the lowest
                // residual neighbor.
                let mut min_h = u32::MAX;
                for ai in r.start[u]..r.start[u + 1] {
                    let a = r.adj[ai] as usize;
                    if r.cap[a] > 0 {
                        min_h = min_h.min(self.height[r.to[a] as usize]);
                    }
                }
                let old_h = self.height[u] as usize;
                self.count[old_h] -= 1;
                if min_h == u32::MAX || min_h as usize + 1 >= 2 * n {
                    // No outlet at all (or only ones that would push the
                    // height past 2n, impossible for a node holding
                    // excess): park at 2n and drop the excess from play.
                    self.height[u] = 2 * n as u32;
                    self.count[2 * n] += 1;
                    return;
                }
                self.height[u] = min_h + 1;
                self.count[min_h as usize + 1] += 1;
                self.cur[u] = r.start[u];
                self.since_update += 1;
                if old_h < n && self.count[old_h] == 0 {
                    self.gap(old_h);
                }
                if (self.height[u] as usize) < 2 * n {
                    self.activate(u);
                }
                return;
            }
            let a = r.adj[self.cur[u]] as usize;
            let v = r.to[a] as usize;
            if r.cap[a] > 0 && self.height[u] == self.height[v] + 1 {
                let amount = self.excess[u].min(r.cap[a]);
                r.push(a, amount);
                self.excess[u] -= amount;
                if v != self.s && v != self.t {
                    if self.excess[v] == 0 {
                        self.activate(v);
                    }
                    self.excess[v] += amount;
                } else {
                    self.excess[v] += amount;
                }
            } else {
                self.cur[u] += 1;
            }
        }
    }

    /// Gap heuristic: height `h < n` just emptied, so every node
    /// stranded strictly between `h` and `n` is lifted to `n + 1`
    /// (its shortest path to the sink is gone for good). Stale bucket
    /// entries are left behind for `pop_active` to skip.
    fn gap(&mut self, h: usize) {
        let n = self.n;
        for v in 0..n {
            let hv = self.height[v] as usize;
            if v != self.s && hv > h && hv < n {
                self.count[hv] -= 1;
                self.height[v] = n as u32 + 1;
                self.count[n + 1] += 1;
                if self.excess[v] > 0 {
                    self.buckets[n + 1].push(v as u32);
                    self.highest = self.highest.max(n + 1);
                }
            }
        }
    }
}
