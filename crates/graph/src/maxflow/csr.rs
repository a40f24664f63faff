//! Flat CSR residual graph shared by every max-flow kernel.
//!
//! Physical edge `e` owns the arc pair `2e` (forward, residual =
//! remaining capacity) and `2e + 1` (undo, residual = flow already
//! pushed), so `arc ^ 1` is always the paired reverse arc and
//! `cap[2e + 1]` *is* the flow on `e` — no separate flow array.
//! Adjacency is CSR-flattened (`adj[start[u]..start[u + 1]]`) so search
//! cursors are plain indices and a solve touches no HashMap and no
//! Vec-of-Vec. All buffers are sized once from the graph (the per-solve
//! arena) and reused across phases; [`IncrementalMaxFlow`] additionally
//! keeps the whole structure alive across solves.
//!
//! [`IncrementalMaxFlow`]: super::IncrementalMaxFlow

use crate::DiGraph;
use std::collections::VecDeque;

/// Sentinel for "no predecessor arc" in BFS back-pointers.
pub(crate) const ARC_NONE: u32 = u32::MAX;

/// The paired-arc residual network in CSR form. See the module docs for
/// the layout invariants.
pub(crate) struct CsrResidual {
    /// Head node of each arc; `to[a ^ 1]` is the tail of arc `a`.
    pub to: Vec<u32>,
    /// Residual capacity of each arc. `cap[2e + 1]` is the flow on `e`.
    pub cap: Vec<u64>,
    /// CSR arc ids: `adj[start[u]..start[u + 1]]` are the arcs leaving `u`.
    pub adj: Vec<u32>,
    /// CSR row offsets, length `n + 1`.
    pub start: Vec<usize>,
    m: usize,
}

impl CsrResidual {
    // Every `vec!` below is part of the per-solve arena: sized once from
    // the graph, never grown or reallocated inside the search loops.
    pub fn build(g: &DiGraph, capacity: &[u64]) -> Self {
        let n = g.node_count();
        let m = g.edge_count();
        let mut to = vec![0u32; 2 * m]; // pcn-lint: allow(hot-alloc) — per-solve arena, sized once
        let mut cap = vec![0u64; 2 * m]; // pcn-lint: allow(hot-alloc) — per-solve arena, sized once
        let mut deg = vec![0usize; n]; // pcn-lint: allow(hot-alloc) — per-solve arena, sized once
        for (e, u, v) in g.edges() {
            to[2 * e.index()] = v.0;
            cap[2 * e.index()] = capacity[e.index()];
            to[2 * e.index() + 1] = u.0;
            deg[u.index()] += 1;
            deg[v.index()] += 1;
        }
        let mut start = vec![0usize; n + 1]; // pcn-lint: allow(hot-alloc) — per-solve arena, sized once
        for i in 0..n {
            start[i + 1] = start[i] + deg[i];
        }
        let mut fill = start.clone(); // pcn-lint: allow(hot-alloc) — per-solve CSR fill cursor
        let mut adj = vec![0u32; 2 * m]; // pcn-lint: allow(hot-alloc) — per-solve arena, sized once
        for (e, u, v) in g.edges() {
            adj[fill[u.index()]] = (2 * e.index()) as u32;
            fill[u.index()] += 1;
            adj[fill[v.index()]] = (2 * e.index() + 1) as u32;
            fill[v.index()] += 1;
        }
        CsrResidual {
            to,
            cap,
            adj,
            start,
            m,
        }
    }

    /// Pushes `amount` along arc `a`, crediting the paired reverse arc.
    pub fn push(&mut self, a: usize, amount: u64) {
        self.cap[a] -= amount;
        self.cap[a ^ 1] += amount;
    }

    /// Extracts the raw (not yet channel-netted) per-edge flows.
    pub fn edge_flows(&self) -> Vec<u64> {
        (0..self.m).map(|e| self.cap[2 * e + 1]).collect() // pcn-lint: allow(hot-alloc) — the result vector itself, once per solve
    }
}

const UNREACHED: u32 = u32::MAX;

/// Reusable Dinic-phase machinery: the level graph and the DFS arc
/// cursors. Borrowed by the cold [`super::dinic`] kernel for a full
/// solve and kept alive by [`super::IncrementalMaxFlow`] so warm
/// re-solves allocate nothing.
pub(crate) struct DinicSearch {
    level: Vec<u32>,
    /// `it[u]` indexes into `adj`; arcs before it are known saturated or
    /// level-infeasible for the current phase (the memoization that
    /// makes blocking flow O(V·E) per phase).
    it: Vec<usize>,
    /// BFS frontier, hoisted out of [`DinicSearch::bfs`] so the
    /// per-phase level rebuilds reuse one buffer instead of allocating
    /// a fresh queue each sweep.
    frontier: VecDeque<usize>,
}

impl DinicSearch {
    pub fn new(n: usize) -> Self {
        DinicSearch {
            level: vec![UNREACHED; n], // pcn-lint: allow(hot-alloc) — per-solve arena, sized once
            it: vec![0; n],            // pcn-lint: allow(hot-alloc) — per-solve arena, sized once
            frontier: VecDeque::with_capacity(n), // pcn-lint: allow(hot-alloc) — per-solve BFS frontier, reused across phases
        }
    }

    /// Rebuilds the level graph; `true` iff `t` is reachable through
    /// arcs with positive residual.
    fn bfs(&mut self, r: &CsrResidual, s: usize, t: usize) -> bool {
        self.level.fill(UNREACHED);
        self.level[s] = 0;
        self.frontier.clear();
        self.frontier.push_back(s);
        while let Some(u) = self.frontier.pop_front() {
            for &a in &r.adj[r.start[u]..r.start[u + 1]] {
                let a = a as usize;
                let v = r.to[a] as usize;
                if r.cap[a] > 0 && self.level[v] == UNREACHED {
                    self.level[v] = self.level[u] + 1;
                    if v == t {
                        return true;
                    }
                    self.frontier.push_back(v);
                }
            }
        }
        false
    }

    /// Pushes one augmenting path of value ≤ `limit` along the level
    /// graph; 0 when `u` has no remaining level-feasible outlet.
    fn dfs(&mut self, r: &mut CsrResidual, u: usize, t: usize, limit: u64) -> u64 {
        if u == t {
            return limit;
        }
        while self.it[u] < r.start[u + 1] {
            let a = r.adj[self.it[u]] as usize;
            let v = r.to[a] as usize;
            if r.cap[a] > 0 && self.level[v] == self.level[u] + 1 {
                let pushed = self.dfs(r, v, t, limit.min(r.cap[a]));
                if pushed > 0 {
                    r.push(a, pushed);
                    return pushed;
                }
            }
            // Arc is dead for this phase (saturated, wrong level, or its
            // subtree is exhausted) — never look at it again.
            self.it[u] += 1;
        }
        0
    }

    /// Augments whatever flow `r` already carries up to maximum via
    /// Dinic phases. Returns the value *added*; starting from a zero
    /// flow this is the max-flow value, starting from a warm flow it is
    /// the warm-start top-up.
    // pcn-lint: hot — the Dinic kernel and the warm re-solve loop; buffers live in the arena above
    pub fn augment_to_max(&mut self, r: &mut CsrResidual, s: usize, t: usize) -> u64 {
        let mut added = 0u64;
        while self.bfs(r, s, t) {
            // Blocking flow: restart cursors, then exhaust the level graph.
            for (u, it) in self.it.iter_mut().enumerate() {
                *it = r.start[u];
            }
            loop {
                let pushed = self.dfs(r, s, t, u64::MAX);
                if pushed == 0 {
                    break;
                }
                added += pushed;
            }
        }
        added
    }
}

/// One shortest-path augmentation: BFS from `from` to `to` over
/// positive-residual arcs, then push `min(limit, bottleneck)` along the
/// discovered path. Returns the amount pushed (0 when unreachable).
///
/// `pred` is caller-owned scratch of length `n` (so Edmonds–Karp and the
/// incremental delta-apply loop reuse one buffer); it is reset here.
// pcn-lint: hot — shared augmentation primitive for the oracle and the delta-apply path
pub(crate) fn bfs_augment_once(
    r: &mut CsrResidual,
    from: usize,
    to: usize,
    limit: u64,
    pred: &mut [u32],
    frontier: &mut VecDeque<usize>,
) -> u64 {
    if from == to || limit == 0 {
        return 0;
    }
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
    let mut bottleneck = limit;
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
