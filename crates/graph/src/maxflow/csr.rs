//! Flat CSR residual graph of the push-relabel kernel.
//!
//! Physical edge `e` owns the arc pair `2e` (forward, residual =
//! remaining capacity) and `2e + 1` (undo, residual = flow already
//! pushed), so `arc ^ 1` is always the paired reverse arc and
//! `cap[2e + 1]` *is* the flow on `e` — no separate flow array.
//! Adjacency is CSR-flattened (`adj[start[u]..start[u + 1]]`) so search
//! cursors are plain indices and a solve touches no HashMap and no
//! Vec-of-Vec. All buffers are sized once from the graph (the per-solve
//! arena) and reused across phases.

use crate::DiGraph;

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
    /// Builds the arena: two passes over the edge list (degree count,
    /// fill by cursor), every vector sized once and never grown.
    pub fn build(g: &DiGraph, capacity: &[u64]) -> Self {
        let n = g.node_count();
        let m = g.edge_count();
        let mut to = vec![0u32; 2 * m];
        let mut cap = vec![0u64; 2 * m];
        let mut deg = vec![0usize; n];
        for (e, u, v) in g.edges() {
            to[2 * e.index()] = v.0;
            cap[2 * e.index()] = capacity[e.index()];
            to[2 * e.index() + 1] = u.0;
            deg[u.index()] += 1;
            deg[v.index()] += 1;
        }
        let mut start = vec![0usize; n + 1];
        for i in 0..n {
            start[i + 1] = start[i] + deg[i];
        }
        let mut fill = start.clone();
        let mut adj = vec![0u32; 2 * m];
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
        (0..self.m).map(|e| self.cap[2 * e + 1]).collect()
    }
}
