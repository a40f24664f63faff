//! Maximum-flow kernels and flow utilities.
//!
//! Flash's own "modified max-flow" is Algorithm 1
//! (`flash_core::flash::elephant::find_paths`), which probes as it
//! searches and uses none of this module. What lives here is the
//! *ground truth* that algorithm is checked against — the oracle tests
//! validate the probe-bounded flow against the true value, and the
//! Figure 11 `m = 0` sweep uses it as the mice upper bound — in two
//! kernels (`docs/maxflow.md` has the history of the ones that left):
//!
//! * [`push_relabel`] / [`PushRelabel`] — highest-label push-relabel
//!   with the gap heuristic and periodic global relabeling. The kernel
//!   every caller outside the tests uses: `flash-core`'s
//!   `oracle_max_flow`, the Figure 11 `m = 0` bound, flashbench's
//!   `graph.maxflow.push_relabel_us_p50` replay. The `maxflow_bench`
//!   binary records its gap over Edmonds–Karp in `BENCH_maxflow.json`,
//!   and `bench_gate maxflow` fails when it stops beating the oracle.
//! * [`edmonds_karp`] / [`EdmondsKarp`] — the textbook BFS
//!   augmenting-path algorithm, O(V·E²). **Kept as the differential
//!   oracle**: its search strategy (one shortest path per BFS) is
//!   algorithmically independent of preflow pushes, so agreement on
//!   random digraphs (asserted by the property tests below) is strong
//!   evidence both are correct. Prefer it only in tests and tiny
//!   fixtures.
//!
//! # The `MaxFlowSolver` contract
//!
//! Both kernels implement [`MaxFlowSolver`], take a dense `capacity`
//! slice indexed by [`EdgeId`], and report **net** per-edge flows:
//! opposing flows on the two directions of a bidirectional channel are
//! cancelled, matching how channel balances actually move. Kernels are
//! **deterministic** (same graph + capacities ⇒ bit-identical
//! [`MaxFlow`], with no wall-clock, hash-order, or thread dependence —
//! the workspace `clippy.toml` bans all three) and **panic-free** on
//! well-formed inputs (`clippy::unwrap_used` / `expect_used` are denied:
//! every `unwrap`/`expect` in this module carries an `#[expect]` naming
//! its invariant; the only `assert!` is the capacity-table length
//! check, a caller contract violation).
//!
//! ```
//! use pcn_graph::maxflow::{EdmondsKarp, MaxFlowSolver, PushRelabel};
//! use pcn_graph::DiGraph;
//! use pcn_types::NodeId;
//!
//! let mut g = DiGraph::new(3);
//! g.add_edge(NodeId(0), NodeId(1)).unwrap();
//! g.add_edge(NodeId(1), NodeId(2)).unwrap();
//! let flow = PushRelabel.max_flow(&g, NodeId(0), NodeId(2), &[10, 7]);
//! assert_eq!(flow.value, 7);
//! assert_eq!(flow.edge_flow, [7, 7]);
//! assert_eq!(EdmondsKarp.max_flow(&g, NodeId(0), NodeId(2), &[10, 7]).value, 7);
//! ```
//!
//! # Shared residual layout
//!
//! Both kernels run on one flat CSR residual graph (`csr.rs`): physical
//! edge `e` owns arcs `2e` (forward) and `2e + 1` (undo), so **`arc ^ 1`
//! is always the paired reverse arc** and `cap[2e + 1]` is the flow on
//! `e`. Capacities are index-addressed; a solve allocates only its
//! fixed-size arena — no per-solve HashMaps, no Vec-of-Vec adjacency.
//!
//! [`decompose_into_paths`] turns a finished flow into executable
//! `(path, amount)` parts, and [`decompose_sparse`] does the same for a
//! flow given on a short edge list (an elephant's fee split), checked
//! against it; [`min_cut_capacity`] computes the min-cut value the
//! max-flow = min-cut property tests compare against.

mod csr;
mod edmonds_karp;
mod push_relabel;

pub use edmonds_karp::edmonds_karp;
pub use push_relabel::push_relabel;

use crate::{path::Path, DiGraph, EdgeId};
use pcn_types::NodeId;
use std::collections::VecDeque;

/// Outcome of a max-flow computation.
#[derive(Clone, Debug)]
pub struct MaxFlow {
    /// Total flow value from source to sink.
    pub value: u64,
    /// Net flow assigned to each directed edge (indexed by [`EdgeId`]).
    pub edge_flow: Vec<u64>,
}

/// A max-flow kernel behind a common interface, so consumers (the
/// oracle, the figure harness, the benches) can swap algorithms without
/// touching call sites.
pub trait MaxFlowSolver {
    /// Kernel name for bench reports and logs.
    fn name(&self) -> &'static str;

    /// Computes the maximum `s → t` flow given per-edge capacities
    /// (`capacity[e.index()]`).
    fn max_flow(&self, g: &DiGraph, s: NodeId, t: NodeId, capacity: &[u64]) -> MaxFlow;
}

/// The [`edmonds_karp`] kernel as a [`MaxFlowSolver`] (the oracle).
#[derive(Clone, Copy, Debug, Default)]
pub struct EdmondsKarp;

impl MaxFlowSolver for EdmondsKarp {
    fn name(&self) -> &'static str {
        "edmonds-karp"
    }

    fn max_flow(&self, g: &DiGraph, s: NodeId, t: NodeId, capacity: &[u64]) -> MaxFlow {
        edmonds_karp(g, s, t, capacity)
    }
}

/// The [`push_relabel`] kernel as a [`MaxFlowSolver`] (what every
/// non-test caller uses — see `docs/maxflow.md`).
#[derive(Clone, Copy, Debug, Default)]
pub struct PushRelabel;

impl MaxFlowSolver for PushRelabel {
    fn name(&self) -> &'static str {
        "push-relabel"
    }

    fn max_flow(&self, g: &DiGraph, s: NodeId, t: NodeId, capacity: &[u64]) -> MaxFlow {
        push_relabel(g, s, t, capacity)
    }
}

/// Cancels opposing flows on the two directions of each bidirectional
/// channel so the reported per-edge flows are net (matches how balances
/// actually move). Shared by both kernels and by the fee splitter.
pub fn cancel_opposing_flows(g: &DiGraph, flow: &mut [u64]) {
    for (e, _, _) in g.edges() {
        if let Some(r) = g.reverse_edge(e) {
            if e.index() < r.index() {
                let cancel = flow[e.index()].min(flow[r.index()]);
                flow[e.index()] -= cancel;
                flow[r.index()] -= cancel;
            }
        }
    }
}

/// The capacity of the minimum s–t cut implied by a finished max-flow
/// run: edges from the residual-reachable set to its complement.
///
/// By max-flow/min-cut these must be equal; the property tests assert it.
pub fn min_cut_capacity(g: &DiGraph, s: NodeId, flowres: &MaxFlow, capacity: &[u64]) -> u64 {
    // Recompute residual reachability from s.
    let n = g.node_count();
    let mut visited = vec![false; n];
    visited[s.index()] = true;
    let mut q = VecDeque::new();
    q.push_back(s);
    while let Some(u) = q.pop_front() {
        for &(v, e) in g.out_neighbors(u) {
            if !visited[v.index()] && capacity[e.index()] > flowres.edge_flow[e.index()] {
                visited[v.index()] = true;
                q.push_back(v);
            }
        }
        for &(w, e) in g.in_neighbors(u) {
            if !visited[w.index()] && flowres.edge_flow[e.index()] > 0 {
                visited[w.index()] = true;
                q.push_back(w);
            }
        }
    }
    let mut cut = 0u64;
    for (e, u, v) in g.edges() {
        if visited[u.index()] && !visited[v.index()] {
            cut += capacity[e.index()];
        }
    }
    cut
}

/// Decomposes an edge flow (`flow[e]` per [`EdgeId`], consumed as the
/// working copy) into at most `E` weighted paths via repeated s→t walks
/// along positive-flow edges. Used to turn a max-flow or a fee split
/// into an executable multi-path payment.
///
/// Each node keeps a cursor into its adjacency list: flow only decreases
/// during decomposition, so an arc found exhausted stays exhausted and
/// the cursor never rewinds — total adjacency scan work is O(E) across
/// *all* walks (the previous implementation re-allocated a `visited` vec
/// and did a linear `find` per step). Cycles in the flow (legitimate:
/// any flow decomposes into paths *plus cycles*) carry no s→t value and
/// are cancelled in place when the walk re-enters a node.
pub fn decompose_into_paths(
    g: &DiGraph,
    s: NodeId,
    t: NodeId,
    mut flow: Vec<u64>,
) -> Vec<(Path, u64)> {
    let n = g.node_count();
    let mut out = Vec::new();
    if s == t || s.index() >= n || t.index() >= n {
        return out;
    }
    let mut cursor = vec![0usize; n];
    // pos[v] = index of v in the current walk, usize::MAX when absent.
    let mut pos = vec![usize::MAX; n];
    'walks: loop {
        let mut nodes = vec![s];
        let mut edges: Vec<EdgeId> = Vec::new();
        pos[s.index()] = 0;
        loop {
            #[expect(clippy::unwrap_used, reason = "the walk starts non-empty at s")]
            let u = *nodes.last().unwrap();
            if u == t {
                break;
            }
            let adj = g.out_neighbors(u);
            let c = &mut cursor[u.index()];
            while *c < adj.len() && flow[adj[*c].1.index()] == 0 {
                *c += 1;
            }
            if *c == adj.len() {
                // No positive-flow arc leaves u. At the source this means
                // the flow is fully decomposed; mid-walk the input must
                // violate conservation — stop either way (callers treat
                // a total shortfall as "decomposition failed").
                for v in &nodes {
                    pos[v.index()] = usize::MAX;
                }
                break 'walks;
            }
            let (v, e) = adj[*c];
            if pos[v.index()] != usize::MAX {
                // Cycle v → … → u → v: cancel its flow in place.
                let at = pos[v.index()];
                let mut cyc = flow[e.index()];
                for ce in &edges[at..] {
                    cyc = cyc.min(flow[ce.index()]);
                }
                flow[e.index()] -= cyc;
                for ce in &edges[at..] {
                    flow[ce.index()] -= cyc;
                }
                for dropped in &nodes[at + 1..] {
                    pos[dropped.index()] = usize::MAX;
                }
                nodes.truncate(at + 1);
                edges.truncate(at);
                continue;
            }
            pos[v.index()] = nodes.len();
            nodes.push(v);
            edges.push(e);
        }
        // Reached t: emit the path and subtract its bottleneck. Every
        // edge still on the walk had positive flow when appended and has
        // not been decremented since (cycle cancellation only touches the
        // truncated suffix), so the bottleneck is ≥ 1.
        #[expect(
            clippy::expect_used,
            reason = "s != t, so the walk has at least one edge"
        )]
        let bottleneck = edges
            .iter()
            .map(|e| flow[e.index()])
            .min()
            .expect("s != t, so the walk has at least one edge");
        for e in &edges {
            flow[e.index()] -= bottleneck;
        }
        for v in &nodes {
            pos[v.index()] = usize::MAX;
        }
        out.push((Path::from_vec_unchecked(nodes), bottleneck));
    }
    out
}

/// [`decompose_into_paths`] of the flow that puts `flow[i]` on
/// `edges[i]` (distinct edges) and nothing elsewhere, over those edges
/// alone: the same parts in the same order, with no array sized by the
/// graph. Elephant splits use it; their flows cover a few dozen edges.
///
/// The dense walk scans each node's out-adjacency past zero-flow edges
/// with a cursor that never rewinds. Out-adjacency lists are in edge id
/// order (edges are only appended), so the positive-flow edges sorted
/// by tail and id are each tail's run of that scan with the zeros left
/// out, and a cursor per run makes the same choices.
pub fn decompose_sparse(
    graph: &DiGraph,
    s: NodeId,
    t: NodeId,
    edges: &[EdgeId],
    mut flow: Vec<u64>,
) -> Vec<(Path, u64)> {
    let mut out = Vec::new();
    if s == t {
        return out;
    }
    // (tail, edge, head, number) of every positive-flow edge.
    let mut arcs: Vec<(NodeId, EdgeId, NodeId, usize)> = edges
        .iter()
        .zip(&flow)
        .enumerate()
        .filter(|&(_, (_, &f))| f > 0)
        .map(|(i, (&e, _))| {
            let (u, v) = graph.endpoints(e);
            (u, e, v, i)
        })
        .collect();
    arcs.sort_unstable();
    // `tails[r]` owns `arcs[start[r]..start[r + 1]]`; `cursor[r]` is its
    // next arc and `pos[r]` its index in the walk (`usize::MAX` if off).
    let mut tails: Vec<NodeId> = Vec::new();
    let mut start = Vec::new();
    for (i, &(u, ..)) in arcs.iter().enumerate() {
        if tails.last() != Some(&u) {
            tails.push(u);
            start.push(i);
        }
    }
    start.push(arcs.len());
    let mut cursor = start.clone();
    let mut pos = vec![usize::MAX; tails.len()];
    let run = |v: NodeId| tails.binary_search(&v).ok();
    'walks: loop {
        let mut nodes = vec![s];
        let mut walk: Vec<usize> = Vec::new();
        if let Some(r) = run(s) {
            pos[r] = 0;
        }
        while let Some(&u) = nodes.last() {
            if u == t {
                break;
            }
            let Some(r) = run(u) else {
                // No positive-flow arc leaves u: decomposed at the source,
                // a conservation breach mid-walk; stop either way.
                break 'walks;
            };
            let c = &mut cursor[r];
            while *c < start[r + 1] && flow[arcs[*c].3] == 0 {
                *c += 1;
            }
            if *c == start[r + 1] {
                break 'walks;
            }
            let (_, _, v, i) = arcs[*c];
            if let Some(at) = run(v).map(|rv| pos[rv]).filter(|&at| at != usize::MAX) {
                // Cycle v → … → u → v: cancel its flow in place.
                let cyc = walk[at..].iter().fold(flow[i], |m, &ce| m.min(flow[ce]));
                flow[i] -= cyc;
                for &ce in &walk[at..] {
                    flow[ce] -= cyc;
                }
                for dropped in &nodes[at + 1..] {
                    if let Some(rd) = run(*dropped) {
                        pos[rd] = usize::MAX;
                    }
                }
                nodes.truncate(at + 1);
                walk.truncate(at);
                continue;
            }
            if let Some(rv) = run(v) {
                pos[rv] = nodes.len();
            }
            nodes.push(v);
            walk.push(i);
        }
        // Every edge on the walk had positive flow when appended and has
        // not been decremented since, so the bottleneck is ≥ 1.
        let bottleneck = walk.iter().map(|&i| flow[i]).min().unwrap_or(0);
        for &i in &walk {
            flow[i] -= bottleneck;
        }
        for v in &nodes {
            if let Some(r) = run(*v) {
                pos[r] = usize::MAX;
            }
        }
        out.push((Path::from_vec_unchecked(nodes), bottleneck));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn solvers() -> Vec<Box<dyn MaxFlowSolver>> {
        vec![Box::new(EdmondsKarp), Box::new(PushRelabel)]
    }

    /// CLRS figure 26.1-style network with known max flow 23.
    fn clrs() -> (DiGraph, Vec<u64>) {
        let mut g = DiGraph::new(6);
        let mut cap = Vec::new();
        for (u, v, c) in [
            (0, 1, 16),
            (0, 2, 13),
            (1, 3, 12),
            (2, 1, 4),
            (2, 4, 14),
            (3, 2, 9),
            (3, 5, 20),
            (4, 3, 7),
            (4, 5, 4),
        ] {
            g.add_edge(n(u), n(v)).unwrap();
            cap.push(c);
        }
        (g, cap)
    }

    #[test]
    fn clrs_max_flow_is_23_for_every_kernel() {
        let (g, cap) = clrs();
        for solver in solvers() {
            let mf = solver.max_flow(&g, n(0), n(5), &cap);
            assert_eq!(mf.value, 23, "{}", solver.name());
        }
    }

    #[test]
    fn flow_conservation_holds() {
        let (g, cap) = clrs();
        for solver in solvers() {
            let mf = solver.max_flow(&g, n(0), n(5), &cap);
            for node in g.nodes() {
                if node == n(0) || node == n(5) {
                    continue;
                }
                let inflow: u64 = g
                    .in_neighbors(node)
                    .iter()
                    .map(|&(_, e)| mf.edge_flow[e.index()])
                    .sum();
                let outflow: u64 = g
                    .out_neighbors(node)
                    .iter()
                    .map(|&(_, e)| mf.edge_flow[e.index()])
                    .sum();
                assert_eq!(
                    inflow,
                    outflow,
                    "conservation at {node} ({})",
                    solver.name()
                );
            }
        }
    }

    #[test]
    fn capacity_respected() {
        let (g, cap) = clrs();
        for solver in solvers() {
            let mf = solver.max_flow(&g, n(0), n(5), &cap);
            for (e, _, _) in g.edges() {
                assert!(
                    mf.edge_flow[e.index()] <= cap[e.index()],
                    "{}",
                    solver.name()
                );
            }
        }
    }

    #[test]
    fn fig5a_max_flow() {
        // Figure 5(a) of the Flash paper: capacities 1→2: 30, 1→5: 30,
        // 2→3: 20, 2→4: 20, 3→6: 30, 4→6: 30, 5→4: 30. The max flow is
        // 50: the decomposition 1-2-3-6 (20) + 1-2-4-6 (10) + 1-5-4-6
        // (20) achieves it, and the cut {1, 2, 4, 5} | {3, 6} — crossing
        // edges 2→3 (20) and 4→6 (30) — certifies no flow can exceed it.
        let mut g = DiGraph::new(6);
        let mut cap = Vec::new();
        for (u, v, c) in [
            (1, 2, 30),
            (1, 5, 30),
            (2, 3, 20),
            (2, 4, 20),
            (3, 6, 30),
            (4, 6, 30),
            (5, 4, 30),
        ] {
            g.add_edge(n(u - 1), n(v - 1)).unwrap();
            cap.push(c);
        }
        for solver in solvers() {
            let mf = solver.max_flow(&g, n(0), n(5), &cap);
            assert_eq!(mf.value, 50, "{}", solver.name());
        }
    }

    #[test]
    fn decomposition_sums_to_value() {
        let (g, cap) = clrs();
        for solver in solvers() {
            let mf = solver.max_flow(&g, n(0), n(5), &cap);
            let paths = decompose_into_paths(&g, n(0), n(5), mf.edge_flow.clone());
            let total: u64 = paths.iter().map(|(_, f)| f).sum();
            assert_eq!(total, mf.value, "{}", solver.name());
            for (p, f) in &paths {
                assert!(*f > 0);
                assert_eq!(p.source(), n(0));
                assert_eq!(p.target(), n(5));
            }
        }
    }

    /// A flow containing a cycle whose adjacency position shadows the
    /// productive edge. The old `visited`-vec walk marked the cycle nodes
    /// visited, found no onward edge at the cycle's closing node, and
    /// aborted the whole decomposition — dropping the s→t value on the
    /// floor. The cursor walk cancels the cycle and recovers the path.
    #[test]
    fn decomposition_cancels_cycles_instead_of_aborting() {
        let mut g = DiGraph::new(5);
        let mut flow = Vec::new();
        // Insertion order matters: a→b (the cycle entry) must precede
        // a→t in a's adjacency so the walk enters the cycle first.
        for (u, v, f) in [
            (0, 1, 1), // s→a, flow 1
            (1, 2, 1), // a→b  (cycle)
            (2, 3, 1), // b→c  (cycle)
            (3, 1, 1), // c→a  (cycle)
            (1, 4, 1), // a→t, flow 1
        ] {
            g.add_edge(n(u), n(v)).unwrap();
            flow.push(f);
        }
        let parts = decompose_into_paths(&g, n(0), n(4), flow);
        let total: u64 = parts.iter().map(|(_, f)| f).sum();
        assert_eq!(total, 1, "cycle must be cancelled, not abort the walk");
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].0.nodes(), &[n(0), n(1), n(4)]);
    }

    #[test]
    fn zero_when_disconnected() {
        let mut g = DiGraph::new(3);
        g.add_edge(n(0), n(1)).unwrap();
        for solver in solvers() {
            let mf = solver.max_flow(&g, n(0), n(2), &[5]);
            assert_eq!(mf.value, 0, "{}", solver.name());
        }
    }

    #[test]
    fn degenerate_endpoints_are_zero() {
        let (g, cap) = clrs();
        for solver in solvers() {
            assert_eq!(solver.max_flow(&g, n(0), n(0), &cap).value, 0);
            assert_eq!(solver.max_flow(&g, n(0), n(99), &cap).value, 0);
        }
    }

    #[test]
    fn bidirectional_channel_flows_are_net() {
        // A 2-cycle channel with flow pushed both ways must report net
        // flows, whichever kernel ran.
        let mut g = DiGraph::new(3);
        g.add_channel(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        let cap = vec![10, 10, 10];
        for solver in solvers() {
            let mf = solver.max_flow(&g, n(0), n(2), &cap);
            assert_eq!(mf.value, 10, "{}", solver.name());
            let fwd = g.edge(n(0), n(1)).unwrap();
            let rev = g.edge(n(1), n(0)).unwrap();
            assert!(
                mf.edge_flow[fwd.index()] == 0 || mf.edge_flow[rev.index()] == 0,
                "opposing flows not cancelled ({})",
                solver.name()
            );
        }
    }

    /// Random small digraphs for the cross-kernel properties.
    fn arb_graph() -> impl Strategy<Value = (DiGraph, Vec<u64>)> {
        (
            2usize..8,
            proptest::collection::vec((0u32..8, 0u32..8, 1u64..50), 1..30),
        )
            .prop_map(|(nn, edges)| {
                let nn = nn.max(2);
                let mut g = DiGraph::new(nn);
                let mut cap = Vec::new();
                for (u, v, c) in edges {
                    let u = NodeId(u % nn as u32);
                    let v = NodeId(v % nn as u32);
                    if u != v && g.edge(u, v).is_none() {
                        g.add_edge(u, v).unwrap();
                        cap.push(c);
                    }
                }
                (g, cap)
            })
    }

    proptest! {
        /// The differential suite: push-relabel must agree with the
        /// Edmonds–Karp oracle on flow value, and each kernel's flow
        /// must equal its own min cut.
        #[test]
        fn kernels_agree_and_match_min_cut((g, cap) in arb_graph()) {
            let s = NodeId(0);
            let t = NodeId(1);
            let ek = edmonds_karp(&g, s, t, &cap);
            let pr = push_relabel(&g, s, t, &cap);
            prop_assert_eq!(pr.value, ek.value, "push-relabel vs oracle");
            for (name, mf) in [("ek", &ek), ("pr", &pr)] {
                let cut = min_cut_capacity(&g, s, mf, &cap);
                prop_assert_eq!(mf.value, cut, "min-cut mismatch for {}", name);
            }
        }

        /// Feasibility and conservation hold for each kernel's edge
        /// flows, and the decomposition reassembles the full value.
        #[test]
        fn flows_are_feasible_and_decomposable((g, cap) in arb_graph()) {
            let s = NodeId(0);
            let t = NodeId(1);
            for mf in [edmonds_karp(&g, s, t, &cap), push_relabel(&g, s, t, &cap)] {
                for (e, _, _) in g.edges() {
                    prop_assert!(mf.edge_flow[e.index()] <= cap[e.index()]);
                }
                for node in g.nodes() {
                    if node == s || node == t {
                        continue;
                    }
                    let inflow: u64 = g
                        .in_neighbors(node)
                        .iter()
                        .map(|&(_, e)| mf.edge_flow[e.index()])
                        .sum();
                    let outflow: u64 = g
                        .out_neighbors(node)
                        .iter()
                        .map(|&(_, e)| mf.edge_flow[e.index()])
                        .sum();
                    prop_assert_eq!(inflow, outflow);
                }
                let parts = decompose_into_paths(&g, s, t, mf.edge_flow.clone());
                let total: u64 = parts.iter().map(|(_, f)| f).sum();
                prop_assert_eq!(total, mf.value);
                // The sparse form, handed every edge in reverse id order.
                let edges: Vec<EdgeId> = (0..g.edge_count() as u32).rev().map(EdgeId).collect();
                let flow = edges.iter().map(|e| mf.edge_flow[e.index()]).collect();
                prop_assert_eq!(decompose_sparse(&g, s, t, &edges, flow), parts);
            }
        }
    }
}
