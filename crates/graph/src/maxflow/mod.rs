//! Max-flow: the cut certificate, one kernel, and flow decomposition.
//!
//! Flash's own "modified max-flow" is Algorithm 1
//! (`flash_core::flash::elephant::find_paths`), which probes as it
//! searches and calls no kernel here. What lives here:
//!
//! * [`certify`] — max-flow/min-cut as a check. A flow within capacity
//!   and conserved at every interior node is bounded by every cut; one
//!   whose residual graph leaves `t` unreachable equals the cut that
//!   search closes, so it is maximum (Ford–Fulkerson). It certifies
//!   Algorithm 1's plans (`flash_core::flash::elephant::certify`), the
//!   Figure 11 `m = 0` bound and [`push_relabel`]'s flows, with no
//!   second kernel to compare against.
//! * [`push_relabel`] / [`PushRelabel`] — highest-label push-relabel
//!   with the gap heuristic and periodic global relabeling, on a flat
//!   CSR residual graph (`csr.rs`: physical edge `e` owns arcs `2e`
//!   and `2e + 1`, so `arc ^ 1` is the paired reverse arc). Its one
//!   caller outside the tests is flashbench's
//!   `graph.maxflow.push_relabel_us_p50` replay, which imports it and
//!   the [`MaxFlowSolver`] trait; the kernel, the trait and the CSR
//!   residual stay as long as that replay does (`docs/maxflow.md`).
//! * [`decompose_into_paths`] turns a finished flow into executable
//!   `(path, amount)` parts, and [`decompose_sparse`] does the same for
//!   a flow given on a short edge list (an elephant's fee split).
//!
//! Reported per-edge flows are **net**: opposing flows on the two
//! directions of a bidirectional channel are cancelled, matching how
//! channel balances actually move. The kernel is **deterministic**
//! (same graph + capacities ⇒ bit-identical [`MaxFlow`], with no
//! wall-clock, hash-order, or thread dependence — the workspace
//! `clippy.toml` bans all three) and **panic-free** on well-formed
//! inputs (the only `assert!` is the capacity-table length check, a
//! caller contract violation).
//!
//! ```
//! use pcn_graph::maxflow::{certify, Certificate, MaxFlowSolver, PushRelabel};
//! use pcn_graph::DiGraph;
//! use pcn_types::NodeId;
//!
//! let mut g = DiGraph::new(3);
//! g.add_edge(NodeId(0), NodeId(1)).unwrap();
//! g.add_edge(NodeId(1), NodeId(2)).unwrap();
//! let flow = PushRelabel.max_flow(&g, NodeId(0), NodeId(2), &[10, 7]);
//! assert_eq!(flow.value, 7);
//! assert_eq!(flow.edge_flow, [7, 7]);
//! let proof = certify(&g, NodeId(0), NodeId(2), &[10, 7], &flow);
//! assert_eq!(proof, Ok(Certificate::Maximum { cut: 7 }));
//! ```

mod csr;
mod push_relabel;

pub use push_relabel::push_relabel;

use crate::{path::Path, DiGraph, EdgeId};
use pcn_types::NodeId;

/// Outcome of a max-flow computation.
#[derive(Clone, Debug)]
pub struct MaxFlow {
    /// Total flow value from source to sink.
    pub value: u64,
    /// Net flow assigned to each directed edge (indexed by [`EdgeId`]).
    pub edge_flow: Vec<u64>,
}

/// A max-flow kernel behind an object-safe interface. [`PushRelabel`]
/// is the one implementation; flashbench's replay holds it through
/// this trait.
pub trait MaxFlowSolver {
    /// Kernel name for bench reports and logs.
    fn name(&self) -> &'static str;

    /// Computes the maximum `s → t` flow given per-edge capacities
    /// (`capacity[e.index()]`).
    fn max_flow(&self, g: &DiGraph, s: NodeId, t: NodeId, capacity: &[u64]) -> MaxFlow;
}

/// The [`push_relabel`] kernel as a [`MaxFlowSolver`].
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
/// actually move). Shared by the kernel and Algorithm 1's certificate.
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

/// What [`certify`] proved of a flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Certificate {
    /// The flow is feasible, so every cut bounds its value; `t` is still
    /// reachable in its residual graph, so a larger flow may exist.
    Feasible,
    /// The flow is feasible and its residual graph leaves `t`
    /// unreachable: the edges from the reached set to the rest form a
    /// cut of capacity `cut`, equal to the flow's value, so no flow is
    /// larger.
    Maximum {
        /// The closed cut's capacity, which is the flow's value.
        cut: u64,
    },
}

/// Max-flow/min-cut as a check: is `flow` a feasible `s → t` flow under
/// `capacity`, and is it maximum? Both slices are indexed by [`EdgeId`];
/// a capacity of `u64::MAX` means "unknown, assumed usable".
///
/// `Err` names the first broken law: a flow over its edge's capacity,
/// an interior node that does not conserve flow, or a net flow out of
/// `s` other than `flow.value`. A flow that keeps all three is bounded
/// by every cut. Then a search of its residual graph from `s` — forward
/// along an edge with capacity left, backward along an edge that carries
/// flow — either reaches `t` ([`Certificate::Feasible`]) or stops at a
/// closed set. Every edge leaving that set is saturated and every edge
/// entering it is empty, so the cut they form carries exactly the
/// flow's value ([`Certificate::Maximum`]; checked here, not assumed).
/// An edge of unknown capacity never crosses such a cut: the search
/// would have walked it.
pub fn certify(
    g: &DiGraph,
    s: NodeId,
    t: NodeId,
    capacity: &[u64],
    flow: &MaxFlow,
) -> Result<Certificate, String> {
    let (n, m) = (g.node_count(), g.edge_count());
    let f = &flow.edge_flow;
    if capacity.len() != m || f.len() != m {
        return Err(format!(
            "{} capacities and {} flows for {m} edges",
            capacity.len(),
            f.len()
        ));
    }
    if s == t || s.index() >= n || t.index() >= n {
        return Err(format!("{s} → {t} is not a pair of nodes of the graph"));
    }
    // excess[v]: flow into v minus flow out of it.
    let mut excess = vec![0i128; n];
    for (e, u, v) in g.edges() {
        let (cap, x) = (capacity[e.index()], f[e.index()]);
        if x > cap {
            return Err(format!("{u} → {v} carries {x}, over its capacity {cap}"));
        }
        excess[u.index()] -= i128::from(x);
        excess[v.index()] += i128::from(x);
    }
    if let Some(v) = g
        .nodes()
        .find(|&v| v != s && v != t && excess[v.index()] != 0)
    {
        let x = excess[v.index()];
        return Err(format!(
            "flow is not conserved at {v}: {x} more in than out"
        ));
    }
    if -excess[s.index()] != i128::from(flow.value) {
        return Err(format!(
            "the net flow out of {s} is {}, not the value {}",
            -excess[s.index()],
            flow.value
        ));
    }
    let mut reached = vec![false; n];
    reached[s.index()] = true;
    let mut stack = vec![s];
    while let Some(u) = stack.pop() {
        let forward = g
            .out_neighbors(u)
            .iter()
            .filter(|&&(_, e)| capacity[e.index()] > f[e.index()]);
        let backward = g.in_neighbors(u).iter().filter(|&&(_, e)| f[e.index()] > 0);
        for &(v, _) in forward.chain(backward) {
            if !reached[v.index()] {
                reached[v.index()] = true;
                stack.push(v);
            }
        }
    }
    if reached[t.index()] {
        return Ok(Certificate::Feasible);
    }
    let cut: u128 = g
        .edges()
        .filter(|&(_, u, v)| reached[u.index()] && !reached[v.index()])
        .map(|(e, _, _)| u128::from(capacity[e.index()]))
        .sum();
    if cut != u128::from(flow.value) {
        return Err(format!(
            "the residual search closes a cut of {cut}, not the value {}",
            flow.value
        ));
    }
    Ok(Certificate::Maximum { cut: flow.value })
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
        let mf = PushRelabel.max_flow(&g, n(0), n(5), &cap);
        assert_eq!(mf.value, 23);
        assert_eq!(
            certify(&g, n(0), n(5), &cap, &mf),
            Ok(Certificate::Maximum { cut: 23 })
        );
    }

    /// Push-relabel's flow conserves; one unit more on an interior
    /// edge breaks conservation at both its ends, and the certificate
    /// names the first.
    #[test]
    fn flow_conservation_holds() {
        let (g, cap) = clrs();
        let mut mf = PushRelabel.max_flow(&g, n(0), n(5), &cap);
        assert!(certify(&g, n(0), n(5), &cap, &mf).is_ok());
        let e = g.edge(n(2), n(1)).unwrap();
        assert!(mf.edge_flow[e.index()] < cap[e.index()]);
        mf.edge_flow[e.index()] += 1;
        assert_eq!(
            certify(&g, n(0), n(5), &cap, &mf),
            Err("flow is not conserved at n1: 1 more in than out".into())
        );
    }

    /// Push-relabel stays within capacity; a certificate handed one
    /// unit less capacity on a saturated edge rejects the same flow.
    #[test]
    fn capacity_respected() {
        let (g, mut cap) = clrs();
        let mf = PushRelabel.max_flow(&g, n(0), n(5), &cap);
        assert!(certify(&g, n(0), n(5), &cap, &mf).is_ok());
        let e = g.edge(n(4), n(5)).unwrap();
        assert_eq!(mf.edge_flow[e.index()], 4);
        cap[e.index()] = 3;
        assert_eq!(
            certify(&g, n(0), n(5), &cap, &mf),
            Err("n4 → n5 carries 4, over its capacity 3".into())
        );
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
        let mf = PushRelabel.max_flow(&g, n(0), n(5), &cap);
        assert_eq!(mf.value, 50);
        assert_eq!(
            certify(&g, n(0), n(5), &cap, &mf),
            Ok(Certificate::Maximum { cut: 50 })
        );
    }

    /// A feasible flow with `t` still reachable is only feasible: a zero
    /// flow is not certified as a zero cut, and a flow that claims more
    /// than leaves `s` is rejected.
    #[test]
    fn a_reachable_sink_is_only_feasible() {
        let (g, cap) = clrs();
        let mut zero = MaxFlow {
            value: 0,
            edge_flow: vec![0; g.edge_count()],
        };
        assert_eq!(
            certify(&g, n(0), n(5), &cap, &zero),
            Ok(Certificate::Feasible)
        );
        zero.value = 1;
        assert_eq!(
            certify(&g, n(0), n(5), &cap, &zero),
            Err("the net flow out of n0 is 0, not the value 1".into())
        );
    }

    /// Unknown capacities are assumed usable: the search walks them, so
    /// the cut it closes is made of known edges only.
    #[test]
    fn unknown_capacities_are_never_cut() {
        let mut g = DiGraph::new(4);
        for (u, v) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
            g.add_edge(n(u), n(v)).unwrap();
        }
        let cap = [u64::MAX, 5, 4, u64::MAX];
        let mut mf = MaxFlow {
            value: 9,
            edge_flow: vec![5, 5, 4, 4],
        };
        assert_eq!(
            certify(&g, n(0), n(3), &cap, &mf),
            Ok(Certificate::Maximum { cut: 9 })
        );
        // Without 2 → 3's flow the unknown edge stays open, and 2 reaches
        // t through it.
        mf.edge_flow = vec![5, 5, 0, 0];
        mf.value = 5;
        assert_eq!(
            certify(&g, n(0), n(3), &cap, &mf),
            Ok(Certificate::Feasible)
        );
    }

    #[test]
    fn decomposition_sums_to_value() {
        let (g, cap) = clrs();
        let mf = PushRelabel.max_flow(&g, n(0), n(5), &cap);
        let paths = decompose_into_paths(&g, n(0), n(5), mf.edge_flow.clone());
        let total: u64 = paths.iter().map(|(_, f)| f).sum();
        assert_eq!(total, mf.value);
        for (p, f) in &paths {
            assert!(*f > 0);
            assert_eq!(p.source(), n(0));
            assert_eq!(p.target(), n(5));
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
        let mf = PushRelabel.max_flow(&g, n(0), n(2), &[5]);
        assert_eq!(mf.value, 0);
        assert_eq!(
            certify(&g, n(0), n(2), &[5], &mf),
            Ok(Certificate::Maximum { cut: 0 })
        );
    }

    #[test]
    fn degenerate_endpoints_are_zero() {
        let (g, cap) = clrs();
        assert_eq!(PushRelabel.max_flow(&g, n(0), n(0), &cap).value, 0);
        assert_eq!(PushRelabel.max_flow(&g, n(0), n(99), &cap).value, 0);
    }

    #[test]
    fn bidirectional_channel_flows_are_net() {
        // A 2-cycle channel with flow pushed both ways must report net
        // flows.
        let mut g = DiGraph::new(3);
        g.add_channel(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        let cap = vec![10, 10, 10];
        let mf = PushRelabel.max_flow(&g, n(0), n(2), &cap);
        assert_eq!(mf.value, 10);
        let fwd = g.edge(n(0), n(1)).unwrap();
        let rev = g.edge(n(1), n(0)).unwrap();
        assert!(
            mf.edge_flow[fwd.index()] == 0 || mf.edge_flow[rev.index()] == 0,
            "opposing flows not cancelled"
        );
    }

    /// Random small digraphs.
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
        /// Push-relabel's flow is certified maximum, decomposes into
        /// parts that reassemble its value (densely and sparsely), and
        /// those parts less the last are a flow the certificate finds
        /// feasible and not maximum.
        #[test]
        fn flows_are_feasible_and_decomposable((g, cap) in arb_graph()) {
            let s = NodeId(0);
            let t = NodeId(1);
            let mf = push_relabel(&g, s, t, &cap);
            prop_assert_eq!(
                certify(&g, s, t, &cap, &mf),
                Ok(Certificate::Maximum { cut: mf.value })
            );
            let parts = decompose_into_paths(&g, s, t, mf.edge_flow.clone());
            let total: u64 = parts.iter().map(|(_, f)| f).sum();
            prop_assert_eq!(total, mf.value);
            // The sparse form, handed every edge in reverse id order.
            let edges: Vec<EdgeId> = (0..g.edge_count() as u32).rev().map(EdgeId).collect();
            let flow = edges.iter().map(|e| mf.edge_flow[e.index()]).collect();
            prop_assert_eq!(decompose_sparse(&g, s, t, &edges, flow), parts.clone());
            if let Some(((_, last), kept)) = parts.split_last() {
                let mut short = MaxFlow { value: mf.value - last, edge_flow: vec![0; g.edge_count()] };
                for (p, x) in kept {
                    for (u, v) in p.channels() {
                        short.edge_flow[g.edge(u, v).unwrap().index()] += x;
                    }
                }
                prop_assert_eq!(certify(&g, s, t, &cap, &short), Ok(Certificate::Feasible));
            }
        }
    }
}
