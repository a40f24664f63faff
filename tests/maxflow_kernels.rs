//! Cross-kernel max-flow properties on the paper's generator
//! topologies: highest-label push-relabel must agree with the
//! Edmonds–Karp oracle on value and min cut, produce feasible
//! conserving flows, and decompose into executable paths that
//! reassemble the full value — the guarantees `flash-core`'s oracle
//! and the Figure 11 `m = 0` bound silently rely on.

use flash_offchain::graph::maxflow::{
    decompose_into_paths, edmonds_karp, min_cut_capacity, push_relabel, EdmondsKarp, MaxFlowSolver,
    PushRelabel,
};
use flash_offchain::graph::{generators, DiGraph};
use flash_offchain::types::NodeId;
use proptest::prelude::*;

/// Deterministic per-edge capacities spanning several magnitudes (the
/// satoshi-vs-dollar spread).
fn caps_for(g: &DiGraph, seed: u64) -> Vec<u64> {
    (0..g.edge_count() as u64)
        .map(|i| 1 + (i * 7919 + seed) % 10_000)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Watts–Strogatz (the paper's testbed family): both kernels agree
    /// and match their own min cut.
    #[test]
    fn kernels_agree_on_watts_strogatz(
        seed in 0u64..200,
        s in 0u32..16,
        t in 0u32..16,
    ) {
        prop_assume!(s != t);
        let g = generators::watts_strogatz(16, 4, 0.3, seed);
        let caps = caps_for(&g, seed);
        let (s, t) = (NodeId(s), NodeId(t));
        let ek = edmonds_karp(&g, s, t, &caps);
        let pr = push_relabel(&g, s, t, &caps);
        prop_assert_eq!(pr.value, ek.value);
        for mf in [&ek, &pr] {
            prop_assert_eq!(min_cut_capacity(&g, s, mf, &caps), mf.value);
        }
    }

    /// Scale-free (the Ripple/Lightning stand-in): agreement plus
    /// feasibility, conservation, and full decomposition of the
    /// push-relabel flow.
    #[test]
    fn push_relabel_flow_is_executable_on_scale_free(
        seed in 0u64..120,
        s in 0u32..24,
        t in 0u32..24,
    ) {
        prop_assume!(s != t);
        let g = generators::scale_free_with_channels(24, 60, seed);
        let caps = caps_for(&g, seed);
        let (s, t) = (NodeId(s), NodeId(t));
        let mf = push_relabel(&g, s, t, &caps);
        prop_assert_eq!(mf.value, edmonds_karp(&g, s, t, &caps).value);
        for (e, _, _) in g.edges() {
            prop_assert!(mf.edge_flow[e.index()] <= caps[e.index()]);
        }
        for node in g.nodes() {
            if node == s || node == t { continue; }
            let inflow: u64 = g.in_neighbors(node).iter()
                .map(|&(_, e)| mf.edge_flow[e.index()]).sum();
            let outflow: u64 = g.out_neighbors(node).iter()
                .map(|&(_, e)| mf.edge_flow[e.index()]).sum();
            prop_assert_eq!(inflow, outflow);
        }
        let parts = decompose_into_paths(&g, s, t, mf.edge_flow.clone());
        let total: u64 = parts.iter().map(|(_, f)| f).sum();
        prop_assert_eq!(total, mf.value);
        for (p, f) in &parts {
            prop_assert!(*f > 0);
            prop_assert_eq!(p.source(), s);
            prop_assert_eq!(p.target(), t);
        }
    }
}

/// The solver trait is object-safe and both kernels answer through it —
/// how the harness and benches hold kernels.
#[test]
fn solver_trait_is_uniform() {
    let g = generators::watts_strogatz(20, 4, 0.3, 9);
    let caps = caps_for(&g, 9);
    let solvers: Vec<Box<dyn MaxFlowSolver>> = vec![Box::new(EdmondsKarp), Box::new(PushRelabel)];
    let values: Vec<u64> = solvers
        .iter()
        .map(|sv| sv.max_flow(&g, NodeId(0), NodeId(10), &caps).value)
        .collect();
    assert!(values.windows(2).all(|w| w[0] == w[1]), "{values:?}");
    let names: Vec<&str> = solvers.iter().map(|sv| sv.name()).collect();
    assert_eq!(names, ["edmonds-karp", "push-relabel"]);
}

/// A decomposition case where the pre-rewrite walk order mattered: the
/// flow contains a cycle sitting *before* the productive edge in
/// adjacency order. The old `visited`-vec walk entered the cycle, found
/// every neighbor of the closing node visited, and aborted — silently
/// dropping the whole s→t value. The cursor walk cancels the cycle and
/// recovers it.
#[test]
fn decomposition_survives_adjacency_ordered_cycle() {
    let mut g = DiGraph::new(6);
    let mut flow = Vec::new();
    for (u, v, f) in [
        (0u32, 1u32, 3u64), // s→a
        (1, 2, 2),          // a→b (cycle, first in a's adjacency)
        (2, 3, 2),          // b→c
        (3, 1, 2),          // c→a (closes the cycle)
        (1, 4, 3),          // a→d
        (4, 5, 3),          // d→t
    ] {
        g.add_edge(NodeId(u), NodeId(v)).unwrap();
        flow.push(f);
    }
    let parts = decompose_into_paths(&g, NodeId(0), NodeId(5), flow);
    let total: u64 = parts.iter().map(|(_, f)| f).sum();
    assert_eq!(total, 3);
    assert_eq!(parts.len(), 1);
    assert_eq!(
        parts[0].0.nodes(),
        &[NodeId(0), NodeId(1), NodeId(4), NodeId(5)]
    );
}
