//! Max-flow properties on the paper's generator topologies: the
//! highest-label push-relabel kernel's flows are certified maximum by
//! max-flow/min-cut (`maxflow::certify`: within capacity, conserved at
//! every interior node, `t` cut off in the residual graph), and
//! decompose into executable paths that reassemble the full value.

use flash_offchain::graph::maxflow::{certify, decompose_into_paths, push_relabel, Certificate};
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

/// 24 cases, or `PROPTEST_CASES` when it is set (CI runs 2,000 in the
/// release profile).
fn cases() -> ProptestConfig {
    let env = std::env::var("PROPTEST_CASES").ok();
    ProptestConfig::with_cases(env.and_then(|v| v.parse().ok()).unwrap_or(24))
}

proptest! {
    #![proptest_config(cases())]

    /// Watts–Strogatz (the paper's testbed family).
    #[test]
    fn push_relabel_is_certified_on_watts_strogatz(
        seed in 0u64..200,
        s in 0u32..16,
        t in 0u32..16,
    ) {
        prop_assume!(s != t);
        let g = generators::watts_strogatz(16, 4, 0.3, seed);
        let caps = caps_for(&g, seed);
        let (s, t) = (NodeId(s), NodeId(t));
        let mf = push_relabel(&g, s, t, &caps);
        prop_assert_eq!(
            certify(&g, s, t, &caps, &mf),
            Ok(Certificate::Maximum { cut: mf.value })
        );
    }

    /// Scale-free (the Ripple/Lightning stand-in): certified maximum,
    /// and the flow decomposes fully into s → t paths.
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
        prop_assert_eq!(
            certify(&g, s, t, &caps, &mf),
            Ok(Certificate::Maximum { cut: mf.value })
        );
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
