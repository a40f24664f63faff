//! The max-flow kernel trajectory, `BENCH_maxflow.json`.
//!
//! Times the [`PushRelabel`] kernel against the [`EdmondsKarp`] oracle
//! over a fixed set of source/sink pairs on the Watts–Strogatz testbed
//! family and the scale-free Ripple/Lightning stand-ins, and
//! cross-checks that both report identical flow values (a differential
//! test at bench scale). `total_flow` is deterministic;
//! `mean_ns_per_pair` is wall time.

use crate::record::MaxflowRecord;
use pcn_graph::generators;
use pcn_graph::maxflow::{EdmondsKarp, MaxFlowSolver, PushRelabel};
use pcn_graph::DiGraph;
use pcn_types::NodeId;

/// Deterministic capacities spanning several orders of magnitude (the
/// satoshi-vs-dollar spread).
fn capacities(g: &DiGraph) -> Vec<u64> {
    (0..g.edge_count() as u64)
        .map(|i| 1 + (i.wrapping_mul(2_654_435_761) % 1_000_000))
        .collect()
}

/// Deterministic, well-spread source/sink pairs.
fn pairs(n: usize, count: usize) -> Vec<(NodeId, NodeId)> {
    (0..count as u32)
        .map(|i| {
            let s = (i.wrapping_mul(7919) + 1) % n as u32;
            let mut t = (i.wrapping_mul(104_729) + n as u32 / 2) % n as u32;
            if t == s {
                t = (t + 1) % n as u32;
            }
            (NodeId(s), NodeId(t))
        })
        .collect()
}

/// Times both kernels, on CI-sized topologies when `smoke`.
///
/// # Panics
/// When push-relabel and the oracle disagree on a flow value.
pub fn records(smoke: bool) -> Vec<MaxflowRecord> {
    // (name, graph, pair count, timed iterations per pair).
    let topologies: Vec<(&str, DiGraph, usize, usize)> = if smoke {
        vec![
            (
                "watts_strogatz_100",
                generators::watts_strogatz(100, 4, 0.3, 11),
                4,
                1,
            ),
            (
                "lightning_scale_smoke",
                generators::scale_free_with_channels(300, 1200, 17),
                4,
                1,
            ),
        ]
    } else {
        vec![
            (
                "watts_strogatz_500",
                generators::watts_strogatz(500, 8, 0.3, 11),
                8,
                3,
            ),
            (
                "ripple_scale",
                generators::scale_free_with_channels(1870, 8708, 13),
                6,
                3,
            ),
            (
                "lightning_scale",
                generators::scale_free_with_channels(2511, 36_016, 17),
                6,
                3,
            ),
        ]
    };
    let solvers: Vec<Box<dyn MaxFlowSolver>> = vec![Box::new(EdmondsKarp), Box::new(PushRelabel)];

    let mut records: Vec<MaxflowRecord> = Vec::new();
    for (name, g, npairs, iters) in &topologies {
        let caps = capacities(g);
        let st = pairs(g.node_count(), *npairs);
        // Differential check first: the kernel must report the oracle's
        // value on every pair before its timing is worth recording.
        let reference: Vec<u64> = st
            .iter()
            .map(|&(s, t)| solvers[0].max_flow(g, s, t, &caps).value)
            .collect();
        for (si, solver) in solvers.iter().enumerate() {
            // solvers[0] produced the reference; re-running it against
            // itself would double the slowest kernel's untimed work.
            if si > 0 {
                for (&(s, t), &want) in st.iter().zip(&reference) {
                    let got = solver.max_flow(g, s, t, &caps).value;
                    assert_eq!(
                        got,
                        want,
                        "{} disagrees with the oracle on {name} {s}→{t}",
                        solver.name()
                    );
                }
            }
            let wall_start = pcn_proto::wall_now();
            let mut total_flow = 0u64;
            for _ in 0..*iters {
                for &(s, t) in &st {
                    total_flow += solver.max_flow(g, s, t, &caps).value;
                }
            }
            let wall_elapsed = wall_start.elapsed();
            let per_pair = wall_elapsed.as_nanos() / (st.len() as u128 * *iters as u128);
            records.push(MaxflowRecord {
                topology: (*name).to_string(),
                nodes: g.node_count(),
                directed_edges: g.edge_count(),
                kernel: solver.name().to_string(),
                pairs: st.len(),
                iters_per_pair: *iters,
                mean_ns_per_pair: u64::try_from(per_pair).unwrap_or(u64::MAX),
                total_flow: total_flow / *iters as u64,
            });
        }
    }
    records
}
