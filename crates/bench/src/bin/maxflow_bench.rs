//! `maxflow_bench` — the max-flow kernel perf trajectory.
//!
//! ```text
//! maxflow_bench [--smoke] [--out FILE]
//! ```
//!
//! Times every [`MaxFlowSolver`] kernel (Edmonds–Karp oracle, Dinic,
//! push-relabel) over a fixed set of
//! source/sink pairs on the Watts–Strogatz testbed family and the
//! scale-free Ripple/Lightning stand-ins, cross-checks that all kernels
//! report identical flow values (a differential test at bench scale),
//! runs a warm-vs-cold payment-delta workload through
//! [`IncrementalMaxFlow`] (`warm-start` applies per-batch capacity
//! deltas to a live residual graph; `cold-restart` re-solves each batch
//! from scratch — same flows, so the gap is pure warm-start savings),
//! and writes the numbers to `BENCH_maxflow.json` (default) so the
//! kernel's perf trajectory is tracked across PRs. `bench_gate maxflow`
//! *fails* when the fastest non-oracle kernel stops beating the oracle
//! (>2× at lightning scale) or warm-start stops beating cold restart.
//! `--smoke` shrinks the topologies for CI.

use pcn_graph::generators;
use pcn_graph::maxflow::{Dinic, EdmondsKarp, IncrementalMaxFlow, MaxFlowSolver, PushRelabel};
use pcn_graph::{DiGraph, EdgeId};
use pcn_types::NodeId;
use serde::Serialize;

/// One (topology, kernel) measurement.
#[derive(Serialize)]
struct Record {
    topology: String,
    nodes: usize,
    directed_edges: usize,
    kernel: String,
    pairs: usize,
    iters_per_pair: usize,
    mean_ns_per_pair: u64,
    total_flow: u64,
}

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = String::from("BENCH_maxflow.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                out = args.get(i).expect("--out needs a file").clone();
            }
            "--help" | "-h" => {
                eprintln!("usage: maxflow_bench [--smoke] [--out FILE]");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

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
    let solvers: Vec<Box<dyn MaxFlowSolver>> = vec![
        Box::new(EdmondsKarp),
        Box::new(Dinic),
        Box::new(PushRelabel),
    ];

    let mut records: Vec<Record> = Vec::new();
    for (name, g, npairs, iters) in &topologies {
        let caps = capacities(g);
        let st = pairs(g.node_count(), *npairs);
        // Differential check first: every kernel must report the same
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
            records.push(Record {
                topology: (*name).to_string(),
                nodes: g.node_count(),
                directed_edges: g.edge_count(),
                kernel: solver.name().to_string(),
                pairs: st.len(),
                iters_per_pair: *iters,
                mean_ns_per_pair: u64::try_from(per_pair).unwrap_or(u64::MAX),
                total_flow: total_flow / *iters as u64,
            });
            println!("{name:>22} {:>14}: {:>12} ns/pair", solver.name(), per_pair);
        }

        // Warm-vs-cold payment-delta workload: one long-lived (s, t)
        // query re-solved after each batch of capacity deltas (the few
        // channels a committed payment debits). `warm-start` keeps the
        // residual graph alive; `cold-restart` rebuilds and re-solves
        // from scratch each batch. Identical per-batch values are
        // asserted, so `total_flow` matches between the two records and
        // the timing gap is pure warm-start savings.
        let batches = if smoke { 24 } else { 48 };
        let deltas_per_batch = 4;
        let (s, t) = st[0];
        let delta_at = |b: u64, j: u64, m: u64| -> (usize, u64) {
            let h = (b * 1_000 + j).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let edge = (h % m) as usize;
            let cap = 1 + ((h >> 17) % 1_000_000);
            (edge, cap)
        };
        let m = g.edge_count() as u64;

        let mut warm = IncrementalMaxFlow::new(g, s, t, &caps);
        let mut warm_values = Vec::with_capacity(batches);
        let wall_warm = pcn_proto::wall_now();
        for b in 0..batches {
            for j in 0..deltas_per_batch {
                let (edge, cap) = delta_at(b as u64, j, m);
                warm.set_capacity(EdgeId(edge as u32), cap);
            }
            warm_values.push(warm.solve().value);
        }
        let warm_ns = wall_warm.elapsed().as_nanos() / batches as u128;
        let warm_total: u64 = warm_values.iter().sum();

        let mut cold_caps = caps.clone();
        let mut cold_total = 0u64;
        let wall_cold = pcn_proto::wall_now();
        for (b, &warm_value) in warm_values.iter().enumerate() {
            for j in 0..deltas_per_batch {
                let (edge, cap) = delta_at(b as u64, j, m);
                cold_caps[edge] = cap;
            }
            let value = IncrementalMaxFlow::new(g, s, t, &cold_caps).solve().value;
            assert_eq!(
                value, warm_value,
                "warm and cold disagree on {name} batch {b}"
            );
            cold_total += value;
        }
        let cold_ns = wall_cold.elapsed().as_nanos() / batches as u128;

        for (kernel, ns, total) in [
            ("warm-start", warm_ns, warm_total),
            ("cold-restart", cold_ns, cold_total),
        ] {
            records.push(Record {
                topology: (*name).to_string(),
                nodes: g.node_count(),
                directed_edges: g.edge_count(),
                kernel: kernel.to_string(),
                pairs: batches,
                iters_per_pair: 1,
                mean_ns_per_pair: u64::try_from(ns).unwrap_or(u64::MAX),
                total_flow: total,
            });
            println!("{name:>22} {kernel:>14}: {ns:>12} ns/batch");
        }
    }

    // One record per line: diffable in review, still a plain JSON array.
    let body: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "  {}",
                serde_json::to_string(r).expect("bench record serializes")
            )
        })
        .collect();
    std::fs::write(&out, format!("[\n{}\n]\n", body.join(",\n"))).expect("write bench output");
    println!("wrote {out}");
}
