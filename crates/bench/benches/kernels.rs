//! Microbenchmarks of the algorithmic kernels.

use criterion::{criterion_group, criterion_main, Criterion};
use flash_bench::{bench_network, bench_payment};
use flash_core::flash::elephant;
use flash_core::spider::waterfill;
use pcn_graph::{bfs, disjoint, maxflow, yen, DiGraph};
use pcn_lp::{Cmp, LinearProgram};
use pcn_proto::{Message, MsgType};
use pcn_types::{Amount, NodeId};
use std::hint::black_box;

fn graph_kernels(c: &mut Criterion) {
    let net = bench_network(500, 1);
    let g: &DiGraph = net.graph();
    let s = NodeId(0);
    let t = NodeId(250);

    c.bench_function("bfs_shortest_path_500n", |b| {
        b.iter(|| black_box(bfs::shortest_path(g, s, t)))
    });
    c.bench_function("yen_k4_500n", |b| {
        b.iter(|| black_box(yen::k_shortest_paths_hops(g, s, t, 4)))
    });
    c.bench_function("edge_disjoint_k4_500n", |b| {
        b.iter(|| black_box(disjoint::edge_disjoint_paths(g, s, t, 4)))
    });
    let caps: Vec<u64> = (0..g.edge_count() as u64).map(|i| 1 + i % 100).collect();
    c.bench_function("edmonds_karp_500n", |b| {
        b.iter(|| black_box(maxflow::edmonds_karp(g, s, t, &caps).value))
    });
    c.bench_function("dinic_500n", |b| {
        b.iter(|| black_box(maxflow::dinic(g, s, t, &caps).value))
    });
    c.bench_function("push_relabel_500n", |b| {
        b.iter(|| black_box(maxflow::push_relabel(g, s, t, &caps).value))
    });
    c.bench_function("warm_restart_4deltas_500n", |b| {
        // One capacity nudge per solve — the ElephantOracle /
        // WarmFlowBound pattern of repeated max-flow queries against a
        // slowly drifting network.
        b.iter_batched(
            || maxflow::IncrementalMaxFlow::new(g, s, t, &caps),
            |mut inc| {
                for round in 0..4u64 {
                    let e = pcn_graph::EdgeId(((round * 7919) % g.edge_count() as u64) as u32);
                    inc.set_capacity(e, 1 + round * 50);
                    black_box(inc.solve().value);
                }
            },
            criterion::BatchSize::LargeInput,
        )
    });
    c.bench_function("flow_decompose_500n", |b| {
        let mf = maxflow::dinic(g, s, t, &caps);
        b.iter(|| black_box(maxflow::decompose_into_paths(g, s, t, &mf)))
    });
}

fn algorithm1(c: &mut Criterion) {
    c.bench_function("flash_algorithm1_k20_500n", |b| {
        b.iter_batched(
            || bench_network(500, 2),
            |mut net| {
                let p = bench_payment(&net, 5000, 3);
                black_box(elephant::find_paths(
                    &mut net, p.sender, p.receiver, p.amount, 20,
                ))
            },
            criterion::BatchSize::LargeInput,
        )
    });
}

fn lp_solver(c: &mut Criterion) {
    // The fee-minimization LP at Flash's real size: 20 path variables,
    // ~60 channel constraints.
    c.bench_function("simplex_20v_60c", |b| {
        b.iter(|| {
            let mut lp =
                LinearProgram::minimize((0..20).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect());
            lp.constrain(vec![1.0; 20], Cmp::Eq, 50.0);
            for j in 0..60usize {
                let row: Vec<f64> = (0..20)
                    .map(|i| if (i + j) % 3 == 0 { 1.0 } else { 0.0 })
                    .collect();
                lp.constrain(row, Cmp::Le, 10.0 + (j % 5) as f64);
            }
            black_box(lp.solve().ok())
        })
    });
}

fn waterfilling(c: &mut Criterion) {
    let caps: Vec<Amount> = (0..4).map(|i| Amount::from_units(100 + i * 37)).collect();
    c.bench_function("spider_waterfill_4paths", |b| {
        b.iter(|| black_box(waterfill(&caps, Amount::from_units(260))))
    });
}

fn wire_codec(c: &mut Criterion) {
    let msg = Message {
        trans_id: 77,
        msg_type: MsgType::Probe,
        pos: 2,
        path: (0..12).collect(),
        capacities: (0..11).map(|i| 1_000_000 + i).collect(),
        commit: 123_456,
    };
    c.bench_function("wire_encode", |b| b.iter(|| black_box(msg.encode())));
    let frame = msg.encode().slice(4..);
    c.bench_function("wire_decode", |b| {
        b.iter(|| black_box(Message::decode(frame.clone()).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = graph_kernels, algorithm1, lp_solver, waterfilling, wire_codec
}
criterion_main!(benches);
