//! Design-choice ablations called out in DESIGN.md. Each bench reports
//! throughput of the variant; the companion assertions live in the
//! integration tests — here we quantify the *cost* of each choice.

use criterion::{criterion_group, criterion_main, Criterion};
use flash_bench::{bench_network, bench_payment};
use flash_core::flash::{elephant, fees};
use flash_core::{FlashConfig, FlashRouter};
use pcn_graph::{disjoint, yen};
use pcn_sim::{Network, Router};
use pcn_types::{Amount, PaymentClass};
use std::hint::black_box;

/// Ablation: mice path order — Flash randomizes "to better load balance
/// [paths] without knowing their instantaneous capacities"; the
/// alternative is a fixed (shortest-first) order. We measure end-to-end
/// routing throughput of both; success-volume comparisons live in
/// EXPERIMENTS.md.
fn ablation_mice_order(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_mice_order");
    // Fixed order is emulated by seeding the RNG identically every
    // payment (seed 0 reshuffles, but deterministically); random order
    // is the default router behaviour.
    for (label, seed) in [("random", 1u64), ("fixed_seed", 0u64)] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || bench_network(200, 3),
                |mut net| {
                    let mut router = FlashRouter::new(FlashConfig {
                        elephant_threshold: Amount::MAX,
                        seed,
                        ..Default::default()
                    });
                    for i in 0..50 {
                        let p = bench_payment(&net, 400, i);
                        black_box(router.route(&mut net, &p, PaymentClass::Mice));
                    }
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Ablation: path finding — Flash's residual max-flow search vs. the
/// strawmen of Figure 5 (k simple shortest via Yen, k edge-disjoint).
fn ablation_pathfind(c: &mut Criterion) {
    let net = bench_network(300, 9);
    let g = net.graph().clone();
    let p = bench_payment(&net, 3000, 11);
    let mut group = c.benchmark_group("ablation_pathfind");
    group.bench_function("flash_residual_maxflow", |b| {
        b.iter_batched(
            || net.clone(),
            |mut n| {
                black_box(elephant::find_paths(
                    &mut n, p.sender, p.receiver, p.amount, 20,
                ))
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("yen_k20", |b| {
        b.iter(|| black_box(yen::k_shortest_paths_hops(&g, p.sender, p.receiver, 20)))
    });
    group.bench_function("edge_disjoint_k20", |b| {
        b.iter(|| black_box(disjoint::edge_disjoint_paths(&g, p.sender, p.receiver, 20)))
    });
    group.finish();
}

/// Ablation: the fee-minimizing LP vs. sequential filling on an
/// identical elephant plan (Figure 9's mechanism, timed).
fn ablation_fee_split(c: &mut Criterion) {
    let mut net = bench_network(300, 13);
    pcn_workload::topology::assign_paper_fees(&mut net, 15);
    let p = bench_payment(&net, 1500, 17);
    let plan = {
        let mut scratch: Network = net.clone();
        elephant::find_paths(&mut scratch, p.sender, p.receiver, p.amount, 20)
    };
    let demand = plan.max_flow.min(p.amount);
    if demand.is_zero() {
        return; // disconnected draw; nothing to measure
    }
    let g = net.graph().clone();
    let mut group = c.benchmark_group("ablation_fee_split");
    group.bench_function("lp_optimized", |b| {
        b.iter(|| black_box(fees::split_payment(&g, &plan, demand, true)))
    });
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(fees::split_payment(&g, &plan, demand, false)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ablation_mice_order, ablation_pathfind, ablation_fee_split
}
criterion_main!(benches);
