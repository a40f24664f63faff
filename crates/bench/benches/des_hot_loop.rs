//! `des_hot_loop` — events/sec through the DES engine's hot loop.
//!
//! Drives one full `run_scheme_des` sweep (Watts–Strogatz testbed,
//! Poisson arrivals, per-hop latency + per-node service queues) and
//! measures how fast the engine chews through its event stream. This
//! is the bench that the P1 hot-path-alloc fixes (scratch-buffer
//! reuse in `probe_path`, part-edge pooling, `mem::take` on metrics)
//! have to move: the virtual-time results are identical before and
//! after, so events/sec is the whole story.
//!
//! Besides the criterion ns/iter line, the bench prints a
//! `des_hot_loop events/sec: N` line derived from a dedicated timed
//! run — `e2e_bench` records the same metric per (scheme, load) into
//! `BENCH_e2e.json`, where `bench_gate` watches it (warn-only, since
//! it is wall-derived).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use flash_core::Scheme;
use pcn_experiments::harness::{run_scheme_des, DesLoad, DEFAULT_MICE_FRACTION};
use pcn_sim::{ChurnRate, LatencyModel, Network, ServiceModel};
use pcn_types::Payment;
use pcn_workload::testbed_topology;
use pcn_workload::trace::{generate_trace, TraceConfig};

const NODES: usize = 100;
const PAYMENTS: usize = 400;
const SEED: u64 = 1009;

fn load() -> DesLoad {
    DesLoad {
        rate_per_sec: 200.0,
        latency: LatencyModel::constant_ms(25),
        service: ServiceModel::constant_ms(10),
        churn: ChurnRate::zero(),
    }
}

fn fixture() -> (Network, Vec<Payment>) {
    let net = testbed_topology(NODES, 1000, 1500, SEED);
    let trace = generate_trace(net.graph(), &TraceConfig::ripple(PAYMENTS, SEED + 7));
    (net, trace)
}

fn bench_hot_loop(c: &mut Criterion) {
    let (net, trace) = fixture();

    // Wall-derived events/sec over a handful of runs: the headline
    // number for the allocation-churn fixes.
    let mut events = 0u64;
    let wall = pcn_proto::wall_now();
    const RUNS: u32 = 3;
    for _ in 0..RUNS {
        let report = run_scheme_des(
            &net,
            Scheme::ShortestPath,
            &trace,
            DEFAULT_MICE_FRACTION,
            SEED + 31,
            load(),
        );
        events += report.events;
    }
    let secs = wall.elapsed().as_secs_f64();
    if secs > 0.0 {
        println!(
            "des_hot_loop events/sec: {:.0} ({} events over {} runs)",
            events as f64 / secs,
            events,
            RUNS
        );
    }

    c.bench_function("des_hot_loop_100n_400p_shortest", |b| {
        b.iter(|| {
            black_box(run_scheme_des(
                &net,
                Scheme::ShortestPath,
                &trace,
                DEFAULT_MICE_FRACTION,
                SEED + 31,
                load(),
            ))
        })
    });
    c.bench_function("des_hot_loop_100n_400p_flash", |b| {
        b.iter(|| {
            black_box(run_scheme_des(
                &net,
                Scheme::Flash,
                &trace,
                DEFAULT_MICE_FRACTION,
                SEED + 31,
                load(),
            ))
        })
    });
}

criterion_group!(benches, bench_hot_loop);
criterion_main!(benches);
