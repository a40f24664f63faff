//! One representative cell per paper figure, at reduced scale, so
//! `cargo bench` re-exercises every experiment path end-to-end. (The
//! full sweeps are `flash-repro`'s job; see EXPERIMENTS.md.)

use criterion::{criterion_group, criterion_main, Criterion};
use flash_core::Scheme;
use pcn_experiments::harness::{run_scheme, Effort, Topo, DEFAULT_MICE_FRACTION};
use pcn_scenario::{ScenarioBuilder, TopologySpec, WorkloadSpec};
use pcn_workload::stats::{daily_recurrence, top_fraction_volume_share};
use pcn_workload::trace::{generate_trace, TraceConfig};
use pcn_workload::SizeModel;
use std::hint::black_box;

fn fig3_size_cdf(c: &mut Criterion) {
    c.bench_function("fig3_size_sampling_10k", |b| {
        b.iter(|| {
            let s = SizeModel::RippleUsd.sample_many(10_000, 3);
            let units: Vec<f64> = s.iter().map(|a| a.as_units_f64()).collect();
            black_box(top_fraction_volume_share(&units, 0.1))
        })
    });
}

fn fig4_recurrence(c: &mut Criterion) {
    let g = pcn_graph::generators::scale_free_with_channels(150, 600, 5);
    c.bench_function("fig4_recurrence_8k_trace", |b| {
        b.iter(|| {
            let mut cfg = TraceConfig::ripple(8_000, 7);
            cfg.require_connectivity = false;
            let trace = generate_trace(&g, &cfg);
            black_box(daily_recurrence(&trace, 400))
        })
    });
}

/// One (scheme, cell) simulation run shared by the Figures 6–10 benches.
fn sim_cell(scheme: Scheme, mice_fraction: f64) -> f64 {
    let mut net = Topo::Ripple.build_network(Effort::Quick, 11);
    net.scale_balances(10);
    let trace = Topo::Ripple.build_trace(&net, 120, 13);
    run_scheme(&net, scheme, &trace, mice_fraction, 17)
        .success_volume()
        .as_units_f64()
}

fn fig6_capacity_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_cell");
    for scheme in [
        Scheme::Flash,
        Scheme::Spider,
        Scheme::SpeedyMurmurs,
        Scheme::ShortestPath,
    ] {
        group.bench_function(scheme.label(), |b| {
            b.iter(|| black_box(sim_cell(scheme, DEFAULT_MICE_FRACTION)))
        });
    }
    group.finish();
}

fn fig7_load_sweep(c: &mut Criterion) {
    c.bench_function("fig7_cell_flash_high_load", |b| {
        b.iter(|| {
            let mut net = Topo::Ripple.build_network(Effort::Quick, 19);
            net.scale_balances(10);
            let trace = Topo::Ripple.build_trace(&net, 240, 23);
            black_box(run_scheme(&net, Scheme::Flash, &trace, 0.9, 29).success_ratio())
        })
    });
}

fn fig8_probe_overhead(c: &mut Criterion) {
    c.bench_function("fig8_cell_probe_comparison", |b| {
        b.iter(|| {
            let flash = sim_cell(Scheme::Flash, DEFAULT_MICE_FRACTION);
            let spider = sim_cell(Scheme::Spider, DEFAULT_MICE_FRACTION);
            black_box((flash, spider))
        })
    });
}

fn fig9_fee_opt(c: &mut Criterion) {
    c.bench_function("fig9_cell_fee_ratio", |b| {
        b.iter(|| {
            let mut net = Topo::Ripple.build_network(Effort::Quick, 31);
            net.scale_balances(10);
            let net = pcn_experiments::harness::with_paper_fees(&net, 37);
            let trace = Topo::Ripple.build_trace(&net, 120, 41);
            let with = run_scheme(&net, Scheme::Flash, &trace, 0.9, 43);
            let without = run_scheme(&net, Scheme::FlashNoFeeOpt, &trace, 0.9, 43);
            black_box((with.fee_ratio_percent(), without.fee_ratio_percent()))
        })
    });
}

fn fig10_threshold(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_cell");
    for frac in [0.0, 0.9] {
        group.bench_function(format!("mice_{}pct", (frac * 100.0) as u32), |b| {
            b.iter(|| black_box(sim_cell(Scheme::Flash, frac)))
        });
    }
    group.finish();
}

fn fig11_mice_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_cell");
    for m in [0usize, 4] {
        group.bench_function(format!("m_{m}"), |b| {
            b.iter(|| black_box(sim_cell(Scheme::FlashWithM(m), 1.0)))
        });
    }
    group.finish();
}

fn testbed_cell(nodes: usize, scheme: Scheme) -> f64 {
    let report = ScenarioBuilder::new(
        "bench-cell",
        TopologySpec::Testbed {
            n: nodes,
            lo: 1000,
            hi: 1500,
            seed: 53,
        },
    )
    .workload(WorkloadSpec::Ripple { txns: 30, seed: 59 })
    .scheme(scheme)
    .seed(61)
    .build()
    .run()
    .expect("scenario run");
    report.success_volume_micros as f64 / 1e6
}

fn fig12_testbed50(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig12_cell_20n");
    group.sample_size(10);
    for scheme in [Scheme::Flash, Scheme::Spider, Scheme::ShortestPath] {
        group.bench_function(scheme.label(), |b| {
            b.iter(|| black_box(testbed_cell(20, scheme)))
        });
    }
    group.finish();
}

fn fig13_testbed100(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13_cell_30n");
    group.sample_size(10);
    group.bench_function("Flash", |b| {
        b.iter(|| black_box(testbed_cell(30, Scheme::Flash)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = fig3_size_cdf, fig4_recurrence, fig6_capacity_sweep, fig7_load_sweep,
              fig8_probe_overhead, fig9_fee_opt, fig10_threshold, fig11_mice_paths,
              fig12_testbed50, fig13_testbed100
}
criterion_main!(benches);
