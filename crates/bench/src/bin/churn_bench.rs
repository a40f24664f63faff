//! `churn_bench` — success-under-churn trajectory.
//!
//! ```text
//! churn_bench [--smoke] [--out FILE]
//! ```
//!
//! Drives every scheme through the discrete-event engine with a seeded
//! topology-churn schedule (`pcn_sim::des::churn`) at a fixed offered
//! load and a sweep of churn intensities, recording per (scheme,
//! churn-rate): success ratio, p95 completion latency, and the
//! engine's churn counters (channels closed, probes bounced off stale
//! topology, threshold-triggered re-probes). Results go to
//! `BENCH_churn.json` (default).
//!
//! The **committed** `BENCH_churn.json` is the `--smoke` output: CI
//! regenerates it every run and `bench_gate churn` diffs the two,
//! failing on success-ratio regressions beyond 25% and on physically
//! suspicious shapes — the sweep must cover ≥3 churn rates, success
//! must *strictly* degrade as churn rises, and the zero-churn record
//! must report zero churn activity (the empty schedule stays
//! bit-exact). The full-scale run happens on the weekly scheduled CI
//! job.
//!
//! Everything virtual is deterministic: two runs of this binary must
//! produce byte-identical JSON except for the wall-derived `wall_ns`
//! field.

use flash_core::Scheme;
use pcn_experiments::figures::churn::{
    churn_mix, HOP_LATENCY_MS, NODE_SERVICE_MS, OFFERED_LOAD_PPS,
};
use pcn_experiments::harness::{run_scheme_des, DesLoad, DEFAULT_MICE_FRACTION};
use pcn_sim::{LatencyModel, ServiceModel};
use pcn_workload::testbed_topology;
use pcn_workload::trace::{generate_trace, TraceConfig};
use serde::Serialize;

/// One (scheme, churn-rate) measurement — the serialization twin of
/// `flash_bench::gate::ChurnRecord`.
#[derive(Serialize)]
struct Record {
    scheme: String,
    nodes: usize,
    payments: usize,
    offered_pps: f64,
    closes_per_sec: f64,
    hop_latency_ms: u64,
    service_time_ms: u64,
    success_ratio: f64,
    p95_latency_ms: f64,
    closed_channels: u64,
    stale_probe_failures: u64,
    reprobes_triggered: u64,
    wall_ns: u64,
}

const SCHEMES: [Scheme; 5] = Scheme::ALL;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = String::from("BENCH_churn.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                out = args.get(i).expect("--out needs a file").clone();
            }
            "--help" | "-h" => {
                eprintln!("usage: churn_bench [--smoke] [--out FILE]");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // Both modes sweep the same rates so the strict-degradation shape
    // (and the gate's check of it) is present in the smoke numbers;
    // full scale only grows the topology and trace.
    let rates: &[f64] = &[0.0, 10.0, 40.0, 160.0];
    let (nodes, payments): (usize, usize) = if smoke { (60, 200) } else { (200, 800) };
    let seed = 1009;
    let net = testbed_topology(nodes, 1000, 1500, seed);
    let trace = generate_trace(net.graph(), &TraceConfig::ripple(payments, seed + 7));

    let mut records: Vec<Record> = Vec::new();
    for scheme in SCHEMES {
        for &rate in rates {
            let wall_start = pcn_proto::wall_now();
            let report = run_scheme_des(
                &net,
                scheme,
                &trace,
                DEFAULT_MICE_FRACTION,
                seed + 31,
                DesLoad {
                    rate_per_sec: OFFERED_LOAD_PPS,
                    latency: LatencyModel::constant_ms(HOP_LATENCY_MS),
                    service: ServiceModel::constant_ms(NODE_SERVICE_MS),
                    churn: churn_mix(rate),
                },
            );
            let wall = wall_start.elapsed();
            println!(
                "{:>14} @{:>5} closes/s: ratio {:>5.1}% p95 {:>8.1} ms closed {:>4} stale {:>4} reprobes {:>3}",
                scheme.label(),
                rate,
                report.metrics.success_ratio() * 100.0,
                report.latency_ms(0.95),
                report.closed_channels,
                report.stale_probe_failures,
                report.reprobes_triggered,
            );
            records.push(Record {
                scheme: scheme.label(),
                nodes,
                payments,
                offered_pps: OFFERED_LOAD_PPS,
                closes_per_sec: rate,
                hop_latency_ms: HOP_LATENCY_MS,
                service_time_ms: NODE_SERVICE_MS,
                success_ratio: report.metrics.success_ratio(),
                p95_latency_ms: report.latency_ms(0.95),
                closed_channels: report.closed_channels,
                stale_probe_failures: report.stale_probe_failures,
                reprobes_triggered: report.reprobes_triggered,
                wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
            });
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
