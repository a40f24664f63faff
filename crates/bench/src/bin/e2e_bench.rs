//! `e2e_bench` — the end-to-end routing perf trajectory.
//!
//! ```text
//! e2e_bench [--smoke] [--out FILE]
//! ```
//!
//! Drives every scheme through the discrete-event engine
//! (`pcn_sim::des`) on the §5.2 Watts–Strogatz testbed topology under a
//! Poisson arrival process — per-hop propagation latency plus a
//! per-node M/D/1-style service queue — and records per (scheme,
//! offered load): success ratio, delivered throughput (successful
//! payments per *virtual* second), completion-latency percentiles,
//! queueing-delay percentiles, peak in-flight payments and node
//! backlog, busiest-node utilization, event count, and the wall-clock
//! cost of simulating it all. Results go to `BENCH_e2e.json` (default).
//!
//! The **committed** `BENCH_e2e.json` is the `--smoke` output: CI
//! regenerates it every run and `bench_gate` diffs the two, failing
//! on regressions beyond 25% in the virtual metrics and on physically
//! suspicious shapes (e.g. identical latency percentiles across the
//! 8× offered-load spread — the flat-curve bug service queues fixed).
//! Both modes sweep the same loads and emit the service-time parameter
//! in every record so the gate always compares like with like; the
//! full-scale run happens on the weekly scheduled CI job.
//!
//! Everything virtual is deterministic: two runs of this binary must
//! produce byte-identical JSON except for the wall-derived `wall_ns`
//! and `events_per_sec` fields (which is why the gate only *warns* on
//! `events_per_sec` drops).

use flash_core::Scheme;
use pcn_experiments::harness::{run_scheme_des, DesLoad, DEFAULT_MICE_FRACTION};
use pcn_sim::{ChurnRate, LatencyModel, ServiceModel};
use pcn_workload::testbed_topology;
use pcn_workload::trace::{generate_trace, TraceConfig};
use serde::Serialize;

/// One (scheme, offered-load) measurement.
#[derive(Serialize)]
struct Record {
    scheme: String,
    nodes: usize,
    payments: usize,
    offered_pps: f64,
    hop_latency_ms: u64,
    service_time_ms: u64,
    success_ratio: f64,
    throughput_pps: f64,
    p50_latency_ms: f64,
    p95_latency_ms: f64,
    p99_latency_ms: f64,
    p50_queue_delay_ms: f64,
    p95_queue_delay_ms: f64,
    peak_in_flight: u64,
    peak_backlog: u64,
    max_node_utilization: f64,
    events: u64,
    virtual_makespan_ms: f64,
    wall_ns: u64,
    events_per_sec: f64,
}

const SCHEMES: [Scheme; 5] = Scheme::ALL;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = String::from("BENCH_e2e.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                out = args.get(i).expect("--out needs a file").clone();
            }
            "--help" | "-h" => {
                eprintln!("usage: e2e_bench [--smoke] [--out FILE]");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // Both modes sweep the same 8× load spread so the latency-vs-load
    // shape (and the gate's flat-curve check) is present in the smoke
    // numbers; full scale only grows the topology and trace.
    let loads: &[f64] = &[50.0, 400.0];
    let (nodes, payments): (usize, usize) = if smoke { (60, 200) } else { (200, 800) };
    let hop_latency_ms = 25;
    let service_time_ms = 10;
    let seed = 1009;
    let net = testbed_topology(nodes, 1000, 1500, seed);
    let trace = generate_trace(net.graph(), &TraceConfig::ripple(payments, seed + 7));

    let mut records: Vec<Record> = Vec::new();
    for scheme in SCHEMES {
        for &load in loads {
            let wall_start = pcn_proto::wall_now();
            let report = run_scheme_des(
                &net,
                scheme,
                &trace,
                DEFAULT_MICE_FRACTION,
                seed + 31,
                DesLoad {
                    rate_per_sec: load,
                    latency: LatencyModel::constant_ms(hop_latency_ms),
                    service: ServiceModel::constant_ms(service_time_ms),
                    churn: ChurnRate::zero(),
                },
            );
            let wall = wall_start.elapsed();
            println!(
                "{:>14} @{:>4} pps: ratio {:>5.1}% tput {:>6.1} pps p95 {:>8.1} ms queue95 {:>7.1} ms peak {:>3} in flight",
                scheme.label(),
                load,
                report.metrics.success_ratio() * 100.0,
                report.throughput_pps,
                report.latency_ms(0.95),
                report.queue_delay_ms(0.95),
                report.peak_in_flight,
            );
            records.push(Record {
                scheme: scheme.label(),
                nodes,
                payments,
                offered_pps: load,
                hop_latency_ms,
                service_time_ms,
                success_ratio: report.metrics.success_ratio(),
                throughput_pps: report.throughput_pps,
                p50_latency_ms: report.latency_ms(0.5),
                p95_latency_ms: report.latency_ms(0.95),
                p99_latency_ms: report.latency_ms(0.99),
                p50_queue_delay_ms: report.queue_delay_ms(0.5),
                p95_queue_delay_ms: report.queue_delay_ms(0.95),
                peak_in_flight: report.peak_in_flight,
                peak_backlog: report.peak_backlog,
                max_node_utilization: report.max_node_utilization,
                events: report.events,
                virtual_makespan_ms: report.makespan.as_millis_f64(),
                wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
                events_per_sec: if wall.as_secs_f64() > 0.0 {
                    report.events as f64 / wall.as_secs_f64()
                } else {
                    0.0
                },
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
