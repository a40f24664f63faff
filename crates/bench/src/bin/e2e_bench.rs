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

use flash_bench::record::E2eRecord;
use pcn_experiments::figures::latency::{sweep, HOP_LATENCY_MS, NODE_SERVICE_MS};

fn main() {
    let args = flash_bench::parse_args("e2e_bench", "BENCH_e2e.json");

    // Both modes sweep the same 8× load spread so the latency-vs-load
    // shape (and the gate's flat-curve check) is present in the smoke
    // numbers; full scale only grows the topology and trace.
    let loads = [50.0, 400.0];
    let (nodes, payments): (usize, usize) = if args.smoke { (60, 200) } else { (200, 800) };

    let mut records: Vec<E2eRecord> = Vec::new();
    for point in sweep(nodes, payments, &loads, 1009) {
        let report = &point.report;
        let wall_secs = point.wall_elapsed.as_secs_f64();
        println!(
            "{:>14} @{:>4} pps: ratio {:>5.1}% tput {:>6.1} pps p95 {:>8.1} ms queue95 {:>7.1} ms peak {:>3} in flight",
            point.scheme.label(),
            point.x,
            report.metrics.success_ratio() * 100.0,
            report.throughput_pps,
            report.latency_ms(0.95),
            report.queue_delay_ms(0.95),
            report.peak_in_flight,
        );
        records.push(E2eRecord {
            scheme: point.scheme.label(),
            nodes,
            payments,
            offered_pps: point.x,
            hop_latency_ms: HOP_LATENCY_MS,
            service_time_ms: NODE_SERVICE_MS,
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
            wall_ns: u64::try_from(point.wall_elapsed.as_nanos()).unwrap_or(u64::MAX),
            events_per_sec: if wall_secs > 0.0 {
                report.events as f64 / wall_secs
            } else {
                0.0
            },
        });
    }

    std::fs::write(&args.out, flash_bench::to_json_lines(&records)).expect("write bench output");
    println!("wrote {}", args.out);
}
