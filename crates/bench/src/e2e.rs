//! The end-to-end routing trajectory, `BENCH_e2e.json`.
//!
//! Drives every scheme through the discrete-event engine
//! (`pcn_sim::des`) on the §5.2 Watts–Strogatz testbed topology under a
//! Poisson arrival process — per-hop propagation latency plus a
//! per-node M/D/1-style service queue — and records per (scheme,
//! offered load): success ratio, delivered throughput (successful
//! payments per *virtual* second), completion-latency percentiles,
//! queueing-delay percentiles, peak in-flight payments and node
//! backlog, busiest-node utilization, event count, and the wall-clock
//! cost of simulating it all.
//!
//! Everything virtual is deterministic: two runs produce identical
//! records except for the wall-derived `wall_ns` and `events_per_sec`.

use crate::record::E2eRecord;
use pcn_experiments::figures::latency::{sweep, HOP_LATENCY_MS, NODE_SERVICE_MS};

/// Runs the sweep, CI-sized when `smoke`. Both sizes sweep the same 8×
/// load spread so the latency-vs-load shape
/// ([`crate::shape::check_flat_latency`]) is present in the smoke
/// numbers; full scale only grows the topology and trace.
pub fn records(smoke: bool) -> Vec<E2eRecord> {
    let loads = [50.0, 400.0];
    let (nodes, payments): (usize, usize) = if smoke { (60, 200) } else { (200, 800) };
    sweep(nodes, payments, &loads, 1009)
        .iter()
        .map(|point| {
            let report = &point.report;
            let wall_secs = point.wall_elapsed.as_secs_f64();
            E2eRecord {
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
            }
        })
        .collect()
}
