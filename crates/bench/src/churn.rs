//! The success-under-churn trajectory, `BENCH_churn.json`.
//!
//! Drives every scheme through the discrete-event engine with a seeded
//! topology-churn schedule (`pcn_sim::des::churn`) at a fixed offered
//! load and a sweep of churn intensities, recording per (scheme,
//! churn-rate): success ratio, p95 completion latency, and the
//! engine's churn counters (channels closed, probes bounced off stale
//! topology, threshold-triggered re-probes).
//!
//! Everything virtual is deterministic: two runs produce identical
//! records except for the wall-derived `wall_ns`.

use crate::record::ChurnRecord;
use pcn_experiments::figures::churn::{sweep, HOP_LATENCY_MS, NODE_SERVICE_MS, OFFERED_LOAD_PPS};

/// Runs the sweep, CI-sized when `smoke`. Both sizes sweep the same
/// rates so the strict-degradation shape
/// ([`crate::shape::check_churn_degrades`]) is present in the smoke
/// numbers; full scale only grows the topology and trace.
pub fn records(smoke: bool) -> Vec<ChurnRecord> {
    let rates = [0.0, 10.0, 40.0, 160.0];
    let (nodes, payments): (usize, usize) = if smoke { (60, 200) } else { (200, 800) };
    sweep(nodes, payments, &rates, 1009)
        .iter()
        .map(|point| {
            let report = &point.report;
            ChurnRecord {
                scheme: point.scheme.label(),
                nodes,
                payments,
                offered_pps: OFFERED_LOAD_PPS,
                closes_per_sec: point.x,
                hop_latency_ms: HOP_LATENCY_MS,
                service_time_ms: NODE_SERVICE_MS,
                success_ratio: report.metrics.success_ratio(),
                p95_latency_ms: report.latency_ms(0.95),
                closed_channels: report.closed_channels,
                stale_probe_failures: report.stale_probe_failures,
                reprobes_triggered: report.reprobes_triggered,
                wall_ns: u64::try_from(point.wall_elapsed.as_nanos()).unwrap_or(u64::MAX),
            }
        })
        .collect()
}
