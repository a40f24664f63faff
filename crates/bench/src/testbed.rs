//! The event-loop cluster trajectory, `BENCH_testbed.json`.
//!
//! Runs `pcn_experiments::harness::run_scheme_testbed` on the
//! single-process event-loop TCP cluster and records per (scheme,
//! scale): success ratio, volume, fees, the probe/commit message
//! breakdown, wire-frame conservation totals, end-of-run escrow, queue
//! high-water marks, wire events per wall second, and the reactor's
//! socket calls per wire frame.
//!
//! Routing is deterministic (seeded topology, trace, and routers); the
//! wall-derived `events_per_sec`/`wall_ns` fields vary run to run, and
//! `socket_ops_per_frame` is a count, but one that includes reads the
//! kernel answered `WouldBlock`, so it differs in the last digits
//! between runs.

use crate::record::TestbedRecord;
use flash_core::Scheme;
use pcn_experiments::harness::{run_scheme_testbed, DEFAULT_MICE_FRACTION};
use pcn_workload::testbed_topology;
use pcn_workload::trace::{generate_trace, TraceConfig};

/// Runs the testbed, CI-sized when `smoke`. Both sizes include the
/// 200-node single-process scale point
/// ([`crate::shape::check_testbed_conserves`] requires it); full scale
/// adds the remaining schemes and longer traces.
///
/// # Panics
/// When a run leaks funds or loses a wire frame.
pub fn records(smoke: bool) -> Vec<TestbedRecord> {
    let schemes: &[Scheme] = if smoke {
        &[Scheme::ShortestPath, Scheme::Flash]
    } else {
        &Scheme::ALL
    };
    let scales: &[(usize, usize)] = if smoke {
        &[(60, 120), (200, 60)]
    } else {
        &[(60, 400), (200, 200)]
    };
    let seed = 2003;

    let mut records = Vec::new();
    for &scheme in schemes {
        for &(nodes, payments) in scales {
            let wall_start = pcn_proto::wall_now();
            let net = testbed_topology(nodes, 1000, 1500, seed);
            let trace = generate_trace(net.graph(), &TraceConfig::ripple(payments, seed + 7));
            let report = run_scheme_testbed(&net, scheme, &trace, DEFAULT_MICE_FRACTION, seed + 31);
            let wall = wall_start.elapsed();
            let run = format!("{} at {nodes} nodes", scheme.label());
            assert_eq!(report.funds_before, report.funds_after, "{run}: funds");
            let (wire_in, wire_out) = (report.wire_in(), report.wire_out());
            assert_eq!(wire_in, wire_out, "{run}: wire frames");
            let counters = &report.counters;
            records.push(TestbedRecord {
                scheme: scheme.label().to_string(),
                nodes,
                payments,
                success_ratio: report.success_ratio(),
                success_volume_micros: report.success_volume_micros,
                fees_micros: report.fees_micros,
                probe_messages: report.probe_messages,
                commit_messages: report.commit_messages,
                wire_in,
                wire_out,
                escrow_end: counters.iter().map(|c| c.escrow_held).sum(),
                queue_high_water: counters
                    .iter()
                    .map(|c| c.queue_high_water)
                    .max()
                    .unwrap_or(0),
                events_per_sec: if report.wall_ms > 0.0 {
                    wire_in as f64 / (report.wall_ms / 1e3)
                } else {
                    0.0
                },
                wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
                socket_ops_per_frame: report.socket_ops as f64 / wire_in.max(1) as f64,
            });
        }
    }
    records
}
