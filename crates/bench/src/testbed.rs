//! The scenario-driven event-loop cluster trajectory,
//! `BENCH_testbed.json`.
//!
//! Runs declarative scenarios (`pcn_scenario`) on the single-process
//! event-loop TCP cluster and records per (scheme, scale): success
//! ratio, volume, fees, the probe/commit message breakdown, wire-frame
//! conservation totals, end-of-run escrow, queue high-water marks,
//! wire events per wall second, and the reactor's socket calls per wire
//! frame.
//!
//! Routing is deterministic (seeded topology, trace, and routers); the
//! wall-derived `events_per_sec`/`wall_ns` fields vary run to run, and
//! `socket_ops_per_frame` is a count, but one that includes reads the
//! kernel answered `WouldBlock`, so it differs in the last digits
//! between runs.

use crate::record::TestbedRecord;
use flash_core::Scheme;
use pcn_scenario::{Invariant, ScenarioBuilder, TopologySpec, WorkloadSpec};

/// Runs the scenarios, CI-sized when `smoke`. Both sizes include the
/// 200-node single-process scale point
/// ([`crate::shape::check_testbed_conserves`] requires it); full scale
/// adds the remaining schemes and longer traces.
///
/// # Panics
/// When a scenario cannot run or breaks a declared invariant.
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
            let report = ScenarioBuilder::new(
                format!("bench-{}-{}n", scheme.label(), nodes),
                TopologySpec::Testbed {
                    n: nodes,
                    lo: 1000,
                    hi: 1500,
                    seed,
                },
            )
            .workload(WorkloadSpec::Ripple {
                txns: payments,
                seed: seed + 7,
            })
            .scheme(scheme)
            .seed(seed + 31)
            .expect(Invariant::FundsConserved)
            .expect(Invariant::MessagesConserved)
            .build()
            .run()
            .expect("scenario run");
            let wall = wall_start.elapsed();
            assert!(
                report.all_invariants_hold(),
                "invariant violation in {}: {:?}",
                report.name,
                report.failed_invariants()
            );
            records.push(TestbedRecord {
                scheme: report.scheme.clone(),
                nodes,
                payments,
                success_ratio: report.success_ratio,
                success_volume_micros: report.success_volume_micros,
                fees_micros: report.fees_micros,
                probe_messages: report.probe_messages,
                commit_messages: report.commit_messages,
                wire_in: report.wire_in,
                wire_out: report.wire_out,
                escrow_end: report.telemetry.iter().map(|t| t.escrow_held).sum(),
                queue_high_water: report
                    .telemetry
                    .iter()
                    .map(|t| t.queue_high_water)
                    .max()
                    .unwrap_or(0),
                events_per_sec: report.events_per_sec,
                wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
                socket_ops_per_frame: report.socket_ops as f64 / report.wire_in.max(1) as f64,
            });
        }
    }
    records
}
