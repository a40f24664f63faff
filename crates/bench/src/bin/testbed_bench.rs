//! `testbed_bench` — scenario-driven event-loop cluster trajectory.
//!
//! ```text
//! testbed_bench [--smoke] [--out FILE]
//! ```
//!
//! Runs declarative scenarios (`pcn_scenario`) on the single-process
//! event-loop TCP cluster and records per (scheme, scale): success
//! ratio, volume, fees, the probe/commit message breakdown, wire-frame
//! conservation totals, end-of-run escrow, queue high-water marks,
//! wire events per wall second, and the reactor's socket calls per wire
//! frame. Results go to `BENCH_testbed.json`
//! (default).
//!
//! The **committed** `BENCH_testbed.json` is the `--smoke` output: CI
//! regenerates it every run and `bench_gate testbed` diffs the two,
//! failing on success-ratio regressions beyond 25%, on wire-frame
//! loss or unsettled escrow inside a fault-free cluster, on the
//! ≥200-node single-process record disappearing, and on a reactor that
//! spends more than a handful of socket calls per wire frame or more of
//! them at 200 nodes than at 60. The full-scale run (all five schemes)
//! happens on the weekly scheduled CI job.
//!
//! Routing is deterministic (seeded topology, trace, and routers); the
//! wall-derived `events_per_sec`/`wall_ns` fields vary run to run and
//! only ever warn in the gate. `socket_ops_per_frame` is a count, but
//! one that includes reads the kernel answered `WouldBlock`, so it may
//! differ in the last digits between runs.

use flash_bench::record::TestbedRecord;
use flash_core::Scheme;
use pcn_scenario::{Invariant, ScenarioBuilder, TopologySpec, WorkloadSpec};

fn main() {
    let args = flash_bench::parse_args("testbed_bench", "BENCH_testbed.json");

    // Both modes include the 200-node single-process scale point the
    // gate requires; full scale adds the remaining schemes and longer
    // traces.
    let schemes: &[Scheme] = if args.smoke {
        &[Scheme::ShortestPath, Scheme::Flash]
    } else {
        &Scheme::ALL
    };
    let scales: &[(usize, usize)] = if args.smoke {
        &[(60, 120), (200, 60)]
    } else {
        &[(60, 400), (200, 200)]
    };
    let seed = 2003;

    let mut records: Vec<TestbedRecord> = Vec::new();
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
            if !report.all_invariants_hold() {
                eprintln!(
                    "invariant violation in {}: {:?}",
                    report.name,
                    report.failed_invariants()
                );
                std::process::exit(1);
            }
            println!(
                "{:>14} @{:>4} nodes: ratio {:>5.1}% msgs {:>6} wire {:>6} {:>8.0} ev/s",
                report.scheme,
                nodes,
                report.success_ratio * 100.0,
                report.probe_messages + report.commit_messages,
                report.wire_in,
                report.events_per_sec,
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

    std::fs::write(&args.out, flash_bench::to_json_lines(&records)).expect("write bench output");
    println!("wrote {}", args.out);
}
