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

use flash_bench::record::ChurnRecord;
use pcn_experiments::figures::churn::{sweep, HOP_LATENCY_MS, NODE_SERVICE_MS, OFFERED_LOAD_PPS};

fn main() {
    let args = flash_bench::parse_args("churn_bench", "BENCH_churn.json");

    // Both modes sweep the same rates so the strict-degradation shape
    // (and the gate's check of it) is present in the smoke numbers;
    // full scale only grows the topology and trace.
    let rates = [0.0, 10.0, 40.0, 160.0];
    let (nodes, payments): (usize, usize) = if args.smoke { (60, 200) } else { (200, 800) };

    let mut records: Vec<ChurnRecord> = Vec::new();
    for point in sweep(nodes, payments, &rates, 1009) {
        let report = &point.report;
        println!(
            "{:>14} @{:>5} closes/s: ratio {:>5.1}% p95 {:>8.1} ms closed {:>4} stale {:>4} reprobes {:>3}",
            point.scheme.label(),
            point.x,
            report.metrics.success_ratio() * 100.0,
            report.latency_ms(0.95),
            report.closed_channels,
            report.stale_probe_failures,
            report.reprobes_triggered,
        );
        records.push(ChurnRecord {
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
        });
    }

    std::fs::write(&args.out, flash_bench::to_json_lines(&records)).expect("write bench output");
    println!("wrote {}", args.out);
}
