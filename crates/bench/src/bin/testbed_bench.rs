//! `testbed_bench` — prints and writes the event-loop cluster
//! trajectory (see `flash_bench::testbed`).
//!
//! ```text
//! testbed_bench [--smoke] [--out FILE]
//! ```
//!
//! Records go to `BENCH_testbed.json` (default). `--smoke` from the
//! workspace root regenerates the committed file, which `cargo test`
//! pins by equality on every virtual field. Exits 1 when the records
//! break the testbed shape rule: wire-frame loss or unsettled escrow
//! inside a fault-free cluster, the ≥200-node record missing, or a
//! reactor spending more than a handful of socket calls per wire frame
//! or more of them at 200 nodes than at 60.

use flash_bench::{shape, testbed};

fn main() {
    let args = flash_bench::parse_args("testbed_bench", "BENCH_testbed.json");
    let records = testbed::records(args.smoke);
    for r in &records {
        println!(
            "{:>14} @{:>4} nodes: ratio {:>5.1}% msgs {:>6} wire {:>6} {:>8.0} ev/s",
            r.scheme,
            r.nodes,
            r.success_ratio * 100.0,
            r.probe_messages + r.commit_messages,
            r.wire_in,
            r.events_per_sec,
        );
    }
    flash_bench::write_and_check(&args, &records, &shape::check_testbed_conserves(&records));
}
