//! `e2e_bench` — prints and writes the end-to-end routing trajectory
//! (see `flash_bench::e2e`).
//!
//! ```text
//! e2e_bench [--smoke] [--out FILE]
//! ```
//!
//! Records go to `BENCH_e2e.json` (default). `--smoke` from the
//! workspace root regenerates the committed file, which `cargo test`
//! pins by equality on every virtual field. Exits 1 when the records
//! break the flat-latency shape rule.

use flash_bench::{e2e, shape};

fn main() {
    let args = flash_bench::parse_args("e2e_bench", "BENCH_e2e.json");
    let records = e2e::records(args.smoke);
    for r in &records {
        println!(
            "{:>14} @{:>4} pps: ratio {:>5.1}% tput {:>6.1} pps p95 {:>8.1} ms queue95 {:>7.1} ms peak {:>3} in flight",
            r.scheme,
            r.offered_pps,
            r.success_ratio * 100.0,
            r.throughput_pps,
            r.p95_latency_ms,
            r.p95_queue_delay_ms,
            r.peak_in_flight,
        );
    }
    flash_bench::write_and_check(&args, &records, &shape::check_flat_latency(&records));
}
