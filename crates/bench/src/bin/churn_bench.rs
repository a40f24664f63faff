//! `churn_bench` — prints and writes the success-under-churn trajectory
//! (see `flash_bench::churn`).
//!
//! ```text
//! churn_bench [--smoke] [--out FILE]
//! ```
//!
//! Records go to `BENCH_churn.json` (default). `--smoke` from the
//! workspace root regenerates the committed file, which `cargo test`
//! pins by equality on every virtual field. Exits 1 when the records
//! break the churn shape rule: ≥3 rates per scheme, success strictly
//! degrading as churn rises, no churn activity at rate zero.

use flash_bench::{churn, shape};

fn main() {
    let args = flash_bench::parse_args("churn_bench", "BENCH_churn.json");
    let records = churn::records(args.smoke);
    for r in &records {
        println!(
            "{:>14} @{:>5} closes/s: ratio {:>5.1}% p95 {:>8.1} ms closed {:>4} stale {:>4} reprobes {:>3}",
            r.scheme,
            r.closes_per_sec,
            r.success_ratio * 100.0,
            r.p95_latency_ms,
            r.closed_channels,
            r.stale_probe_failures,
            r.reprobes_triggered,
        );
    }
    flash_bench::write_and_check(&args, &records, &shape::check_churn_degrades(&records));
}
