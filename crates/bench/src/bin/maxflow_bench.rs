//! `maxflow_bench` — prints and writes the max-flow kernel trajectory
//! (see `flash_bench::maxflow`).
//!
//! ```text
//! maxflow_bench [--smoke] [--out FILE]
//! ```
//!
//! Records go to `BENCH_maxflow.json` (default). `--smoke` from the
//! workspace root regenerates the committed file, whose `total_flow`
//! values `cargo test` pins by equality. Exits 1 when push-relabel
//! stops beating the Edmonds–Karp oracle (by >2× at lightning scale) —
//! the one wall-time rule, so it is checked here and not in tier-1: the
//! weekly full-scale run is where it bites, and a `--smoke` run timing
//! 4 pairs once trips it about one time in twenty.

use flash_bench::{maxflow, shape};

fn main() {
    let args = flash_bench::parse_args("maxflow_bench", "BENCH_maxflow.json");
    let records = maxflow::records(args.smoke);
    for r in &records {
        println!(
            "{:>22} {:>14}: {:>12} ns/pair",
            r.topology, r.kernel, r.mean_ns_per_pair
        );
    }
    flash_bench::write_and_check(&args, &records, &shape::check_kernel_beats_oracle(&records));
}
