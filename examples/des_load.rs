//! Virtual time and concurrent payments: sweep the offered load on the
//! discrete-event engine and print success ratio, p95 completion
//! latency, queueing delay, and delivered throughput per scheme.
//!
//! ```sh
//! cargo run --release --example des_load
//! ```
//!
//! Payments arrive from a seeded Poisson process; each hop costs 25ms
//! of propagation plus 10ms of service at the receiving node (a FIFO
//! M/D/1-style queue per node), so at higher offered loads more
//! payments are in flight at once — contending for escrowed balance,
//! working from staler probes, and queueing behind busy nodes.
//! Everything is virtual time: the run is deterministic and takes a
//! fraction of the makespan it simulates.

use flash_offchain::experiments::figures::latency::sweep;

fn main() {
    println!("offered load sweep: 300 payments, 80-node testbed topology, 25ms/hop + 10ms/node\n");
    println!(
        "{:>14} {:>10} {:>9} {:>12} {:>12} {:>11} {:>9} {:>8}",
        "scheme", "load(pps)", "ratio", "p95(ms)", "queue95(ms)", "tput(pps)", "backlog", "util"
    );
    // The same sweep the `lat_*` figures and `e2e_bench` are built on.
    for point in sweep(80, 300, &[25.0, 100.0, 400.0], 7) {
        let report = &point.report;
        println!(
            "{:>14} {:>10.0} {:>8.1}% {:>12.1} {:>12.1} {:>11.1} {:>9} {:>7.0}%",
            point.scheme.label(),
            point.x,
            report.metrics.success_ratio() * 100.0,
            report.latency_ms(0.95),
            report.queue_delay_ms(0.95),
            report.throughput_pps,
            report.peak_backlog,
            report.max_node_utilization * 100.0,
        );
    }
}
