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

use flash_offchain::core::Scheme;
use flash_offchain::experiments::harness::{run_scheme_des, DesLoad, DEFAULT_MICE_FRACTION};
use flash_offchain::sim::des::{ChurnRate, LatencyModel, ServiceModel};
use flash_offchain::workload::testbed_topology;
use flash_offchain::workload::trace::{generate_trace, TraceConfig};

fn main() {
    let seed = 7;
    let net = testbed_topology(80, 1000, 1500, seed);
    let trace = generate_trace(net.graph(), &TraceConfig::ripple(300, seed + 1));

    println!("offered load sweep: 300 payments, 80-node testbed topology, 25ms/hop + 10ms/node\n");
    println!(
        "{:>14} {:>10} {:>9} {:>12} {:>12} {:>11} {:>9} {:>8}",
        "scheme", "load(pps)", "ratio", "p95(ms)", "queue95(ms)", "tput(pps)", "backlog", "util"
    );
    for scheme in Scheme::ALL {
        for load in [25.0, 100.0, 400.0] {
            let report = run_scheme_des(
                &net,
                scheme,
                &trace,
                DEFAULT_MICE_FRACTION,
                seed + 2,
                DesLoad {
                    rate_per_sec: load,
                    latency: LatencyModel::constant_ms(25),
                    service: ServiceModel::constant_ms(10),
                    churn: ChurnRate::zero(),
                },
            );
            println!(
                "{:>14} {:>10.0} {:>8.1}% {:>12.1} {:>12.1} {:>11.1} {:>9} {:>7.0}%",
                scheme.label(),
                load,
                report.metrics.success_ratio() * 100.0,
                report.latency_ms(0.95),
                report.queue_delay_ms(0.95),
                report.throughput_pps,
                report.peak_backlog,
                report.max_node_utilization * 100.0,
            );
        }
    }
}
