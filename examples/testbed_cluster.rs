//! Testbed walkthrough: launches a real TCP cluster (one node per
//! participant on 127.0.0.1), routes payments with the two-phase commit
//! protocol of §5.1, and prints per-scheme processing delays and the
//! probe/commit message breakdown.
//!
//! All five schemes route through the very same `flash-core` routers the
//! simulator uses — the cluster is just another `PaymentNetwork` backend.
//!
//! ```sh
//! cargo run --example testbed_cluster
//! ```

use flash_offchain::core::Scheme;
use flash_offchain::experiments::harness::{run_scheme_testbed, DEFAULT_MICE_FRACTION};
use flash_offchain::workload::testbed_topology;
use flash_offchain::workload::trace::{generate_trace, TraceConfig};

fn main() {
    let nodes = 30;
    let (lo, hi) = (1000, 1500);
    println!("launching {nodes}-node Watts-Strogatz cluster, capacities U[${lo},${hi})...");
    let net = testbed_topology(nodes, lo, hi, 42);
    let trace = generate_trace(net.graph(), &TraceConfig::ripple(150, 7));

    for scheme in Scheme::ALL {
        // Fresh cluster per scheme: identical topology, balances and
        // trace, 90% of the trace classified as mice.
        let report = run_scheme_testbed(&net, scheme, &trace, DEFAULT_MICE_FRACTION, 13);
        println!(
            "{:>14}: success {:>5.1}%  volume ${:<11} avg delay {:>7.3} ms  probes {:>5}  commits {:>5}",
            scheme.label(),
            report.metrics.success_ratio() * 100.0,
            report.metrics.success_volume(),
            report.avg_delay_ms,
            report.metrics.probe_messages,
            report.metrics.commit_messages,
        );
    }
    println!("done — all balance movement happened via PROBE/COMMIT/CONFIRM frames over TCP.");
}
