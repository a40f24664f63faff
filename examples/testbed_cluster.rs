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
use flash_offchain::scenario::{ScenarioBuilder, TopologySpec, WorkloadSpec};

fn main() {
    let nodes = 30;
    let (lo, hi) = (1000, 1500);
    println!("launching {nodes}-node Watts-Strogatz cluster, capacities U[${lo},${hi})...");

    for scheme in Scheme::ALL {
        // Fresh cluster per scheme: identical topology, balances and
        // trace (same seeds), 90% of the trace classified as mice.
        let report = ScenarioBuilder::new(
            format!("example-{}", scheme.label()),
            TopologySpec::Testbed {
                n: nodes,
                lo,
                hi,
                seed: 42,
            },
        )
        .workload(WorkloadSpec::Ripple { txns: 150, seed: 7 })
        .scheme(scheme)
        .seed(13)
        .build()
        .run()
        .expect("scenario run");
        println!(
            "{:>14}: success {:>5.1}%  volume ${:<11} avg delay {:>7.3} ms  probes {:>5}  commits {:>5}",
            report.scheme,
            report.success_ratio * 100.0,
            report.success_volume_micros as f64 / 1e6,
            report.avg_delay_ms,
            report.probe_messages,
            report.commit_messages,
        );
    }
    println!("done — all balance movement happened via PROBE/COMMIT/CONFIRM frames over TCP.");
}
