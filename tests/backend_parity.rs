//! Cross-backend differential test: the same router, the same trace, the
//! same initial balances — once on the in-memory simulator
//! (`pcn_sim::Network`) and once on the TCP testbed (`pcn_proto::Cluster`)
//! — must agree payment-by-payment on success/failure.
//!
//! This is the acceptance check of the `PaymentNetwork` redesign: both
//! backends implement the trait, every scheme routes through the
//! identical `flash-core` code, so with faults off any divergence is a
//! backend bug, not a scheme difference.
//!
//! Known, intentional asymmetry: the TCP `PROBE_ACK` carries no
//! reverse-direction balances, so Flash's elephant search sees slightly
//! less information on the cluster (reverse channels stay "assumed
//! usable" until probed directly). On these small topologies with the
//! default k = 20 budget, the discovered max-flow — and therefore every
//! accept/reject decision — still agrees, which this test pins down.

use flash_offchain::core::classify::threshold_for_mice_fraction;
use flash_offchain::core::Scheme;
use flash_offchain::proto::Cluster;
use flash_offchain::scenario::{Invariant, ScenarioBuilder, TopologySpec, WorkloadSpec};
use flash_offchain::sim::Network;
use flash_offchain::types::{Amount, Payment};
use flash_offchain::workload::testbed_topology;
use flash_offchain::workload::trace::{generate_trace, TraceConfig};

/// Routes `txns` payments through `scheme` on both backends and asserts
/// per-payment success agreement plus conservation on each backend.
fn assert_parity(scheme: Scheme, nodes: usize, txns: usize, seed: u64) {
    // Identical deterministic topology and balances on both backends.
    let mut sim_net = testbed_topology(nodes, 1000, 1500, seed);
    let graph = sim_net.graph().clone();
    let balances: Vec<Amount> = graph.edges().map(|(e, _, _)| sim_net.balance(e)).collect();
    let mut cluster = Cluster::launch(graph, &balances).expect("cluster launch");

    let trace: Vec<Payment> = generate_trace(sim_net.graph(), &TraceConfig::ripple(txns, seed + 1));
    let amounts: Vec<Amount> = trace.iter().map(|p| p.amount).collect();
    let threshold = threshold_for_mice_fraction(&amounts, 0.9);

    // The routers are stateful (Flash's table and RNG), so each backend
    // gets its own instance from the one registry, seeded the same.
    let mut sim_router = scheme.router::<Network>(threshold, seed + 2);
    let mut tcp_router = scheme.router::<Cluster>(threshold, seed + 2);

    let sim_before = sim_net.total_funds();
    let tcp_before = cluster.total_funds();

    for (i, p) in trace.iter().enumerate() {
        let class = p.classify(threshold);
        let sim_out = sim_router.route(&mut sim_net, p, class);
        let tcp_out = tcp_router.route(&mut cluster, p, class);
        assert_eq!(
            sim_out.is_success(),
            tcp_out.is_success(),
            "{}: payment {i} ({:?}, {class:?}) diverged: sim {sim_out:?} vs tcp {tcp_out:?}",
            scheme.label(),
            p,
        );
        // On success both backends deliver the full demand.
        if sim_out.is_success() {
            assert_eq!(sim_out.volume(), p.amount);
            assert_eq!(tcp_out.volume(), p.amount);
        }
        assert_eq!(
            sim_net.total_funds(),
            sim_before,
            "{}: simulator leaked funds at payment {i}",
            scheme.label()
        );
        assert_eq!(
            cluster.total_funds(),
            tcp_before,
            "{}: cluster leaked funds at payment {i}",
            scheme.label()
        );
    }
    // The trace must exercise both outcomes to be a meaningful diff.
    let successes = sim_net.metrics().total().succeeded;
    assert!(successes > 0, "{}: nothing succeeded", scheme.label());
}

/// The declarative path must agree with the simulator too: a scenario
/// described through `ScenarioBuilder` — same topology seed, same trace
/// seed, same router seed — reproduces the simulator's per-payment
/// outcomes, delivered volume and fees exactly, and its wire telemetry
/// conserves (every frame sent was received).
fn assert_scenario_parity(scheme: Scheme, nodes: usize, txns: usize, seed: u64) {
    let mut sim_net = testbed_topology(nodes, 1000, 1500, seed);
    let trace: Vec<Payment> = generate_trace(sim_net.graph(), &TraceConfig::ripple(txns, seed + 1));
    let amounts: Vec<Amount> = trace.iter().map(|p| p.amount).collect();
    let threshold = threshold_for_mice_fraction(&amounts, 0.9);
    let mut sim_router = scheme.router::<Network>(threshold, seed + 2);
    let sim_outcomes: Vec<bool> = trace
        .iter()
        .map(|p| {
            sim_router
                .route(&mut sim_net, p, p.classify(threshold))
                .is_success()
        })
        .collect();

    let report = ScenarioBuilder::new(
        format!("parity-{}", scheme.label()),
        TopologySpec::Testbed {
            n: nodes,
            lo: 1000,
            hi: 1500,
            seed,
        },
    )
    .workload(WorkloadSpec::Ripple {
        txns,
        seed: seed + 1,
    })
    .scheme(scheme)
    .seed(seed + 2)
    .expect(Invariant::FundsConserved)
    .expect(Invariant::MessagesConserved)
    .build()
    .run()
    .expect("scenario run");

    assert_eq!(
        report.outcomes,
        sim_outcomes,
        "{}: scenario outcomes diverged from the simulator",
        scheme.label()
    );
    let sim = sim_net.metrics();
    assert_eq!(
        report.success_volume_micros,
        sim.success_volume().micros(),
        "{}: delivered volume diverged",
        scheme.label()
    );
    assert_eq!(
        report.fees_micros,
        sim.fees_paid.micros(),
        "{}: fees diverged",
        scheme.label()
    );
    assert!(
        report.all_invariants_hold(),
        "{}: {:?}",
        scheme.label(),
        report.failed_invariants()
    );
    assert!(
        report.succeeded > 0,
        "{}: nothing succeeded",
        scheme.label()
    );
}

#[test]
fn scenario_agrees_with_simulator_for_all_schemes() {
    for scheme in Scheme::ALL {
        assert_scenario_parity(scheme, 14, 50, 401);
    }
}

#[test]
fn shortest_path_agrees_across_backends() {
    for seed in [101, 201, 301] {
        assert_parity(Scheme::ShortestPath, 14, 50, seed);
    }
}

#[test]
fn spider_agrees_across_backends() {
    for seed in [103, 203, 303] {
        assert_parity(Scheme::Spider, 14, 50, seed);
    }
}

#[test]
fn flash_agrees_across_backends() {
    for seed in [105, 205, 305] {
        assert_parity(Scheme::Flash, 14, 50, seed);
    }
}

#[test]
fn speedymurmurs_agrees_across_backends() {
    for seed in [107, 207, 307] {
        assert_parity(Scheme::SpeedyMurmurs, 14, 50, seed);
    }
}

#[test]
fn silentwhispers_agrees_across_backends() {
    for seed in [109, 209, 309] {
        assert_parity(Scheme::SilentWhispers, 14, 50, seed);
    }
}
