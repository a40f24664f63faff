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
use flash_offchain::experiments::harness::{run_scheme, run_scheme_testbed, DEFAULT_MICE_FRACTION};
use flash_offchain::proto::{Cluster, MsgType};
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

/// The testbed harness must agree with the simulator harness too:
/// `run_scheme_testbed` and `run_scheme` on one network, trace, mice
/// fraction and router seed deliver the same per-payment outcomes and
/// the same `Metrics` — per class attempts, successes, attempted and
/// delivered volume, plus fees and paths — and the testbed conserves
/// funds and wire frames.
///
/// The message counts differ by counting convention. The simulator
/// charges one message per hop a probe or commit traversed, the failing
/// hop of a refused commit included. The nodes charge one per node
/// that serviced it, the sender's local injection included, so a
/// message that reaches its receiver costs one more on the testbed. In
/// the simulator's convention a probe is its wire `PROBE` frames, and a
/// commit its wire `COMMIT` frames plus one for the node that refused
/// it. The probes must match that exactly. The commits may fall short
/// of it: the testbed sends a batch of parts whole, while the simulator
/// stops a batch at its first refused part and never sends the rest.
fn assert_harness_parity(scheme: Scheme, nodes: usize, txns: usize, seed: u64) {
    let net = testbed_topology(nodes, 1000, 1500, seed);
    let trace: Vec<Payment> = generate_trace(net.graph(), &TraceConfig::ripple(txns, seed + 1));
    let sim = run_scheme(&net, scheme, &trace, DEFAULT_MICE_FRACTION, seed + 2);
    let tcp = run_scheme_testbed(&net, scheme, &trace, DEFAULT_MICE_FRACTION, seed + 2);

    // `Metrics` keeps totals only, so replay the simulator run payment
    // by payment for the outcome list; the replay is `run_scheme` exactly.
    let amounts: Vec<Amount> = trace.iter().map(|p| p.amount).collect();
    let threshold = threshold_for_mice_fraction(&amounts, DEFAULT_MICE_FRACTION);
    let mut sim_net = net.clone();
    let mut sim_router = scheme.router::<Network>(threshold, seed + 2);
    let sim_outcomes: Vec<bool> = trace
        .iter()
        .map(|p| {
            sim_router
                .route(&mut sim_net, p, p.classify(threshold))
                .is_success()
        })
        .collect();
    let label = scheme.label();
    assert_eq!(sim_net.metrics(), &sim, "{label}: replay is not run_scheme");

    assert_eq!(tcp.outcomes, sim_outcomes, "{label}: outcomes diverged");
    let m = &tcp.metrics;
    assert_eq!(m.elephant, sim.elephant, "{label}: elephant counters");
    assert_eq!(m.mice, sim.mice, "{label}: mice counters");
    assert_eq!(m.total().attempted, trace.len() as u64, "{label}: attempts");
    assert_eq!(m.fees_paid, sim.fees_paid, "{label}: fees diverged");
    assert_eq!(m.paths_used, sim.paths_used, "{label}: paths diverged");

    let frames = |t: MsgType| -> u64 { tcp.counters.iter().map(|c| c.msgs_in[t as usize]).sum() };
    let refused: u64 = tcp.counters.iter().map(|c| c.commits_nacked).sum();
    assert_eq!(
        sim.probe_messages,
        frames(MsgType::Probe),
        "{label}: simulator probes (one per hop) against PROBE frames"
    );
    let wire_commits = frames(MsgType::Commit) + refused;
    assert!(
        sim.commit_messages <= wire_commits,
        "{label}: simulator commits (one per hop) {} above COMMIT frames plus refusals {}",
        sim.commit_messages,
        wire_commits
    );
    // Every committed part's receiver serviced its COMMIT as well.
    assert!(m.commit_messages >= sim.commit_messages + sim.paths_used);
    assert!(m.probe_messages >= sim.probe_messages);

    assert_eq!(tcp.funds_before, tcp.funds_after, "{label}: funds");
    assert_eq!(tcp.wire_in(), tcp.wire_out(), "{label}: wire frames");
    assert!(m.total().succeeded > 0, "{label}: nothing succeeded");
}

#[test]
fn testbed_harness_agrees_with_simulator_for_all_schemes() {
    for scheme in Scheme::ALL {
        assert_harness_parity(scheme, 14, 50, 401);
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
