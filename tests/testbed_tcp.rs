//! Integration tests of the TCP testbed prototype: conservation over
//! real sockets, cross-validation against the simulator, and the
//! two-phase commit protocol under sub-payments in flight together.

use flash_offchain::core::Scheme;
use flash_offchain::proto::Cluster;
use flash_offchain::scenario::{Invariant, ScenarioBuilder, TopologySpec, WorkloadSpec};
use flash_offchain::sim::FaultConfig;
use flash_offchain::types::Amount;
use flash_offchain::workload::testbed_topology;
use flash_offchain::workload::trace::{generate_trace, TraceConfig};
use std::time::Duration;

/// A scenario over the §5.2 testbed topology seeded `seed`, routing an
/// 80-payment Ripple trace seeded `seed + 1`.
fn scenario(nodes: usize, seed: u64, scheme: Scheme, router_seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::new(
        format!("tcp-{}-{nodes}n", scheme.label()),
        TopologySpec::Testbed {
            n: nodes,
            lo: 1000,
            hi: 1500,
            seed,
        },
    )
    .workload(WorkloadSpec::Ripple {
        txns: 80,
        seed: seed + 1,
    })
    .scheme(scheme)
    .seed(router_seed)
}

#[test]
fn testbed_conserves_funds_across_full_trace() {
    for scheme in [Scheme::Flash, Scheme::Spider, Scheme::ShortestPath] {
        let report = scenario(16, 11, scheme, 3)
            .expect(Invariant::FundsConserved)
            .build()
            .run()
            .expect("scenario run");
        assert_eq!(report.attempted, 80);
        assert!(
            report.all_invariants_hold(),
            "{} leaked funds over TCP: {:?}",
            scheme.label(),
            report.failed_invariants()
        );
    }
}

#[test]
fn per_node_counters_repeat_exactly_across_runs() {
    // Dispatch order is fixed by the ready sets' visiting order, never
    // by which socket the kernel happened to have ready: every node
    // sees the same frames, of the same types, with the same queue and
    // escrow high-water marks, on every run.
    for scheme in [Scheme::Flash, Scheme::Spider, Scheme::ShortestPath] {
        let run = || {
            scenario(24, 29, scheme, 3)
                .build()
                .run()
                .expect("scenario run")
        };
        let (first, second) = (run(), run());
        assert_eq!(first.outcomes, second.outcomes, "{}", scheme.label());
        assert_eq!(first.telemetry, second.telemetry, "{}", scheme.label());
        assert!(first.clean_shutdown && second.clean_shutdown);
    }
}

#[test]
fn testbed_and_simulator_agree_on_shortest_path() {
    // SP is deterministic and probe-free: the TCP prototype and the
    // in-memory simulator must agree payment-by-payment.
    let report = scenario(16, 17, Scheme::ShortestPath, 5)
        .build()
        .run()
        .expect("scenario run");

    let mut sim_net = testbed_topology(16, 1000, 1500, 17); // identical initial balances (same seed)
    let trace = generate_trace(sim_net.graph(), &TraceConfig::ripple(80, 18));
    let mut sim_router = Scheme::ShortestPath.router(Amount::MAX, 5);
    for (p, &tcp_ok) in trace.iter().zip(&report.outcomes) {
        let sim_out = sim_router.route(&mut sim_net, p, p.classify(Amount::MAX));
        assert_eq!(tcp_ok, sim_out.is_success(), "divergence on payment {p:?}");
    }
    assert_eq!(report.outcomes.len(), trace.len());
}

#[test]
fn flash_tcp_beats_sp_on_volume() {
    let run = |scheme| {
        scenario(20, 23, scheme, 7)
            .build()
            .run()
            .expect("scenario run")
    };
    let flash = run(Scheme::Flash);
    let sp = run(Scheme::ShortestPath);
    assert!(
        flash.success_volume_micros >= sp.success_volume_micros,
        "Flash volume {} below SP {}",
        flash.success_volume_micros,
        sp.success_volume_micros
    );
    assert!(flash.probe_messages > 0, "Flash should probe sometimes");
    assert_eq!(sp.probe_messages, 0, "SP never probes");
}

#[test]
fn concurrent_subpayments_share_a_channel_safely() {
    // Two sub-payments of one payment go out in one batch and contend
    // for the second hop: both COMMITs cross 0 → 1 together, node 1
    // has room for one, and the loser's NACK rolls hop 0 back while the
    // winner's ACK is still travelling.
    use flash_offchain::graph::{DiGraph, Path};
    use flash_offchain::types::NodeId;
    let n = |i: u32| NodeId(i);
    let mut g = DiGraph::new(3);
    g.add_channel(n(0), n(1)).unwrap();
    g.add_channel(n(1), n(2)).unwrap();
    let mut balances = vec![Amount::from_units(10); g.edge_count()];
    balances[g.edge(n(0), n(1)).unwrap().index()] = Amount::from_units(20);
    let mut cluster = Cluster::launch(g, &balances).unwrap();
    let before = cluster.total_funds();
    let path = Path::new(vec![n(0), n(1), n(2)], Some(cluster.graph())).unwrap();

    let parts = [
        (1, &path, Amount::from_units(6)),
        (2, &path, Amount::from_units(5)),
    ];
    let results = cluster.commit_many(&parts);
    assert_eq!(
        results,
        vec![Ok(()), Err(1)],
        "1 → 2 holds 10: the first COMMIT fits, the second NACKs there"
    );
    // Only the winner is escrowed, on both hops.
    let escrow = |c: &Cluster| -> u64 { c.node_counters().iter().map(|n| n.escrow_held).sum() };
    assert_eq!(escrow(&cluster), 2 * 6_000_000);
    assert_eq!(cluster.settle_many(&parts[..1], false), vec![true]);
    assert_eq!(escrow(&cluster), 0);
    assert_eq!(cluster.total_funds(), before);
    assert_eq!(
        cluster.probe(3, &path).unwrap(),
        vec![20_000_000, 10_000_000],
        "every hop is back at its launch balance"
    );
    let counters = cluster.node_counters();
    let sent: u64 = counters.iter().map(|c| c.wire_out()).sum();
    let received: u64 = counters.iter().map(|c| c.wire_in()).sum();
    assert_eq!(sent, received);
    assert!(cluster.shutdown().is_clean());
}

#[test]
fn lossy_transport_degrades_but_never_wedges() {
    let report = ScenarioBuilder::new(
        "tcp-lossy",
        TopologySpec::Testbed {
            n: 12,
            lo: 1000,
            hi: 1500,
            seed: 31,
        },
    )
    .workload(WorkloadSpec::Ripple { txns: 30, seed: 33 })
    .scheme(Scheme::ShortestPath)
    .seed(5)
    .faults(FaultConfig {
        probe_drop_prob: 0.2,
        seed: 9,
        ..FaultConfig::none()
    })
    .timeout(Duration::from_millis(200))
    .build()
    .run()
    .expect("scenario run");
    // The run completes (no deadlock), records every attempt, and under
    // 20% loss some payments time out.
    assert_eq!(report.attempted, 30);
    assert!(
        report.succeeded < 30,
        "20% message loss must fail something"
    );
}
