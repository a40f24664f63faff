//! Scenario-level integration tests: churn reversal through the escape
//! hatch, single-process scale, lossy probes, and wire-telemetry
//! conservation.

use flash_core::Scheme;
use pcn_graph::{DiGraph, Path};
use pcn_proto::Cluster;
use pcn_scenario::{Invariant, ScenarioBuilder, TopologySpec, WorkloadSpec};
use pcn_sim::{ChurnAction, FaultConfig};
use pcn_types::{Amount, NodeId};
use std::time::Duration;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// A 3-node line 0 — 1 — 2 with 10-unit bidirectional channels.
fn line_spec() -> TopologySpec {
    let mut g = DiGraph::new(3);
    g.add_channel(n(0), n(1)).unwrap();
    g.add_channel(n(1), n(2)).unwrap();
    let balances = vec![Amount::from_units(10); g.edge_count()];
    TopologySpec::Explicit { graph: g, balances }
}

/// The churn satellite: a sub-payment committed *before* its channel
/// closes must still REVERSE cleanly — phase 2 passes through frozen
/// channels, escrow is restored in the forward direction, and the
/// wind-down is clean.
#[test]
fn in_flight_payment_through_a_closed_channel_reverses_cleanly() {
    let mut cluster: Cluster = ScenarioBuilder::new("close-mid-flight", line_spec())
        .build()
        .manual_cluster()
        .unwrap();
    let before = cluster.total_funds();
    let path = Path::new(vec![n(0), n(1), n(2)], Some(cluster.graph())).unwrap();

    // Phase 1 succeeds while the path is open: 4 units are escrowed.
    assert!(cluster.commit_part(1, &path, Amount::from_units(4)));

    // The first channel closes with the payment still in flight.
    let e01 = cluster.graph().edge(n(0), n(1)).unwrap();
    cluster.apply_churn(&ChurnAction::ChannelClose(e01));
    assert!(
        !cluster.commit_part(2, &path, Amount::from_units(1)),
        "new commits through the closed channel must NACK"
    );

    // Phase 2 REVERSE still traverses the frozen channel and restores
    // the escrow.
    assert!(
        cluster.reverse_part(1, &path, Amount::from_units(4)),
        "reverse must settle through a closed channel"
    );
    assert_eq!(cluster.total_funds(), before, "reversal conserves funds");

    // After reopening, the balances are exactly the launch state.
    cluster.apply_churn(&ChurnAction::ChannelReopen(e01));
    let caps = cluster.probe(3, &path).unwrap();
    assert_eq!(caps, vec![10_000_000, 10_000_000], "escrow fully restored");

    let report = cluster.shutdown();
    assert!(report.is_clean(), "{report:?}");
}

/// The scale acceptance check: one process hosts 200 event-loop nodes,
/// routes a real trace, keeps per-node telemetry for every node, and
/// conserves both funds and wire messages.
#[test]
fn two_hundred_nodes_run_in_one_process() {
    let report = ScenarioBuilder::new(
        "200-node-smoke",
        TopologySpec::Testbed {
            n: 200,
            lo: 1000,
            hi: 1500,
            seed: 11,
        },
    )
    .workload(WorkloadSpec::Ripple { txns: 30, seed: 12 })
    .scheme(Scheme::ShortestPath)
    .expect(Invariant::FundsConserved)
    .expect(Invariant::MessagesConserved)
    .build()
    .run()
    .unwrap();
    assert_eq!(report.nodes, 200);
    assert_eq!(report.telemetry.len(), 200);
    assert_eq!(report.attempted, 30);
    assert!(report.succeeded > 0, "the trace must exercise successes");
    assert!(
        report.all_invariants_hold(),
        "{:?}",
        report.failed_invariants()
    );
    assert!(report.events_per_sec > 0.0);
    // Telemetry is live, not zero-filled: some node relayed traffic.
    assert!(report.telemetry.iter().any(|t| t.wire_in() > 0));
}

/// The regression test for the reactor's full socket scan: the socket
/// calls one wire frame costs do not depend on how many nodes the
/// process hosts. A loop that tries every listener and every inbound
/// connection on each pass spends hundreds per frame, and more at 200
/// nodes than at 60.
#[test]
fn socket_calls_per_frame_are_few_and_flat_in_the_node_count() {
    let per_frame = |nodes: usize| {
        let report = ScenarioBuilder::new(
            format!("socket-ops-{nodes}n"),
            TopologySpec::Testbed {
                n: nodes,
                lo: 1000,
                hi: 1500,
                seed: 41,
            },
        )
        .workload(WorkloadSpec::Ripple { txns: 40, seed: 42 })
        .scheme(Scheme::Flash)
        .expect(Invariant::MessagesConserved)
        .build()
        .run()
        .unwrap();
        assert!(report.all_invariants_hold() && report.clean_shutdown);
        assert!(report.wire_in > 0);
        report.socket_ops as f64 / report.wire_in as f64
    };
    let (small, large) = (per_frame(60), per_frame(200));
    assert!(small <= 8.0 && large <= 8.0, "{small:.2} and {large:.2}");
    assert!(
        large <= 1.25 * small && small <= 1.25 * large,
        "{small:.2} at 60 nodes against {large:.2} at 200"
    );
}

/// The fault satellite: with every outbound frame dropped, Spider's
/// up-front probes all go unanswered, so each payment is refused before any
/// `COMMIT` leaves the sender — nothing succeeds, nothing is escrowed,
/// and the loop still winds down clean.
#[test]
fn lossy_probes_fail_payments_without_moving_funds() {
    let report = ScenarioBuilder::new(
        "lossy-probes",
        TopologySpec::Testbed {
            n: 12,
            lo: 1000,
            hi: 1500,
            seed: 31,
        },
    )
    .workload(WorkloadSpec::Ripple { txns: 6, seed: 33 })
    .scheme(Scheme::Spider)
    .faults(FaultConfig {
        probe_drop_prob: 1.0,
        seed: 9,
        ..FaultConfig::none()
    })
    .timeout(Duration::from_millis(20))
    .expect(Invariant::FundsConserved)
    .build()
    .run()
    .unwrap();
    assert_eq!(report.attempted, 6);
    assert_eq!(report.succeeded, 0, "no probe ever comes back");
    assert!(report.dropped_messages > 0);
    assert_eq!(report.commit_messages, 0, "refused before phase 1");
    assert!(
        report.all_invariants_hold(),
        "{:?}",
        report.failed_invariants()
    );
    assert!(report.clean_shutdown);
}

/// Dedicated telemetry conservation check under load: every wire frame
/// any node sent was received by its peer (the loop drains to true
/// quiescence between requests).
#[test]
fn wire_telemetry_conserves_under_load() {
    let report = ScenarioBuilder::new(
        "conservation",
        TopologySpec::Testbed {
            n: 30,
            lo: 1000,
            hi: 1500,
            seed: 21,
        },
    )
    .workload(WorkloadSpec::Ripple { txns: 40, seed: 22 })
    .scheme(Scheme::Flash)
    .expect(Invariant::MessagesConserved)
    .build()
    .run()
    .unwrap();
    assert!(
        report.all_invariants_hold(),
        "{:?}",
        report.failed_invariants()
    );
    let sum_in: u64 = report.telemetry.iter().map(|t| t.wire_in()).sum();
    let sum_out: u64 = report.telemetry.iter().map(|t| t.wire_out()).sum();
    assert_eq!(sum_in, sum_out);
    assert_eq!(sum_in, report.wire_in);
    // At quiescence nothing is escrowed and no queue holds frames.
    assert!(report.telemetry.iter().all(|t| t.escrow_held == 0));
}
