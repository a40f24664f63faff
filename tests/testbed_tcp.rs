//! Integration tests of the TCP testbed prototype: conservation over
//! real sockets, cross-validation against the simulator, the two-phase
//! commit protocol under sub-payments in flight together, churn
//! reversal, single-process scale, lossy wires, wire-telemetry
//! conservation, and one connection per channel.

use flash_offchain::core::Scheme;
use flash_offchain::experiments::harness::{
    run_scheme_testbed, TestbedReport, DEFAULT_MICE_FRACTION,
};
use flash_offchain::graph::{DiGraph, Path};
use flash_offchain::proto::Cluster;
use flash_offchain::sim::{ChurnAction, FaultConfig, Network};
use flash_offchain::types::{Amount, NodeId};
use flash_offchain::workload::testbed_topology;
use flash_offchain::workload::trace::{generate_trace, TraceConfig};

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// Runs `scheme` (router seed `router_seed`) over a `txns`-long Ripple
/// trace seeded `trace_seed` on `net`.
fn run_on(
    net: &Network,
    scheme: Scheme,
    txns: usize,
    trace_seed: u64,
    router_seed: u64,
) -> TestbedReport {
    let trace = generate_trace(net.graph(), &TraceConfig::ripple(txns, trace_seed));
    run_scheme_testbed(net, scheme, &trace, DEFAULT_MICE_FRACTION, router_seed)
}

/// A run over the §5.2 testbed topology of `nodes` nodes seeded `seed`,
/// routing an 80-payment Ripple trace seeded `seed + 1`.
fn run(nodes: usize, seed: u64, scheme: Scheme, router_seed: u64) -> TestbedReport {
    let net = testbed_topology(nodes, 1000, 1500, seed);
    run_on(&net, scheme, 80, seed + 1, router_seed)
}

#[test]
fn testbed_conserves_funds_across_full_trace() {
    for scheme in [Scheme::Flash, Scheme::Spider, Scheme::ShortestPath] {
        let report = run(16, 11, scheme, 3);
        assert_eq!(report.outcomes.len(), 80);
        assert_eq!(
            report.funds_before,
            report.funds_after,
            "{} leaked funds over TCP",
            scheme.label()
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
        let (first, second) = (run(24, 29, scheme, 3), run(24, 29, scheme, 3));
        assert_eq!(first.outcomes, second.outcomes, "{}", scheme.label());
        assert_eq!(first.counters, second.counters, "{}", scheme.label());
        assert!(first.clean_shutdown && second.clean_shutdown);
    }
}

#[test]
fn testbed_and_simulator_agree_on_shortest_path() {
    // SP is deterministic and probe-free: the TCP prototype and the
    // in-memory simulator must agree payment-by-payment.
    let report = run(16, 17, Scheme::ShortestPath, 5);

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
    let flash = run(20, 23, Scheme::Flash, 7);
    let sp = run(20, 23, Scheme::ShortestPath, 7);
    assert!(
        flash.metrics.success_volume() >= sp.metrics.success_volume(),
        "Flash volume {} below SP {}",
        flash.metrics.success_volume(),
        sp.metrics.success_volume()
    );
    assert!(
        flash.metrics.probe_messages > 0,
        "Flash should probe sometimes"
    );
    assert_eq!(sp.metrics.probe_messages, 0, "SP never probes");
}

#[test]
fn concurrent_subpayments_share_a_channel_safely() {
    // Two sub-payments of one payment go out in one batch and contend
    // for the second hop: both COMMITs cross 0 → 1 together, node 1
    // has room for one, and the loser's NACK rolls hop 0 back while the
    // winner's ACK is still travelling.
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
        cluster.probe_many(&[(3, &path)]),
        vec![Some(vec![20_000_000, 10_000_000])],
        "every hop is back at its launch balance"
    );
    let counters = cluster.node_counters();
    let sent: u64 = counters.iter().map(|c| c.wire_out()).sum();
    let received: u64 = counters.iter().map(|c| c.wire_in()).sum();
    assert_eq!(sent, received);
    assert!(cluster.shutdown().is_clean());
}

/// The testbed topology of `nodes` nodes seeded `seed`, on a wire that
/// drops each frame with probability `probe_drop_prob`.
fn lossy_net(nodes: usize, seed: u64, probe_drop_prob: f64) -> Network {
    let mut net = testbed_topology(nodes, 1000, 1500, seed);
    net.set_faults(FaultConfig {
        probe_drop_prob,
        seed: 9,
        ..FaultConfig::none()
    });
    net
}

#[test]
fn lossy_transport_degrades_but_never_wedges() {
    let report = run_on(&lossy_net(12, 31, 0.2), Scheme::ShortestPath, 30, 33, 5);
    // The run completes (no deadlock), records every attempt, and under
    // 20% loss some payments time out.
    assert_eq!(report.outcomes.len(), 30);
    assert!(
        report.metrics.total().succeeded < 30,
        "20% message loss must fail something"
    );
}

/// A sub-payment committed *before* its channel closes must still
/// REVERSE cleanly — phase 2 passes through frozen channels, escrow is
/// restored in the forward direction, and the wind-down is clean.
#[test]
fn in_flight_payment_through_a_closed_channel_reverses_cleanly() {
    let mut g = DiGraph::new(3);
    g.add_channel(n(0), n(1)).unwrap();
    g.add_channel(n(1), n(2)).unwrap();
    let balances = vec![Amount::from_units(10); g.edge_count()];
    let mut cluster = Cluster::launch(g, &balances).unwrap();
    let before = cluster.total_funds();
    let path = Path::new(vec![n(0), n(1), n(2)], Some(cluster.graph())).unwrap();

    // Phase 1 succeeds while the path is open: 4 units are escrowed.
    let part = [(1, &path, Amount::from_units(4))];
    assert_eq!(cluster.commit_many(&part), vec![Ok(())]);

    // The first channel closes with the payment still in flight.
    let e01 = cluster.graph().edge(n(0), n(1)).unwrap();
    cluster.apply_churn(&ChurnAction::ChannelClose(e01));
    assert_eq!(
        cluster.commit_many(&[(2, &path, Amount::from_units(1))]),
        vec![Err(0)],
        "new commits through the closed channel must NACK"
    );

    // Phase 2 REVERSE still traverses the frozen channel and restores
    // the escrow.
    assert_eq!(
        cluster.settle_many(&part, false),
        vec![true],
        "reverse must settle through a closed channel"
    );
    assert_eq!(cluster.total_funds(), before, "reversal conserves funds");

    // After reopening, the balances are exactly the launch state.
    cluster.apply_churn(&ChurnAction::ChannelReopen(e01));
    assert_eq!(
        cluster.probe_many(&[(3, &path)]),
        vec![Some(vec![10_000_000, 10_000_000])],
        "escrow fully restored"
    );

    let report = cluster.shutdown();
    assert!(report.is_clean(), "{report:?}");
}

/// The scale acceptance check: one process hosts 200 event-loop nodes,
/// routes a real trace, keeps per-node telemetry for every node, and
/// conserves both funds and wire messages.
#[test]
fn two_hundred_nodes_run_in_one_process() {
    let report = run_on(
        &testbed_topology(200, 1000, 1500, 11),
        Scheme::ShortestPath,
        30,
        12,
        1,
    );
    assert_eq!(report.counters.len(), 200);
    assert_eq!(report.outcomes.len(), 30);
    assert!(
        report.metrics.total().succeeded > 0,
        "the trace must exercise successes"
    );
    assert_eq!(report.funds_before, report.funds_after);
    assert_eq!(report.wire_in(), report.wire_out());
    assert!(report.wall > std::time::Duration::ZERO);
    // Telemetry is live, not zero-filled: some node relayed traffic.
    assert!(report.counters.iter().any(|c| c.wire_in() > 0));
}

/// The regression test for the reactor's full socket scan: the socket
/// calls one wire frame costs do not depend on how many nodes the
/// process hosts. A loop that tries every listener and every inbound
/// connection on each pass spends hundreds per frame, and more at 200
/// nodes than at 60.
#[test]
fn socket_calls_per_frame_are_few_and_flat_in_the_node_count() {
    let per_frame = |nodes: usize| {
        let net = testbed_topology(nodes, 1000, 1500, 41);
        let report = run_on(&net, Scheme::Flash, 40, 42, 1);
        assert_eq!(report.wire_in(), report.wire_out());
        assert!(report.clean_shutdown);
        assert!(report.wire_in() > 0);
        report.socket_ops as f64 / report.wire_in() as f64
    };
    let (small, large) = (per_frame(60), per_frame(200));
    assert!(small <= 8.0 && large <= 8.0, "{small:.2} and {large:.2}");
    assert!(
        large <= 1.25 * small && small <= 1.25 * large,
        "{small:.2} at 60 nodes against {large:.2} at 200"
    );
}

/// Each channel's two directions share one TCP connection, opened by
/// the first frame either way: a run connects once per channel it
/// used, and never more often than the topology has channels. One
/// connection per direction made 234 connects on this run. The run's
/// request round trips are pinned beside them: a count that repeats
/// exactly, where the run's wall time does not.
#[test]
fn a_run_connects_once_per_channel_it_uses() {
    let net = testbed_topology(60, 1000, 1500, 41);
    let channels = net.graph().edge_count() as u64 / 2;
    let report = run_on(&net, Scheme::Flash, 80, 42, 1);
    assert!(report.clean_shutdown);
    assert_eq!(report.connects, 117, "of {channels} channels");
    assert!(report.connects <= channels);
    assert_eq!(report.requests, 443, "request round trips");
}

/// With every outbound frame dropped, Spider's up-front probes all go
/// unanswered, so each payment is refused before any `COMMIT` leaves the
/// sender — nothing succeeds, nothing is escrowed, and the loop still
/// winds down clean.
#[test]
fn lossy_probes_fail_payments_without_moving_funds() {
    let report = run_on(&lossy_net(12, 31, 1.0), Scheme::Spider, 6, 33, 1);
    assert_eq!(report.outcomes.len(), 6);
    assert_eq!(
        report.metrics.total().succeeded,
        0,
        "no probe ever comes back"
    );
    assert!(report.dropped_messages > 0);
    assert_eq!(report.metrics.commit_messages, 0, "refused before phase 1");
    assert_eq!(report.funds_before, report.funds_after);
    assert!(report.clean_shutdown);
}

/// Every wire frame any node sent was received by its peer under load
/// (the loop drains to true quiescence between requests).
#[test]
fn wire_telemetry_conserves_under_load() {
    let net = testbed_topology(30, 1000, 1500, 21);
    let report = run_on(&net, Scheme::Flash, 40, 22, 1);
    assert!(report.wire_in() > 0);
    assert_eq!(report.wire_in(), report.wire_out());
    // At quiescence nothing is escrowed and no queue holds frames.
    assert!(report.counters.iter().all(|c| c.escrow_held == 0));
    assert!(report.counters.iter().all(|c| c.queue_depth == 0));
}
