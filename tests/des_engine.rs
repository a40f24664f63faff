//! Integration tests of the discrete-event engine: all five schemes on
//! the DES backend, conservation and atomicity under concurrent
//! in-flight payments, determinism, and parity with the instantaneous
//! simulator at zero latency.

use flash_offchain::core::classify::threshold_for_mice_fraction;
use flash_offchain::core::Scheme;
use flash_offchain::experiments::harness::{
    run_scheme, run_scheme_des, DesLoad, DEFAULT_MICE_FRACTION,
};
use flash_offchain::sim::des::{
    CalendarWork, ChurnRate, DesConfig, DesEngine, DesNetwork, LatencyModel, ServiceModel, SimTime,
};
use flash_offchain::sim::Network;
use flash_offchain::types::{Amount, Payment};
use flash_offchain::workload::trace::{generate_trace, TraceConfig};
use flash_offchain::workload::{arrivals, testbed_topology};
use proptest::prelude::*;

const SCHEMES: [Scheme; 5] = Scheme::ALL;

fn small_net(seed: u64) -> Network {
    testbed_topology(40, 1000, 1500, seed)
}

fn trace_for(net: &Network, n: usize, seed: u64) -> Vec<Payment> {
    generate_trace(net.graph(), &TraceConfig::ripple(n, seed))
}

/// Drives one scheme on the DES engine with per-event conservation
/// checks enabled (the engine asserts balances + escrow + settled-out
/// funds equal the initial total, and service-backlog conservation,
/// after *every* applied event).
fn run_checked(
    net: &Network,
    scheme: Scheme,
    workload: &[(SimTime, Payment)],
    threshold: Amount,
    latency: LatencyModel,
    service: ServiceModel,
    seed: u64,
) -> (flash_offchain::sim::DesReport, DesNetwork) {
    let mut router = scheme.router::<DesNetwork>(threshold, seed);
    let mut engine = DesEngine::new(
        net.clone(),
        DesConfig {
            latency,
            service,
            check_conservation: true,
            ..DesConfig::default()
        },
    );
    let report = engine.run(router.as_mut(), workload, threshold);
    (report, engine.into_network())
}

#[test]
fn all_five_schemes_run_on_the_des_engine() {
    let net = small_net(1);
    let trace = trace_for(&net, 80, 2);
    for scheme in SCHEMES {
        let report = run_scheme_des(
            &net,
            scheme,
            &trace,
            DEFAULT_MICE_FRACTION,
            3,
            DesLoad {
                rate_per_sec: 100.0,
                latency: LatencyModel::constant_ms(20),
                service: ServiceModel::instant(),
                churn: ChurnRate::zero(),
            },
        );
        assert_eq!(
            report.metrics.total().attempted,
            80,
            "{} must attempt every payment",
            scheme.label()
        );
        assert!(
            report.metrics.total().succeeded > 0,
            "{} succeeded nothing",
            scheme.label()
        );
        // Completion latency is recorded for every success.
        assert_eq!(
            report.metrics.latency.count(),
            report.metrics.total().succeeded,
            "{}",
            scheme.label()
        );
        assert!(report.makespan > SimTime::ZERO);
        // Zero service time: no node ever queues a message.
        assert_eq!(report.peak_backlog, 0, "{}", scheme.label());
        assert_eq!(report.metrics.queue_delay.count(), 0, "{}", scheme.label());
    }
}

#[test]
fn overlapping_payments_show_nonzero_peak_in_flight_and_conserve_funds() {
    let net = small_net(5);
    let trace = trace_for(&net, 120, 6);
    let amounts: Vec<Amount> = trace.iter().map(|p| p.amount).collect();
    let threshold = threshold_for_mice_fraction(&amounts, DEFAULT_MICE_FRACTION);
    // 500 pps against ~hundreds-of-ms completion latency: heavy overlap.
    let workload = arrivals::poisson_workload(&trace, 500.0, 7);
    for scheme in SCHEMES {
        let (report, des) = run_checked(
            &net,
            scheme,
            &workload,
            threshold,
            LatencyModel::constant_ms(25),
            ServiceModel::constant_ms(2),
            8,
        );
        assert!(
            report.peak_in_flight > 1,
            "{}: expected overlapping payments, peak {}",
            scheme.label(),
            report.peak_in_flight
        );
        assert_eq!(
            des.conserved_total_micros(),
            des.initial_total_micros(),
            "{} leaked funds",
            scheme.label()
        );
        assert_eq!(des.in_flight(), 0, "{} left sessions open", scheme.label());
        assert_eq!(des.escrow_micros(), 0, "{} left escrow", scheme.label());
    }
}

#[test]
fn same_seed_produces_identical_reports() {
    let net = small_net(9);
    let trace = trace_for(&net, 100, 10);
    for scheme in [Scheme::Flash, Scheme::Spider, Scheme::ShortestPath] {
        let run = || {
            run_scheme_des(
                &net,
                scheme,
                &trace,
                DEFAULT_MICE_FRACTION,
                11,
                DesLoad {
                    rate_per_sec: 300.0,
                    latency: LatencyModel::UniformJitter {
                        base: SimTime::from_millis(10),
                        jitter_us: 5_000,
                        seed: 13,
                    },
                    service: ServiceModel::constant_ms(3),
                    churn: ChurnRate::zero(),
                },
            )
        };
        let a = run();
        let b = run();
        // Identical metrics, event count, latency histogram — the full
        // report, bit for bit.
        assert_eq!(a, b, "{} is nondeterministic", scheme.label());
        assert!(a.events > 0);
    }
}

#[test]
fn different_seeds_change_the_arrival_pattern() {
    let net = small_net(14);
    let trace = trace_for(&net, 100, 15);
    let at = |seed| {
        run_scheme_des(
            &net,
            Scheme::ShortestPath,
            &trace,
            DEFAULT_MICE_FRACTION,
            seed,
            DesLoad {
                rate_per_sec: 400.0,
                latency: LatencyModel::constant_ms(25),
                service: ServiceModel::instant(),
                churn: ChurnRate::zero(),
            },
        )
    };
    // The workload seed feeds the Poisson process; different seeds give
    // different interleavings (and usually different makespans).
    assert_ne!(at(1).makespan, at(2).makespan);
}

#[test]
fn zero_latency_des_matches_the_instantaneous_simulator() {
    let net = small_net(21);
    let trace = trace_for(&net, 120, 22);
    for scheme in SCHEMES {
        let instant = run_scheme(&net, scheme, &trace, DEFAULT_MICE_FRACTION, 23);
        // Arrival spacing is irrelevant at zero latency: every payment
        // fully settles before the next one is admitted.
        let des = run_scheme_des(
            &net,
            scheme,
            &trace,
            DEFAULT_MICE_FRACTION,
            23,
            DesLoad {
                rate_per_sec: 1000.0,
                latency: LatencyModel::instant(),
                service: ServiceModel::instant(),
                churn: ChurnRate::zero(),
            },
        );
        assert_eq!(
            instant.total(),
            des.metrics.total(),
            "{} diverged from the instantaneous backend",
            scheme.label()
        );
        assert_eq!(instant.probe_messages, des.metrics.probe_messages);
        assert_eq!(instant.commit_messages, des.metrics.commit_messages);
        assert_eq!(instant.fees_paid, des.metrics.fees_paid);
        assert_eq!(des.peak_in_flight, 1, "{}", scheme.label());
    }
}

#[test]
fn no_session_commits_partially() {
    // Atomicity across concurrency: for every scheme, success volume
    // counts only fully delivered payments, and after settlement the
    // net flow out of each sender equals the volume it delivered (no
    // partial escrow left anywhere — checked via total conservation and
    // zero residual escrow at every boundary by run_checked).
    let net = small_net(30);
    let trace = trace_for(&net, 100, 31);
    let amounts: Vec<Amount> = trace.iter().map(|p| p.amount).collect();
    let threshold = threshold_for_mice_fraction(&amounts, DEFAULT_MICE_FRACTION);
    let workload = arrivals::poisson_workload(&trace, 400.0, 32);
    for scheme in SCHEMES {
        let (report, des) = run_checked(
            &net,
            scheme,
            &workload,
            threshold,
            LatencyModel::constant_ms(25),
            ServiceModel::constant_ms(2),
            33,
        );
        let t = report.metrics.total();
        assert!(t.succeeded <= t.attempted);
        assert!(t.success_volume <= t.attempted_volume);
        assert_eq!(des.escrow_micros(), 0);
        assert_eq!(des.conserved_total_micros(), des.initial_total_micros());
    }
}

/// Re-probing has one owner. The four baselines cache nothing a NACK
/// could invalidate (Shortest Path and Spider search per payment; the
/// landmark trees are built over a `graph()` no backend mutates), so a
/// run of stale NACKs toward one receiver — past any re-probe threshold
/// (10 failures on a graph this small) — must leave
/// `reprobes_triggered` at zero and every attempt must end exactly like
/// the first.
#[test]
fn baselines_never_reprobe_however_many_stale_nacks_they_see() {
    use flash_offchain::graph::DiGraph;
    use flash_offchain::sim::des::{ChurnAction, ChurnSchedule};
    use flash_offchain::types::{NodeId, PaymentClass, TxId};
    // A star: every 1 → 3 route crosses the hub channel 0–3, closed
    // from the start.
    let mut g = DiGraph::new(5);
    for i in 1..5 {
        g.add_channel(NodeId(0), NodeId(i)).unwrap();
    }
    let mut churn = ChurnSchedule::none();
    churn.push(
        SimTime::ZERO,
        ChurnAction::ChannelClose(g.edge(NodeId(0), NodeId(3)).unwrap()),
    );
    let net = Network::uniform(g, Amount::from_units(100));
    for scheme in SCHEMES.into_iter().filter(|&s| s != Scheme::Flash) {
        let mut des = DesNetwork::new(
            net.clone(),
            DesConfig {
                churn: churn.clone(),
                check_conservation: true,
                ..DesConfig::default()
            },
        );
        let mut router = scheme.router::<DesNetwork>(Amount::MAX, 1);
        let outcomes: Vec<_> = (0..25)
            .map(|i| {
                let p = Payment::new(TxId(i), NodeId(1), NodeId(3), Amount::from_units(1));
                router.route(&mut des, &p, PaymentClass::Mice)
            })
            .collect();
        assert!(!outcomes[0].is_success(), "{}", scheme.label());
        assert!(
            outcomes.iter().all(|o| *o == outcomes[0]),
            "{}: {outcomes:?}",
            scheme.label()
        );
        assert_eq!(des.reprobes_triggered(), 0, "{}", scheme.label());
    }
}

#[test]
fn nonzero_service_queues_under_load_for_every_scheme() {
    // Under heavy offered load with a nonzero service time, every
    // scheme must actually exercise the queues: some message waits,
    // some node shows a backlog > 1, and utilization is nonzero —
    // all while per-event funds + backlog conservation (run_checked)
    // holds.
    let net = small_net(51);
    let trace = trace_for(&net, 100, 52);
    let amounts: Vec<Amount> = trace.iter().map(|p| p.amount).collect();
    let threshold = threshold_for_mice_fraction(&amounts, DEFAULT_MICE_FRACTION);
    let workload = arrivals::poisson_workload(&trace, 800.0, 53);
    for scheme in SCHEMES {
        let (report, des) = run_checked(
            &net,
            scheme,
            &workload,
            threshold,
            LatencyModel::constant_ms(10),
            ServiceModel::constant_ms(5),
            54,
        );
        assert!(
            report.peak_backlog > 1,
            "{}: no node ever queued (peak {})",
            scheme.label(),
            report.peak_backlog
        );
        assert!(
            report.metrics.queue_delay.max_us() > 0,
            "{}: no message ever waited",
            scheme.label()
        );
        assert!(
            report.max_node_utilization > 0.0,
            "{}: zero utilization",
            scheme.label()
        );
        assert_eq!(des.conserved_total_micros(), des.initial_total_micros());
    }
}

/// The committed e2e smoke run with the deepest backlog
/// (`BENCH_e2e.json`: Spider at 400 payments/s on the 60-node testbed
/// topology, `peak_backlog` 595), run with every check on.
fn deepest_smoke_run() -> DesNetwork {
    let seed = 1009;
    let net = testbed_topology(60, 1000, 1500, seed);
    let trace = generate_trace(net.graph(), &TraceConfig::ripple(200, seed + 7));
    let amounts: Vec<Amount> = trace.iter().map(|p| p.amount).collect();
    let threshold = threshold_for_mice_fraction(&amounts, DEFAULT_MICE_FRACTION);
    let workload = arrivals::poisson_workload(&trace, 400.0, seed + 31);
    let (report, des) = run_checked(
        &net,
        Scheme::Spider,
        &workload,
        threshold,
        LatencyModel::constant_ms(25),
        ServiceModel::constant_ms(10),
        seed + 31,
    );
    assert_eq!(report.peak_backlog, 595, "not the committed smoke run");
    assert_eq!(report.events, des.events_delivered());
    des
}

/// The calendar work of [`deepest_smoke_run`], pinned by equality:
/// messages admitted, and calendar and run entries read to place them
/// and to drop finished reservations. Only a deliberate change to how a
/// message finds its service slot may re-record them; a failure names
/// the counter and prints both values.
#[test]
fn calendar_work_matches_recorded_counts() {
    const WANT: CalendarWork = CalendarWork {
        admits: 9_957,
        examined: 88_189,
    };
    let got = deepest_smoke_run().service_queues().work();
    assert_eq!(
        got.admits, WANT.admits,
        "calendar admits changed: got {}, want {}",
        got.admits, WANT.admits
    );
    assert_eq!(
        got.examined, WANT.examined,
        "calendar entries examined changed: got {}, want {}",
        got.examined, WANT.examined
    );
}

/// The event queue's work on [`deepest_smoke_run`], pinned by equality:
/// heap pushes (settlement hops, NACK releases and `Done` markers) and
/// pops. The run drains its queue, so every push is popped. Only a
/// deliberate change to what the DES schedules may re-record them.
#[test]
fn event_queue_work_matches_recorded_counts() {
    const WANT: (u64, u64) = (1_523, 1_523);
    let des = deepest_smoke_run();
    let got = (des.events_scheduled(), des.events_delivered());
    assert_eq!(
        got, WANT,
        "event queue (pushes, pops) changed: got {got:?}, want {WANT:?}"
    );
}

/// A 6-node line with ample balance: every 1-unit payment succeeds at
/// any offered load, so latency comparisons across loads compare the
/// same payment population.
fn line_network() -> Network {
    use flash_offchain::graph::DiGraph;
    use flash_offchain::types::NodeId;
    let mut g = DiGraph::new(6);
    for i in 0..5u32 {
        g.add_channel(NodeId(i), NodeId(i + 1)).unwrap();
    }
    Network::uniform(g, Amount::from_units(100_000))
}

fn line_trace(count: u64) -> Vec<Payment> {
    use flash_offchain::types::{NodeId, TxId};
    (0..count)
        .map(|i| Payment::new(TxId(i), NodeId(0), NodeId(5), Amount::from_units(1)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With N overlapping in-flight payments at a random offered load
    /// and a random (possibly zero) per-node service time, total funds
    /// (balances + escrow) and the service backlog are conserved at
    /// every event boundary (asserted inside the engine per event) and
    /// no escrow or open session survives the drain.
    #[test]
    fn funds_and_backlog_conserved_at_every_event_boundary_under_concurrency(
        seed in 0u64..200,
        rate_idx in 0usize..3,
        service_ms in 0u64..6,
        scheme_idx in 0usize..SCHEMES.len(),
    ) {
        let rate = [100.0f64, 400.0, 1600.0][rate_idx];
        let scheme = SCHEMES[scheme_idx];
        let net = small_net(seed);
        let trace = trace_for(&net, 60, seed + 1);
        let amounts: Vec<Amount> = trace.iter().map(|p| p.amount).collect();
        let threshold = threshold_for_mice_fraction(&amounts, DEFAULT_MICE_FRACTION);
        let workload = arrivals::poisson_workload(&trace, rate, seed + 2);
        let (report, des) = run_checked(
            &net,
            scheme,
            &workload,
            threshold,
            LatencyModel::UniformJitter {
                base: SimTime::from_millis(5),
                jitter_us: 20_000,
                seed: seed + 3,
            },
            ServiceModel::constant_ms(service_ms),
            seed + 4,
        );
        prop_assert_eq!(des.conserved_total_micros(), des.initial_total_micros());
        prop_assert_eq!(des.escrow_micros(), 0u128);
        prop_assert_eq!(des.in_flight(), 0);
        prop_assert_eq!(report.metrics.total().attempted, 60);
        des.service_queues().assert_backlog_conserved();
    }

    /// The queueing monotonicity law: on a fixed topology, trace, and
    /// seed, with a nonzero service time, mean completion latency is
    /// non-decreasing in offered load. (Same Poisson seed at a higher
    /// rate compresses the identical arrival sequence, so each payment
    /// can only find nodes busier, never idler.) This is the property
    /// whose violation — a flat latency curve — went unnoticed before
    /// service queues existed.
    ///
    /// One service time of slack on the mean: the calendar's first-fit
    /// placement can serve an out-of-processing-order arrival up to
    /// one service quantum differently than true arrival-order FIFO
    /// (a compressed schedule may close a gap an uncompressed one
    /// left open), so strict pointwise monotonicity is not a theorem
    /// — but any flat-curve regression is orders of magnitude larger
    /// than one quantum.
    #[test]
    fn mean_latency_is_monotone_in_offered_load(
        service_ms in 1u64..8,
        base_rate_centi in 500u64..5_000, // 5..50 pps
        factor_idx in 0usize..3,
        seed in 0u64..100,
    ) {
        let factor = [2.0f64, 4.0, 8.0][factor_idx];
        let base_rate = base_rate_centi as f64 / 100.0;
        let net = line_network();
        let trace = line_trace(40);
        let run = |rate: f64| {
            let workload = arrivals::poisson_workload(&trace, rate, seed);
            let (report, _) = run_checked(
                &net,
                Scheme::ShortestPath,
                &workload,
                Amount::MAX,
                LatencyModel::constant_ms(10),
                ServiceModel::constant_ms(service_ms),
                seed + 1,
            );
            prop_assert_eq!(report.metrics.total().succeeded, 40);
            Ok(report.metrics.latency.mean_us())
        };
        let light = run(base_rate)?;
        let heavy = run(base_rate * factor)?;
        let slack = (service_ms * 1_000) as f64;
        prop_assert!(
            heavy + slack >= light,
            "mean latency decreased with load: {} pps -> {}us, {} pps -> {}us",
            base_rate, light, base_rate * factor, heavy
        );
    }

    /// The churn differential: a zero [`ChurnRate`] through the full
    /// harness (which generates and installs the — empty — schedule)
    /// must produce a bit-identical `DesReport` to an engine
    /// constructed with no churn at all, for every scheme. This pins
    /// the tentpole's exactness contract end to end: supporting churn
    /// costs nothing when there is none — no RNG draw, no event, no
    /// message tick, no counter.
    #[test]
    fn zero_churn_is_bit_identical_to_the_churn_free_engine(
        seed in 0u64..100,
        scheme_idx in 0usize..SCHEMES.len(),
    ) {
        let scheme = SCHEMES[scheme_idx];
        let net = small_net(seed);
        let trace = trace_for(&net, 60, seed + 1);
        let amounts: Vec<Amount> = trace.iter().map(|p| p.amount).collect();
        let threshold = threshold_for_mice_fraction(&amounts, DEFAULT_MICE_FRACTION);
        let with_churn_support = run_scheme_des(
            &net,
            scheme,
            &trace,
            DEFAULT_MICE_FRACTION,
            seed + 2,
            DesLoad {
                rate_per_sec: 300.0,
                latency: LatencyModel::constant_ms(20),
                service: ServiceModel::constant_ms(3),
                churn: ChurnRate::zero(),
            },
        );
        // The same run through a churn-free engine (the default config
        // installs no schedule), seeded identically to the harness.
        let workload = arrivals::poisson_workload(&trace, 300.0, seed + 2);
        let mut router = scheme.router::<DesNetwork>(threshold, seed + 2);
        let mut engine = DesEngine::new(
            net.clone(),
            DesConfig {
                latency: LatencyModel::constant_ms(20),
                service: ServiceModel::constant_ms(3),
                ..DesConfig::default()
            },
        );
        let plain = engine.run(router.as_mut(), &workload, threshold);
        prop_assert_eq!(
            &with_churn_support,
            &plain,
            "{}: zero churn must be invisible, bit for bit",
            scheme.label()
        );
        prop_assert_eq!(with_churn_support.closed_channels, 0);
        prop_assert_eq!(with_churn_support.stale_probe_failures, 0);
        prop_assert_eq!(with_churn_support.reprobes_triggered, 0);
    }

    /// Conservation under mid-run topology churn: with channels
    /// closing (and reopening), nodes crashing, and balances draining
    /// while payments are in flight, total funds (balances + escrow +
    /// drained-out) are conserved at every event boundary (asserted
    /// inside the engine per event via `check_conservation`), every
    /// escrow is released, and no session survives the drain.
    #[test]
    fn funds_conserved_under_mid_run_topology_churn(
        seed in 0u64..150,
        scheme_idx in 0usize..SCHEMES.len(),
        closes_per_sec in 8.0f64..256.0,
        downtime_ms in 0u64..2_000,
    ) {
        let scheme = SCHEMES[scheme_idx];
        let net = small_net(seed);
        let trace = trace_for(&net, 60, seed + 1);
        let amounts: Vec<Amount> = trace.iter().map(|p| p.amount).collect();
        let threshold = threshold_for_mice_fraction(&amounts, DEFAULT_MICE_FRACTION);
        let workload = arrivals::poisson_workload(&trace, 400.0, seed + 2);
        let horizon = workload.last().map(|&(t, _)| t).unwrap_or(SimTime::ZERO);
        let rate = flash_offchain::sim::des::ChurnRate {
            closes_per_sec,
            node_downs_per_sec: closes_per_sec / 8.0,
            drains_per_sec: closes_per_sec / 8.0,
            downtime: SimTime::from_millis(downtime_ms),
        };
        let schedule = flash_offchain::workload::churn_schedule(net.graph(), horizon, &rate, seed + 3);
        let mut router = scheme.router::<DesNetwork>(threshold, seed + 2);
        let mut engine = DesEngine::new(
            net.clone(),
            DesConfig {
                latency: LatencyModel::constant_ms(15),
                service: ServiceModel::constant_ms(2),
                churn: schedule,
                check_conservation: true,
            },
        );
        let report = engine.run(router.as_mut(), &workload, threshold);
        let des = engine.into_network();
        prop_assert_eq!(des.conserved_total_micros(), des.initial_total_micros());
        prop_assert_eq!(des.escrow_micros(), 0u128);
        prop_assert_eq!(des.in_flight(), 0);
        prop_assert_eq!(report.metrics.total().attempted, 60);
    }
}
