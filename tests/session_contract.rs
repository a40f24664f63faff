//! One payment-session contract, three backends.
//!
//! Each script below runs on a fresh copy of every backend: the
//! simulator (`Network`), the discrete-event backend at zero latency and
//! instant service (`DesNetwork`, drained before it is read) and the TCP
//! testbed (`Cluster`). All three keep their books in one
//! `PaymentLedger`, so after every script they must agree on the
//! outcome, on every channel balance and on the payment counters of
//! their `Metrics`: attempts and successes by class, volumes, fees and
//! paths. The simulator and the DES also charge the same messages; the
//! testbed counts them per node that serviced a message instead (see
//! `tests/backend_parity.rs`), so its message counts are not compared.
//!
//! The network is a diamond: two 2-hop routes 0 → 1 → 3 and
//! 0 → 2 → 3 of bidirectional channels holding 10 units each way, every
//! hop charging a base fee of 0.01 plus 1 %.

use flash_offchain::graph::{DiGraph, Path};
use flash_offchain::proto::Cluster;
use flash_offchain::sim::{
    ChurnSchedule, DesConfig, DesNetwork, FailureCause, LatencyModel, Metrics, Network,
    PartFailure, PaymentNetwork, PaymentSession, RouteOutcome, ServiceModel,
};
use flash_offchain::types::{Amount, FeePolicy, NodeId, Payment, PaymentClass, TxId};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn n(i: u32) -> NodeId {
    NodeId(i)
}

fn units(u: u64) -> Amount {
    Amount::from_units(u)
}

/// The diamond's topology.
fn diamond() -> DiGraph {
    let mut g = DiGraph::new(4);
    for (u, v) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
        g.add_channel(n(u), n(v)).unwrap();
    }
    g
}

const FEE: FeePolicy = FeePolicy::new(Amount::from_micros(10_000), 10_000);

fn path(nodes: &[u32]) -> Path {
    Path::new(nodes.iter().map(|&i| n(i)).collect(), Some(&diamond())).unwrap()
}

/// The upper route 0 → 1 → 3.
fn upper() -> Path {
    path(&[0, 1, 3])
}

/// The lower route 0 → 2 → 3.
fn lower() -> Path {
    path(&[0, 2, 3])
}

fn payment(amount: u64) -> Payment {
    Payment::new(TxId(1), n(0), n(3), units(amount))
}

/// What a backend holds once a script is done: its `Metrics` and every
/// directed channel's balance, by edge id.
struct Books {
    metrics: Metrics,
    balances: Vec<Amount>,
}

/// A backend the scripts run on.
trait Backend: PaymentNetwork + Sized {
    const NAME: &'static str;

    /// The diamond with `balances` by edge id and [`FEE`] on every hop.
    fn launch(balances: &[Amount]) -> Self;

    /// Lands whatever the backend still has in flight and returns its
    /// books, checking that nothing stays escrowed.
    fn finish(self) -> Books;
}

impl Backend for Network {
    const NAME: &'static str = "simulator";

    fn launch(balances: &[Amount]) -> Self {
        let g = diamond();
        let fees = vec![FEE; g.edge_count()];
        Network::new(g, balances.to_vec(), fees).unwrap()
    }

    fn finish(self) -> Books {
        let balances = self
            .graph()
            .edges()
            .map(|(e, _, _)| self.balance(e))
            .collect();
        Books {
            metrics: self.metrics().clone(),
            balances,
        }
    }
}

impl Backend for DesNetwork {
    const NAME: &'static str = "DES";

    fn launch(balances: &[Amount]) -> Self {
        let config = DesConfig {
            latency: LatencyModel::instant(),
            service: ServiceModel::instant(),
            churn: ChurnSchedule::none(),
            check_conservation: true,
        };
        DesNetwork::new(Network::launch(balances), config)
    }

    fn finish(mut self) -> Books {
        self.drain_all();
        assert_eq!(self.escrow_micros(), 0, "DES escrow left behind");
        assert_eq!(self.in_flight(), 0, "DES payments left in flight");
        let metrics = self.take_metrics();
        Books {
            metrics,
            ..Network::finish(self.into_inner())
        }
    }
}

impl Backend for Cluster {
    const NAME: &'static str = "testbed";

    fn launch(balances: &[Amount]) -> Self {
        let g = diamond();
        let edges = g.edge_count();
        let mut cluster = Cluster::launch(g, balances).unwrap();
        cluster.set_fee_policies(vec![FEE; edges]).unwrap();
        cluster
    }

    fn finish(mut self) -> Books {
        let metrics = self.metrics();
        let escrow: u64 = self.node_counters().iter().map(|c| c.escrow_held).sum();
        assert_eq!(escrow, 0, "testbed escrow left behind");
        // A one-hop PROBE reads a channel's forward balance.
        let hops: Vec<Path> = self
            .graph()
            .edges()
            .map(|(_, u, v)| Path::new(vec![u, v], None).unwrap())
            .collect();
        let items: Vec<(u64, &Path)> = hops.iter().map(|p| (self.fresh_trans_id(), p)).collect();
        let balances = self
            .probe_many(&items)
            .into_iter()
            .map(|caps| Amount::from_micros(caps.unwrap()[0]))
            .collect();
        assert!(self.shutdown().is_clean());
        Books { metrics, balances }
    }
}

/// Runs `script` on a fresh diamond of backend `N` holding `balances`.
fn run<N: Backend, T>(balances: &[Amount], script: impl FnOnce(&mut N) -> T) -> (T, Books) {
    let mut net = N::launch(balances);
    let out = script(&mut net);
    (out, net.finish())
}

/// The payment counters a ledger keeps: `Metrics` without the message
/// counts, which the testbed counts by another convention, and without
/// the DES's latency histograms.
fn payment_counters(m: &Metrics) -> (Metrics, Amount, u64) {
    let classes = Metrics {
        elephant: m.elephant,
        mice: m.mice,
        ..Metrics::default()
    };
    (classes, m.fees_paid, m.paths_used)
}

/// Runs `script` on all three backends at the diamond's launch
/// balances (`balances`, by edge id), asserts that they agree on the
/// script's result, every balance and the payment counters, and that
/// the simulator and the DES charged the same messages. Returns the
/// result and the simulator's books.
macro_rules! on_every_backend {
    ($balances:expr, $script:ident) => {{
        let balances: Vec<Amount> = $balances;
        let sim = run::<Network, _>(&balances, $script::<Network>);
        let des = run::<DesNetwork, _>(&balances, $script::<DesNetwork>);
        let tcp = run::<Cluster, _>(&balances, $script::<Cluster>);
        for (name, other) in [(DesNetwork::NAME, &des), (Cluster::NAME, &tcp)] {
            let what = stringify!($script);
            assert_eq!(sim.0, other.0, "{what}: simulator and {name} results");
            assert_eq!(sim.1.balances, other.1.balances, "{what}: {name} balances");
            assert_eq!(
                payment_counters(&sim.1.metrics),
                payment_counters(&other.1.metrics),
                "{what}: {name} payment counters"
            );
        }
        let messages = |m: &Metrics| (m.probe_messages, m.commit_messages);
        assert_eq!(messages(&sim.1.metrics), messages(&des.1.metrics));
        sim
    }};
}

/// Every channel at 10 units each way.
fn launch_balances() -> Vec<Amount> {
    vec![units(10); diamond().edge_count()]
}

/// The launch balances with `u → v` holding `amount` instead.
fn with_balance(u: u32, v: u32, amount: Amount) -> Vec<Amount> {
    let g = diamond();
    let mut balances = launch_balances();
    balances[g.edge(n(u), n(v)).unwrap().index()] = amount;
    balances
}

fn zero_parts<N: Backend>(net: &mut N) -> (Amount, Amount) {
    let mut s = net.begin_payment(&payment(5), PaymentClass::Mice);
    s.try_send_part(&upper(), Amount::ZERO).unwrap();
    s.try_send_parts(&[(upper(), Amount::ZERO), (lower(), Amount::ZERO)])
        .unwrap();
    (s.reserved(), s.remaining())
}

#[test]
fn a_zero_part_is_a_no_op() {
    let (out, books) = on_every_backend!(launch_balances(), zero_parts);
    assert_eq!(out, (Amount::ZERO, units(5)));
    assert_eq!(books.balances, launch_balances());
    assert_eq!(books.metrics.commit_messages, 0, "nothing was sent");
    assert_eq!(books.metrics.mice.attempted, 1);
    assert_eq!(books.metrics.total().succeeded, 0);
}

fn refused_part<N: Backend>(net: &mut N) -> (usize, bool, Amount) {
    let mut s = net.begin_payment(&payment(5), PaymentClass::Mice);
    let PartFailure {
        failed_hop, cause, ..
    } = s.try_send_part(&upper(), units(5)).unwrap_err();
    let reported = matches!(
        cause,
        FailureCause::InsufficientBalance | FailureCause::Unreported
    );
    (failed_hop, reported, s.reserved())
}

#[test]
fn a_refused_part_names_its_hop_and_leaves_no_escrow() {
    // 1 → 3 holds 2 < 5: hop 0 escrows, hop 1 refuses, hop 0 comes back.
    let short = with_balance(1, 3, units(2));
    let (out, books) = on_every_backend!(short.clone(), refused_part);
    assert_eq!(out, (1, true, Amount::ZERO));
    assert_eq!(books.balances, short);
    assert_eq!(books.metrics.commit_messages, 2, "two hops, one per hop");
}

fn two_part_commit<N: Backend>(net: &mut N) -> RouteOutcome {
    let mut s = net.begin_payment(&payment(15), PaymentClass::Elephant);
    s.try_send_part(&upper(), units(10)).unwrap();
    s.try_send_parts(&[(lower(), units(5))]).unwrap();
    assert!(s.is_satisfied());
    s.commit()
}

#[test]
fn a_two_part_commit_credits_the_reverse_directions() {
    let (out, books) = on_every_backend!(launch_balances(), two_part_commit);
    // Per part, two hops of 0.01 + 1 %: 2 × 0.11 for 10 and 2 × 0.06 for 5.
    let fees = Amount::from_units_f64(0.34);
    assert_eq!(
        out,
        RouteOutcome::Success {
            volume: units(15),
            fees,
            paths_used: 2
        }
    );
    let g = diamond();
    let expect = |u, v| books.balances[g.edge(n(u), n(v)).unwrap().index()];
    assert_eq!([expect(0, 1), expect(1, 3)], [Amount::ZERO; 2]);
    assert_eq!([expect(1, 0), expect(3, 1)], [units(20); 2]);
    assert_eq!([expect(0, 2), expect(2, 3)], [units(5); 2]);
    assert_eq!([expect(2, 0), expect(3, 2)], [units(15); 2]);
    let m = &books.metrics;
    assert_eq!((m.elephant.attempted, m.elephant.succeeded), (1, 1));
    assert_eq!(m.elephant.success_volume, units(15));
    assert_eq!((m.fees_paid, m.paths_used), (fees, 2));
}

fn dropped_session<N: Backend>(net: &mut N) -> Amount {
    let mut s = net.begin_payment(&payment(15), PaymentClass::Elephant);
    s.try_send_parts(&[(upper(), units(10)), (lower(), units(5))])
        .unwrap();
    s.reserved()
}

#[test]
fn dropping_a_session_aborts_and_restores_every_balance() {
    let (reserved, books) = on_every_backend!(launch_balances(), dropped_session);
    assert_eq!(reserved, units(15));
    assert_eq!(books.balances, launch_balances());
    assert_eq!(books.metrics.elephant.attempted, 1);
    assert_eq!(books.metrics.total().succeeded, 0);
}

fn short_commit<N: Backend>(net: &mut N) -> String {
    let panic = catch_unwind(AssertUnwindSafe(|| {
        let mut s = net.begin_payment(&payment(8), PaymentClass::Mice);
        s.try_send_part(&upper(), units(3)).unwrap();
        s.commit()
    }))
    .unwrap_err();
    panic.downcast_ref::<String>().unwrap().clone()
}

#[test]
fn a_short_commit_panics_with_the_shared_message() {
    let (message, books) = on_every_backend!(launch_balances(), short_commit);
    assert_eq!(
        message,
        "commit called with unsatisfied demand (reserved 3 of 8)"
    );
    // Unwinding dropped the session, which aborted it.
    assert_eq!(books.balances, launch_balances());
    assert_eq!(books.metrics.total().succeeded, 0);
}

fn refused_first_part<N: Backend>(net: &mut N) -> (usize, Amount) {
    let mut s = net.begin_payment(&payment(15), PaymentClass::Elephant);
    let refused = s
        .try_send_parts(&[(upper(), units(11)), (lower(), units(4))])
        .unwrap_err();
    let reserved = s.reserved();
    s.abort();
    (refused.failed_hop, reserved)
}

/// A batch whose first part is refused: the simulator and the DES stop
/// at it and never send the second part, while the testbed sends the
/// whole batch at once and escrows the second part until the abort
/// reverses it. The backends part there, and only there: after the
/// abort funds and payment counters agree again.
#[test]
fn a_batch_refused_at_its_first_part_ends_level_after_the_abort() {
    let balances = launch_balances();
    let sim = run::<Network, _>(&balances, refused_first_part::<Network>);
    let des = run::<DesNetwork, _>(&balances, refused_first_part::<DesNetwork>);
    let tcp = run::<Cluster, _>(&balances, refused_first_part::<Cluster>);
    assert_eq!(sim.0, (0, Amount::ZERO), "the simulator stops at part one");
    assert_eq!(des.0, (0, Amount::ZERO), "the DES stops at part one");
    assert_eq!(tcp.0, (0, units(4)), "the testbed escrowed part two");
    for (name, books) in [("DES", &des.1), ("testbed", &tcp.1)] {
        assert_eq!(sim.1.balances, books.balances, "{name} balances");
        assert_eq!(
            payment_counters(&sim.1.metrics),
            payment_counters(&books.metrics),
            "{name} payment counters"
        );
    }
    assert_eq!(sim.1.balances, balances);
    assert_eq!(sim.1.metrics.commit_messages, 1, "part two never left");
    assert_eq!(des.1.metrics.commit_messages, 1);
    // The testbed's nodes serviced part one's COMMIT at the sender and
    // part two's at all three nodes of its route.
    assert_eq!(tcp.1.metrics.commit_messages, 4);
    assert_eq!(sim.1.metrics.elephant.attempted, 1);
    assert_eq!(sim.1.metrics.total().succeeded, 0);
}
