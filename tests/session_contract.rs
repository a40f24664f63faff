//! One payment-session contract, three backends.
//!
//! Every script runs on the simulator (`Network`), the discrete-event
//! backend at zero latency and instant service (`DesNetwork`, drained
//! before it is read) and the TCP testbed (`Cluster`). All three keep
//! their books in one `PaymentLedger`, send every part of a batch and
//! count one message per hop, so after every session they must agree on
//! what each call answered, on every channel balance and on their whole
//! `Metrics`. The one field only a time-aware backend fills, the DES's
//! completion-latency histogram, must hold one zero per success there
//! and is then left out.
//!
//! The hand-written scripts run on a diamond: two 2-hop routes
//! 0 → 1 → 3 and 0 → 2 → 3 of bidirectional channels holding 10 units
//! each way, every hop charging a base fee of 0.01 plus 1 %. The
//! generated ones (`generated_sessions_agree_on_every_backend`) run on
//! small random connected graphs, some of whose chords are one-way.
//!
//! A part committed over a one-way edge `u → v` credits `v → u`, a
//! direction the graph lacks. The simulator and the DES let that credit
//! leave the channel system; the testbed books it in `v`'s slot toward
//! `u`, which its total funds count but no edge reads. Every edge's
//! balance still agrees, and the books compare only those.

use flash_offchain::graph::{DiGraph, EdgeId, Path};
use flash_offchain::proto::Cluster;
use flash_offchain::sim::{
    ChurnSchedule, DesConfig, DesNetwork, FailureCause, LatencyModel, Metrics, Network,
    PartFailure, PaymentNetwork, PaymentSession, RouteOutcome, ServiceModel,
};
use flash_offchain::types::{Amount, FeePolicy, NodeId, Payment, PaymentClass, TxId};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
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

/// What a backend holds between sessions: its `Metrics`, every directed
/// channel's balance by edge id, and the micro-units still escrowed.
#[derive(Debug, PartialEq)]
struct Books {
    metrics: Metrics,
    balances: Vec<Amount>,
    escrow: u128,
}

fn balances_of(net: &Network) -> Vec<Amount> {
    net.graph()
        .edges()
        .map(|(e, _, _)| net.balance(e))
        .collect()
}

/// A backend the scripts run on.
trait Backend: PaymentNetwork + Sized {
    const NAME: &'static str;

    /// `graph` holding `balances` and charging `fees`, both by edge id.
    fn launch(graph: DiGraph, balances: &[Amount], fees: &[FeePolicy]) -> Self;

    /// Lands whatever the backend still has in flight and returns its
    /// books.
    fn books(&mut self) -> Books;

    /// Winds the backend down.
    fn shut_down(self) {}
}

impl Backend for Network {
    const NAME: &'static str = "simulator";

    fn launch(graph: DiGraph, balances: &[Amount], fees: &[FeePolicy]) -> Self {
        Network::new(graph, balances.to_vec(), fees.to_vec()).unwrap()
    }

    fn books(&mut self) -> Books {
        Books {
            metrics: self.metrics().clone(),
            balances: balances_of(self),
            escrow: 0,
        }
    }
}

impl Backend for DesNetwork {
    const NAME: &'static str = "DES";

    fn launch(graph: DiGraph, balances: &[Amount], fees: &[FeePolicy]) -> Self {
        let config = DesConfig {
            latency: LatencyModel::instant(),
            service: ServiceModel::instant(),
            churn: ChurnSchedule::none(),
            check_conservation: true,
        };
        DesNetwork::new(<Network as Backend>::launch(graph, balances, fees), config)
    }

    fn books(&mut self) -> Books {
        self.drain_all();
        assert_eq!(self.in_flight(), 0, "DES payments left in flight");
        // At zero latency each success records one zero completion
        // latency, a field the other two backends never fill.
        let mut metrics = self.metrics().clone();
        let latency = &metrics.latency;
        if latency.count() == metrics.total().succeeded && latency.max_us() == 0 {
            metrics.latency = Default::default();
        }
        Books {
            metrics,
            balances: balances_of(self.inner()),
            escrow: self.escrow_micros(),
        }
    }
}

impl Backend for Cluster {
    const NAME: &'static str = "testbed";

    fn launch(graph: DiGraph, balances: &[Amount], fees: &[FeePolicy]) -> Self {
        let mut cluster = Cluster::launch(graph, balances).unwrap();
        cluster.set_fee_policies(fees.to_vec()).unwrap();
        cluster
    }

    fn books(&mut self) -> Books {
        let metrics = self.metrics();
        let escrow: u64 = self.node_counters().iter().map(|c| c.escrow_held).sum();
        // A one-hop PROBE sent on the wire directly (so not metered)
        // reads a channel's forward balance.
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
        Books {
            metrics,
            balances,
            escrow: escrow.into(),
        }
    }

    fn shut_down(self) {
        assert!(self.shutdown().is_clean());
    }
}

/// Runs `script` on a fresh diamond of backend `N` holding `balances`.
fn run<N: Backend, T>(balances: &[Amount], script: impl FnOnce(&mut N) -> T) -> (T, Books) {
    let g = diamond();
    let fees = vec![FEE; g.edge_count()];
    let mut net = N::launch(g, balances, &fees);
    let out = script(&mut net);
    let books = net.books();
    net.shut_down();
    (out, books)
}

/// Runs `script` on all three backends at the diamond's launch
/// balances (`balances`, by edge id), asserts that they agree on the
/// script's result and their whole books, and that nothing stayed
/// escrowed. Returns the result and the simulator's books.
macro_rules! on_every_backend {
    ($balances:expr, $script:ident) => {{
        let balances: Vec<Amount> = $balances;
        let sim = run::<Network, _>(&balances, $script::<Network>);
        let des = run::<DesNetwork, _>(&balances, $script::<DesNetwork>);
        let tcp = run::<Cluster, _>(&balances, $script::<Cluster>);
        let what = stringify!($script);
        for (name, other) in [(DesNetwork::NAME, &des), (Cluster::NAME, &tcp)] {
            assert_eq!(sim.0, other.0, "{what}: simulator and {name} results");
            assert_eq!(sim.1, other.1, "{what}: simulator and {name} books");
        }
        assert_eq!(sim.1.escrow, 0, "{what}: escrow left behind");
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

/// A batch whose first part is refused: every backend still sends the
/// second part, which stays escrowed until the abort reverses it.
#[test]
fn a_batch_refused_at_its_first_part_ends_level_after_the_abort() {
    let (out, books) = on_every_backend!(launch_balances(), refused_first_part);
    assert_eq!(out, (0, units(4)), "part two was sent and escrowed");
    assert_eq!(books.balances, launch_balances());
    // Part one was refused at its first hop; part two crossed both.
    assert_eq!(books.metrics.commit_messages, 3);
    assert_eq!(books.metrics.elephant.attempted, 1);
    assert_eq!(books.metrics.total().succeeded, 0);
}

fn parts_on_one_route<N: Backend>(net: &mut N) -> (usize, Amount) {
    let mut s = net.begin_payment(&payment(11), PaymentClass::Elephant);
    let refused = s
        .try_send_parts(&[(upper(), units(9)), (upper(), units(2))])
        .unwrap_err();
    (refused.failed_hop, s.reserved())
}

/// Two parts of a batch on one route: the first is refused at hop 1 and
/// hands its hop-0 escrow back before the second part needs it, as if
/// the parts went out one after the other, on every backend.
#[test]
fn parts_sharing_a_channel_meet_the_balances_of_one_after_the_other() {
    let short = with_balance(1, 3, units(2));
    let (out, books) = on_every_backend!(short.clone(), parts_on_one_route);
    assert_eq!(out, (1, units(2)));
    assert_eq!(books.balances, short, "the drop aborted part two");
    assert_eq!(books.metrics.commit_messages, 4);
}

/// How a generated session ends: `Commit` commits when the session is
/// satisfied and aborts otherwise.
#[derive(Clone, Copy, Debug)]
enum End {
    Commit,
    Abort,
    Drop,
}

/// One call on a generated session; a path is its node ids.
#[derive(Clone, Debug)]
enum Call {
    Part(Vec<u32>, Amount),
    Parts(Vec<(Vec<u32>, Amount)>),
    Probe(Vec<u32>),
}

/// A generated session: the payment's demand, its calls and its end.
#[derive(Clone, Debug)]
struct Session {
    demand: Amount,
    calls: Vec<Call>,
    end: End,
}

/// A generated script: a connected graph of `channels` on `nodes`
/// nodes, each `(u, v, both_ways)` either a bidirectional channel or
/// the one directed edge `u → v`, per-edge balances and fees by edge
/// id, and the sessions run on it one after another.
#[derive(Clone, Debug)]
struct Script {
    nodes: usize,
    channels: Vec<(u32, u32, bool)>,
    balances: Vec<Amount>,
    fees: Vec<FeePolicy>,
    sessions: Vec<Session>,
}

impl Script {
    fn graph(&self) -> DiGraph {
        let mut g = DiGraph::new(self.nodes);
        for &(u, v, both_ways) in &self.channels {
            if both_ways {
                g.add_channel(n(u), n(v)).unwrap();
            } else {
                g.add_edge(n(u), n(v)).unwrap();
            }
        }
        g
    }
}

/// `0..=halves` half units.
fn half_units(rng: &mut TestRng, halves: u64) -> Amount {
    Amount::from_micros((0..=halves).sample(rng) * 500_000)
}

/// A simple path of one to four hops, walked from a random node to
/// random unvisited neighbours.
fn simple_path(g: &DiGraph, rng: &mut TestRng) -> Vec<u32> {
    let mut nodes = vec![(0..g.node_count() as u32).sample(rng)];
    let hops = (1usize..=4).sample(rng);
    while nodes.len() <= hops {
        let here = n(nodes[nodes.len() - 1]);
        let next: Vec<u32> = g
            .out_neighbors(here)
            .iter()
            .map(|(v, _)| v.0)
            .filter(|v| !nodes.contains(v))
            .collect();
        if next.is_empty() {
            break;
        }
        nodes.push(next[(0..next.len()).sample(rng)]);
    }
    nodes
}

/// A part: a simple path and an amount from zero to over any balance,
/// up to 4 units half the time.
fn part(g: &DiGraph, rng: &mut TestRng) -> (Vec<u32>, Amount) {
    let halves = [8, 28][(0usize..2).sample(rng)];
    (simple_path(g, rng), half_units(rng, halves))
}

/// Draws [`Script`]s: 4–8 nodes joined by a random tree of channels
/// plus chords, half of them one-way, balances of 0–12 units and fees
/// of 0–0.015 plus 0–1.5 % per edge, and one to six sessions of one to
/// four calls each, for demands of 0.5–10 units.
struct Scripts;

impl Strategy for Scripts {
    type Value = Script;

    fn sample(&self, rng: &mut TestRng) -> Script {
        let nodes = (4usize..=8).sample(rng);
        let mut channels: Vec<(u32, u32, bool)> = (1..nodes as u32)
            .map(|v| ((0..v).sample(rng), v, true))
            .collect();
        for _ in 0..(0..=nodes).sample(rng) {
            let (u, v) = ((0..nodes as u32).sample(rng), (0..nodes as u32).sample(rng));
            let joined = |&(a, b, _): &(u32, u32, bool)| (a, b) == (u, v) || (a, b) == (v, u);
            if u != v && !channels.iter().any(joined) {
                channels.push((u, v, (0..2).sample(rng) == 0));
            }
        }
        let mut script = Script {
            nodes,
            channels,
            balances: Vec::new(),
            fees: Vec::new(),
            sessions: Vec::new(),
        };
        let g = script.graph();
        for _ in 0..g.edge_count() {
            script.balances.push(half_units(rng, 24));
            let base = Amount::from_micros((0u64..=3).sample(rng) * 5_000);
            script
                .fees
                .push(FeePolicy::new(base, (0u64..=3).sample(rng) * 5_000));
        }
        for _ in 0..(1..=6).sample(rng) {
            let calls = (0..(1..=4).sample(rng))
                .map(|_| match (0..3).sample(rng) {
                    0 => {
                        let (path, amount) = part(&g, rng);
                        Call::Part(path, amount)
                    }
                    1 => Call::Parts((0..(1..=4).sample(rng)).map(|_| part(&g, rng)).collect()),
                    _ => Call::Probe(simple_path(&g, rng)),
                })
                .collect();
            script.sessions.push(Session {
                demand: half_units(rng, 19).saturating_add(Amount::from_micros(500_000)),
                calls,
                end: [End::Commit, End::Commit, End::Abort, End::Drop][(0usize..4).sample(rng)],
            });
        }
        script
    }
}

/// What a call answered: a send's result (the refusing hop on `Err`)
/// with `reserved` after it, a probe's forward hops (the testbed's
/// `PROBE_ACK` carries no reverse balances), or the session's end.
#[derive(Debug, PartialEq)]
enum Answer {
    Sent(Result<(), usize>, Amount),
    Probed(Option<Vec<(EdgeId, Amount, FeePolicy)>>),
    Ended(Option<RouteOutcome>),
}

fn path_of(nodes: &[u32]) -> Path {
    Path::new(nodes.iter().map(|&i| n(i)).collect(), None).unwrap()
}

/// Plays `session` as payment `id` on `net` and lists its answers. A
/// batch goes through `try_send_parts`, or, `part_by_part`, as its
/// contract spells it out: one `try_send_part` per part, answering the
/// first refusal.
fn play<N: Backend>(net: &mut N, id: u64, session: &Session, part_by_part: bool) -> Vec<Answer> {
    let payment = Payment::new(TxId(id), n(0), n(1), session.demand);
    let mut s = net.begin_payment(&payment, payment.classify(units(5)));
    let mut answers = Vec::new();
    for call in &session.calls {
        answers.push(match call {
            Call::Part(nodes, amount) => {
                let sent = s.try_send_part(&path_of(nodes), *amount);
                Answer::Sent(sent.map_err(|f| f.failed_hop), s.reserved())
            }
            Call::Parts(parts) => {
                let parts: Vec<(Path, Amount)> =
                    parts.iter().map(|(p, a)| (path_of(p), *a)).collect();
                let mut sent = Ok(());
                if part_by_part {
                    for (path, amount) in &parts {
                        sent = sent.and(s.try_send_part(path, *amount));
                    }
                } else {
                    sent = s.try_send_parts(&parts);
                }
                Answer::Sent(sent.map_err(|f| f.failed_hop), s.reserved())
            }
            Call::Probe(nodes) => Answer::Probed(s.probe_path(&path_of(nodes)).map(|r| {
                r.channels
                    .iter()
                    .map(|c| (c.edge, c.capacity, c.fee))
                    .collect()
            })),
        });
    }
    answers.push(Answer::Ended(match session.end {
        End::Commit if s.is_satisfied() => Some(s.commit()),
        End::Commit | End::Abort => {
            s.abort();
            None
        }
        End::Drop => {
            drop(s);
            None
        }
    }));
    answers
}

/// 64 cases (a tenth of a second in the dev profile), or
/// `PROPTEST_CASES` when it is set (CI runs 2,000 in the release
/// profile).
fn cases() -> ProptestConfig {
    let env = std::env::var("PROPTEST_CASES").ok();
    ProptestConfig::with_cases(env.and_then(|v| v.parse().ok()).unwrap_or(64))
}

proptest! {
    #![proptest_config(cases())]

    /// Generated scripts, one `Cluster` per case: after every session
    /// the three backends, and a simulator that sends a batch's parts
    /// one call each, agree on every answer and their whole books, and
    /// nothing stays escrowed.
    #[test]
    fn generated_sessions_agree_on_every_backend(script in Scripts) {
        let g = script.graph();
        let (balances, fees) = (&script.balances, &script.fees);
        let mut sim = <Network as Backend>::launch(g.clone(), balances, fees);
        let mut des = <DesNetwork as Backend>::launch(g.clone(), balances, fees);
        let mut tcp = <Cluster as Backend>::launch(g.clone(), balances, fees);
        let mut by_part = <Network as Backend>::launch(g, balances, fees);
        for (i, session) in script.sessions.iter().enumerate() {
            let id = i as u64 + 1;
            let answers = play(&mut sim, id, session, false);
            let books = sim.books();
            let others = [
                (DesNetwork::NAME, play(&mut des, id, session, false), des.books()),
                (Cluster::NAME, play(&mut tcp, id, session, false), tcp.books()),
                ("part by part", play(&mut by_part, id, session, true), by_part.books()),
            ];
            for (name, other_answers, other_books) in others {
                prop_assert_eq!(
                    &answers, &other_answers,
                    "session {}: simulator answered {:?}, {} {:?}",
                    i, answers, name, other_answers
                );
                prop_assert_eq!(
                    &books, &other_books,
                    "session {}: simulator books {:?}, {} {:?}",
                    i, books, name, other_books
                );
            }
            prop_assert_eq!(books.escrow, 0);
        }
        tcp.shut_down();
    }
}
