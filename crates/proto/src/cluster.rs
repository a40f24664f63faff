//! Cluster orchestration.
//!
//! [`Cluster::launch`] deploys one protocol node per participant on the
//! single-threaded [`EventLoop`] (see [`crate::event_loop`]) — hundreds
//! of nodes fit in one process because a node costs a listener and a
//! state machine, not threads. A launch binds the listeners and opens no
//! connection: each channel gets one TCP connection, for both
//! directions, when its first frame is sent. The cluster implements
//! [`pcn_sim::PaymentNetwork`] (see [`crate::backend`]), so the *same*
//! [`pcn_sim::Router`] implementations the simulator uses — all five
//! schemes — route on it unmodified. Driving a transaction trace and
//! measuring per-transaction processing delay (Figures 12c/d and
//! 13c/d) is `pcn_experiments::harness::run_scheme_testbed`'s job; the
//! success volume and ratio (a/b panels) and the probe/commit message
//! breakdown are the cluster's own [`Cluster::metrics`].
//!
//! Exclusive access is `&mut Cluster`: every wire operation borrows the
//! cluster mutably, the counters read through `&self`. Batched
//! operations ([`Cluster::probe_many`], [`Cluster::commit_many`],
//! [`Cluster::settle_many`]) inject *all* their requests before pumping
//! the loop, so sub-payments interleave on the wire exactly as the
//! paper's sender "prepares a COMMIT message for each of the
//! sub-payment and sends them out" before collecting replies.

use crate::event_loop::{EventLoop, ShutdownReport};
use crate::node::NodeCounters;
use crate::wire::{Message, MsgType};
use pcn_graph::{DiGraph, EdgeId, Path};
use pcn_sim::{ChurnAction, FaultConfig, Metrics};
use pcn_types::{Amount, FeePolicy, NodeId, PcnError, Result};
use std::collections::HashMap;
use std::time::Duration;

/// The stall guard: how long a request may sit with bytes in flight that
/// the kernel is not delivering before it is given up as unanswered. It
/// is not the price of a lost frame — a request whose frames were
/// dropped comes back unanswered the moment nothing is in flight any
/// more.
const STALL_GUARD: Duration = Duration::from_secs(10);

/// A running cluster of event-loop-hosted TCP nodes.
///
/// It has one wire entry point per protocol phase, each taking a batch
/// whose requests are in flight together: [`Cluster::probe_many`],
/// [`Cluster::commit_many`] and [`Cluster::settle_many`]. On top of
/// them it implements [`pcn_sim::PaymentNetwork`] (in
/// [`crate::backend`]) so any [`pcn_sim::Router`] drives it exactly
/// like the in-memory simulator.
pub struct Cluster {
    graph: DiGraph,
    /// The reactor hosting every node.
    evloop: EventLoop,
    /// Sender-side fee policies per directed edge. The wire protocol
    /// carries no fee field, so — like the topology file every prototype
    /// node reads at launch — fee policies are local knowledge, reported
    /// through probes for the fee-minimizing LP.
    fees: Vec<FeePolicy>,
    /// Allocator for wire transaction ids (probes and sub-payments).
    next_trans_id: u64,
    /// Payment accounting, kept by the [`pcn_sim::PaymentNetwork`] impl
    /// (see [`Cluster::metrics`]); its message counts stay zero.
    pub(crate) payments: Metrics,
}

impl Cluster {
    /// Launches one node per graph vertex on ephemeral localhost ports.
    /// `balances[e]` (indexed by edge id) seeds each node's outgoing
    /// balances. Only the listeners are bound here: a channel's
    /// connection opens on the first frame sent over it, in either
    /// direction, inside the operation that sends it (see
    /// [`Cluster::connects`]).
    pub fn launch(graph: DiGraph, balances: &[Amount]) -> Result<Cluster> {
        Self::launch_with_faults(graph, balances, &FaultConfig::none())
    }

    /// Launches a cluster whose wire drops each outbound frame with
    /// `faults.probe_drop_prob` (see [`EventLoop::new`]); a dropped frame
    /// surfaces as an unanswered request at the sender.
    pub fn launch_with_faults(
        graph: DiGraph,
        balances: &[Amount],
        faults: &FaultConfig,
    ) -> Result<Cluster> {
        if balances.len() != graph.edge_count() {
            return Err(PcnError::InvalidConfig(format!(
                "balance table has {} entries for {} edges",
                balances.len(),
                graph.edge_count()
            )));
        }
        let n = graph.node_count();
        let mut node_balances: Vec<HashMap<u32, u64>> = vec![HashMap::new(); n];
        for (id, bal) in node_balances.iter_mut().enumerate() {
            for &(neigh, e) in graph.out_neighbors(NodeId::from_index(id)) {
                bal.insert(neigh.0, balances[e.index()].micros());
            }
        }
        let evloop = EventLoop::new(node_balances, faults)?;
        let fees = vec![FeePolicy::FREE; graph.edge_count()];
        Ok(Cluster {
            graph,
            evloop,
            fees,
            next_trans_id: 1,
            payments: Metrics::default(),
        })
    }

    /// Installs sender-side fee policies, indexed by [`EdgeId`]
    /// (defaults to free). Probes report these, so the Flash fee LP
    /// optimizes real fees on the testbed.
    pub fn set_fee_policies(&mut self, fees: Vec<FeePolicy>) -> Result<()> {
        if fees.len() != self.graph.edge_count() {
            return Err(PcnError::InvalidConfig(format!(
                "fee table has {} entries for {} edges",
                fees.len(),
                self.graph.edge_count()
            )));
        }
        self.fees = fees;
        Ok(())
    }

    /// Fee policy of a directed edge (sender-side knowledge).
    pub fn fee_policy(&self, e: EdgeId) -> FeePolicy {
        self.fees[e.index()]
    }

    /// The shared topology (the file every prototype node "reads ... at
    /// launch time").
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Total funds across all nodes (conservation checks).
    pub fn total_funds(&self) -> u64 {
        self.evloop.total_funds()
    }

    /// Sum of probe messages processed across all nodes.
    pub fn probe_messages(&self) -> u64 {
        let counters = self.evloop.counters();
        counters.iter().map(|c| c.probe_messages).sum()
    }

    /// Sum of commit messages processed across all nodes.
    pub fn commit_messages(&self) -> u64 {
        let counters = self.evloop.counters();
        counters.iter().map(|c| c.commit_messages).sum()
    }

    /// The run's [`Metrics`], kept as [`pcn_sim::Network`] keeps them:
    /// every [`pcn_sim::PaymentNetwork::begin_payment`] records an
    /// attempt by class, every committed session its volume, fees and
    /// paths. The message counts are the nodes' ([`Cluster::probe_messages`],
    /// [`Cluster::commit_messages`]: one per message a node serviced,
    /// sender and receiver included), not the simulator's one per hop.
    pub fn metrics(&self) -> Metrics {
        Metrics {
            probe_messages: self.probe_messages(),
            commit_messages: self.commit_messages(),
            ..self.payments.clone()
        }
    }

    /// Per-node telemetry snapshot, indexed by node id.
    pub fn node_counters(&self) -> Vec<NodeCounters> {
        self.evloop.counters()
    }

    /// Frames the lossy wire has dropped so far.
    pub fn dropped_messages(&self) -> u64 {
        self.evloop.dropped()
    }

    /// `accept`/`read`/`write` calls the reactor has issued so far (see
    /// [`EventLoop::socket_ops`]).
    pub fn socket_ops(&self) -> u64 {
        self.evloop.socket_ops()
    }

    /// Connects the reactor has made so far: one per channel that
    /// carried a frame, plus one per reconnect (see
    /// [`EventLoop::connects`]).
    pub fn connects(&self) -> u64 {
        self.evloop.connects()
    }

    /// Allocates a fresh wire transaction id.
    pub fn fresh_trans_id(&mut self) -> u64 {
        let id = self.next_trans_id;
        self.next_trans_id += 1;
        id
    }

    fn path_ids(path: &Path) -> Vec<u32> {
        path.nodes().iter().map(|n| n.0).collect()
    }

    /// Injects every message, then pumps the loop until all replies
    /// arrived or nothing is in flight any more. Results are in input
    /// order; `None` marks an unanswered (or invalid) request.
    fn request_many(&mut self, msgs: Vec<Message>) -> Vec<Option<Message>> {
        let ev = &mut self.evloop;
        let mut ids = Vec::with_capacity(msgs.len());
        for msg in msgs {
            let id = msg.trans_id;
            match ev.begin_request(msg) {
                Ok(_) => ids.push(Some(id)),
                Err(_) => ids.push(None),
            }
        }
        let live: Vec<u64> = ids.iter().copied().flatten().collect();
        ev.run_requests(&live, STALL_GUARD);
        ids.into_iter()
            .map(|id| id.and_then(|id| ev.take_reply(id)))
            .collect()
    }

    /// Sends one `PROBE` per `(trans_id, path)`, all in flight together
    /// as the prototype's Spider sender issues its path probes at once.
    /// Each result is the path's per-hop forward balances, or `None`
    /// when the probe went unanswered or was refused.
    pub fn probe_many(&mut self, items: &[(u64, &Path)]) -> Vec<Option<Vec<u64>>> {
        let msgs = items
            .iter()
            .map(|(id, path)| Message::new(*id, MsgType::Probe, Self::path_ids(path)))
            .collect();
        self.request_many(msgs)
            .into_iter()
            .zip(items)
            .map(|(reply, (_, path))| {
                let reply = reply?;
                (reply.msg_type == MsgType::ProbeAck && reply.capacities.len() == path.hops())
                    .then_some(reply.capacities)
            })
            .collect()
    }

    /// Phase-1 commit of a batch of sub-payments `(trans_id, path,
    /// amount)`: every `COMMIT` goes out before any reply is awaited.
    /// `Ok` on `COMMIT_ACK`; `Err(h)` on `COMMIT_NACK` from hop `h` (0 =
    /// first channel), whose escrowed hops the wire has already rolled
    /// back. A missing reply (lossy transport) reports hop 0 — the wire
    /// carries no better information in that case.
    pub fn commit_many(
        &mut self,
        parts: &[(u64, &Path, Amount)],
    ) -> Vec<std::result::Result<(), usize>> {
        let msgs = parts
            .iter()
            .map(|(id, path, amount)| {
                let mut m = Message::new(*id, MsgType::Commit, Self::path_ids(path));
                m.commit = amount.micros();
                m
            })
            .collect();
        self.request_many(msgs)
            .into_iter()
            .map(|reply| match reply {
                Some(m) if m.msg_type == MsgType::CommitAck => Ok(()),
                // The NACK's path is the reversed prefix up to (and
                // including) the node that refused: its length names
                // the hop.
                Some(m) if m.msg_type == MsgType::CommitNack => Err(m.path.len().saturating_sub(1)),
                _ => Err(0),
            })
            .collect()
    }

    /// Phase-2 settlement wave for a batch of committed parts, all in
    /// flight together: `CONFIRM` (`confirm = true`, crediting the
    /// reverse directions along each path) or `REVERSE` (restoring the
    /// escrow). Each result is `true` when its wave was acknowledged.
    pub fn settle_many(&mut self, parts: &[(u64, &Path, Amount)], confirm: bool) -> Vec<bool> {
        let (send, expect) = if confirm {
            (MsgType::Confirm, MsgType::ConfirmAck)
        } else {
            (MsgType::Reverse, MsgType::ReverseAck)
        };
        let msgs = parts
            .iter()
            .map(|(id, path, amount)| {
                let mut m = Message::new(*id, send, Self::path_ids(path));
                m.commit = amount.micros();
                m
            })
            .collect();
        self.request_many(msgs)
            .into_iter()
            .map(|reply| reply.is_some_and(|m| m.msg_type == expect))
            .collect()
    }

    /// Applies one topology mutation mid-run, mirroring the DES churn
    /// semantics (`pcn_sim::des::churn`): closes freeze both directions
    /// of the channel, crashed nodes NACK what they would service, and
    /// drains move funds to the reverse direction when one exists.
    pub fn apply_churn(&mut self, action: &ChurnAction) {
        let ev = &mut self.evloop;
        match *action {
            ChurnAction::ChannelClose(e) | ChurnAction::ChannelReopen(e) => {
                let closed = matches!(action, ChurnAction::ChannelClose(_));
                let (u, v) = self.graph.endpoints(e);
                ev.set_channel_closed(u.0, v.0, closed);
                if self.graph.edge(v, u).is_some() {
                    ev.set_channel_closed(v.0, u.0, closed);
                }
            }
            ChurnAction::NodeDown(n) => ev.set_node_down(n.0, true),
            ChurnAction::NodeUp(n) => ev.set_node_down(n.0, false),
            ChurnAction::BalanceDrain { edge, amount } => {
                let (u, v) = self.graph.endpoints(edge);
                let credit_reverse = self.graph.edge(v, u).is_some();
                ev.drain_channel(u.0, v.0, amount.micros(), credit_reverse);
            }
        }
    }

    /// Winds the event loop down deterministically and reports anything
    /// left behind (see [`EventLoop::shutdown`]). A cluster dropped
    /// without this call winds down the same way, and is loud about an
    /// unclean run on a lossless wire.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.evloop.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_core::Scheme;
    use pcn_sim::{RouteOutcome, Router};
    use pcn_types::{Payment, TxId};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Diamond: two 2-hop bidirectional routes 0 → 3 of 10 units each.
    fn diamond() -> (DiGraph, Vec<Amount>) {
        let mut g = DiGraph::new(4);
        g.add_channel(n(0), n(1)).unwrap();
        g.add_channel(n(1), n(3)).unwrap();
        g.add_channel(n(0), n(2)).unwrap();
        g.add_channel(n(2), n(3)).unwrap();
        let balances = vec![Amount::from_units(10); g.edge_count()];
        (g, balances)
    }

    fn pay(amount: u64) -> Payment {
        Payment::new(TxId(1), n(0), n(3), Amount::from_units(amount))
    }

    /// One `PROBE` as a batch of one.
    fn probe(cluster: &mut Cluster, id: u64, path: &Path) -> Option<Vec<u64>> {
        cluster.probe_many(&[(id, path)]).pop().flatten()
    }

    /// One `COMMIT` as a batch of one: `Err` names the refusing hop.
    fn commit(
        cluster: &mut Cluster,
        id: u64,
        path: &Path,
        units: u64,
    ) -> std::result::Result<(), usize> {
        let amount = Amount::from_units(units);
        cluster.commit_many(&[(id, path, amount)]).remove(0)
    }

    /// One `CONFIRM` (`confirm`) or `REVERSE` wave as a batch of one.
    fn settle(cluster: &mut Cluster, id: u64, path: &Path, units: u64, confirm: bool) -> bool {
        let amount = Amount::from_units(units);
        cluster.settle_many(&[(id, path, amount)], confirm) == [true]
    }

    #[test]
    fn probe_collects_hop_balances() {
        let (g, b) = diamond();
        let mut cluster = Cluster::launch(g, &b).unwrap();
        let path = Path::new(vec![n(0), n(1), n(3)], Some(cluster.graph())).unwrap();
        let caps = probe(&mut cluster, 99, &path).unwrap();
        assert_eq!(caps, vec![10_000_000, 10_000_000]);
        assert!(cluster.probe_messages() >= 2);
    }

    #[test]
    fn commit_confirm_moves_funds_both_directions() {
        let (g, b) = diamond();
        let mut cluster = Cluster::launch(g, &b).unwrap();
        let before = cluster.total_funds();
        let path = Path::new(vec![n(0), n(1), n(3)], Some(cluster.graph())).unwrap();
        assert!(commit(&mut cluster, 1, &path, 4).is_ok());
        assert!(settle(&mut cluster, 1, &path, 4, true));
        // Forward balances decreased, reverse increased.
        let caps = probe(&mut cluster, 2, &path).unwrap();
        assert_eq!(caps, vec![6_000_000, 6_000_000]);
        let rev = Path::new(vec![n(3), n(1), n(0)], Some(cluster.graph())).unwrap();
        let rcaps = probe(&mut cluster, 3, &rev).unwrap();
        assert_eq!(rcaps, vec![14_000_000, 14_000_000]);
        assert_eq!(cluster.total_funds(), before);
    }

    #[test]
    fn commit_nack_rolls_back_escrow() {
        let (g, b) = diamond();
        let mut cluster = Cluster::launch(g, &b).unwrap();
        let before = cluster.total_funds();
        let path = Path::new(vec![n(0), n(1), n(3)], Some(cluster.graph())).unwrap();
        // 11 > 10 fails at the very first hop; try 10 then drain and 5.
        assert!(commit(&mut cluster, 1, &path, 11).is_err());
        assert_eq!(cluster.total_funds(), before);
        // Drain hop 1→3, then a mid-path NACK must restore hop 0→1.
        assert!(commit(&mut cluster, 2, &path, 8).is_ok());
        assert!(settle(&mut cluster, 2, &path, 8, true));
        assert!(commit(&mut cluster, 3, &path, 5).is_err());
        let caps = probe(&mut cluster, 4, &path).unwrap();
        assert_eq!(caps, vec![2_000_000, 2_000_000]);
        assert_eq!(cluster.total_funds(), before);
    }

    #[test]
    fn commit_nack_names_the_refusing_hop() {
        let (g, b) = diamond();
        let mut cluster = Cluster::launch(g, &b).unwrap();
        let path = Path::new(vec![n(0), n(1), n(3)], Some(cluster.graph())).unwrap();
        // First hop lacks balance → hop 0.
        assert_eq!(commit(&mut cluster, 1, &path, 11), Err(0));
        // Drain the second hop only; the NACK then comes from hop 1.
        assert!(commit(&mut cluster, 2, &path, 8).is_ok());
        assert!(settle(&mut cluster, 2, &path, 8, true));
        // 1→3 has 2 left, 0→1 has 2 left... drain 0→1's remainder via
        // the reverse route to isolate hop 1: instead, commit 3 (> 2).
        assert_eq!(
            commit(&mut cluster, 3, &path, 3),
            Err(0),
            "hop 0 has 2 < 3 after the drain"
        );
        let (g, b) = diamond();
        let mut cluster = Cluster::launch(g, &b).unwrap();
        let path = Path::new(vec![n(0), n(1), n(3)], Some(cluster.graph())).unwrap();
        let drain = Path::new(vec![n(1), n(3)], Some(cluster.graph())).unwrap();
        assert!(commit(&mut cluster, 4, &drain, 8).is_ok());
        assert!(settle(&mut cluster, 4, &drain, 8, true));
        assert_eq!(
            commit(&mut cluster, 5, &path, 5),
            Err(1),
            "hop 1 (1→3) has 2 < 5 while hop 0 still has 10"
        );
        // The failed attempt rolled hop 0 back.
        let caps = probe(&mut cluster, 6, &path).unwrap();
        assert_eq!(caps[0], 10_000_000);
    }

    #[test]
    fn reverse_restores_committed_part() {
        let (g, b) = diamond();
        let mut cluster = Cluster::launch(g, &b).unwrap();
        let before = cluster.total_funds();
        let path = Path::new(vec![n(0), n(1), n(3)], Some(cluster.graph())).unwrap();
        assert!(commit(&mut cluster, 1, &path, 7).is_ok());
        assert!(settle(&mut cluster, 1, &path, 7, false));
        let caps = probe(&mut cluster, 2, &path).unwrap();
        assert_eq!(caps, vec![10_000_000, 10_000_000]);
        assert_eq!(cluster.total_funds(), before);
    }

    #[test]
    fn batched_commits_interleave_on_the_wire() {
        let (g, b) = diamond();
        let mut cluster = Cluster::launch(g, &b).unwrap();
        let before = cluster.total_funds();
        let p1 = Path::new(vec![n(0), n(1), n(3)], Some(cluster.graph())).unwrap();
        let p2 = Path::new(vec![n(0), n(2), n(3)], Some(cluster.graph())).unwrap();
        let results = cluster.commit_many(&[
            (10, &p1, Amount::from_units(6)),
            (11, &p2, Amount::from_units(7)),
            // Third part overdraws p1's remaining 4 and must NACK.
            (12, &p1, Amount::from_units(5)),
        ]);
        assert_eq!(results, vec![Ok(()), Ok(()), Err(0)]);
        let settled = cluster.settle_many(
            &[
                (10, &p1, Amount::from_units(6)),
                (11, &p2, Amount::from_units(7)),
            ],
            true,
        );
        assert_eq!(settled, vec![true, true]);
        assert_eq!(cluster.total_funds(), before);
        let caps = probe(&mut cluster, 13, &p1).unwrap();
        assert_eq!(caps, vec![4_000_000, 4_000_000]);
    }

    #[test]
    fn fresh_connections_in_one_batch_pair_with_their_connectors() {
        // 0 and 1 both reach 3 through 2; 2 — 3 — 4 carries on.
        let mut g = DiGraph::new(5);
        g.add_channel(n(0), n(2)).unwrap();
        g.add_channel(n(1), n(2)).unwrap();
        g.add_channel(n(2), n(3)).unwrap();
        g.add_channel(n(3), n(4)).unwrap();
        let balances = vec![Amount::from_units(10); g.edge_count()];
        let mut cluster = Cluster::launch(g, &balances).unwrap();
        let path = |ids: &[u32]| {
            let nodes = ids.iter().map(|&i| n(i)).collect();
            Path::new(nodes, Some(cluster.graph())).unwrap()
        };
        // One injection pass opens 0→2, 1→2 and 3→4: listener 2 then
        // has two connects to accept at once, and their first frames
        // differ in length, so a swapped pairing breaks the byte count.
        let (p0, p1, p3) = (path(&[0, 2, 3]), path(&[1, 2, 3, 4]), path(&[3, 4]));
        let one = Amount::from_units(1);
        let results = cluster.commit_many(&[(1, &p0, one), (2, &p1, one), (3, &p3, one)]);
        assert_eq!(results, vec![Ok(()), Ok(()), Ok(())]);

        let counters = cluster.node_counters();
        let commits_in = |node: usize| counters[node].msgs_in[MsgType::Commit as usize];
        let acks_in = |node: usize| counters[node].msgs_in[MsgType::CommitAck as usize];
        assert_eq!(
            [0, 1, 2, 3, 4].map(commits_in),
            [0, 0, 2, 2, 2],
            "each COMMIT counted by the node whose listener accepted it"
        );
        assert_eq!([0, 1, 2, 3, 4].map(acks_in), [1, 1, 2, 2, 0]);
        let sent: u64 = counters.iter().map(|c| c.wire_out()).sum();
        let received: u64 = counters.iter().map(|c| c.wire_in()).sum();
        assert_eq!(sent, received);
        let report = cluster.shutdown();
        assert_eq!(report.transport_errors, 0);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn churn_actions_apply_and_conserve() {
        let (g, b) = diamond();
        let mut cluster = Cluster::launch(g, &b).unwrap();
        let before = cluster.total_funds();
        let path = Path::new(vec![n(0), n(1), n(3)], Some(cluster.graph())).unwrap();
        let e01 = cluster.graph().edge(n(0), n(1)).unwrap();
        cluster.apply_churn(&ChurnAction::ChannelClose(e01));
        assert!(
            commit(&mut cluster, 1, &path, 1).is_err(),
            "commit through a closed channel must NACK"
        );
        assert_eq!(cluster.total_funds(), before, "frozen funds stay in place");
        cluster.apply_churn(&ChurnAction::ChannelReopen(e01));
        assert!(commit(&mut cluster, 2, &path, 1).is_ok());
        assert!(settle(&mut cluster, 2, &path, 1, false));
        cluster.apply_churn(&ChurnAction::NodeDown(n(1)));
        assert!(
            probe(&mut cluster, 3, &path).is_none(),
            "crashed relay drops probes"
        );
        cluster.apply_churn(&ChurnAction::NodeUp(n(1)));
        assert!(probe(&mut cluster, 4, &path).is_some());
        cluster.apply_churn(&ChurnAction::BalanceDrain {
            edge: e01,
            amount: Amount::MAX,
        });
        let caps = probe(&mut cluster, 5, &path).unwrap();
        assert_eq!(caps[0], 0, "drained direction is empty");
        assert_eq!(cluster.total_funds(), before, "drain conserves funds");
    }

    #[test]
    fn shutdown_reports_clean_on_quiet_cluster() {
        let (g, b) = diamond();
        let mut cluster = Cluster::launch(g, &b).unwrap();
        let path = Path::new(vec![n(0), n(1), n(3)], Some(cluster.graph())).unwrap();
        probe(&mut cluster, 1, &path).unwrap();
        let report = cluster.shutdown();
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn unclean_cluster_is_loud_on_drop_and_a_clean_one_silent() {
        let launch = |faults: &FaultConfig| {
            let (g, b) = diamond();
            let mut cluster = Cluster::launch_with_faults(g, &b, faults).unwrap();
            let path = Path::new(vec![n(0), n(1)], Some(cluster.graph())).unwrap();
            probe(&mut cluster, 1, &path).unwrap();
            cluster
        };
        drop(launch(&FaultConfig::none()));

        // Probe noise does not touch the wire, so it does not excuse an
        // unclean wind-down either.
        let noisy = FaultConfig {
            probe_noise_ppm: 100_000,
            ..FaultConfig::none()
        };
        for faults in [FaultConfig::none(), noisy] {
            let mut cluster = launch(&faults);
            cluster.evloop.poison_connection(0, 1);
            // No `shutdown()`: the loop's own Drop winds down, finds the
            // transport error, and — lossless wire — asserts.
            let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(cluster)));
            assert_eq!(dropped.is_err(), cfg!(debug_assertions), "{faults:?}");
        }
    }

    /// Routes `pay(amount)`, classified against the $5 threshold the
    /// Flash test configures.
    fn route(router: &mut dyn Router<Cluster>, cluster: &mut Cluster, amount: u64) -> RouteOutcome {
        let payment = pay(amount);
        router.route(cluster, &payment, payment.classify(Amount::from_units(5)))
    }

    #[test]
    fn sp_scheme_end_to_end() {
        let (g, b) = diamond();
        let mut cluster = Cluster::launch(g, &b).unwrap();
        let mut router = Scheme::ShortestPath.router::<Cluster>(Amount::MAX, 1);
        assert!(route(router.as_mut(), &mut cluster, 10).is_success());
        assert!(!route(router.as_mut(), &mut cluster, 11).is_success());
    }

    #[test]
    fn spider_scheme_splits() {
        let (g, b) = diamond();
        let mut cluster = Cluster::launch(g, &b).unwrap();
        let mut router = Scheme::Spider.router::<Cluster>(Amount::MAX, 1);
        assert!(route(router.as_mut(), &mut cluster, 15).is_success());
        assert!(!route(router.as_mut(), &mut cluster, 30).is_success());
    }

    #[test]
    fn flash_scheme_mice_and_elephant() {
        let (g, b) = diamond();
        let mut cluster = Cluster::launch(g, &b).unwrap();
        let mut router = Scheme::Flash.router::<Cluster>(Amount::from_units(5), 1);
        assert!(route(router.as_mut(), &mut cluster, 3).is_success());
        assert!(route(router.as_mut(), &mut cluster, 14).is_success());
        assert_eq!(cluster.total_funds(), 80_000_000);
    }

    #[test]
    fn tree_schemes_route_on_the_cluster() {
        for scheme in [Scheme::SpeedyMurmurs, Scheme::SilentWhispers] {
            let (g, b) = diamond();
            let mut cluster = Cluster::launch(g, &b).unwrap();
            let before = cluster.total_funds();
            let mut router = scheme.router::<Cluster>(Amount::MAX, 1);
            assert!(
                route(router.as_mut(), &mut cluster, 2).is_success(),
                "{} failed a feasible payment",
                scheme.label()
            );
            assert!(
                !route(router.as_mut(), &mut cluster, 1000).is_success(),
                "{} claimed an infeasible payment",
                scheme.label()
            );
            assert_eq!(
                cluster.total_funds(),
                before,
                "{} leaked funds",
                scheme.label()
            );
        }
    }

    #[test]
    fn fees_surface_in_the_outcome() {
        let (g, b) = diamond();
        let edge_count = g.edge_count();
        let mut cluster = Cluster::launch(g, &b).unwrap();
        // 1% proportional fee on every channel.
        cluster
            .set_fee_policies(vec![FeePolicy::proportional(10_000); edge_count])
            .unwrap();
        let mut router = Scheme::ShortestPath.router::<Cluster>(Amount::MAX, 1);
        let RouteOutcome::Success { fees, .. } = route(router.as_mut(), &mut cluster, 5) else {
            panic!("a $5 payment fits the diamond");
        };
        // 2 hops × 1% of $5 = $0.10.
        assert_eq!(fees, Amount::from_units_f64(0.10));
    }

    #[test]
    fn launch_rejects_mismatched_tables() {
        let (g, _) = diamond();
        assert!(Cluster::launch(g, &[Amount::ZERO]).is_err());
    }

    #[test]
    fn fee_table_size_is_validated() {
        let (g, b) = diamond();
        let mut cluster = Cluster::launch(g, &b).unwrap();
        assert!(cluster.set_fee_policies(vec![FeePolicy::FREE]).is_err());
    }
}
