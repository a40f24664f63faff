//! Network state and atomic payment sessions.

use crate::backend::{FailureCause, PartFailure, PaymentLedger, PaymentNetwork, PaymentSession};
use crate::{FaultConfig, Metrics, RouteOutcome};
use pcn_graph::{DiGraph, EdgeId, Path};
use pcn_types::{Amount, FeePolicy, Payment, PaymentClass, PcnError, Result};
use rand::rngs::StdRng;

/// Probed state of one directed channel on a path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelInfo {
    /// Directed edge probed.
    pub edge: EdgeId,
    /// Balance reported by the probe (may be distorted under fault
    /// injection; otherwise the exact current balance).
    pub capacity: Amount,
    /// Fee policy of the channel ("The fee information is collected
    /// during the probing process with the capacity information", §3.2).
    pub fee: FeePolicy,
    /// Balance of the opposite channel direction, when the channel is
    /// bidirectional. Algorithm 1 records both `C[u,v]` and `C[v,u]`
    /// from a single probe (lines 17–22), which the `PROBE_ACK` pass
    /// collects on its way back.
    pub reverse: Option<(EdgeId, Amount)>,
}

/// The result of probing a path end-to-end.
#[derive(Clone, Debug)]
pub struct ProbeReport {
    /// Per-hop channel states, sender → receiver order.
    pub channels: Vec<ChannelInfo>,
}

impl ProbeReport {
    /// The bottleneck (minimum) capacity along the path — `min C_p` of
    /// Algorithm 1.
    pub fn bottleneck(&self) -> Amount {
        self.channels
            .iter()
            .map(|c| c.capacity)
            .min()
            .unwrap_or(Amount::ZERO)
    }
}

/// The offchain network: topology, per-direction channel balances, fee
/// policies, metrics, and fault injection.
///
/// `Clone` produces an independent copy (balances, metrics, fault
/// config; the edge-list pool starts empty), which the experiment
/// harness uses to run every scheme against identical initial
/// conditions. The clone's fault RNG restarts
/// from the configured seed, so clones see identical fault sequences.
pub struct Network {
    graph: DiGraph,
    balances: Vec<Amount>,
    fees: Vec<FeePolicy>,
    metrics: Metrics,
    faults: FaultConfig,
    fault_rng: StdRng,
    /// Spent part edge lists, recycled between reservations: a settled
    /// or refused part returns its `Vec` here and the next reservation
    /// — on this network or on the DES wrapping it — reuses it instead
    /// of allocating.
    edge_pool: Vec<Vec<EdgeId>>,
    /// The emptied parts list of the last settled payment, which the
    /// next payment's ledger opens on.
    spare_parts: Vec<(Vec<EdgeId>, Amount)>,
}

impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            graph: self.graph.clone(),
            balances: self.balances.clone(),
            fees: self.fees.clone(),
            metrics: self.metrics.clone(),
            fault_rng: self.faults.rng(),
            faults: self.faults.clone(),
            edge_pool: Vec::new(),
            spare_parts: Vec::new(),
        }
    }
}

impl Network {
    /// Creates a network. `balances[e]` and `fees[e]` are indexed by
    /// [`EdgeId`] and must match the graph's edge count.
    pub fn new(graph: DiGraph, balances: Vec<Amount>, fees: Vec<FeePolicy>) -> Result<Self> {
        if balances.len() != graph.edge_count() {
            return Err(PcnError::InvalidConfig(format!(
                "balance table has {} entries for {} edges",
                balances.len(),
                graph.edge_count()
            )));
        }
        if fees.len() != graph.edge_count() {
            return Err(PcnError::InvalidConfig(format!(
                "fee table has {} entries for {} edges",
                fees.len(),
                graph.edge_count()
            )));
        }
        let faults = FaultConfig::none();
        let fault_rng = faults.rng();
        Ok(Network {
            graph,
            balances,
            fees,
            metrics: Metrics::default(),
            faults,
            fault_rng,
            edge_pool: Vec::new(),
            spare_parts: Vec::new(),
        })
    }

    /// Creates a network with the same balance on every directed edge and
    /// free fees — the "evenly assigning the total funds over both
    /// directions" preprocessing the paper applies to Ripple.
    #[expect(
        clippy::expect_used,
        reason = "both tables are built with len == edge_count just above"
    )]
    pub fn uniform(graph: DiGraph, balance: Amount) -> Self {
        let e = graph.edge_count();
        Network::new(graph, vec![balance; e], vec![FeePolicy::FREE; e])
            .expect("tables sized from the graph cannot mismatch")
    }

    /// Installs a fault-injection configuration (resets its RNG).
    pub fn set_faults(&mut self, faults: FaultConfig) {
        self.fault_rng = faults.rng();
        self.faults = faults;
    }

    /// The installed fault-injection configuration.
    pub fn faults(&self) -> &FaultConfig {
        &self.faults
    }

    /// The topology (no balance information — this is exactly what the
    /// paper assumes every node knows locally, §3.1).
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Simulation metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to the metrics — how the DES backend records
    /// into the wrapped network's counters and how a harness moves the
    /// finished metrics out (`std::mem::take`).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Current balance of a directed edge. **Simulator-internal truth**:
    /// routers must use [`PaymentNetwork::probe_path`] instead (direct reads
    /// would dodge the probe-message accounting the paper measures).
    pub fn balance(&self, e: EdgeId) -> Amount {
        self.balances[e.index()]
    }

    /// Fee policy of a directed edge.
    pub fn fee_policy(&self, e: EdgeId) -> FeePolicy {
        self.fees[e.index()]
    }

    /// Overwrites the fee policy of a directed edge.
    pub fn set_fee_policy(&mut self, e: EdgeId, fee: FeePolicy) {
        self.fees[e.index()] = fee;
    }

    /// Overwrites the balance of a directed edge (setup/scenario code).
    pub fn set_balance(&mut self, e: EdgeId, balance: Amount) {
        self.balances[e.index()] = balance;
    }

    /// Multiplies every balance by `factor` — the capacity scale factor
    /// sweep of Figures 6 and 7.
    pub fn scale_balances(&mut self, factor: u64) {
        for b in &mut self.balances {
            *b = b.scale(factor);
        }
    }

    /// Sum of all channel balances. With no payment session open this is
    /// invariant across payments (fees are accounted separately; see
    /// crate docs).
    pub fn total_funds(&self) -> Amount {
        self.balances.iter().copied().sum()
    }

    /// Takes a spent part edge list from the pool, or a new empty one.
    pub(crate) fn edge_list(&mut self) -> Vec<EdgeId> {
        self.edge_pool.pop().unwrap_or_default()
    }

    /// Returns a part's edge list to the pool for the next reservation.
    pub(crate) fn recycle(&mut self, mut edges: Vec<EdgeId>) {
        edges.clear();
        self.edge_pool.push(edges);
    }

    /// Takes the spare parts list for a new payment's ledger.
    pub(crate) fn parts_list(&mut self) -> Vec<(Vec<EdgeId>, Amount)> {
        std::mem::take(&mut self.spare_parts)
    }

    /// Keeps a settled payment's emptied parts list for the next one.
    pub(crate) fn recycle_parts(&mut self, parts: Vec<(Vec<EdgeId>, Amount)>) {
        self.spare_parts = parts;
    }

    /// Returns `amount` to the forward direction of every edge, last
    /// edge first — the undo of a part's hop-by-hop escrow.
    fn restore(&mut self, edges: &[EdgeId], amount: Amount) {
        for &e in edges.iter().rev() {
            let b = &mut self.balances[e.index()];
            *b = b.saturating_add(amount);
        }
    }
}

/// The simulator is the reference [`PaymentNetwork`] backend: probes
/// and sessions act on the balance vector at once and are metered into
/// [`Metrics`].
impl PaymentNetwork for Network {
    type Session<'a> = NetworkSession<'a>;

    fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Probes a path: returns per-hop capacities and fees, charging one
    /// probe message per hop. Returns `None` if the path has a missing
    /// edge, or (under fault injection) when the probe is lost — the
    /// probe messages are still charged in that case.
    fn probe_path(&mut self, path: &Path) -> Option<ProbeReport> {
        self.metrics.probe_messages += path.hops() as u64;
        if self.faults.enabled() && self.faults.drops_probe(&mut self.fault_rng) {
            return None;
        }
        let mut channels = Vec::with_capacity(path.hops());
        for (u, v) in path.channels() {
            let e = self.graph.edge(u, v)?;
            let mut cap = self.balances[e.index()];
            if self.faults.enabled() {
                cap = Amount::from_micros(self.faults.distort(&mut self.fault_rng, cap.micros()));
            }
            let reverse = self.graph.reverse_edge(e).map(|rev| {
                let mut rcap = self.balances[rev.index()];
                if self.faults.enabled() {
                    rcap = Amount::from_micros(
                        self.faults.distort(&mut self.fault_rng, rcap.micros()),
                    );
                }
                (rev, rcap)
            });
            channels.push(ChannelInfo {
                edge: e,
                capacity: cap,
                fee: self.fees[e.index()],
                reverse,
            });
        }
        Some(ProbeReport { channels })
    }

    fn begin_payment(&mut self, payment: &Payment, class: PaymentClass) -> NetworkSession<'_> {
        let parts = self.parts_list();
        let ledger = PaymentLedger::open(&mut self.metrics, payment, class, parts);
        NetworkSession { net: self, ledger }
    }
}

/// An in-flight atomic multi-path payment (the AMP guarantee of §3.1 and
/// the two-phase commit of §5.1) on the in-memory simulator — the
/// [`Network`] backend's [`PaymentSession`] implementation.
///
/// A reserved part debits its hops at once, exactly like the
/// prototype's `COMMIT` messages decrement balances on the forward
/// pass. A commit then credits every reverse channel direction ("adding
/// the committed funds of this sub-payment to the channel in the
/// reverse direction, in order to make the bidirectional channel
/// balances consistent", §5.1 — the `CONFIRM_ACK` pass); dropping the
/// session un-escrows everything (the `REVERSE` pass), so a failed
/// payment leaves no trace in the balances. The bookkeeping is the
/// shared [`PaymentLedger`]; a part is the edge list it debited, drawn
/// from and returned to the network's pool, and the parts list is the
/// network's spare.
pub struct NetworkSession<'a> {
    net: &'a mut Network,
    ledger: PaymentLedger<Vec<EdgeId>>,
}

impl PaymentSession for NetworkSession<'_> {
    /// Reserves `amount` along `path`. On failure every hop debited by
    /// *this part* is restored and the failing hop index is reported
    /// (the router can then probe, as Flash's mice loop does).
    ///
    /// Commit messages are charged for every hop traversed, including
    /// the hops of a failed attempt (the prototype sends `COMMIT` until
    /// a node NACKs).
    fn try_send_part(
        &mut self,
        path: &Path,
        amount: Amount,
    ) -> std::result::Result<(), PartFailure> {
        if amount.is_zero() {
            return Ok(());
        }
        let net = &mut *self.net;
        let mut debited = net.edge_list();
        for (hop, (u, v)) in path.channels().enumerate() {
            net.metrics.commit_messages += 1;
            let (available, cause) = match net.graph.edge(u, v) {
                Some(e) if net.balances[e.index()] >= amount => {
                    let b = &mut net.balances[e.index()];
                    *b = b.saturating_sub(amount);
                    debited.push(e);
                    continue;
                }
                Some(e) => (net.balances[e.index()], FailureCause::InsufficientBalance),
                None => (Amount::ZERO, FailureCause::MissingChannel),
            };
            net.restore(&debited, amount);
            net.recycle(debited);
            return Err(PartFailure {
                failed_hop: hop,
                available,
                cause,
            });
        }
        let fee = debited.iter().fold(Amount::ZERO, |fee, e| {
            fee.saturating_add(net.fees[e.index()].fee(amount))
        });
        self.ledger.reserve(debited, amount, fee);
        Ok(())
    }

    /// Escrowed funds of already-reserved parts are invisible to the
    /// probe, as a concurrent prototype probe sees post-`COMMIT`
    /// balances.
    fn probe_path(&mut self, path: &Path) -> Option<ProbeReport> {
        self.net.probe_path(path)
    }

    fn reserved(&self) -> Amount {
        self.ledger.reserved()
    }

    fn remaining(&self) -> Amount {
        self.ledger.remaining()
    }

    fn commit(mut self) -> RouteOutcome {
        let (outcome, parts) = self.ledger.commit(&mut self.net.metrics);
        self.settle(parts, true);
        outcome
    }

    fn abort(self) {}
}

impl NetworkSession<'_> {
    /// Phase 2 at once: credits the reverse direction of every reserved
    /// hop (`commit`) or returns the escrow to the forward direction.
    /// The parts' edge lists return to the pool and the emptied parts
    /// list to the network.
    fn settle(&mut self, mut parts: Vec<(Vec<EdgeId>, Amount)>, commit: bool) {
        let net = &mut *self.net;
        for (edges, amount) in parts.drain(..) {
            if commit {
                for &e in &edges {
                    if let Some(rev) = net.graph.reverse_edge(e) {
                        let b = &mut net.balances[rev.index()];
                        *b = b.saturating_add(amount);
                    }
                }
            } else {
                net.restore(&edges, amount);
            }
            net.recycle(edges);
        }
        net.recycle_parts(parts);
    }
}

impl Drop for NetworkSession<'_> {
    fn drop(&mut self) {
        if !self.ledger.is_closed() {
            let parts = self.ledger.close();
            self.settle(parts, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FailureReason;
    use pcn_types::{NodeId, TxId};
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// A 4-node line with bidirectional channels of 10 units each way.
    fn line_net() -> Network {
        let mut g = DiGraph::new(4);
        g.add_channel(n(0), n(1)).unwrap();
        g.add_channel(n(1), n(2)).unwrap();
        g.add_channel(n(2), n(3)).unwrap();
        Network::uniform(g, Amount::from_units(10))
    }

    fn payment(amount: u64) -> Payment {
        Payment::new(TxId(1), n(0), n(3), Amount::from_units(amount))
    }

    fn path_0123() -> Path {
        Path::new(vec![n(0), n(1), n(2), n(3)], None).unwrap()
    }

    #[test]
    fn successful_payment_moves_balances_both_directions() {
        let mut net = line_net();
        let before = net.total_funds();
        let out = net.send_single_path(&payment(4), PaymentClass::Mice, &path_0123());
        assert!(out.is_success());
        let fwd = net.graph().edge(n(0), n(1)).unwrap();
        let rev = net.graph().edge(n(1), n(0)).unwrap();
        assert_eq!(net.balance(fwd), Amount::from_units(6));
        assert_eq!(net.balance(rev), Amount::from_units(14));
        assert_eq!(net.total_funds(), before);
    }

    #[test]
    fn failed_payment_leaves_no_trace() {
        let mut net = line_net();
        let before: Vec<Amount> = net
            .graph()
            .edges()
            .map(|(e, _, _)| net.balance(e))
            .collect();
        let out = net.send_single_path(&payment(11), PaymentClass::Mice, &path_0123());
        assert!(!out.is_success());
        let after: Vec<Amount> = net
            .graph()
            .edges()
            .map(|(e, _, _)| net.balance(e))
            .collect();
        assert_eq!(before, after);
        assert_eq!(net.metrics().total().attempted, 1);
        assert_eq!(net.metrics().total().succeeded, 0);
    }

    #[test]
    fn mid_path_failure_rolls_back_earlier_hops() {
        let mut net = line_net();
        // Drain the middle channel 1→2.
        let mid = net.graph().edge(n(1), n(2)).unwrap();
        net.set_balance(mid, Amount::from_units(2));
        let p = payment(5);
        let mut s = net.begin_payment(&p, PaymentClass::Mice);
        let err = s
            .try_send_part(&path_0123(), Amount::from_units(5))
            .unwrap_err();
        assert_eq!(err.failed_hop, 1);
        assert_eq!(err.available, Amount::from_units(2));
        s.abort();
        let first = net.graph().edge(n(0), n(1)).unwrap();
        assert_eq!(net.balance(first), Amount::from_units(10));
    }

    #[test]
    fn multipath_commit_is_atomic() {
        // Diamond: 0→1→3 and 0→2→3, capacity 10 each; demand 15 split 10+5.
        let mut g = DiGraph::new(4);
        g.add_channel(n(0), n(1)).unwrap();
        g.add_channel(n(1), n(3)).unwrap();
        g.add_channel(n(0), n(2)).unwrap();
        g.add_channel(n(2), n(3)).unwrap();
        let mut net = Network::uniform(g, Amount::from_units(10));
        let before = net.total_funds();
        let p = Payment::new(TxId(9), n(0), n(3), Amount::from_units(15));
        let p1 = Path::new(vec![n(0), n(1), n(3)], None).unwrap();
        let p2 = Path::new(vec![n(0), n(2), n(3)], None).unwrap();
        let mut s = net.begin_payment(&p, PaymentClass::Elephant);
        s.try_send_part(&p1, Amount::from_units(10)).unwrap();
        s.try_send_part(&p2, Amount::from_units(5)).unwrap();
        assert!(s.is_satisfied());
        let out = s.commit();
        assert_eq!(
            out,
            RouteOutcome::Success {
                volume: Amount::from_units(15),
                fees: Amount::ZERO,
                paths_used: 2
            }
        );
        assert_eq!(net.total_funds(), before);
    }

    #[test]
    fn dropping_session_auto_aborts() {
        let mut net = line_net();
        let before = net.total_funds();
        {
            let p = payment(5);
            let mut s = net.begin_payment(&p, PaymentClass::Mice);
            s.try_send_part(&path_0123(), Amount::from_units(5))
                .unwrap();
            // dropped without commit
        }
        assert_eq!(net.total_funds(), before);
        let e = net.graph().edge(n(0), n(1)).unwrap();
        assert_eq!(net.balance(e), Amount::from_units(10));
    }

    #[test]
    fn probe_reports_capacities_and_counts_messages() {
        let mut net = line_net();
        let report = net.probe_path(&path_0123()).unwrap();
        assert_eq!(report.channels.len(), 3);
        assert_eq!(report.bottleneck(), Amount::from_units(10));
        assert_eq!(net.metrics().probe_messages, 3);
        net.probe_path(&path_0123()).unwrap();
        assert_eq!(net.metrics().probe_messages, 6);
    }

    #[test]
    fn probe_sees_escrowed_funds_as_gone() {
        let mut net = line_net();
        let p = payment(4);
        let mut s = net.begin_payment(&p, PaymentClass::Mice);
        s.try_send_part(&path_0123(), Amount::from_units(4))
            .unwrap();
        // While escrowed, a probe inside the same borrow isn't possible
        // (session borrows net), so check after abort + re-reserve flow:
        s.abort();
        let report = net.probe_path(&path_0123()).unwrap();
        assert_eq!(report.bottleneck(), Amount::from_units(10));
    }

    #[test]
    fn probe_of_broken_path_is_none_but_charged() {
        let mut net = line_net();
        let bogus = Path::new(vec![n(0), n(2)], None).unwrap();
        assert!(net.probe_path(&bogus).is_none());
        assert_eq!(net.metrics().probe_messages, 1);
    }

    #[test]
    fn probe_drop_fault_loses_report() {
        let mut net = line_net();
        net.set_faults(FaultConfig {
            probe_drop_prob: 1.0,
            ..Default::default()
        });
        assert!(net.probe_path(&path_0123()).is_none());
        assert_eq!(net.metrics().probe_messages, 3);
    }

    #[test]
    fn fees_accrue_per_hop_and_per_part() {
        let mut net = line_net();
        // 1% on every edge.
        let ids: Vec<EdgeId> = net.graph().edges().map(|(e, _, _)| e).collect();
        for e in ids {
            net.set_fee_policy(e, FeePolicy::proportional(10_000));
        }
        let out = net.send_single_path(&payment(5), PaymentClass::Mice, &path_0123());
        match out {
            RouteOutcome::Success { fees, .. } => {
                // 3 hops × 1% of $5 = $0.15.
                assert_eq!(fees, Amount::from_units_f64(0.15));
            }
            _ => panic!("expected success"),
        }
        assert_eq!(net.metrics().fees_paid, Amount::from_units_f64(0.15));
    }

    #[test]
    fn unknown_edge_in_send_fails_cleanly() {
        let mut net = line_net();
        let p = payment(1);
        let bogus = Path::new(vec![n(0), n(2), n(3)], None).unwrap();
        let out = net.send_single_path(&p, PaymentClass::Mice, &bogus);
        assert_eq!(
            out,
            RouteOutcome::failure(FailureReason::InsufficientCapacity)
        );
        assert_eq!(net.total_funds(), Amount::from_units(60));
    }

    #[test]
    fn table_size_mismatch_rejected() {
        let mut g = DiGraph::new(2);
        g.add_channel(n(0), n(1)).unwrap();
        assert!(Network::new(g.clone(), vec![Amount::ZERO], vec![]).is_err());
        assert!(Network::new(g, vec![Amount::ZERO; 2], vec![FeePolicy::FREE; 3]).is_err());
    }

    proptest! {
        /// Conservation: any sequence of sends (some succeeding, some
        /// failing) on a channel graph preserves total funds.
        #[test]
        fn funds_conserved_over_random_sends(
            amounts in proptest::collection::vec(1u64..20, 1..40),
            seed in 0u64..1000,
        ) {
            let g = pcn_graph::generators::watts_strogatz(12, 4, 0.3, seed);
            let mut net = Network::uniform(g, Amount::from_units(10));
            let before = net.total_funds();
            let n_nodes = net.graph().node_count() as u32;
            for (i, a) in amounts.iter().enumerate() {
                let s = NodeId((i as u32 * 7 + seed as u32) % n_nodes);
                let t = NodeId((i as u32 * 13 + 1) % n_nodes);
                if s == t { continue; }
                let Some(path) = pcn_graph::bfs::shortest_path(net.graph(), s, t) else {
                    continue;
                };
                let p = Payment::new(TxId(i as u64), s, t, Amount::from_units(*a));
                let _ = net.send_single_path(&p, PaymentClass::Mice, &path);
                prop_assert_eq!(net.total_funds(), before);
            }
        }
    }
}
