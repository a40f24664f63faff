//! [`PaymentNetwork`] over the TCP prototype: the [`Cluster`] backend.
//!
//! This is the bridge that lets every `flash-core` router run on the §5
//! testbed unchanged. Each trait operation maps onto the wire protocol:
//!
//! | trait call                         | wire exchange                        |
//! |------------------------------------|--------------------------------------|
//! | [`PaymentNetwork::probe_path`]     | `PROBE` → `PROBE_ACK`                |
//! | [`PaymentSession::try_send_part`]  | `COMMIT` → `COMMIT_ACK`/`_NACK`      |
//! | [`PaymentSession::commit`]         | `CONFIRM` → `CONFIRM_ACK` (all parts)|
//! | [`PaymentSession::abort`] / drop   | `REVERSE` → `REVERSE_ACK` (all parts)|
//!
//! The prototype's concurrency is preserved without spawning a single
//! thread: batched phase-1 commits ([`PaymentSession::try_send_parts`])
//! and every phase-2 wave are injected into the cluster's event loop
//! *together* ([`Cluster::commit_many`], [`Cluster::settle_many`]),
//! exactly as the paper's sender "prepares a COMMIT message for each of
//! the sub-payment and sends them out" before collecting replies.
//! Multi-path probing ([`PaymentNetwork::probe_paths`]) batches the
//! same way ([`Cluster::probe_many`]).
//!
//! Two wire-format limitations make the testbed's probe reports a strict
//! subset of the simulator's: `PROBE_ACK` carries no reverse-direction
//! balances (routers see [`ChannelInfo::reverse`]` = None` and treat the
//! reverse direction as unprobed) and no fee field — fees come from the
//! cluster's sender-side fee table instead
//! ([`Cluster::set_fee_policies`]).

use crate::cluster::Cluster;
use pcn_graph::{DiGraph, Path};
use pcn_sim::{
    ChannelInfo, FailureCause, PartFailure, PaymentNetwork, PaymentSession, ProbeReport,
    RouteOutcome,
};
use pcn_types::{Amount, Payment, PaymentClass};

impl Cluster {
    /// Assembles the backend-agnostic [`ProbeReport`] from raw probed
    /// capacities (shared by the single and batched probe entry points).
    fn assemble_report(&self, path: &Path, caps: Vec<u64>) -> Option<ProbeReport> {
        let mut channels = Vec::with_capacity(caps.len());
        for ((u, v), cap) in path.channels().zip(caps) {
            let edge = self.graph().edge(u, v)?;
            channels.push(ChannelInfo {
                edge,
                capacity: Amount::from_micros(cap),
                fee: self.fee_policy(edge),
                // The wire PROBE_ACK does not carry reverse balances.
                reverse: None,
            });
        }
        Some(ProbeReport { channels })
    }

    /// Probes `path` under a fresh transaction id and assembles the
    /// [`ProbeReport`].
    fn probe_report(&mut self, path: &Path) -> Option<ProbeReport> {
        let id = self.fresh_trans_id();
        let caps = self.probe(id, path)?;
        self.assemble_report(path, caps)
    }
}

impl PaymentNetwork for Cluster {
    type Session<'a> = ClusterSession<'a>;

    fn graph(&self) -> &DiGraph {
        Cluster::graph(self)
    }

    fn probe_path(&mut self, path: &Path) -> Option<ProbeReport> {
        self.probe_report(path)
    }

    fn probe_paths(&mut self, paths: &[Path]) -> Vec<Option<ProbeReport>> {
        // Batched probing: every PROBE is in flight on the event loop
        // together, as the prototype's Spider sender issues all its
        // path probes at once.
        let items: Vec<(u64, &Path)> = paths.iter().map(|p| (self.fresh_trans_id(), p)).collect();
        self.probe_many(&items)
            .into_iter()
            .zip(paths)
            .map(|(caps, path)| self.assemble_report(path, caps?))
            .collect()
    }

    fn begin_payment(&mut self, payment: &Payment, class: PaymentClass) -> ClusterSession<'_> {
        // The attempt is recorded here, as the simulator records it;
        // opening a session sends nothing yet.
        self.payments.record_attempt(class, payment.amount);
        ClusterSession {
            cluster: self,
            demand: payment.amount,
            class,
            parts: Vec::new(),
            fees_accrued: Amount::ZERO,
            closed: false,
        }
    }
}

/// An escrowed sub-payment: its wire transaction id, path, and amount.
struct ClusterPart {
    trans_id: u64,
    path: Path,
    amount: Amount,
}

/// An in-flight atomic multi-path payment on the testbed — the
/// [`Cluster`] backend's [`PaymentSession`], realized as the two-phase
/// commit of §5.1 over real TCP frames.
///
/// Phase 1 ([`PaymentSession::try_send_part`]) escrows hop balances via
/// `COMMIT`; a `COMMIT_NACK` has already rolled back every hop the part
/// escrowed, so a failed part needs no client-side cleanup. Phase 2
/// settles all parts at once: [`PaymentSession::commit`] confirms them
/// concurrently, [`PaymentSession::abort`] (or dropping the session)
/// reverses them concurrently.
pub struct ClusterSession<'a> {
    cluster: &'a mut Cluster,
    demand: Amount,
    class: PaymentClass,
    parts: Vec<ClusterPart>,
    fees_accrued: Amount,
    closed: bool,
}

impl ClusterSession<'_> {
    /// Books a part whose phase-1 commit ACKed: accrues sender-side fees
    /// (the wire carries no fee field; see [`Cluster::set_fee_policies`])
    /// and escrows it for phase 2. The single bookkeeping site for both
    /// single-part and batched sends.
    fn record_reserved(&mut self, trans_id: u64, path: &Path, amount: Amount) {
        for (u, v) in path.channels() {
            if let Some(e) = self.cluster.graph().edge(u, v) {
                self.fees_accrued = self
                    .fees_accrued
                    .saturating_add(self.cluster.fee_policy(e).fee(amount));
            }
        }
        self.parts.push(ClusterPart {
            trans_id,
            path: path.clone(),
            amount,
        });
    }

    /// Phase 2 for every reserved part: one settlement wave, all parts
    /// in flight on the event loop together.
    fn settle_all(&mut self, confirm: bool) {
        let parts = std::mem::take(&mut self.parts);
        let batch: Vec<(u64, &Path, Amount)> = parts
            .iter()
            .map(|p| (p.trans_id, &p.path, p.amount))
            .collect();
        self.cluster.settle_many(&batch, confirm);
        self.closed = true;
    }
}

impl PaymentSession for ClusterSession<'_> {
    fn try_send_part(&mut self, path: &Path, amount: Amount) -> Result<(), PartFailure> {
        assert!(!self.closed, "session already closed");
        if amount.is_zero() {
            return Ok(());
        }
        let trans_id = self.cluster.fresh_trans_id();
        match self.cluster.commit_part_located(trans_id, path, amount) {
            Ok(()) => {
                self.record_reserved(trans_id, path, amount);
                Ok(())
            }
            Err(failed_hop) => Err(PartFailure {
                failed_hop,
                // The COMMIT_NACK carries no balance field and no
                // failure-cause code.
                available: Amount::ZERO,
                cause: FailureCause::Unreported,
            }),
        }
    }

    fn try_send_parts(&mut self, parts: &[(Path, Amount)]) -> Result<(), PartFailure> {
        assert!(!self.closed, "session already closed");
        // Batched phase 1: all COMMITs go out before any reply is
        // awaited, as in the paper's prototype. Individually NACKed
        // parts have already been rolled back on the wire; parts that
        // ACKed stay escrowed for phase 2 (commit or abort).
        let live: Vec<(u64, &Path, Amount)> = parts
            .iter()
            .filter(|(_, a)| !a.is_zero())
            .map(|(p, a)| (self.cluster.fresh_trans_id(), p, *a))
            .collect();
        let results = self.cluster.commit_many(&live);
        let mut first_failure = None;
        for ((trans_id, path, amount), result) in live.into_iter().zip(results) {
            match result {
                Ok(()) => self.record_reserved(trans_id, path, amount),
                Err(failed_hop) => {
                    if first_failure.is_none() {
                        first_failure = Some(PartFailure {
                            failed_hop,
                            available: Amount::ZERO,
                            cause: FailureCause::Unreported,
                        });
                    }
                }
            }
        }
        match first_failure {
            None => Ok(()),
            Some(f) => Err(f),
        }
    }

    fn probe_path(&mut self, path: &Path) -> Option<ProbeReport> {
        // Probes mid-session see post-COMMIT balances, the same view a
        // concurrent sender would get — matching simulator semantics.
        self.cluster.probe_report(path)
    }

    fn reserved(&self) -> Amount {
        self.parts.iter().map(|p| p.amount).sum()
    }

    fn remaining(&self) -> Amount {
        self.demand.saturating_sub(self.reserved())
    }

    fn commit(mut self) -> RouteOutcome {
        assert!(
            self.is_satisfied(),
            "commit called with unsatisfied demand (reserved {} of {})",
            self.reserved(),
            self.demand
        );
        let paths_used = self.parts.len() as u32;
        let fees = self.fees_accrued;
        self.settle_all(true);
        self.cluster
            .payments
            .record_success(self.class, self.demand, fees, u64::from(paths_used));
        RouteOutcome::Success {
            volume: self.demand,
            fees,
            paths_used,
        }
    }

    fn abort(mut self) {
        self.settle_all(false);
    }
}

impl Drop for ClusterSession<'_> {
    fn drop(&mut self) {
        if !self.closed {
            self.settle_all(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_types::{FeePolicy, NodeId, TxId};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Diamond: two 2-hop bidirectional routes 0 → 3 of 10 units each.
    fn diamond_cluster() -> Cluster {
        let mut g = pcn_graph::DiGraph::new(4);
        g.add_channel(n(0), n(1)).unwrap();
        g.add_channel(n(1), n(3)).unwrap();
        g.add_channel(n(0), n(2)).unwrap();
        g.add_channel(n(2), n(3)).unwrap();
        let balances = vec![Amount::from_units(10); g.edge_count()];
        Cluster::launch(g, &balances).unwrap()
    }

    fn pay(amount: u64) -> Payment {
        Payment::new(TxId(1), n(0), n(3), Amount::from_units(amount))
    }

    fn path_013(c: &Cluster) -> Path {
        Path::new(vec![n(0), n(1), n(3)], Some(Cluster::graph(c))).unwrap()
    }

    #[test]
    fn probe_path_builds_channel_infos() {
        let mut cluster = diamond_cluster();
        let path = path_013(&cluster);
        let report = PaymentNetwork::probe_path(&mut cluster, &path).unwrap();
        assert_eq!(report.channels.len(), 2);
        assert_eq!(report.bottleneck(), Amount::from_units(10));
        assert!(report.channels.iter().all(|c| c.reverse.is_none()));
        assert!(report.channels.iter().all(|c| c.fee == FeePolicy::FREE));
    }

    #[test]
    fn session_commit_settles_and_reports_outcome() {
        let mut cluster = diamond_cluster();
        let before = cluster.total_funds();
        let path = path_013(&cluster);
        let p = pay(4);
        let mut s = cluster.begin_payment(&p, PaymentClass::Mice);
        s.try_send_part(&path, Amount::from_units(4)).unwrap();
        assert!(s.is_satisfied());
        let out = s.commit();
        assert_eq!(
            out,
            RouteOutcome::Success {
                volume: Amount::from_units(4),
                fees: Amount::ZERO,
                paths_used: 1
            }
        );
        assert_eq!(cluster.total_funds(), before);
        // Forward direction decreased, reverse credited.
        let report = PaymentNetwork::probe_path(&mut cluster, &path).unwrap();
        assert_eq!(report.bottleneck(), Amount::from_units(6));
    }

    #[test]
    fn sessions_record_attempts_and_successes_like_the_simulator() {
        let mut cluster = diamond_cluster();
        let path = path_013(&cluster);
        let mut s = cluster.begin_payment(&pay(4), PaymentClass::Mice);
        s.try_send_part(&path, Amount::from_units(4)).unwrap();
        let _ = s.commit();
        cluster.record_rejected_attempt(&pay(50), PaymentClass::Elephant);
        let m = cluster.metrics();
        assert_eq!((m.mice.attempted, m.mice.succeeded), (1, 1));
        assert_eq!(m.mice.success_volume, Amount::from_units(4));
        assert_eq!((m.elephant.attempted, m.elephant.succeeded), (1, 0));
        assert_eq!(m.elephant.attempted_volume, Amount::from_units(50));
        assert_eq!(m.paths_used, 1);
        // Message counts are the nodes': the sender, the relay and the
        // receiver each serviced the one COMMIT.
        assert_eq!(m.commit_messages, 3);
        assert_eq!(m.probe_messages, 0);
    }

    #[test]
    fn dropping_session_reverses_escrow() {
        let mut cluster = diamond_cluster();
        let path = path_013(&cluster);
        {
            let p = pay(5);
            let mut s = cluster.begin_payment(&p, PaymentClass::Mice);
            s.try_send_part(&path, Amount::from_units(5)).unwrap();
            // dropped without commit
        }
        let report = PaymentNetwork::probe_path(&mut cluster, &path).unwrap();
        assert_eq!(report.bottleneck(), Amount::from_units(10));
    }

    #[test]
    fn failed_part_reports_hop_and_leaves_no_escrow() {
        let mut cluster = diamond_cluster();
        let path = path_013(&cluster);
        let p = pay(11);
        let mut s = cluster.begin_payment(&p, PaymentClass::Mice);
        let err = s.try_send_part(&path, Amount::from_units(11)).unwrap_err();
        assert_eq!(err.failed_hop, 0);
        assert_eq!(s.reserved(), Amount::ZERO);
        s.abort();
        let report = PaymentNetwork::probe_path(&mut cluster, &path).unwrap();
        assert_eq!(report.bottleneck(), Amount::from_units(10));
    }

    #[test]
    fn concurrent_batch_reserves_all_parts() {
        let mut cluster = diamond_cluster();
        let before = cluster.total_funds();
        let p1 = path_013(&cluster);
        let p2 = Path::new(vec![n(0), n(2), n(3)], Some(Cluster::graph(&cluster))).unwrap();
        let zero = path_013(&cluster);
        let p = Payment::new(TxId(9), n(0), n(3), Amount::from_units(15));
        let mut s = cluster.begin_payment(&p, PaymentClass::Elephant);
        s.try_send_parts(&[
            (p1, Amount::from_units(10)),
            (p2, Amount::from_units(5)),
            // Zero parts are skipped, as in the simulator.
            (zero, Amount::ZERO),
        ])
        .unwrap();
        assert!(s.is_satisfied());
        let out = s.commit();
        assert!(matches!(out, RouteOutcome::Success { paths_used: 2, .. }));
        assert_eq!(cluster.total_funds(), before);
    }

    #[test]
    fn concurrent_probing_matches_sequential() {
        let mut cluster = diamond_cluster();
        let paths = vec![
            path_013(&cluster),
            Path::new(vec![n(0), n(2), n(3)], Some(Cluster::graph(&cluster))).unwrap(),
        ];
        let reports = PaymentNetwork::probe_paths(&mut cluster, &paths);
        assert_eq!(reports.len(), 2);
        for r in reports {
            assert_eq!(r.unwrap().bottleneck(), Amount::from_units(10));
        }
    }

    #[test]
    #[should_panic(expected = "unsatisfied demand")]
    fn commit_with_shortfall_panics() {
        let mut cluster = diamond_cluster();
        let path = path_013(&cluster);
        let p = pay(8);
        let mut s = cluster.begin_payment(&p, PaymentClass::Mice);
        s.try_send_part(&path, Amount::from_units(3)).unwrap();
        let _ = s.commit();
    }
}
