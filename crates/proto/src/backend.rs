//! [`PaymentNetwork`] over the TCP prototype: the [`Cluster`] backend.
//!
//! This is the bridge that lets every `flash-core` router run on the §5
//! testbed unchanged. Each trait operation maps onto the wire protocol
//! through one of the cluster's three batch entry points:
//!
//! | trait call                                   | wire exchange                         | entry point              |
//! |----------------------------------------------|---------------------------------------|--------------------------|
//! | [`PaymentNetwork::probe_path`] / `_paths`    | `PROBE` → `PROBE_ACK`                 | [`Cluster::probe_many`]  |
//! | [`PaymentSession::try_send_part`] / `_parts` | `COMMIT` → `COMMIT_ACK` / `_NACK`     | [`Cluster::commit_many`] |
//! | [`PaymentSession::commit`]                   | `CONFIRM` → `CONFIRM_ACK` (all parts) | [`Cluster::settle_many`] |
//! | [`PaymentSession::abort`] / drop             | `REVERSE` → `REVERSE_ACK` (all parts) | [`Cluster::settle_many`] |
//!
//! The prototype's concurrency is kept without spawning a single
//! thread: every phase-2 wave and multi-path probing
//! ([`PaymentNetwork::probe_paths`]) are injected into the cluster's
//! event loop *together*. Phase-1 `COMMIT`s go out one part after
//! another (the default [`PaymentSession::try_send_parts`]), so each
//! part meets the balances it meets on the simulator and the DES: a
//! part still in flight would hold escrow that the one-after-another
//! order has already handed back.
//!
//! The session's bookkeeping — demand, reserved parts, fees, the
//! attempt and success in [`Cluster::metrics`] — is the shared
//! [`PaymentLedger`]; a part is its wire transaction id and path.
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
    ChannelInfo, FailureCause, PartFailure, PaymentLedger, PaymentNetwork, PaymentSession,
    ProbeReport, RouteOutcome,
};
use pcn_types::{Amount, Payment, PaymentClass};

impl Cluster {
    /// Assembles the backend-agnostic [`ProbeReport`] from raw probed
    /// capacities.
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
}

impl PaymentNetwork for Cluster {
    type Session<'a> = ClusterSession<'a>;

    fn graph(&self) -> &DiGraph {
        Cluster::graph(self)
    }

    fn probe_path(&mut self, path: &Path) -> Option<ProbeReport> {
        self.metrics.probe_messages += path.hops() as u64;
        let id = self.fresh_trans_id();
        let caps = self.probe_many(&[(id, path)]).pop().flatten()?;
        self.assemble_report(path, caps)
    }

    fn probe_paths(&mut self, paths: &[Path]) -> Vec<Option<ProbeReport>> {
        self.metrics.probe_messages += paths.iter().map(|p| p.hops() as u64).sum::<u64>();
        let items: Vec<(u64, &Path)> = paths.iter().map(|p| (self.fresh_trans_id(), p)).collect();
        self.probe_many(&items)
            .into_iter()
            .zip(paths)
            .map(|(caps, path)| self.assemble_report(path, caps?))
            .collect()
    }

    /// Opens a session; the attempt is recorded here, as the simulator
    /// records it, and nothing is sent yet.
    fn begin_payment(&mut self, payment: &Payment, class: PaymentClass) -> ClusterSession<'_> {
        let parts = std::mem::take(&mut self.spare_parts);
        let ledger = PaymentLedger::open(&mut self.metrics, payment, class, parts);
        ClusterSession {
            cluster: self,
            ledger,
        }
    }
}

/// An in-flight atomic multi-path payment on the testbed — the
/// [`Cluster`] backend's [`PaymentSession`], realized as the two-phase
/// commit of §5.1 over real TCP frames.
///
/// Phase 1 escrows hop balances via `COMMIT`; a `COMMIT_NACK` has
/// already rolled back every hop the part escrowed, so a failed part
/// needs no client-side cleanup. Phase 2 settles all parts at once:
/// [`PaymentSession::commit`] confirms them concurrently,
/// [`PaymentSession::abort`] (or dropping the session) reverses them
/// concurrently.
pub struct ClusterSession<'a> {
    cluster: &'a mut Cluster,
    ledger: PaymentLedger<(u64, Path)>,
}

impl ClusterSession<'_> {
    /// Phase 2 for `parts`: one settlement wave, all parts in flight on
    /// the event loop together. The parts list returns to the cluster,
    /// whose next ledger clears and reuses it.
    fn settle(&mut self, parts: Vec<((u64, Path), Amount)>, confirm: bool) {
        let batch: Vec<(u64, &Path, Amount)> = parts
            .iter()
            .map(|((trans_id, path), amount)| (*trans_id, path, *amount))
            .collect();
        self.cluster.settle_many(&batch, confirm);
        self.cluster.spare_parts = parts;
    }
}

impl PaymentSession for ClusterSession<'_> {
    /// Phase 1 for one part: a `COMMIT`, charged the hops it crossed.
    /// A part that ACKed is booked with its sender-side fees (see
    /// [`Cluster::set_fee_policies`]) and stays escrowed for phase 2;
    /// the wire has already rolled back a part that NACKed.
    fn try_send_part(&mut self, path: &Path, amount: Amount) -> Result<(), PartFailure> {
        if amount.is_zero() {
            return Ok(());
        }
        let trans_id = self.cluster.fresh_trans_id();
        let result = self
            .cluster
            .commit_many(&[(trans_id, path, amount)])
            .remove(0);
        let Err(failed_hop) = result else {
            self.cluster.metrics.commit_messages += path.hops() as u64;
            let fee = path
                .channels()
                .filter_map(|(u, v)| self.cluster.graph().edge(u, v))
                .fold(Amount::ZERO, |fee, e| {
                    fee.saturating_add(self.cluster.fee_policy(e).fee(amount))
                });
            self.ledger.reserve((trans_id, path.clone()), amount, fee);
            return Ok(());
        };
        self.cluster.metrics.commit_messages += failed_hop as u64 + 1;
        Err(PartFailure {
            failed_hop,
            // The COMMIT_NACK carries no balance field and no
            // failure-cause code.
            available: Amount::ZERO,
            cause: FailureCause::Unreported,
        })
    }

    /// Probes mid-session see post-COMMIT balances, the same view a
    /// concurrent sender would get — matching simulator semantics.
    fn probe_path(&mut self, path: &Path) -> Option<ProbeReport> {
        self.cluster.probe_path(path)
    }

    fn reserved(&self) -> Amount {
        self.ledger.reserved()
    }

    fn remaining(&self) -> Amount {
        self.ledger.remaining()
    }

    fn commit(mut self) -> RouteOutcome {
        let (outcome, parts) = self.ledger.commit(&mut self.cluster.metrics);
        self.settle(parts, true);
        outcome
    }

    fn abort(self) {}
}

impl Drop for ClusterSession<'_> {
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
        // One commit message per hop; three nodes serviced the COMMIT.
        assert_eq!(m.commit_messages, 2);
        assert_eq!(m.probe_messages, 0);
        assert_eq!(cluster.commit_messages(), 3);
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
}
