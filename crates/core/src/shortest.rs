//! Shortest Path (SP) baseline.
//!
//! "SP uses the path with the fewest hops between the sender and receiver
//! to route a payment" (§4.1). It is a static scheme: no probing, a
//! single path, the full amount — the payment succeeds only if every
//! channel on the path holds the whole demand.

use pcn_graph::bfs::{PhaseScratch, SearchWork};
use pcn_sim::{FailureReason, PaymentNetwork, RouteOutcome, Router};
use pcn_types::{Payment, PaymentClass};

/// The fewest-hops single-path baseline router. Each payment is one
/// search on the router's [`PhaseScratch`], so routing allocates no
/// node-sized arrays after the first payment.
#[derive(Clone, Debug, Default)]
pub struct ShortestPathRouter {
    search: PhaseScratch,
}

impl ShortestPathRouter {
    /// Creates the baseline router.
    pub fn new() -> Self {
        Self::default()
    }

    /// The work of every search this router has made: one phase per
    /// payment routed, one path per payment that found a route.
    pub fn work(&self) -> SearchWork {
        self.search.work()
    }
}

impl<N: PaymentNetwork> Router<N> for ShortestPathRouter {
    fn name(&self) -> &'static str {
        "Shortest Path"
    }

    fn route(&mut self, net: &mut N, payment: &Payment, class: PaymentClass) -> RouteOutcome {
        self.search.begin(payment.sender, payment.receiver, &[]);
        let Some(path) = self.search.next_path(net.graph(), |_| true) else {
            // Record the attempt for fair success-ratio accounting.
            net.record_rejected_attempt(payment, class);
            return RouteOutcome::failure(FailureReason::NoRoute);
        };
        net.send_single_path(payment, class, &path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_graph::DiGraph;
    use pcn_sim::Network;
    use pcn_types::{Amount, NodeId, TxId};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn net() -> Network {
        let mut g = DiGraph::new(4);
        g.add_channel(n(0), n(1)).unwrap();
        g.add_channel(n(1), n(3)).unwrap();
        g.add_channel(n(0), n(2)).unwrap();
        g.add_channel(n(2), n(3)).unwrap();
        Network::uniform(g, Amount::from_units(10))
    }

    #[test]
    fn delivers_within_capacity() {
        let mut net = net();
        let p = Payment::new(TxId(1), n(0), n(3), Amount::from_units(10));
        let out = ShortestPathRouter::new().route(&mut net, &p, PaymentClass::Mice);
        assert!(out.is_success());
        assert_eq!(net.metrics().probe_messages, 0, "SP never probes");
    }

    #[test]
    fn fails_beyond_single_path_capacity() {
        let mut net = net();
        // 11 > 10: SP cannot split across the two disjoint routes.
        let p = Payment::new(TxId(2), n(0), n(3), Amount::from_units(11));
        let out = ShortestPathRouter::new().route(&mut net, &p, PaymentClass::Mice);
        assert!(!out.is_success());
    }

    #[test]
    fn no_route_recorded_as_attempt() {
        let mut g = DiGraph::new(3);
        g.add_channel(n(0), n(1)).unwrap();
        let mut net = Network::uniform(g, Amount::from_units(10));
        let p = Payment::new(TxId(3), n(0), n(2), Amount::from_units(1));
        let out = ShortestPathRouter::new().route(&mut net, &p, PaymentClass::Mice);
        assert_eq!(out, RouteOutcome::failure(FailureReason::NoRoute));
        assert_eq!(net.metrics().total().attempted, 1);
        assert_eq!(net.metrics().total().succeeded, 0);
    }
}
