//! The router abstraction every scheme implements.

use crate::{Network, PaymentNetwork, RouteOutcome};
use pcn_types::{Payment, PaymentClass};

/// A source-routing scheme, generic over the [`PaymentNetwork`] backend
/// it routes on.
///
/// The experiment harness classifies each payment against the configured
/// elephant threshold (the paper sets it so 90% of payments are mice) and
/// hands the payment to the router. Flash changes algorithm based on
/// `class`; the baselines ignore it (they "treat all payments equally
/// through the same routing mechanism", §2.2) but the class still flows
/// into the metrics so per-class breakdowns are comparable.
///
/// Routers interact with the network **only** through probing and
/// payment sessions — the [`PaymentNetwork`] trait exposes no balance
/// reads, so the probing-overhead comparison (Figure 8) is meaningful by
/// construction. A router implemented against the generic parameter runs
/// unmodified on the §4 simulator ([`Network`], the default) and on the
/// §5 TCP testbed (`pcn_proto::Cluster`); the five schemes in
/// `flash-core` are all written this way, which is how the testbed
/// figures drive the very same code the simulation figures measure.
pub trait Router<N: PaymentNetwork = Network> {
    /// Short scheme name for reports ("Flash", "Spider", ...).
    fn name(&self) -> &'static str;

    /// Routes one payment, driving probes and an atomic payment session
    /// on `net`. Must leave balances untouched when returning a failure.
    fn route(&mut self, net: &mut N, payment: &Payment, class: PaymentClass) -> RouteOutcome;
}
