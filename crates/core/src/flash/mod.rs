//! The Flash routing protocol (§3 of the paper).
//!
//! Flash is "a distributed online routing system that processes each
//! transaction as it arrives at the sender". It differentiates elephant
//! and mice payments:
//!
//! * **Elephants** ([`elephant`]): a modified Edmonds–Karp search
//!   (Algorithm 1) finds at most `k` BFS-shortest paths on the residual
//!   topology, probing channel balances lazily; [`fees`] then splits the
//!   demand across the discovered paths, minimizing total transaction
//!   fees with a linear program (program (1) of §3.2).
//! * **Mice** ([`mice`]): a per-receiver routing table caches the top-`m`
//!   Yen shortest paths; a random trial-and-error loop sends the full
//!   remaining amount on each path, probing a path only after it fails.

pub mod elephant;
pub mod fees;
pub mod mice;
mod reprobe;

use pcn_sim::{FailureReason, PaymentNetwork, PaymentSession, RouteOutcome, Router};
use pcn_types::{Amount, Payment, PaymentClass};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reprobe::StalenessTracker;

/// Configuration for [`FlashRouter`].
#[derive(Clone, Debug)]
pub struct FlashConfig {
    /// Maximum number of paths probed for an elephant payment
    /// ("setting k between 20 to 30 provides good performance"; the
    /// evaluation uses 20).
    pub max_elephant_paths: usize,
    /// Paths cached per receiver for mice payments (`m = 4` in the
    /// evaluation).
    pub mice_paths_per_receiver: usize,
    /// The elephant/mice boundary the caller classified with
    /// ([`crate::classify::threshold_for_mice_fraction`]). Not read by
    /// the router — the class arrives as `route`'s argument; the field
    /// stays because flashbench's struct literal names it.
    pub elephant_threshold: Amount,
    /// Whether to run the fee-minimizing LP for elephants (Figure 9's
    /// ablation disables this, falling back to sequential path filling
    /// in discovery order).
    pub optimize_fees: bool,
    /// RNG seed for the random path order in mice trial-and-error.
    pub seed: u64,
}

impl Default for FlashConfig {
    fn default() -> Self {
        FlashConfig {
            max_elephant_paths: 20,
            mice_paths_per_receiver: 4,
            elephant_threshold: Amount::MAX,
            optimize_fees: true,
            seed: 0,
        }
    }
}

/// The Flash router.
pub struct FlashRouter {
    config: FlashConfig,
    table: mice::RoutingTable,
    rng: StdRng,
    clock: u64,
    staleness: StalenessTracker,
    /// Algorithm 1's working arrays, sized by the first elephant and
    /// reused by every one after it.
    scratch: elephant::ElephantScratch,
    /// The fee split's edge book and LP tableau, reused the same way.
    split: fees::SplitScratch,
    /// A mice payment's random path order and the indices of the paths
    /// it found dead, kept between payments.
    order: Vec<usize>,
    dead_paths: Vec<usize>,
}

impl FlashRouter {
    /// Creates a Flash router from a configuration.
    pub fn new(config: FlashConfig) -> Self {
        let table = mice::RoutingTable::new(config.mice_paths_per_receiver, mice::TABLE_TTL);
        let rng = StdRng::seed_from_u64(config.seed);
        FlashRouter {
            config,
            table,
            rng,
            clock: 0,
            staleness: StalenessTracker::default(),
            scratch: elephant::ElephantScratch::default(),
            split: fees::SplitScratch::default(),
            order: Vec::new(),
            dead_paths: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FlashConfig {
        &self.config
    }

    /// Number of (sender, receiver) entries currently cached in the mice
    /// routing table.
    pub fn routing_table_len(&self) -> usize {
        self.table.len()
    }

    /// "The routing table is periodically refreshed when the local
    /// network topology G is updated ... all entries are re-computed
    /// using the latest G" (§3.3). Called when the staleness tracker
    /// trips.
    fn refresh_table(&mut self) {
        self.table.refresh();
    }

    /// Routes a payment with the elephant algorithm: Algorithm 1 + the
    /// fee-minimizing split. `class` is normally `Elephant`, but the
    /// Figure 11 `m = 0` configuration routes mice this way too (the
    /// paper's "performance upperbound" baseline) — metrics then still
    /// attribute the payment to the mice class.
    fn route_elephant<N: PaymentNetwork>(
        &mut self,
        net: &mut N,
        payment: &Payment,
        class: PaymentClass,
    ) -> RouteOutcome {
        let plan = elephant::find_paths_with(
            net,
            &mut self.scratch,
            payment.sender,
            payment.receiver,
            payment.amount,
            self.config.max_elephant_paths,
        );
        if plan.paths.is_empty() {
            net.record_rejected_attempt(payment, class);
            return RouteOutcome::failure(FailureReason::NoRoute);
        }
        if plan.max_flow < payment.amount {
            // Algorithm 1 line 28: demand unsatisfiable over ≤ k paths.
            net.record_rejected_attempt(payment, class);
            return RouteOutcome::failure(FailureReason::InsufficientCapacity);
        }
        let Some(parts) = fees::split_payment_with(
            net.graph(),
            &mut self.split,
            &plan,
            payment.amount,
            self.config.optimize_fees,
        ) else {
            net.record_rejected_attempt(payment, class);
            return RouteOutcome::failure(FailureReason::InsufficientCapacity);
        };
        let mut session = net.begin_payment(payment, class);
        if let Err(e) = session.try_send_parts(&parts) {
            self.staleness.record_failure(payment.receiver, e.cause);
            session.abort();
            return RouteOutcome::failure(FailureReason::InsufficientCapacity);
        }
        if !session.is_satisfied() {
            session.abort();
            return RouteOutcome::failure(FailureReason::InsufficientCapacity);
        }
        session.commit()
    }

    /// Routes a mice payment via the routing table + trial-and-error.
    fn route_mice<N: PaymentNetwork>(&mut self, net: &mut N, payment: &Payment) -> RouteOutcome {
        self.clock += 1;
        self.table.evict_stale(self.clock);
        let paths =
            self.table
                .lookup_or_compute(net.graph(), payment.sender, payment.receiver, self.clock);
        if paths.is_empty() {
            net.record_rejected_attempt(payment, PaymentClass::Mice);
            return RouteOutcome::failure(FailureReason::NoRoute);
        }
        // Random path order: "Instead of following a fixed order ...
        // Flash randomly picks the paths to better load balance them".
        self.order.clear();
        self.order.extend(0..paths.len());
        shuffle(&mut self.order, &mut self.rng);

        self.dead_paths.clear();
        let mut session = net.begin_payment(payment, PaymentClass::Mice);
        for &idx in &self.order {
            if session.is_satisfied() {
                break;
            }
            let path = &paths[idx];
            let remaining = session.remaining();
            // First try the full remaining amount — no probe needed when
            // it goes through ("it only probes a path when it cannot
            // deliver the payment in full").
            match session.try_send_part(path, remaining) {
                Ok(()) => break,
                Err(e) => self.staleness.record_failure(payment.receiver, e.cause),
            }
            // Probe to learn the effective capacity, then send that much.
            let Some(report) = session.probe_path(path) else {
                // Probe lost: fault injection or a stale hop (closed
                // channel / crashed node) bounced it.
                self.staleness.record_probe_loss(payment.receiver);
                continue;
            };
            let cp = report.bottleneck().min(session.remaining());
            if cp.is_zero() {
                self.dead_paths.push(idx);
                continue;
            }
            if let Err(e) = session.try_send_part(path, cp) {
                // Probe raced a fault distortion; skip the path.
                self.staleness.record_failure(payment.receiver, e.cause);
                continue;
            }
        }
        let outcome = if session.is_satisfied() {
            session.commit()
        } else {
            session.abort();
            RouteOutcome::failure(FailureReason::InsufficientCapacity)
        };
        // Replace zero-capacity paths with the next top shortest path.
        // Highest index first: when Yen is exhausted `replace_path`
        // *removes* the dead path, which would shift any smaller index
        // still waiting in the list onto a live path.
        self.dead_paths.sort_unstable_by(|a, b| b.cmp(a));
        for &idx in &self.dead_paths {
            self.table
                .replace_path(net.graph(), payment.sender, payment.receiver, idx);
        }
        outcome
    }
}

/// A full Fisher–Yates shuffle of `xs` on the router's own RNG: from
/// the last index down to 1, each swaps with a uniform index at or
/// below it, so the permutation is fixed by the RNG's state.
fn shuffle(xs: &mut [usize], rng: &mut StdRng) {
    use rand::RngExt;
    for i in (1..xs.len()).rev() {
        let j = rng.random_range(0..=i);
        xs.swap(i, j);
    }
}

impl<N: PaymentNetwork> Router<N> for FlashRouter {
    fn name(&self) -> &'static str {
        "Flash"
    }

    fn route(&mut self, net: &mut N, payment: &Payment, class: PaymentClass) -> RouteOutcome {
        // Stale-state detection: once this destination has accumulated
        // enough stale errors / lost probes, refresh the routing table
        // from the latest topology instead of retrying dead paths.
        if self
            .staleness
            .should_reprobe(payment.receiver, net.graph().edge_count())
        {
            net.note_reprobe();
            self.refresh_table();
        }
        match class {
            PaymentClass::Elephant => self.route_elephant(net, payment, class),
            // The m = 0 configuration routes mice with the elephant
            // machinery (Figure 11's upper-bound baseline).
            PaymentClass::Mice if self.config.mice_paths_per_receiver == 0 => {
                self.route_elephant(net, payment, class)
            }
            PaymentClass::Mice => self.route_mice(net, payment),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_graph::DiGraph;
    use pcn_sim::Network;
    use pcn_types::{NodeId, TxId};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Diamond with two 2-hop routes of 10 each.
    fn diamond_net() -> Network {
        let mut g = DiGraph::new(4);
        g.add_channel(n(0), n(1)).unwrap();
        g.add_channel(n(1), n(3)).unwrap();
        g.add_channel(n(0), n(2)).unwrap();
        g.add_channel(n(2), n(3)).unwrap();
        Network::uniform(g, Amount::from_units(10))
    }

    fn flash() -> FlashRouter {
        FlashRouter::new(FlashConfig {
            elephant_threshold: Amount::from_units(5),
            ..Default::default()
        })
    }

    #[test]
    fn elephant_splits_across_paths() {
        let mut net = diamond_net();
        let p = Payment::new(TxId(1), n(0), n(3), Amount::from_units(15));
        let out = flash().route(&mut net, &p, PaymentClass::Elephant);
        let RouteOutcome::Success { paths_used, .. } = out else {
            panic!("15 needs both 10-unit routes: {out:?}");
        };
        assert!(paths_used >= 2);
    }

    #[test]
    fn elephant_fails_beyond_max_flow() {
        let mut net = diamond_net();
        let before = net.total_funds();
        let p = Payment::new(TxId(1), n(0), n(3), Amount::from_units(21));
        let out = flash().route(&mut net, &p, PaymentClass::Elephant);
        assert_eq!(
            out,
            RouteOutcome::failure(FailureReason::InsufficientCapacity)
        );
        assert_eq!(net.total_funds(), before);
    }

    #[test]
    fn mice_first_attempt_needs_no_probe() {
        let mut net = diamond_net();
        let p = Payment::new(TxId(1), n(0), n(3), Amount::from_units(2));
        let mut r = flash();
        let out = r.route(&mut net, &p, PaymentClass::Mice);
        assert!(out.is_success());
        assert_eq!(
            net.metrics().probe_messages,
            0,
            "small mice payment must go through without probing"
        );
    }

    #[test]
    fn mice_trial_and_error_splits_when_needed() {
        let mut net = diamond_net();
        // 14 > any single 10-unit path: first attempt fails, probe, send
        // 10, second path carries 4.
        let p = Payment::new(TxId(1), n(0), n(3), Amount::from_units(14));
        let mut r = flash();
        let out = r.route(&mut net, &p, PaymentClass::Mice);
        assert!(out.is_success(), "{out:?}");
        assert!(net.metrics().probe_messages > 0);
    }

    #[test]
    fn mice_failure_is_atomic() {
        let mut net = diamond_net();
        let before = net.total_funds();
        let p = Payment::new(TxId(1), n(0), n(3), Amount::from_units(30));
        let out = flash().route(&mut net, &p, PaymentClass::Mice);
        assert!(!out.is_success());
        assert_eq!(net.total_funds(), before);
    }

    #[test]
    fn routing_table_caches_receivers() {
        let mut net = diamond_net();
        let mut r = flash();
        let p1 = Payment::new(TxId(1), n(0), n(3), Amount::from_units(1));
        r.route(&mut net, &p1, PaymentClass::Mice);
        assert_eq!(r.routing_table_len(), 1);
        let p2 = Payment::new(TxId(2), n(0), n(3), Amount::from_units(1));
        r.route(&mut net, &p2, PaymentClass::Mice);
        assert_eq!(r.routing_table_len(), 1, "recurring receiver reuses entry");
        let p3 = Payment::new(TxId(3), n(1), n(2), Amount::from_units(1));
        r.route(&mut net, &p3, PaymentClass::Mice);
        assert_eq!(r.routing_table_len(), 2);
    }

    #[test]
    fn topology_refresh_clears_table() {
        let mut net = diamond_net();
        let mut r = flash();
        let p = Payment::new(TxId(1), n(0), n(3), Amount::from_units(1));
        r.route(&mut net, &p, PaymentClass::Mice);
        assert_eq!(r.routing_table_len(), 1);
        r.refresh_table();
        assert_eq!(r.routing_table_len(), 0);
    }

    #[test]
    fn no_route_failure() {
        let mut g = DiGraph::new(3);
        g.add_channel(n(0), n(1)).unwrap();
        let mut net = Network::uniform(g, Amount::from_units(10));
        let mut r = flash();
        let p = Payment::new(TxId(1), n(0), n(2), Amount::from_units(1));
        assert_eq!(
            r.route(&mut net, &p, PaymentClass::Mice),
            RouteOutcome::failure(FailureReason::NoRoute)
        );
        let p = Payment::new(TxId(2), n(0), n(2), Amount::from_units(100));
        assert_eq!(
            r.route(&mut net, &p, PaymentClass::Elephant),
            RouteOutcome::failure(FailureReason::NoRoute)
        );
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed: u64| {
            let mut net = diamond_net();
            let mut r = FlashRouter::new(FlashConfig {
                elephant_threshold: Amount::from_units(5),
                seed,
                ..Default::default()
            });
            let mut outs = Vec::new();
            for i in 0..10 {
                let p = Payment::new(
                    TxId(i),
                    n((i % 4) as u32),
                    n(((i + 2) % 4) as u32),
                    Amount::from_units(3 + i % 5),
                );
                if p.sender != p.receiver {
                    outs.push(r.route(&mut net, &p, PaymentClass::Mice));
                }
            }
            outs
        };
        assert_eq!(run(7), run(7));
    }

    /// Routes `payments` (each on the network its index names) twice:
    /// through one router for all of them, and through a fresh router
    /// per payment on copies of the networks. Outcomes and final
    /// balances must agree: what the scratch held before is invisible.
    fn assert_scratch_is_invisible(nets: &[Network], payments: &[(usize, u32, u32, u64)]) {
        let mut shared = flash();
        let mut ours = nets.to_vec();
        let mut theirs = nets.to_vec();
        for (i, &(net, s, t, units)) in payments.iter().enumerate() {
            let p = Payment::new(TxId(i as u64), n(s), n(t), Amount::from_units(units));
            let got = shared.route(&mut ours[net], &p, PaymentClass::Elephant);
            let want = flash().route(&mut theirs[net], &p, PaymentClass::Elephant);
            assert_eq!(got, want, "payment {i}");
        }
        for (a, b) in ours.iter().zip(&theirs) {
            for (e, _, _) in a.graph().edges() {
                assert_eq!(a.balance(e), b.balance(e), "{e:?}");
            }
            assert_eq!(a.metrics().probe_messages, b.metrics().probe_messages);
        }
    }

    /// Elephants that need several probes each, on `ring` (24 nodes).
    const RING_PAYMENTS: [(u32, u32, u64); 6] = [
        (0, 12, 150),
        (3, 17, 260),
        (12, 0, 90),
        (5, 20, 300),
        (17, 3, 40),
        (0, 12, 500),
    ];

    fn ring() -> Network {
        let g = pcn_graph::generators::watts_strogatz(24, 4, 0.3, 7);
        Network::uniform(g, Amount::from_units(100))
    }

    #[test]
    fn one_router_serves_networks_of_different_size() {
        let payments: Vec<_> = RING_PAYMENTS
            .iter()
            .flat_map(|&(s, t, units)| [(0, s, t, units), (1, 0, 3, 15), (1, 3, 0, 25)])
            .collect();
        assert_scratch_is_invisible(&[ring(), diamond_net()], &payments);
    }
}
