//! Spider baseline (Sivaraman et al., adapted as in the Flash paper).
//!
//! "The state-of-the-art offchain routing algorithm which considers the
//! dynamics of channel balance. It balances paths by using those with
//! maximum available capacity, following a 'waterfilling' heuristic. It
//! uses 4 edge-disjoint paths for each payment" (§4.1).
//!
//! For every payment Spider (re)computes the edge-disjoint shortest
//! paths, probes **all** of them (this is the probing overhead Figure 8
//! measures), waterfills the demand across them, and sends atomically.
//!
//! The paths come from the standard greedy construction: take a
//! fewest-hops path, remove its edges, and repeat, which yields pairwise
//! edge-disjoint paths in non-decreasing hop order. The paper's Figure
//! 5(b) shows why this can be suboptimal (which is Flash's motivation);
//! the unit tests reproduce that example. The searches are one
//! [`PhaseScratch`] sequence per payment, whose filter only ever loses
//! the edges of the paths already taken, so each path is the one the
//! forward loop finds on the graph left over.

use pcn_graph::bfs::{PhaseScratch, SearchWork};
use pcn_graph::{DiGraph, Path};
use pcn_sim::{FailureReason, PaymentNetwork, PaymentSession, RouteOutcome, Router};
use pcn_types::{Amount, NodeId, Payment, PaymentClass};

/// The Spider waterfilling router.
#[derive(Clone, Debug)]
pub struct SpiderRouter {
    /// Number of edge-disjoint paths per payment (4 in the paper).
    pub num_paths: usize,
    search: PhaseScratch,
    /// `taken[e] == stamp` iff edge `e` lies on a path the current
    /// payment already took.
    taken: Vec<u32>,
    stamp: u32,
}

impl Default for SpiderRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl SpiderRouter {
    /// Creates a Spider router with the paper's default of 4 paths.
    pub fn new() -> Self {
        Self::with_paths(4)
    }

    /// Creates a Spider router with a custom path count.
    pub fn with_paths(num_paths: usize) -> Self {
        SpiderRouter {
            num_paths,
            search: PhaseScratch::new(),
            taken: Vec::new(),
            stamp: 0,
        }
    }

    /// The work of every search this router has made: one sequence per
    /// payment, one path per edge-disjoint path found.
    pub fn work(&self) -> SearchWork {
        self.search.work()
    }

    /// Up to [`SpiderRouter::num_paths`] pairwise edge-disjoint
    /// fewest-hops paths `s → t`, greedily shortest-first: each is the
    /// fewest-hops path that avoids the edges of the ones before it.
    ///
    /// The paths of one payment are one phase-search sequence, so a
    /// path of the same length as the last reuses its phase. Opening a
    /// fresh phase per path returns the same paths. Over 2,000-payment
    /// traces (`Topo::build_network(…, 600)`, `build_trace(…, 2000,
    /// 671)`, four paths each) the shared phase scans fewer adjacency
    /// entries on three of the four evaluation graphs: 357,919 against
    /// 421,374 on the quick graph (Ripple and Lightning share it),
    /// 1,365,687 against 1,785,025 on paper Lightning, and 1,232,050
    /// against 1,154,563 on paper Ripple.
    pub fn edge_disjoint_paths(&mut self, g: &DiGraph, s: NodeId, t: NodeId) -> Vec<Path> {
        let SpiderRouter {
            num_paths,
            search,
            taken,
            stamp,
        } = self;
        if taken.len() != g.edge_count() {
            taken.clear();
            taken.resize(g.edge_count(), 0);
        }
        if *stamp == u32::MAX {
            taken.fill(0);
            *stamp = 0;
        }
        *stamp += 1;
        search.begin(s, t, &[]);
        let mut paths = Vec::new();
        while paths.len() < *num_paths {
            let Some(p) = search.next_path(g, |e| taken[e.index()] != *stamp) else {
                break;
            };
            for (u, v) in p.channels() {
                #[expect(clippy::expect_used, reason = "the path was just found on this graph")]
                let e = g.edge(u, v).expect("path edge must exist");
                taken[e.index()] = *stamp;
            }
            paths.push(p);
        }
        paths
    }
}

/// Waterfilling allocation: given per-path capacities, splits `demand`
/// so that the *residual* capacities are as equal as possible — flow is
/// poured into the paths with maximum available capacity first.
///
/// Returns `None` when the total capacity cannot cover the demand.
/// All arithmetic is exact (u128 intermediates).
pub fn waterfill(capacities: &[Amount], demand: Amount) -> Option<Vec<Amount>> {
    let total: u128 = capacities.iter().map(|c| c.micros() as u128).sum();
    let d = demand.micros() as u128;
    if total < d || capacities.is_empty() {
        return None;
    }
    if d == 0 {
        return Some(vec![Amount::ZERO; capacities.len()]);
    }
    // Sort indices by capacity descending.
    let mut idx: Vec<usize> = (0..capacities.len()).collect();
    idx.sort_by_key(|&i| std::cmp::Reverse(capacities[i].micros()));
    let caps: Vec<u128> = idx
        .iter()
        .map(|&i| capacities[i].micros() as u128)
        .collect();

    // Find the number of active paths j and water level L such that
    // Σ_{i<j} (c_i − L) = d with c_{j} ≤ L ≤ c_{j−1} (descending order).
    let mut prefix = 0u128;
    let mut j = caps.len();
    for k in 1..=caps.len() {
        prefix += caps[k - 1];
        let next = if k < caps.len() { caps[k] } else { 0 };
        // With k active paths, level L = (prefix − d) / k must be ≥ next
        // to be consistent (otherwise more paths activate).
        if prefix >= d && (prefix - d) / k as u128 >= next {
            j = k;
            break;
        }
    }
    let prefix: u128 = caps[..j].iter().sum();
    debug_assert!(prefix >= d);
    let level = (prefix - d) / j as u128;
    let mut rem = prefix - d - level * j as u128; // paths left one micro above level
    let mut alloc = vec![Amount::ZERO; capacities.len()];
    for (rank, &orig) in idx[..j].iter().enumerate() {
        let c = caps[rank];
        // Residual target: level (+1 for the first `rem` paths).
        let target = if rem > 0 {
            rem -= 1;
            level + 1
        } else {
            level
        };
        let x = c.saturating_sub(target);
        alloc[orig] = Amount::from_micros(u64::try_from(x).unwrap_or(u64::MAX));
    }
    debug_assert_eq!(alloc.iter().map(|a| a.micros() as u128).sum::<u128>(), d);
    Some(alloc)
}

impl<N: PaymentNetwork> Router<N> for SpiderRouter {
    fn name(&self) -> &'static str {
        "Spider"
    }

    fn route(&mut self, net: &mut N, payment: &Payment, class: PaymentClass) -> RouteOutcome {
        let paths = self.edge_disjoint_paths(net.graph(), payment.sender, payment.receiver);
        if paths.is_empty() {
            net.record_rejected_attempt(payment, class);
            return RouteOutcome::failure(FailureReason::NoRoute);
        }
        // Probe every path — Spider "treats mice and elephant flows the
        // same and always uses 4 shortest paths" (§4.2). `probe_paths`
        // lets message-passing backends probe them concurrently.
        let capacities: Vec<Amount> = net
            .probe_paths(&paths)
            .into_iter()
            .map(|report| report.map_or(Amount::ZERO, |r| r.bottleneck()))
            .collect();
        let Some(alloc) = waterfill(&capacities, payment.amount) else {
            net.record_rejected_attempt(payment, class);
            return RouteOutcome::failure(FailureReason::InsufficientCapacity);
        };
        let parts: Vec<(Path, Amount)> = paths.into_iter().zip(alloc).collect();
        let mut session = net.begin_payment(payment, class);
        if session.try_send_parts(&parts).is_err() {
            session.abort();
            return RouteOutcome::failure(FailureReason::InsufficientCapacity);
        }
        debug_assert!(session.is_satisfied());
        session.commit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_sim::Network;
    use pcn_types::TxId;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn units(v: &[u64]) -> Vec<Amount> {
        v.iter().map(|&x| Amount::from_units(x)).collect()
    }

    /// Figure 5(b) of the paper: the 1→2 link has abundant capacity
    /// (100); two *edge-disjoint* paths are 1-2-3-6 and 1-5-4-6 with
    /// total capacity 20 + 30 = 50, while two simple shortest paths
    /// through 1→2 (1-2-3-6 and 1-2-4-6) give 20 + 20 capped by
    /// 1→2 = 100, i.e. 40... the paper says 60 using caps 2→3 = 30,
    /// 2→4 = 30. Either way the *structural* claim tested here is that
    /// edge-disjoint paths avoid reusing 1→2.
    fn fig5b() -> DiGraph {
        let mut g = DiGraph::new(6);
        for (u, v) in [(1, 2), (1, 5), (2, 3), (2, 4), (3, 6), (4, 6), (5, 4)] {
            g.add_edge(n(u - 1), n(v - 1)).unwrap();
        }
        g
    }

    /// Spider's path set with `k` paths on `g`, from a fresh router.
    fn disjoint(g: &DiGraph, s: NodeId, t: NodeId, k: usize) -> Vec<Path> {
        SpiderRouter::with_paths(k).edge_disjoint_paths(g, s, t)
    }

    #[test]
    fn paths_are_edge_disjoint() {
        let g = fig5b();
        let ps = disjoint(&g, n(0), n(5), 3);
        assert!(ps.len() >= 2);
        let mut seen = BTreeSet::new();
        for p in &ps {
            for (u, v) in p.channels() {
                assert!(seen.insert((u, v)), "edge {u}→{v} reused");
            }
        }
    }

    #[test]
    fn second_path_avoids_first_paths_edges() {
        let g = fig5b();
        let ps = disjoint(&g, n(0), n(5), 2);
        assert_eq!(ps.len(), 2);
        // First is a 3-hop path through node 2; second cannot reuse 1→2
        // if the first used it.
        let first_uses_12 = ps[0].uses_channel(n(0), n(1));
        let second_uses_12 = ps[1].uses_channel(n(0), n(1));
        assert!(!(first_uses_12 && second_uses_12));
    }

    #[test]
    fn shortest_first_ordering() {
        let g = fig5b();
        let ps = disjoint(&g, n(0), n(5), 3);
        for w in ps.windows(2) {
            assert!(w[0].hops() <= w[1].hops());
        }
    }

    #[test]
    fn k_larger_than_disjoint_count_returns_fewer() {
        let g = fig5b();
        // Out-degree of node 1 is 2, so at most 2 edge-disjoint paths.
        let ps = disjoint(&g, n(0), n(5), 10);
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn no_path_returns_empty() {
        let mut g = DiGraph::new(2);
        g.add_edge(n(1), n(0)).unwrap();
        assert!(disjoint(&g, n(0), n(1), 4).is_empty());
    }

    #[test]
    fn waterfill_prefers_big_paths() {
        let alloc = waterfill(&units(&[10, 4, 2]), Amount::from_units(6)).unwrap();
        // Pour 6 into the biggest: residuals become 4, 4, 2 — equalized
        // at level 4 without touching the others.
        assert_eq!(alloc, units(&[6, 0, 0]));
    }

    #[test]
    fn waterfill_equalizes_residuals() {
        let alloc = waterfill(&units(&[10, 8, 2]), Amount::from_units(10)).unwrap();
        // Level: (18 − 10)/2 = 4 → allocations 6 and 4, path 3 untouched.
        assert_eq!(alloc, units(&[6, 4, 0]));
    }

    #[test]
    fn waterfill_exact_fit_uses_everything() {
        let alloc = waterfill(&units(&[3, 2, 1]), Amount::from_units(6)).unwrap();
        assert_eq!(alloc, units(&[3, 2, 1]));
    }

    #[test]
    fn waterfill_insufficient_is_none() {
        assert!(waterfill(&units(&[1, 1]), Amount::from_units(3)).is_none());
        assert!(waterfill(&[], Amount::from_units(1)).is_none());
    }

    #[test]
    fn waterfill_zero_demand() {
        let alloc = waterfill(&units(&[5]), Amount::ZERO).unwrap();
        assert_eq!(alloc, units(&[0]));
    }

    proptest! {
        #[test]
        fn waterfill_allocation_is_valid(
            caps in proptest::collection::vec(0u64..1000, 1..6),
            d in 0u64..3000,
        ) {
            let caps: Vec<Amount> = caps.into_iter().map(Amount::from_micros).collect();
            let demand = Amount::from_micros(d);
            let total: u64 = caps.iter().map(|c| c.micros()).sum();
            match waterfill(&caps, demand) {
                Some(alloc) => {
                    prop_assert!(total >= d);
                    let sum: u64 = alloc.iter().map(|a| a.micros()).sum();
                    prop_assert_eq!(sum, d);
                    for (a, c) in alloc.iter().zip(&caps) {
                        prop_assert!(a <= c, "allocation exceeds capacity");
                    }
                    // Waterfilling property: any path with leftover
                    // capacity has residual ≥ residual of used paths − 1.
                    let residuals: Vec<u64> = alloc.iter().zip(&caps)
                        .map(|(a, c)| c.micros() - a.micros()).collect();
                    let used_max = alloc.iter().zip(&residuals)
                        .filter(|(a, _)| !a.is_zero())
                        .map(|(_, r)| *r).max();
                    if let Some(m) = used_max {
                        for (a, r) in alloc.iter().zip(&residuals) {
                            if a.is_zero() {
                                prop_assert!(*r <= m + 1,
                                    "unused path has more residual than used ones");
                            }
                        }
                    }
                }
                None => prop_assert!(total < d),
            }
        }
    }

    /// Two disjoint 2-hop routes 0→3 with 10 each.
    fn diamond_net() -> Network {
        let mut g = DiGraph::new(4);
        g.add_channel(n(0), n(1)).unwrap();
        g.add_channel(n(1), n(3)).unwrap();
        g.add_channel(n(0), n(2)).unwrap();
        g.add_channel(n(2), n(3)).unwrap();
        Network::uniform(g, Amount::from_units(10))
    }

    #[test]
    fn spider_splits_across_disjoint_paths() {
        let mut net = diamond_net();
        let p = Payment::new(TxId(1), n(0), n(3), Amount::from_units(15));
        let out = SpiderRouter::new().route(&mut net, &p, PaymentClass::Elephant);
        let RouteOutcome::Success { paths_used, .. } = out else {
            panic!("15 > any single path but ≤ combined 20: {out:?}");
        };
        assert_eq!(paths_used, 2);
    }

    #[test]
    fn spider_probes_every_path_every_payment() {
        let mut net = diamond_net();
        let p = Payment::new(TxId(1), n(0), n(3), Amount::from_units(1));
        SpiderRouter::new().route(&mut net, &p, PaymentClass::Mice);
        // Two 2-hop disjoint paths probed → 4 probe messages.
        assert_eq!(net.metrics().probe_messages, 4);
        let p2 = Payment::new(TxId(2), n(0), n(3), Amount::from_units(1));
        SpiderRouter::new().route(&mut net, &p2, PaymentClass::Mice);
        assert_eq!(net.metrics().probe_messages, 8);
    }

    #[test]
    fn spider_fails_beyond_total_capacity() {
        let mut net = diamond_net();
        let p = Payment::new(TxId(1), n(0), n(3), Amount::from_units(21));
        let out = SpiderRouter::new().route(&mut net, &p, PaymentClass::Elephant);
        assert!(!out.is_success());
        assert_eq!(net.total_funds(), Amount::from_units(80));
    }

    #[test]
    fn spider_no_route() {
        let mut g = DiGraph::new(2);
        g.add_edge(n(1), n(0)).unwrap();
        let mut net = Network::uniform(g, Amount::from_units(10));
        let p = Payment::new(TxId(1), n(0), n(1), Amount::from_units(1));
        let out = SpiderRouter::new().route(&mut net, &p, PaymentClass::Mice);
        assert_eq!(out, RouteOutcome::failure(FailureReason::NoRoute));
    }
}
