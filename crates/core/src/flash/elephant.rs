//! Algorithm 1: modified Edmonds–Karp for elephant payment routing.
//!
//! The classic Edmonds–Karp algorithm needs the capacity of *every* edge
//! up front; in an offchain network balances are private and must be
//! probed. Flash's modification probes lazily: BFS runs on the residual
//! topology treating **unprobed channels as usable** ("our algorithm
//! works without the capacity matrix as input by assuming each channel
//! has non-zero capacity"), each discovered path is probed exactly once
//! per channel, and the loop stops after at most `k` paths or when the
//! accumulated flow covers the demand.

use pcn_graph::{bfs, DiGraph, EdgeId, Path};
use pcn_sim::PaymentNetwork;
use pcn_types::{Amount, FeePolicy, NodeId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The outcome of the path-finding phase for one elephant payment.
#[derive(Clone, Debug)]
pub struct ElephantPlan {
    /// Candidate paths in discovery (BFS-shortest-first) order — the
    /// path set `P` of Algorithm 1.
    pub paths: Vec<Path>,
    /// `path_edges[i]` holds the edge ids of `paths[i]`, sender →
    /// receiver, as the probe reported them.
    pub path_edges: Vec<Vec<EdgeId>>,
    /// Probed channel capacities `C` (first-probe values) for every
    /// channel seen on any candidate path, both directions.
    pub capacities: HashMap<EdgeId, Amount>,
    /// Fee policies collected during probing.
    pub fees: HashMap<EdgeId, FeePolicy>,
    /// The max-flow value `f` achievable over `paths` (with
    /// reverse-direction offsets, as in Edmonds–Karp residuals).
    pub max_flow: Amount,
    /// Number of probe operations performed (one per newly found path).
    pub probes: usize,
}

/// Runs Algorithm 1: finds at most `k` paths from `s` to `t` whose
/// combined (residual) flow attempts to cover `demand`. `net.graph()`
/// is the locally known topology; [`PaymentNetwork::probe_path`]
/// supplies balances one path at a time, so the simulator and the TCP
/// testbed run the identical path-finding code.
///
/// Unlike the paper's pseudocode — which returns `∅` when the demand is
/// unmet — the full plan is always returned so callers can distinguish
/// "no paths at all" from "insufficient max-flow" and so the Figure 10
/// sweep can measure partial capability. Callers enforce
/// `plan.max_flow ≥ demand` for the accept/reject decision.
pub fn find_paths<N: PaymentNetwork>(
    net: &mut N,
    s: NodeId,
    t: NodeId,
    demand: Amount,
    k: usize,
) -> ElephantPlan {
    let mut plan = ElephantPlan {
        paths: Vec::new(),
        path_edges: Vec::new(),
        capacities: HashMap::new(),
        fees: HashMap::new(),
        max_flow: Amount::ZERO,
        probes: 0,
    };
    // Residual capacity C'. Unprobed channels are absent from the map
    // and treated as usable (capacity assumed non-zero). Residuals can
    // exceed the probed capacity via reverse credits, hence u128.
    let mut residual: HashMap<EdgeId, u128> = HashMap::new();

    while plan.paths.len() < k {
        // BFS on G with residual filter (line 7).
        let path = bfs::shortest_path_filtered(net.graph(), s, t, |e| {
            residual.get(&e).is_none_or(|r| *r > 0)
        });
        let Some(path) = path else {
            break; // line 9: no more augmenting paths
        };

        // Probe each channel on the path (line 11).
        plan.probes += 1;
        let Some(report) = net.probe_path(&path) else {
            // Probe lost (fault injection): we learned nothing; banning
            // the first hop forces BFS onto a different route rather
            // than looping forever on the same unprobeable path.
            let Some(first) = net.graph().edge(path.nodes()[0], path.nodes()[1]) else {
                break; // BFS walked this edge, so the lookup cannot miss
            };
            residual.insert(first, 0);
            continue;
        };

        // Record first-probe capacities for both directions (lines 17–22).
        for c in &report.channels {
            if let Entry::Vacant(slot) = plan.capacities.entry(c.edge) {
                slot.insert(c.capacity);
                residual.insert(c.edge, c.capacity.micros() as u128);
            }
            plan.fees.entry(c.edge).or_insert(c.fee);
            if let Some((rev, rcap)) = c.reverse {
                if let Entry::Vacant(slot) = plan.capacities.entry(rev) {
                    slot.insert(rcap);
                    residual.insert(rev, rcap.micros() as u128);
                }
            }
        }
        let edges: Vec<EdgeId> = report.channels.iter().map(|c| c.edge).collect();

        // Bottleneck over *residual* capacities (line 12; the residual
        // matrix is what BFS searched, so it is what bounds this path).
        // Every edge got its residual when its capacity was recorded.
        let bottleneck = edges
            .iter()
            .map(|e| residual.get(e).copied().unwrap_or(0))
            .min()
            .unwrap_or(0);

        if bottleneck > 0 {
            // Push flow: decrease forward residuals, increase reverse
            // (lines 23–24).
            for &e in &edges {
                if let Some(r) = residual.get_mut(&e) {
                    *r -= bottleneck;
                }
                if let Some(rev) = net.graph().reverse_edge(e) {
                    if let Some(r) = residual.get_mut(&rev) {
                        *r += bottleneck;
                    }
                    // If the reverse direction was never probed it stays
                    // "assumed usable"; no explicit credit needed.
                }
            }
            let add = Amount::from_micros(u64::try_from(bottleneck).unwrap_or(u64::MAX));
            plan.max_flow = plan.max_flow.saturating_add(add);
        }
        // A zero-bottleneck path stays in P (the paper: "it is thus
        // possible, though rare, that our algorithm finds a path but its
        // effective capacity is zero after probing") — the BFS filter
        // will route around its dead edge next iteration.
        plan.paths.push(path);
        plan.path_edges.push(edges);

        if plan.max_flow >= demand {
            break; // line 25: demand satisfied
        }
    }
    plan
}

/// Reference check used in tests and ablations: the true max-flow over
/// the probed sub-capacities (unprobed edges at zero), via the
/// push-relabel kernel — itself differentially tested against
/// Edmonds–Karp in `pcn-graph`, and the fastest kernel at Lightning
/// scale (see `docs/maxflow.md` and `BENCH_maxflow.json`).
pub fn oracle_max_flow(graph: &DiGraph, plan: &ElephantPlan, s: NodeId, t: NodeId) -> Amount {
    use pcn_graph::maxflow::{MaxFlowSolver, PushRelabel};
    let mut caps = vec![0u64; graph.edge_count()];
    // det-lint: allow(hash-order) — each edge writes its own slot; no slot written twice
    for (e, c) in &plan.capacities {
        caps[e.index()] = c.micros();
    }
    let mf = PushRelabel.max_flow(graph, s, t, &caps);
    Amount::from_micros(mf.value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_sim::Network;
    use pcn_types::PaymentClass;
    use pcn_types::{Payment, TxId};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Figure 5(a): two shortest paths share bottleneck 1→2 (30); the
    /// longer 1-5-4-6 path is needed to exceed 30.
    ///
    /// Channels here are unidirectional to match the figure exactly.
    fn fig5a_net() -> Network {
        let mut g = DiGraph::new(6);
        let caps = [
            (1, 2, 30),
            (1, 5, 30),
            (2, 3, 20),
            (2, 4, 20),
            (3, 6, 30),
            (4, 6, 30),
            (5, 4, 30),
        ];
        let mut net_caps = Vec::new();
        for (u, v, c) in caps {
            g.add_edge(n(u - 1), n(v - 1)).unwrap();
            net_caps.push(Amount::from_units(c));
        }
        let fees = vec![FeePolicy::FREE; net_caps.len()];
        Network::new(g, net_caps, fees).unwrap()
    }

    #[test]
    fn fig5a_finds_more_than_shared_bottleneck() {
        let mut net = fig5a_net();
        // k = 2 simple shortest paths through 1→2 would cap at 30; the
        // modified max-flow must escape via 1-5-4-6.
        let plan = find_paths(&mut net, n(0), n(5), Amount::from_units(50), 3);
        assert_eq!(plan.max_flow, Amount::from_units(50));
        assert!(plan.paths.len() <= 3);
    }

    #[test]
    fn k_bounds_path_count_and_probes() {
        let mut net = fig5a_net();
        let plan = find_paths(&mut net, n(0), n(5), Amount::from_units(1_000_000), 2);
        assert!(plan.paths.len() <= 2);
        assert_eq!(plan.probes, plan.paths.len());
        // With k = 2 the two BFS-shortest paths share 1→2 (30 total).
        assert_eq!(plan.max_flow, Amount::from_units(30));
    }

    #[test]
    fn stops_early_when_demand_met() {
        let mut net = fig5a_net();
        let plan = find_paths(&mut net, n(0), n(5), Amount::from_units(10), 20);
        assert_eq!(plan.paths.len(), 1, "one 20-capacity path covers demand 10");
        assert!(plan.max_flow >= Amount::from_units(10));
    }

    #[test]
    fn matches_oracle_max_flow_with_large_k() {
        let mut net = fig5a_net();
        let plan = find_paths(&mut net, n(0), n(5), Amount::from_units(1_000_000), 50);
        let oracle = oracle_max_flow(net.graph(), &plan, n(0), n(5));
        assert_eq!(plan.max_flow, oracle);
        assert_eq!(plan.max_flow, Amount::from_units(50));
    }

    #[test]
    fn empty_when_unreachable() {
        let mut g = DiGraph::new(2);
        g.add_edge(n(1), n(0)).unwrap();
        let mut net = Network::uniform(g, Amount::from_units(5));
        let plan = find_paths(&mut net, n(0), n(1), Amount::from_units(1), 4);
        assert!(plan.paths.is_empty());
        assert_eq!(plan.max_flow, Amount::ZERO);
    }

    #[test]
    fn probes_are_metered() {
        let mut net = fig5a_net();
        let before = net.metrics().probe_messages;
        let plan = find_paths(&mut net, n(0), n(5), Amount::from_units(50), 3);
        let hops: u64 = plan.paths.iter().map(|p| p.hops() as u64).sum();
        assert_eq!(net.metrics().probe_messages - before, hops);
    }

    #[test]
    fn zero_capacity_channel_is_routed_around() {
        let mut net = fig5a_net();
        // Kill 2→3; flow must use 2→4 and 5→4 instead.
        let e = net.graph().edge(n(1), n(2)).unwrap();
        net.set_balance(e, Amount::ZERO);
        let plan = find_paths(&mut net, n(0), n(5), Amount::from_units(50), 6);
        // Max flow drops: 4→6 caps the right side at 30; plus nothing
        // through 3 → 30 total... wait, 2→4 (20) + 5→4 (30) both exit
        // via 4→6 (30) → 30.
        assert_eq!(plan.max_flow, Amount::from_units(30));
    }

    #[test]
    fn residual_reverse_credit_enables_rerouting() {
        // Classic case where a later path must undo part of an earlier
        // one: without residual credits max flow would be understated.
        //
        //  s→a 1, a→t 1, s→b 1, b→a... build the standard 2-flow net:
        //  s→a(1), s→b(1), a→b(1), a→t(1), b→t(1): max flow 2 but BFS
        //  shortest first takes s→a→t; then s→b→t. No reversal needed.
        //  Force it: s→a(1), a→b(1), b→t(1), s→b(1), a→t(1)? BFS picks
        //  2-hop s→a→t? a→t exists(1) → path1 s-a-t(1). path2 s-b-t(1).
        //  Still no reversal. Use bidirectional channels so the credit
        //  path exists and assert flow just matches the oracle.
        let g = pcn_graph::generators::watts_strogatz(16, 4, 0.4, 3);
        let mut net = Network::uniform(g, Amount::from_units(7));
        let plan = find_paths(&mut net, n(0), n(9), Amount::from_units(1_000_000), 64);
        let oracle = oracle_max_flow(net.graph(), &plan, n(0), n(9));
        // With k far above the path diversity, Flash's bounded variant
        // must reach the oracle value on the probed capacities.
        assert_eq!(plan.max_flow, oracle);
    }

    #[test]
    fn send_after_plan_succeeds() {
        let mut net = fig5a_net();
        let plan = find_paths(&mut net, n(0), n(5), Amount::from_units(50), 4);
        assert!(plan.max_flow >= Amount::from_units(50));
        // Execute sequentially along discovered paths using residual
        // capacities — end-to-end integration with the session API.
        let payment = Payment::new(TxId(1), n(0), n(5), Amount::from_units(50));
        let parts =
            crate::flash::fees::split_payment(net.graph(), &plan, Amount::from_units(50), false)
                .expect("sequential split must succeed when max_flow ≥ demand");
        let mut session = net.begin_payment(&payment, PaymentClass::Elephant);
        for (p, a) in &parts {
            if !a.is_zero() {
                session.try_send_part(p, *a).unwrap();
            }
        }
        assert!(session.is_satisfied());
        session.commit();
    }
}
