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

use super::fees::split_payment;
use pcn_graph::bfs::{self, PhaseScratch, SearchWork};
use pcn_graph::maxflow::{self, Certificate, MaxFlow};
use pcn_graph::{DiGraph, EdgeId, Path};
use pcn_sim::PaymentNetwork;
use pcn_types::{Amount, FeePolicy, NodeId};

/// What the first probe to report a channel direction saw of it — the
/// entries of the capacity matrix `C` and the fees Algorithm 1 collects
/// (lines 17–22). Later probes of the same direction do not overwrite it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hop {
    /// First-probe capacity of this hop's edge.
    pub capacity: Amount,
    /// Fee policy of this hop's edge.
    pub fee: FeePolicy,
    /// The opposite direction and its first-probe capacity, when the
    /// probe reported one.
    pub reverse: Option<(EdgeId, Amount)>,
}

/// The outcome of the path-finding phase for one elephant payment.
#[derive(Clone, Debug)]
pub struct ElephantPlan {
    /// Candidate paths in discovery (BFS-shortest-first) order — the
    /// path set `P` of Algorithm 1.
    pub paths: Vec<Path>,
    /// `path_edges[i]` holds the edge ids of `paths[i]`, sender →
    /// receiver, as the probe reported them.
    pub path_edges: Vec<Vec<EdgeId>>,
    /// `path_hops[i][j]` is the first-probe state of `path_edges[i][j]`;
    /// an edge on several paths carries the same values on each.
    pub path_hops: Vec<Vec<Hop>>,
    /// The max-flow value `f` achievable over `paths` (with
    /// reverse-direction offsets, as in any augmenting-path residual).
    pub max_flow: Amount,
    /// Number of probes sent: one per path BFS found, whether the
    /// probe came back (the path is in `paths`) or was lost.
    pub probes: usize,
}

impl ElephantPlan {
    /// Every hop of every path with its edge, in discovery order.
    pub(crate) fn hops(&self) -> impl Iterator<Item = (EdgeId, &Hop)> + '_ {
        let edges = self.path_edges.iter().flatten().copied();
        edges.zip(self.path_hops.iter().flatten())
    }
}

/// One probed channel direction of the payment in progress.
#[derive(Clone, Copy, Debug, Default)]
struct Probed {
    /// Residual capacity `C'`. It can exceed the probed capacity via
    /// reverse credits, hence `u128`.
    residual: u128,
    /// First-probe capacity `C`; `None` while the edge is only banned
    /// by a lost probe.
    capacity: Option<Amount>,
    /// Fee of the first probe that crossed the edge forwards.
    fee: Option<FeePolicy>,
}

/// The residual matrix of one payment as a dense `EdgeId`-indexed
/// table: no hashing per scanned edge, and the BFS filter reads one bit.
/// Forgetting a payment clears the slots and bits of the edges it
/// touched.
#[derive(Debug, Default)]
struct ProbedEdges {
    /// `known[slot[e]]` is this payment's entry of `e`, the edge it
    /// holds beside it; `slot[e]` is [`NO_SLOT`] while `e` is unprobed
    /// and treated as usable (capacity assumed non-zero).
    slot: Vec<u32>,
    known: Vec<(EdgeId, Probed)>,
    /// Bit `e` is set iff `e`'s entry has no residual left: the BFS
    /// filter, kept by [`ProbedEdges::set_residual`].
    spent: Vec<u64>,
}

/// `slot[e]` of an edge without an entry: past the end of `known`.
const NO_SLOT: u32 = u32::MAX;

/// The word of `spent` that holds `e`'s bit, and the bit's mask.
fn spent_bit(e: EdgeId) -> (usize, u64) {
    (e.index() / 64, 1 << (e.index() % 64))
}

impl ProbedEdges {
    /// Forgets the last payment; sizes the table for `g`. The forgetting
    /// comes first: the edges it touched index the last graph's table.
    fn begin(&mut self, g: &DiGraph) {
        for (e, _) in self.known.drain(..) {
            let (word, bit) = spent_bit(e);
            self.slot[e.index()] = NO_SLOT;
            self.spent[word] &= !bit;
        }
        // Every slot and bit is now clear, so a plain resize keeps them so.
        self.slot.resize(g.edge_count(), NO_SLOT);
        self.spent.resize(g.edge_count().div_ceil(64), 0);
    }

    fn get(&self, e: EdgeId) -> Option<&Probed> {
        let (_, p) = self.known.get(self.slot[e.index()] as usize)?;
        Some(p)
    }

    fn get_mut(&mut self, e: EdgeId) -> Option<&mut Probed> {
        let (_, p) = self.known.get_mut(self.slot[e.index()] as usize)?;
        Some(p)
    }

    /// The BFS filter of Algorithm 1 line 7: unprobed, or residual left.
    fn usable(&self, e: EdgeId) -> bool {
        let (word, bit) = spent_bit(e);
        let usable = self.spent[word] & bit == 0;
        debug_assert_eq!(
            usable,
            self.get(e).is_none_or(|p| p.residual > 0),
            "{e:?}: the residual bit disagrees with the entry"
        );
        usable
    }

    /// Sets the residual of `e`, creating its entry (nothing probed) if
    /// new, and the bit that mirrors it; every residual write goes
    /// through here.
    fn set_residual(&mut self, e: EdgeId, residual: u128) -> &mut Probed {
        let (word, bit) = spent_bit(e);
        if residual == 0 {
            self.spent[word] |= bit;
        } else {
            self.spent[word] &= !bit;
        }
        if self.slot[e.index()] == NO_SLOT {
            self.slot[e.index()] = self.known.len() as u32;
            self.known.push((e, Probed::default()));
        }
        let (_, p) = &mut self.known[self.slot[e.index()] as usize];
        p.residual = residual;
        p
    }

    /// Records a probed capacity unless `e` already has one; returns
    /// the first-probe capacity either way.
    fn first_probe(&mut self, e: EdgeId, capacity: Amount) -> Amount {
        if let Some(first) = self.get(e).and_then(|p| p.capacity) {
            return first;
        }
        self.set_residual(e, u128::from(capacity.micros())).capacity = Some(capacity);
        capacity
    }
}

/// The working arrays of Algorithm 1, reusable across payments: the
/// phase search (one level DAG per path length, walked once per probe)
/// and the dense residual table. [`crate::FlashRouter`] owns one;
/// [`find_paths`] builds a throwaway one per call.
#[derive(Debug, Default)]
pub struct ElephantScratch {
    paths: PhaseScratch,
    probed: ProbedEdges,
}

impl ElephantScratch {
    /// The work the path searches of every payment on this scratch have
    /// done: adjacency entries scanned, phases opened, paths returned.
    pub fn work(&self) -> SearchWork {
        self.paths.work()
    }
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
///
/// This form allocates its working arrays per call; a caller routing
/// many payments keeps an [`ElephantScratch`] and calls
/// [`find_paths_with`], as `FlashRouter` does.
pub fn find_paths<N: PaymentNetwork>(
    net: &mut N,
    s: NodeId,
    t: NodeId,
    demand: Amount,
    k: usize,
) -> ElephantPlan {
    find_paths_with(net, &mut ElephantScratch::default(), s, t, demand, k)
}

/// [`find_paths`] on the caller's scratch. The plan does not depend on
/// what the scratch was used for before.
pub fn find_paths_with<N: PaymentNetwork>(
    net: &mut N,
    scratch: &mut ElephantScratch,
    s: NodeId,
    t: NodeId,
    demand: Amount,
    k: usize,
) -> ElephantPlan {
    let mut plan = ElephantPlan {
        paths: Vec::new(),
        path_edges: Vec::new(),
        path_hops: Vec::new(),
        max_flow: Amount::ZERO,
        probes: 0,
    };
    let ElephantScratch { paths, probed } = scratch;
    probed.begin(net.graph());
    paths.begin(s, t, &[]);

    while plan.paths.len() < k {
        // BFS on G with residual filter (line 7). Between probes the
        // residual graph only loses edges, besides crediting the reverses
        // of the path just probed, so the phase search applies; it
        // returns the forward BFS's path, which the dev profile checks.
        let path = paths.next_path(net.graph(), |e| probed.usable(e));
        debug_assert_eq!(
            path,
            bfs::shortest_path_filtered(net.graph(), s, t, |e| probed.usable(e)),
            "the phase walk diverged from the forward BFS at probe {}",
            plan.probes
        );
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
            probed.set_residual(first, 0);
            continue;
        };

        // Record first-probe capacities for both directions (lines 17–22).
        let mut edges = Vec::with_capacity(report.channels.len());
        let mut hops = Vec::with_capacity(report.channels.len());
        for c in &report.channels {
            edges.push(c.edge);
            hops.push(Hop {
                capacity: probed.first_probe(c.edge, c.capacity),
                fee: probed
                    .get_mut(c.edge)
                    .map_or(c.fee, |p| *p.fee.get_or_insert(c.fee)),
                reverse: c
                    .reverse
                    .map(|(rev, rcap)| (rev, probed.first_probe(rev, rcap))),
            });
        }

        // Bottleneck over *residual* capacities (line 12; the residual
        // matrix is what BFS searched, so it is what bounds this path).
        // Every edge got its residual when its capacity was recorded.
        let bottleneck = edges
            .iter()
            .map(|&e| probed.get(e).map_or(0, |p| p.residual))
            .min()
            .unwrap_or(0);

        if bottleneck > 0 {
            // Push flow: decrease forward residuals, increase reverse
            // (lines 23–24).
            for &e in &edges {
                if let Some(&p) = probed.get(e) {
                    probed.set_residual(e, p.residual - bottleneck);
                }
                // If the reverse direction was never probed it stays
                // "assumed usable"; no explicit credit needed.
                if let Some(rev) = net.graph().reverse_edge(e) {
                    if let Some(&p) = probed.get(rev) {
                        probed.set_residual(rev, p.residual + bottleneck);
                    }
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
        plan.path_hops.push(hops);

        if plan.max_flow >= demand {
            break; // line 25: demand satisfied
        }
    }
    plan
}

/// Max-flow/min-cut certificate of a fault-free plan
/// (`docs/algorithm1.md` has the proof). The flow is what Flash sends:
/// the net per-edge sum of the parts of
/// `split_payment(graph, plan, plan.max_flow, false)`. Every reported
/// hop and its reverse carry their first-probe capacities; every other
/// edge is unknown (`u64::MAX`), usable as the search assumed.
/// `Ok(Feasible)` bounds `plan.max_flow` by every cut; `Ok(Maximum)`
/// proves it is the max-flow over the probed capacities. The residual
/// search runs afresh in [`maxflow::certify`], so the check does not
/// trust the search it checks. A lost probe bans an edge it never
/// probed, so under faults a plan may stop short of `Maximum`.
pub fn certify(
    graph: &DiGraph,
    plan: &ElephantPlan,
    s: NodeId,
    t: NodeId,
) -> Result<Certificate, String> {
    let mut capacity = vec![u64::MAX; graph.edge_count()];
    for (e, hop) in plan.hops() {
        capacity[e.index()] = hop.capacity.micros();
        if let Some((rev, rcap)) = hop.reverse {
            capacity[rev.index()] = rcap.micros();
        }
    }
    let parts = split_payment(graph, plan, plan.max_flow, false)
        .ok_or("the plan's paths cannot carry its max_flow")?;
    let mut edge_flow = vec![0u64; graph.edge_count()];
    for (path, amount) in &parts {
        for (u, v) in path.channels() {
            let e = graph
                .edge(u, v)
                .ok_or_else(|| format!("{u} → {v} is not an edge"))?;
            edge_flow[e.index()] = edge_flow[e.index()].saturating_add(amount.micros());
        }
    }
    maxflow::cancel_opposing_flows(graph, &mut edge_flow);
    let value = plan.max_flow.micros();
    maxflow::certify(graph, s, t, &capacity, &MaxFlow { value, edge_flow })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_sim::Network;
    use pcn_types::{Payment, PaymentClass, TxId};

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
    fn large_k_plan_is_certified_maximum() {
        let mut net = fig5a_net();
        let plan = find_paths(&mut net, n(0), n(5), Amount::from_units(1_000_000), 50);
        assert_eq!(plan.max_flow, Amount::from_units(50));
        let cut = Amount::from_units(50).micros();
        assert_eq!(
            certify(net.graph(), &plan, n(0), n(5)),
            Ok(Certificate::Maximum { cut })
        );
        // Stopped one path early, the same search is only feasible.
        let mut net = fig5a_net();
        let short = find_paths(&mut net, n(0), n(5), Amount::from_units(1_000_000), 2);
        assert_eq!(
            certify(net.graph(), &short, n(0), n(5)),
            Ok(Certificate::Feasible)
        );
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
        // 2→4 (20) and 5→4 (30) both leave through 4→6 (30).
        assert_eq!(plan.max_flow, Amount::from_units(30));
    }

    /// The second augmenting path must undo part of the first. The
    /// unique shortest path is s→a→b→t; the only other ways are the
    /// detours s→c→c2→b and a→d→d2→t, so with unit capacities the second
    /// unit has to travel s→c→c2→b→a→d→d2→t — over `b→a`, which the first
    /// probe reported at 0 and only the first path's reverse credit
    /// makes usable.
    #[test]
    fn residual_reverse_credit_enables_rerouting() {
        let [s, a, b, t, c, c2, d, d2] = [0, 1, 2, 3, 4, 5, 6, 7].map(n);
        let mut g = DiGraph::new(8);
        let mut caps = Vec::new();
        for (u, v) in [
            (s, a),
            (b, t),
            (s, c),
            (c, c2),
            (c2, b),
            (a, d),
            (d, d2),
            (d2, t),
        ] {
            g.add_edge(u, v).unwrap();
            caps.push(Amount::from_units(1));
        }
        g.add_channel(a, b).unwrap();
        caps.extend([Amount::from_units(1), Amount::ZERO]);
        let fees = vec![FeePolicy::FREE; caps.len()];
        let mut net = Network::new(g, caps, fees).unwrap();

        let plan = find_paths(&mut net, s, t, Amount::from_units(2), 4);
        assert_eq!(plan.paths.len(), 2);
        assert_eq!(plan.paths[0].nodes(), &[s, a, b, t]);
        assert_eq!(plan.paths[1].nodes(), &[s, c, c2, b, a, d, d2, t]);
        assert_eq!(plan.max_flow, Amount::from_units(2));
        let cut = plan.max_flow.micros();
        assert_eq!(
            certify(net.graph(), &plan, s, t),
            Ok(Certificate::Maximum { cut })
        );

        // The two units cancel on a↔b: what is sent are the two detours.
        for optimize in [true, false] {
            let mut parts =
                crate::flash::fees::split_payment(net.graph(), &plan, plan.max_flow, optimize)
                    .unwrap();
            parts.sort_by(|x, y| x.0.nodes().cmp(y.0.nodes()));
            let nodes: Vec<_> = parts.iter().map(|(p, _)| p.nodes()).collect();
            assert_eq!(nodes, [&[s, a, d, d2, t][..], &[s, c, c2, b, t][..]]);
            assert!(parts.iter().all(|(_, x)| *x == Amount::from_units(1)));
        }
    }

    /// A lost probe bans the first hop and still counts as a probe.
    #[test]
    fn lost_probe_is_counted_and_routed_around() {
        let mut net = fig5a_net();
        net.set_faults(pcn_sim::FaultConfig {
            probe_drop_prob: 0.5,
            probe_noise_ppm: 0,
            seed: 3,
        });
        let plan = find_paths(&mut net, n(0), n(5), Amount::from_units(1_000), 8);
        assert!(plan.probes > plan.paths.len(), "seed 3 loses a probe");
        assert!(plan.paths.len() <= 3);
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
