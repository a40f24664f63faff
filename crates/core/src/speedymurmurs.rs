//! SpeedyMurmurs baseline (Roos et al., NDSS 2018, as used in §4.1).
//!
//! "An embedding-based routing algorithm which relies on assigning
//! coordinates to nodes to find short paths with reduced overhead. The
//! number of landmarks is 3" (§4.1).
//!
//! Implementation: each landmark roots a BFS spanning tree; every node's
//! coordinate is its path of tree-parent hops from the root (prefix
//! embedding). A payment is split evenly across the landmarks; each
//! share is routed greedily — at every node, forward to the neighbor
//! (any channel, not just tree edges, i.e. "shortcuts") that strictly
//! decreases the tree distance to the receiver. SpeedyMurmurs is a
//! *static* scheme: it never probes, so a share fails the moment a
//! channel on its greedy path lacks balance, and the whole payment is
//! then reversed (atomicity).

use pcn_graph::{bfs, DiGraph, Path};
use pcn_sim::{FailureReason, PaymentNetwork, PaymentSession, RouteOutcome, Router};
use pcn_types::{Amount, NodeId, Payment, PaymentClass};

/// Per-landmark prefix-embedding coordinates.
#[derive(Clone, Debug)]
struct TreeEmbedding {
    /// `coord[n]` = sequence of node ids from the landmark to `n` along
    /// the spanning tree (empty at the landmark, `None` if disconnected).
    coords: Vec<Option<Vec<u32>>>,
}

impl TreeEmbedding {
    fn build(g: &DiGraph, root: NodeId) -> Self {
        // Parent pointers along shortest paths *from* the root.
        let parent = bfs::spanning_tree(g, root, false);
        let n = g.node_count();
        let mut coords: Vec<Option<Vec<u32>>> = vec![None; n];
        coords[root.index()] = Some(Vec::new());
        // Nodes are finalized in BFS order; resolve iteratively.
        let order = {
            let dist = bfs::distances_from(g, root);
            let mut idx: Vec<usize> = (0..n).filter(|&i| dist[i] != usize::MAX).collect();
            idx.sort_by_key(|&i| dist[i]);
            idx
        };
        for i in order {
            if coords[i].is_some() {
                continue;
            }
            if let Some(p) = parent[i] {
                if let Some(pc) = coords[p.index()].clone() {
                    let mut c = pc;
                    c.push(i as u32);
                    coords[i] = Some(c);
                }
            }
        }
        TreeEmbedding { coords }
    }

    /// Tree distance between two nodes: sum of depths minus twice the
    /// common-prefix length; `None` when either node is outside the tree.
    fn distance(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let ca = self.coords[a.index()].as_ref()?;
        let cb = self.coords[b.index()].as_ref()?;
        let common = ca.iter().zip(cb.iter()).take_while(|(x, y)| x == y).count();
        Some(ca.len() + cb.len() - 2 * common)
    }
}

/// The SpeedyMurmurs embedding-based router.
#[derive(Clone, Debug)]
pub struct SpeedyMurmursRouter {
    /// Number of landmark trees (3 in the paper's configuration).
    pub num_landmarks: usize,
    embeddings: Vec<TreeEmbedding>,
    ready: bool,
}

impl Default for SpeedyMurmursRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl SpeedyMurmursRouter {
    /// Creates a router with the paper's 3 landmarks.
    pub fn new() -> Self {
        Self::with_landmarks(3)
    }

    /// Creates a router with a custom landmark count.
    pub fn with_landmarks(num_landmarks: usize) -> Self {
        SpeedyMurmursRouter {
            num_landmarks,
            embeddings: Vec::new(),
            ready: false,
        }
    }

    fn ensure_embeddings(&mut self, g: &DiGraph) {
        if self.ready {
            return;
        }
        // Landmarks: highest-degree nodes (well-connected roots give
        // shallow trees), deterministic tie-break by id.
        let mut nodes: Vec<NodeId> = g.nodes().collect();
        nodes.sort_by_key(|&u| (std::cmp::Reverse(g.degree(u)), u));
        self.embeddings = nodes
            .iter()
            .take(self.num_landmarks)
            .map(|&root| TreeEmbedding::build(g, root))
            .collect();
        self.ready = true;
    }

    /// Greedy embedded route in one tree: strictly decrease the tree
    /// distance to `t` at every hop (shortcut channels allowed).
    fn greedy_route(&self, g: &DiGraph, emb: &TreeEmbedding, s: NodeId, t: NodeId) -> Option<Path> {
        let mut nodes = vec![s];
        let mut cur = s;
        let mut cur_dist = emb.distance(cur, t)?;
        while cur != t {
            let mut best: Option<(usize, NodeId)> = None;
            for &(v, _) in g.out_neighbors(cur) {
                if nodes.contains(&v) {
                    continue;
                }
                if let Some(d) = emb.distance(v, t) {
                    if d < cur_dist && best.is_none_or(|(bd, bn)| d < bd || (d == bd && v < bn)) {
                        best = Some((d, v));
                    }
                }
            }
            let (d, v) = best?;
            nodes.push(v);
            cur = v;
            cur_dist = d;
        }
        #[expect(
            clippy::expect_used,
            reason = "greedy descent strictly decreases distance, so nodes never repeat"
        )]
        let path = Path::new(nodes, None).expect("greedy route is simple by construction");
        Some(path)
    }
}

impl<N: PaymentNetwork> Router<N> for SpeedyMurmursRouter {
    fn name(&self) -> &'static str {
        "SpeedyMurmurs"
    }

    fn route(&mut self, net: &mut N, payment: &Payment, class: PaymentClass) -> RouteOutcome {
        let g = net.graph();
        self.ensure_embeddings(g);
        let routes: Vec<Path> = self
            .embeddings
            .iter()
            .filter_map(|emb| self.greedy_route(g, emb, payment.sender, payment.receiver))
            .collect();
        if routes.is_empty() {
            net.record_rejected_attempt(payment, class);
            return RouteOutcome::failure(FailureReason::NoRoute);
        }
        let parts = split_evenly(routes, payment.amount);
        let mut session = net.begin_payment(payment, class);
        if session.try_send_parts(&parts).is_err() {
            session.abort();
            return RouteOutcome::failure(FailureReason::InsufficientCapacity);
        }
        debug_assert!(session.is_satisfied());
        session.commit()
    }
}

/// Splits `amount` evenly over `routes` (remainder goes one micro-unit
/// at a time to the first shares) — the landmark-share split both tree
/// schemes use.
pub(crate) fn split_evenly(routes: Vec<Path>, amount: Amount) -> Vec<(Path, Amount)> {
    let k = routes.len() as u64;
    let base = amount.micros() / k;
    let mut rem = amount.micros() % k;
    routes
        .into_iter()
        .map(|p| {
            let mut share = base;
            if rem > 0 {
                share += 1;
                rem -= 1;
            }
            (p, Amount::from_micros(share))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_sim::Network;
    use pcn_types::TxId;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn star_plus_ring() -> DiGraph {
        // Node 0 is a hub (landmark); ring 1-2-3-4 around it.
        let mut g = DiGraph::new(5);
        for i in 1..5 {
            g.add_channel(n(0), n(i)).unwrap();
        }
        g.add_channel(n(1), n(2)).unwrap();
        g.add_channel(n(2), n(3)).unwrap();
        g.add_channel(n(3), n(4)).unwrap();
        g.add_channel(n(4), n(1)).unwrap();
        g
    }

    #[test]
    fn embedding_distance_is_a_tree_metric() {
        let g = star_plus_ring();
        let emb = TreeEmbedding::build(&g, n(0));
        assert_eq!(emb.distance(n(0), n(0)), Some(0));
        assert_eq!(emb.distance(n(0), n(1)), Some(1));
        // Two leaves of the star: distance 2 through the root.
        assert_eq!(emb.distance(n(1), n(3)), Some(2));
        // Symmetry.
        assert_eq!(emb.distance(n(3), n(1)), Some(2));
    }

    #[test]
    fn disconnected_node_has_no_coordinate() {
        let mut g = DiGraph::new(3);
        g.add_channel(n(0), n(1)).unwrap();
        let emb = TreeEmbedding::build(&g, n(0));
        assert_eq!(emb.distance(n(0), n(2)), None);
    }

    #[test]
    fn routes_and_delivers() {
        let g = star_plus_ring();
        let mut net = Network::uniform(g, Amount::from_units(10));
        let p = Payment::new(TxId(1), n(1), n(3), Amount::from_units(6));
        let mut r = SpeedyMurmursRouter::new();
        let out = r.route(&mut net, &p, PaymentClass::Mice);
        assert!(out.is_success());
        assert_eq!(net.metrics().probe_messages, 0, "static scheme, no probes");
    }

    #[test]
    fn atomicity_on_share_failure() {
        let g = star_plus_ring();
        let mut net = Network::uniform(g, Amount::from_units(10));
        let before = net.total_funds();
        // Demand exceeding what the greedy trees can carry.
        let p = Payment::new(TxId(2), n(1), n(3), Amount::from_units(100));
        let mut r = SpeedyMurmursRouter::new();
        let out = r.route(&mut net, &p, PaymentClass::Elephant);
        assert!(!out.is_success());
        assert_eq!(net.total_funds(), before);
    }

    #[test]
    fn greedy_respects_direction() {
        // A strictly one-way path 0→1→2 and landmark at 0: routing from
        // 2 to 0 must fail (no directed edges backwards).
        let mut g = DiGraph::new(3);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        let mut net = Network::uniform(g, Amount::from_units(10));
        let p = Payment::new(TxId(4), n(2), n(0), Amount::from_units(1));
        let mut r = SpeedyMurmursRouter::with_landmarks(1);
        let out = r.route(&mut net, &p, PaymentClass::Mice);
        assert!(!out.is_success());
    }
}
