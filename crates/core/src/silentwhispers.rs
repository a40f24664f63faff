//! SilentWhispers baseline (Moreno-Sanchez et al., NDSS 2017).
//!
//! Not part of the paper's head-to-head evaluation (§4 compares against
//! its successor SpeedyMurmurs), but discussed in §6: "SilentWhispers
//! utilizes landmark-centered routing. It performs periodic
//! Breadth-First-Search to find the shortest path from the landmarks to
//! the sender and receiver. All paths need to go through the landmarks,
//! which makes some paths unnecessarily long." Implemented here as an
//! extension so the ablation suite can quantify exactly that effect
//! against SpeedyMurmurs' shortcut-capable embeddings.
//!
//! Mechanics: each landmark `l` maintains two BFS spanning trees — one
//! toward `l` (sender side) and one away from `l` (receiver side). A
//! payment is split evenly across landmarks; each share travels
//! `sender → l → receiver` along the concatenated tree paths. Static:
//! no probing; a share fails on the first under-funded hop.

use crate::speedymurmurs::split_evenly;
use pcn_graph::{bfs, DiGraph, Path};
use pcn_sim::{FailureReason, PaymentNetwork, PaymentSession, RouteOutcome, Router};
use pcn_types::{NodeId, Payment, PaymentClass};

/// The SilentWhispers landmark-centered router.
#[derive(Clone, Debug)]
pub struct SilentWhispersRouter {
    /// Number of landmarks (the paper's SpeedyMurmurs config uses 3; we
    /// default the same for comparability).
    pub num_landmarks: usize,
    landmarks: Vec<NodeId>,
    /// Per landmark: parent pointers toward the landmark.
    to_landmark: Vec<Vec<Option<NodeId>>>,
    /// Per landmark: parent pointers away from the landmark.
    from_landmark: Vec<Vec<Option<NodeId>>>,
    ready: bool,
}

impl Default for SilentWhispersRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl SilentWhispersRouter {
    /// Creates a router with 3 landmarks.
    pub fn new() -> Self {
        Self::with_landmarks(3)
    }

    /// Creates a router with a custom landmark count.
    pub fn with_landmarks(num_landmarks: usize) -> Self {
        SilentWhispersRouter {
            num_landmarks,
            landmarks: Vec::new(),
            to_landmark: Vec::new(),
            from_landmark: Vec::new(),
            ready: false,
        }
    }

    fn ensure_trees(&mut self, g: &DiGraph) {
        if self.ready {
            return;
        }
        let mut nodes: Vec<NodeId> = g.nodes().collect();
        nodes.sort_by_key(|&u| (std::cmp::Reverse(g.degree(u)), u));
        self.landmarks = nodes.into_iter().take(self.num_landmarks).collect();
        self.to_landmark = self
            .landmarks
            .iter()
            .map(|&l| bfs::spanning_tree(g, l, true))
            .collect();
        self.from_landmark = self
            .landmarks
            .iter()
            .map(|&l| bfs::spanning_tree(g, l, false))
            .collect();
        self.ready = true;
    }

    /// The landmark route `s → l → t`, if both tree halves exist and the
    /// concatenation is a simple path.
    fn landmark_route(&self, idx: usize, s: NodeId, t: NodeId) -> Option<Path> {
        let l = self.landmarks[idx];
        // Walk s up to the landmark.
        let mut up = vec![s];
        let mut cur = s;
        while cur != l {
            cur = self.to_landmark[idx][cur.index()]?;
            up.push(cur);
            if up.len() > self.to_landmark[idx].len() {
                return None; // defensive: broken tree
            }
        }
        // Walk t up to the landmark, then reverse for the downhill leg.
        let mut down = vec![t];
        let mut cur = t;
        while cur != l {
            cur = self.from_landmark[idx][cur.index()]?;
            down.push(cur);
            if down.len() > self.from_landmark[idx].len() {
                return None;
            }
        }
        // `down` now reads l ... t.
        down.reverse();
        // Concatenate, dropping the duplicated landmark; trim any
        // overlap to keep the path simple (e.g. s on t's landmark path).
        let mut nodes = up;
        nodes.extend_from_slice(&down[1..]);
        // Simplicity check: landmark routes can revisit nodes when the
        // two legs overlap; shorten by cutting loops.
        let mut seen = std::collections::BTreeMap::new();
        let mut out: Vec<NodeId> = Vec::with_capacity(nodes.len());
        for n in nodes {
            if let Some(&pos) = seen.get(&n) {
                out.truncate(pos + 1); // cut the loop
                seen.retain(|_, &mut v| v <= pos);
                continue;
            }
            seen.insert(n, out.len());
            out.push(n);
        }
        if out.len() < 2 {
            return None;
        }
        Path::new(out, None).ok()
    }
}

impl<N: PaymentNetwork> Router<N> for SilentWhispersRouter {
    fn name(&self) -> &'static str {
        "SilentWhispers"
    }

    fn route(&mut self, net: &mut N, payment: &Payment, class: PaymentClass) -> RouteOutcome {
        self.ensure_trees(net.graph());
        let routes: Vec<Path> = (0..self.landmarks.len())
            .filter_map(|i| self.landmark_route(i, payment.sender, payment.receiver))
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

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_graph::generators;
    use pcn_sim::Network;
    use pcn_types::{Amount, TxId};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn routes_through_landmark() {
        // Star around node 0 (highest degree → the landmark).
        let mut g = DiGraph::new(5);
        for i in 1..5 {
            g.add_channel(n(0), n(i)).unwrap();
        }
        let mut net = Network::uniform(g, Amount::from_units(10));
        let mut r = SilentWhispersRouter::with_landmarks(1);
        let p = Payment::new(TxId(1), n(1), n(3), Amount::from_units(4));
        let out = r.route(&mut net, &p, PaymentClass::Mice);
        assert!(out.is_success());
        // The route must pass the hub: 1→0 and 0→3 balances moved.
        let e = net.graph().edge(n(1), n(0)).unwrap();
        assert_eq!(net.balance(e), Amount::from_units(6));
        assert_eq!(net.metrics().probe_messages, 0, "static scheme");
    }

    #[test]
    fn loop_trimming_keeps_paths_simple() {
        // Landmark route where sender lies on the receiver's downhill
        // leg: s → l → ... → s → t would loop; trimming must cut it to
        // s → t's suffix.
        let mut g = DiGraph::new(4);
        g.add_channel(n(0), n(1)).unwrap(); // l = 0 (top degree w/ ties by id)
        g.add_channel(n(1), n(2)).unwrap();
        g.add_channel(n(0), n(3)).unwrap();
        let mut net = Network::uniform(g, Amount::from_units(10));
        let mut r = SilentWhispersRouter::with_landmarks(1);
        // 1 → 2: downhill leg from 0 is 0-1-2, uphill 1-0; concatenation
        // 1-0-1-2 must trim to 1-2.
        let p = Payment::new(TxId(2), n(1), n(2), Amount::from_units(1));
        let out = r.route(&mut net, &p, PaymentClass::Mice);
        assert!(out.is_success());
        let direct = net.graph().edge(n(1), n(2)).unwrap();
        assert_eq!(net.balance(direct), Amount::from_units(9));
        // The hub channel is untouched: the loop was cut.
        let hub = net.graph().edge(n(1), n(0)).unwrap();
        assert_eq!(net.balance(hub), Amount::from_units(10));
    }

    #[test]
    fn conserves_funds_and_is_atomic() {
        let g = generators::watts_strogatz(20, 4, 0.3, 5);
        let mut net = Network::uniform(g, Amount::from_units(10));
        let before = net.total_funds();
        let mut r = SilentWhispersRouter::new();
        for i in 0..40u64 {
            let p = Payment::new(
                TxId(i),
                n((i % 20) as u32),
                n(((i * 7 + 3) % 20) as u32),
                Amount::from_units(1 + i % 25),
            );
            if p.sender == p.receiver {
                continue;
            }
            r.route(&mut net, &p, PaymentClass::Mice);
            assert_eq!(net.total_funds(), before);
        }
    }

    #[test]
    fn longer_paths_than_speedymurmurs() {
        // The §6 critique quantified: on a ring+hub topology, routing
        // everything through landmarks uses at least as many hops as
        // SpeedyMurmurs' shortcut-capable greedy routing.
        let g = generators::watts_strogatz(30, 4, 0.2, 9);
        let mut sw_net = Network::uniform(g.clone(), Amount::from_units(1_000_000));
        let mut sm_net = Network::uniform(g, Amount::from_units(1_000_000));
        let mut sw = SilentWhispersRouter::new();
        let mut sm = crate::SpeedyMurmursRouter::new();
        let mut sw_hops = 0u64;
        let mut sm_hops = 0u64;
        for i in 0..30u64 {
            let p = Payment::new(
                TxId(i),
                n((i % 30) as u32),
                n(((i * 11 + 7) % 30) as u32),
                Amount::from_units(1),
            );
            if p.sender == p.receiver {
                continue;
            }
            if sw.route(&mut sw_net, &p, PaymentClass::Mice).is_success() {
                sw_hops += sw_net.metrics().commit_messages;
            }
            if sm.route(&mut sm_net, &p, PaymentClass::Mice).is_success() {
                sm_hops += sm_net.metrics().commit_messages;
            }
        }
        assert!(
            sw_hops >= sm_hops,
            "landmark detours ({sw_hops} hop-msgs) should cost ≥ embeddings ({sm_hops})"
        );
    }
}
