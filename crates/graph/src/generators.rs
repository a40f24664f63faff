//! Random topology generators.
//!
//! Three families cover everything the paper evaluates on:
//!
//! * [`watts_strogatz`] — the testbed topologies of §5.2 ("The network
//!   topology follows the Watts Strogatz graph", 50 and 100 nodes).
//! * [`barabasi_albert`] / [`scale_free_with_channels`] — scale-free
//!   graphs standing in for the crawled Ripple and Lightning topologies
//!   (see DESIGN.md substitution #2): real PCNs exhibit heavy-tailed
//!   degree distributions, which preferential attachment reproduces.
//! * [`erdos_renyi`] — uniform random graphs for property tests.
//!
//! All generators emit *bidirectional channels* (each undirected edge
//! becomes two directed edges), matching how the paper models payment
//! channels, and are fully deterministic given a seed.

use crate::DiGraph;
use pcn_types::NodeId;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeSet;

/// The node with dense index `i`.
fn node(i: usize) -> NodeId {
    NodeId::from_index(i)
}

/// The set key of the channel between `a` and `b`: its ends in order.
fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Generates a Watts–Strogatz small-world graph: `n` nodes in a ring,
/// each connected to its `k` nearest neighbors (`k` even), with each
/// edge rewired to a random target with probability `beta`.
///
/// Returns a bidirectional-channel graph (connected in the typical
/// case; β-rewiring can very rarely isolate a node, as in the standard
/// construction — trace generation filters unreachable pairs). Panics
/// if `k` is odd, `k >= n`, or `n < 3`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> DiGraph {
    assert!(n >= 3, "watts_strogatz needs at least 3 nodes");
    assert!(k.is_multiple_of(2), "watts_strogatz k must be even");
    assert!(k < n, "watts_strogatz k must be < n");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut channels: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();

    // Ring lattice.
    for u in 0..n {
        for j in 1..=k / 2 {
            channels.insert(key(node(u), node((u + j) % n)));
        }
    }
    // Rewire, in lattice order; the loop edits the set, so walk a copy.
    let lattice: Vec<(NodeId, NodeId)> = channels.iter().copied().collect();
    for (u, v) in lattice {
        if rng.random::<f64>() < beta {
            // Rewire the far endpoint to a uniform random node.
            let mut tries = 0;
            loop {
                let w = node(rng.random_range(0..n));
                let cand = key(u, w);
                if w != u && !channels.contains(&cand) {
                    channels.remove(&key(u, v));
                    channels.insert(cand);
                    break;
                }
                tries += 1;
                if tries > 4 * n {
                    break; // node is saturated; keep the lattice edge
                }
            }
        }
    }
    build_bidirectional(n, channels)
}

/// Generates a Barabási–Albert preferential-attachment graph: a seed
/// clique of `m + 1` nodes, then each new node attaches `m` channels to
/// existing nodes chosen proportionally to degree.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> DiGraph {
    assert!(m >= 1, "barabasi_albert m must be ≥ 1");
    assert!(n > m, "barabasi_albert needs n > m");
    let mut rng = StdRng::seed_from_u64(seed);
    let (channels, _) = preferential_attachment(n, m, &mut rng);
    build_bidirectional(n, channels)
}

/// The Barabási–Albert channel set over `n` nodes with `m` channels per
/// new node, and its repeated-node list: each node appears once per
/// incident channel end, so sampling uniformly from the list is
/// preferential attachment.
fn preferential_attachment(
    n: usize,
    m: usize,
    rng: &mut StdRng,
) -> (BTreeSet<(NodeId, NodeId)>, Vec<NodeId>) {
    let mut channels: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    let mut ends: Vec<NodeId> = Vec::new();

    // Seed clique over m + 1 nodes.
    for u in 0..=m {
        for v in (u + 1)..=m {
            channels.insert(key(node(u), node(v)));
            ends.extend([node(u), node(v)]);
        }
    }
    for u in (m + 1)..n {
        let u = node(u);
        let mut targets: BTreeSet<NodeId> = BTreeSet::new();
        while targets.len() < m {
            let t = ends[rng.random_range(0..ends.len())];
            if t != u {
                targets.insert(t);
            }
        }
        for t in targets {
            channels.insert(key(u, t));
            ends.extend([u, t]);
        }
    }
    (channels, ends)
}

/// Generates a scale-free graph with exactly `target_channels`
/// undirected channels over `n` nodes (so `2 × target_channels` directed
/// edges), by running Barabási–Albert at the nearest per-node attachment
/// count and then adding preferential extra channels (or dropping random
/// ones) to hit the target exactly.
///
/// Used to synthesize the paper's processed Ripple topology (1,870
/// nodes / 17,416 directed edges = 8,708 channels) and Lightning
/// snapshot (2,511 nodes / 36,016 channels).
pub fn scale_free_with_channels(n: usize, target_channels: usize, seed: u64) -> DiGraph {
    assert!(n >= 3);
    let m = (target_channels / n).max(1);
    assert!(
        n > m,
        "target_channels implies attachment degree ≥ node count"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut channels, mut ends) = preferential_attachment(n, m, &mut rng);
    // Top up with preferential extra channels.
    let mut guard = 0usize;
    while channels.len() < target_channels && guard < 100 * target_channels {
        guard += 1;
        let u = ends[rng.random_range(0..ends.len())];
        let v = ends[rng.random_range(0..ends.len())];
        if u != v && channels.insert(key(u, v)) {
            ends.extend([u, v]);
        }
    }
    // Trim if the seed clique overshot (possible for tiny targets).
    if channels.len() > target_channels {
        let mut sorted: Vec<(NodeId, NodeId)> = channels.iter().copied().collect();
        while channels.len() > target_channels {
            let pick = sorted.swap_remove(rng.random_range(0..sorted.len()));
            channels.remove(&pick);
        }
    }
    build_bidirectional(n, channels)
}

/// Generates an Erdős–Rényi G(n, p) graph with bidirectional channels.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut channels: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random::<f64>() < p {
                channels.insert((node(u), node(v)));
            }
        }
    }
    build_bidirectional(n, channels)
}

/// Lays out one channel per pair, `(u, v)` then `(v, u)`, in set order:
/// channel `i` gets edge ids `2i` and `2i + 1`. Node `u`'s out-row then
/// lists its channels to lower nodes before those to higher ones, each
/// in node order, so every row comes out sorted by head.
#[expect(
    clippy::expect_used,
    reason = "generators emit distinct in-range pairs without duplicates"
)]
fn build_bidirectional(n: usize, channels: BTreeSet<(NodeId, NodeId)>) -> DiGraph {
    let mut list = Vec::with_capacity(2 * channels.len());
    for (u, v) in channels {
        list.extend([(u, v), (v, u)]);
    }
    DiGraph::from_edge_vec(n, list).expect("generator produced an invalid edge")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watts_strogatz_has_expected_channel_count() {
        let g = watts_strogatz(50, 4, 0.3, 7);
        // Rewiring preserves channel count: n * k / 2 channels → n * k
        // directed edges (unless a saturated node blocked a rewire, which
        // cannot reduce the count either).
        assert_eq!(g.edge_count(), 50 * 4);
    }

    #[test]
    fn watts_strogatz_is_deterministic() {
        let a = watts_strogatz(30, 4, 0.5, 42);
        let b = watts_strogatz(30, 4, 0.5, 42);
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn watts_strogatz_differs_across_seeds() {
        let a = watts_strogatz(30, 4, 0.5, 1);
        let b = watts_strogatz(30, 4, 0.5, 2);
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_ne!(ea, eb);
    }

    #[test]
    #[should_panic(expected = "k must be even")]
    fn watts_strogatz_rejects_odd_k() {
        watts_strogatz(10, 3, 0.1, 0);
    }

    #[test]
    fn ba_channel_count() {
        let n = 100;
        let m = 3;
        let g = barabasi_albert(n, m, 9);
        // Seed clique C(m+1, 2) + (n - m - 1) * m channels.
        let expected = (m + 1) * m / 2 + (n - m - 1) * m;
        assert_eq!(g.edge_count(), expected * 2);
    }

    #[test]
    fn ba_degree_distribution_is_skewed() {
        let g = barabasi_albert(500, 2, 11);
        let mut degs: Vec<usize> = g.nodes().map(|u| g.out_degree(u)).collect();
        degs.sort_unstable();
        let max = *degs.last().unwrap();
        let median = degs[degs.len() / 2];
        // Hubs should dominate: max degree far above median.
        assert!(
            max >= 5 * median,
            "max {max} not ≫ median {median}; not scale-free-ish"
        );
    }

    #[test]
    fn scale_free_hits_exact_channel_target() {
        let g = scale_free_with_channels(200, 870, 3);
        assert_eq!(g.edge_count(), 870 * 2);
    }

    #[test]
    fn scale_free_ripple_scale_parameters() {
        // The actual Ripple-scale call used by pcn-workload.
        let g = scale_free_with_channels(1870, 8708, 5);
        assert_eq!(g.node_count(), 1870);
        assert_eq!(g.edge_count(), 17416);
    }

    #[test]
    fn generated_graphs_are_mostly_connected() {
        let g = watts_strogatz(60, 6, 0.2, 13);
        assert_eq!(g.largest_weak_component().len(), 60);
        let g = barabasi_albert(60, 2, 13);
        assert_eq!(g.largest_weak_component().len(), 60);
    }

    #[test]
    fn erdos_renyi_edge_probability_sane() {
        let g = erdos_renyi(40, 0.0, 1);
        assert_eq!(g.edge_count(), 0);
        let g = erdos_renyi(40, 1.0, 1);
        assert_eq!(g.edge_count(), 40 * 39); // complete, both directions
    }

    #[test]
    fn every_channel_is_bidirectional() {
        let g = barabasi_albert(50, 2, 21);
        for (e, _, _) in g.edges() {
            assert!(g.reverse_edge(e).is_some());
        }
    }
}
