//! Yen's algorithm for k shortest loopless paths.
//!
//! Flash's mice routing computes "top-m shortest paths (i.e. using Yen's
//! algorithm) on the local topology G" (§3.3), and on a dead path
//! "replaces it with the next top shortest path". Both are one
//! enumeration: [`RankedPaths`] hands out the fewest-hops simple paths of
//! one `(s, t)` pair one rank at a time and keeps Yen's state (ranks
//! found, candidate pool) between calls, so rank `r + 1` costs one round
//! of spur searches off rank `r` rather than a rerun from rank 0.
//! [`k_shortest_paths_hops`] collects the first `k` ranks. Spur searches
//! are BFS with deterministic tie-breaking, so routing tables are
//! reproducible across runs.
//!
//! A new rank spurs only from the node where it left the rank it was
//! spurred from (Lawler's rule): every spur further up the root the two
//! share has already run under the bans it would run under now, so its
//! path is in the pool already, or it found none.
//!
//! Spur searches run on the caller's [`YenScratch`]: a
//! [`PhaseScratch`] whose search meets in the middle, one single-call
//! sequence per spur that avoids the root's nodes, and the edges out of
//! the spur node that found paths with the same root took, banned by
//! generation stamps in an edge-indexed array. A spur therefore hashes
//! nothing per scanned edge and allocates only its path and the
//! candidate it adds.

use crate::bfs::{self, PhaseScratch, SearchWork};
use crate::{path::Path, DiGraph};
use pcn_types::NodeId;

/// The working arrays of Yen's spur searches, reusable across
/// enumerations and graphs: the search and the generation-stamped edge
/// bans. They are sized by the first spur, re-sized whenever the graph's
/// node or edge count changes, and what they held before never shows in a
/// rank. A mice routing table owns one; [`k_shortest_paths_hops`] builds
/// a throwaway one per call.
#[derive(Clone, Debug, Default)]
pub struct YenScratch {
    search: PhaseScratch,
    /// `edge_ban[e] == gen` iff a found path with the current root
    /// leaves the spur node by `e`.
    edge_ban: Vec<u32>,
    gen: u32,
}

impl YenScratch {
    /// A scratch whose ban generation starts at `gen`, so a test crosses
    /// the wrap-around at `u32::MAX` within a few spurs.
    #[cfg(test)]
    pub(crate) fn with_generation(gen: u32) -> Self {
        YenScratch {
            gen,
            ..Self::default()
        }
    }

    /// The work of every search run on this scratch: a phase is one
    /// search, for rank 0 or a spur, and a path one that found a path.
    pub fn work(&self) -> SearchWork {
        self.search.work()
    }

    /// Sizes the ban array for `g` and opens a generation in which
    /// nothing is banned.
    fn next_generation(&mut self, g: &DiGraph) {
        if self.edge_ban.len() != g.edge_count() {
            self.edge_ban.clear();
            self.edge_ban.resize(g.edge_count(), 0);
        }
        if self.gen == u32::MAX {
            self.edge_ban.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
    }
}

/// A resumable enumeration of the simple paths `s → t` in non-decreasing
/// hop count, ties broken by node sequence (Yen 1971 over BFS).
///
/// The ranks do not depend on how many are eventually asked for: the
/// first `k` paths of a longer enumeration are the enumeration of `k`.
/// Every call to [`next_path`](Self::next_path) must pass the same
/// graph; ranks found on one topology say nothing about another.
#[derive(Clone, Debug)]
pub struct RankedPaths {
    s: NodeId,
    t: NodeId,
    /// Every rank handed out so far, in rank order.
    found: Vec<Path>,
    /// Spur paths generated but not yet promoted to a rank, each once,
    /// with the index of the node it was spurred from.
    candidates: Vec<(Path, usize)>,
    /// The index of the node where the newest rank left the rank it was
    /// spurred from (0 for rank 0): where its spurs start.
    deviation: usize,
    /// Whether the last rank's spur paths are already in `candidates`
    /// (for an empty `found`: whether the search for rank 0 has run).
    /// Makes the search lazy — a rank is spurred only when a later one
    /// is asked for — and makes asking an exhausted enumeration free.
    spurred: bool,
}

impl RankedPaths {
    /// Starts the enumeration for `s → t`; no search runs until the
    /// first [`next_path`](Self::next_path).
    pub fn new(s: NodeId, t: NodeId) -> Self {
        RankedPaths {
            s,
            t,
            found: Vec::new(),
            candidates: Vec::new(),
            deviation: 0,
            spurred: false,
        }
    }

    /// The ranks handed out so far, in rank order.
    pub fn found(&self) -> &[Path] {
        &self.found
    }

    /// Finds and returns the next rank, or `None` once `g` holds no
    /// further simple path `s → t` — after which every call returns
    /// `None` without searching. The searches run on `scratch`, which
    /// may have served any other enumeration or graph before.
    pub fn next_path(&mut self, g: &DiGraph, scratch: &mut YenScratch) -> Option<&Path> {
        if !self.spurred {
            self.spurred = true;
            if self.found.is_empty() {
                scratch.search.begin(self.s, self.t, &[]);
                let first = scratch.search.next_path(g, |_| true);
                self.candidates.extend(first.map(|p| (p, 0)));
            } else {
                self.spur(g, scratch);
            }
        }
        // The candidate pool is small (≤ hops per rank found): a linear
        // scan for the (hops, nodes) minimum is fine at the k ≤ 30 scale
        // Flash uses.
        let (best, _) = self
            .candidates
            .iter()
            .enumerate()
            .min_by_key(|&(_, (p, _))| (p.hops(), p.nodes()))?;
        let (path, deviation) = self.candidates.swap_remove(best);
        self.found.push(path);
        self.deviation = deviation;
        self.spurred = false;
        self.found.last()
    }

    /// Adds to the pool, for each node of the newest rank from its
    /// deviation on, except the last, the shortest deviation that leaves
    /// it by an edge no found path with the same root has taken.
    fn spur(&mut self, g: &DiGraph, scratch: &mut YenScratch) {
        let RankedPaths {
            t,
            found,
            candidates,
            deviation,
            ..
        } = self;
        let Some(prev) = found.last() else { return };
        let prev = prev.nodes();
        // Dev-profile oracle for Lawler's rule: each spur it skips finds,
        // by definition, nothing or a path already in the pool.
        debug_assert!(
            (0..*deviation).all(|i| {
                spur_by_definition(g, found, prev, i, *t).is_none_or(|sp| {
                    let nodes = [&prev[..i], sp.nodes()].concat();
                    candidates.iter().any(|(c, _)| c.nodes() == nodes)
                })
            }),
            "a spur of {prev:?} above its deviation {deviation} finds a new path"
        );
        for i in *deviation..prev.len() - 1 {
            let (spur, root) = (prev[i], &prev[..i]);
            scratch.next_generation(g);
            let YenScratch {
                search,
                edge_ban,
                gen,
            } = &mut *scratch;
            let gen = *gen;
            for p in found.iter() {
                let nodes = p.nodes();
                if nodes.len() > i + 1 && nodes[..=i] == prev[..=i] {
                    if let Some(e) = g.edge(nodes[i], nodes[i + 1]) {
                        edge_ban[e.index()] = gen;
                    }
                }
            }
            // The search avoids the root's nodes, which keeps paths
            // loopless: neither side enters one and the walk never steps
            // on one, so an edge it crosses has both ends off the root.
            search.begin(spur, *t, root);
            let spur_path = search.next_path(g, |e| edge_ban[e.index()] != gen);
            debug_assert_eq!(
                spur_path,
                spur_by_definition(g, found, prev, i, *t),
                "spur {i} of {prev:?}: the stamped bans diverged from their definition"
            );
            let Some(sp) = spur_path else { continue };
            let mut nodes = Vec::with_capacity(root.len() + sp.nodes().len());
            nodes.extend_from_slice(root);
            nodes.extend_from_slice(sp.nodes());
            // Two ranks can spur the same deviation; it enters the pool
            // once, with the first one's spur index, the lower of the
            // two. (It cannot equal a found path: every found path with
            // this root has its edge out of the spur node banned.)
            if !candidates.iter().any(|(c, _)| c.nodes() == nodes) {
                candidates.push((Path::from_vec_unchecked(nodes), i));
            }
        }
    }
}

/// The spur off node `i` of `prev` by its definition, the dev-profile
/// oracle of [`RankedPaths::spur`]: the forward loop from `prev[i]` to
/// `t`, on a fresh search, off the root's nodes and off every edge out
/// of `prev[i]` that a found path with root `prev[..=i]` takes, the
/// bans rebuilt by linear scans.
fn spur_by_definition(
    g: &DiGraph,
    found: &[Path],
    prev: &[NodeId],
    i: usize,
    t: NodeId,
) -> Option<Path> {
    let (spur, root) = (prev[i], &prev[..i]);
    bfs::shortest_path_filtered(g, spur, t, |e| {
        let (u, v) = g.endpoints(e);
        let taken = |p: &Path| {
            u == spur && p.nodes().starts_with(&prev[..=i]) && p.nodes().get(i + 1) == Some(&v)
        };
        !found.iter().any(taken) && !root.contains(&u) && !root.contains(&v)
    })
}

/// Up to `k` fewest-hops simple paths `s → t` in rank order: the first
/// `k` steps of a [`RankedPaths`], all on one throwaway [`YenScratch`].
/// Fewer are returned when the graph does not contain `k` distinct
/// simple paths.
pub fn k_shortest_paths_hops(g: &DiGraph, s: NodeId, t: NodeId, k: usize) -> Vec<Path> {
    let mut ranked = RankedPaths::new(s, t);
    let mut scratch = YenScratch::default();
    while ranked.found.len() < k && ranked.next_path(g, &mut scratch).is_some() {}
    ranked.found
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// The classic example graph from Yen's paper (adapted): multiple
    /// routes 0 → 5 with varying lengths.
    fn test_graph() -> DiGraph {
        let mut g = DiGraph::new(6);
        for (u, v) in [
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 3),
            (2, 3),
            (2, 4),
            (3, 4),
            (3, 5),
            (4, 5),
        ] {
            g.add_edge(n(u), n(v)).unwrap();
        }
        g
    }

    #[test]
    fn first_path_is_shortest() {
        let g = test_graph();
        let ps = k_shortest_paths_hops(&g, n(0), n(5), 3);
        assert_eq!(ps[0].hops(), 3);
    }

    #[test]
    fn paths_are_sorted_unique_and_simple() {
        let g = test_graph();
        let ps = k_shortest_paths_hops(&g, n(0), n(5), 10);
        assert!(!ps.is_empty());
        for w in ps.windows(2) {
            assert!(w[0].hops() <= w[1].hops(), "not sorted");
            assert_ne!(w[0].nodes(), w[1].nodes(), "duplicate path");
        }
        for p in &ps {
            let set: BTreeSet<_> = p.nodes().iter().collect();
            assert_eq!(set.len(), p.nodes().len(), "path has a loop");
            assert_eq!(p.source(), n(0));
            assert_eq!(p.target(), n(5));
        }
    }

    #[test]
    fn finds_all_simple_paths_when_k_large() {
        // Count simple paths 0→5 by brute force and check Yen finds all.
        let g = test_graph();
        fn count(g: &DiGraph, cur: NodeId, t: NodeId, seen: &mut Vec<NodeId>) -> usize {
            if cur == t {
                return 1;
            }
            let mut total = 0;
            for &(v, _) in g.out_neighbors(cur) {
                if !seen.contains(&v) {
                    seen.push(v);
                    total += count(g, v, t, seen);
                    seen.pop();
                }
            }
            total
        }
        let mut seen = vec![n(0)];
        let total = count(&g, n(0), n(5), &mut seen);
        let ps = k_shortest_paths_hops(&g, n(0), n(5), 1000);
        assert_eq!(ps.len(), total);
    }

    #[test]
    fn k_zero_and_unreachable() {
        let g = test_graph();
        assert!(k_shortest_paths_hops(&g, n(0), n(5), 0).is_empty());
        assert!(k_shortest_paths_hops(&g, n(5), n(0), 4).is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let g = test_graph();
        let a = k_shortest_paths_hops(&g, n(0), n(5), 6);
        let b = k_shortest_paths_hops(&g, n(0), n(5), 6);
        assert_eq!(
            a.iter().map(|p| p.nodes().to_vec()).collect::<Vec<_>>(),
            b.iter().map(|p| p.nodes().to_vec()).collect::<Vec<_>>()
        );
    }

    /// Four billion spurs later the ban generation wraps; every rank
    /// stays what a fresh scratch finds.
    #[test]
    fn enumeration_survives_the_generation_wrap() {
        let g = test_graph();
        let mut scratch = YenScratch::with_generation(u32::MAX - 2);
        let mut ranks = RankedPaths::new(n(0), n(5));
        while ranks.next_path(&g, &mut scratch).is_some() {}
        assert_eq!(ranks.found(), k_shortest_paths_hops(&g, n(0), n(5), 1000));
        assert!(scratch.gen < 100, "the generation wrapped");
    }

    /// A root node `r` one hop before `t`. The spur off `x` avoids `r`,
    /// and its search grows from `t` first, where `r` is the tail of
    /// `r → t`: the search must not enter `r` from that side either.
    #[test]
    fn spur_search_never_enters_a_root_node_from_t() {
        let [s, r, x, y, t] = [0, 1, 2, 3, 4].map(n);
        let mut g = DiGraph::new(9);
        for (u, v) in [(s, r), (r, t), (r, x), (x, t), (x, y), (y, t)] {
            g.add_edge(u, v).unwrap();
        }
        // Leaves make `x`'s frontier the dearer side to grow.
        for leaf in 5..9 {
            g.add_edge(x, n(leaf)).unwrap();
        }
        let mut scratch = YenScratch::default();
        let mut ranks = RankedPaths::new(s, t);
        for _ in 0..3 {
            ranks.next_path(&g, &mut scratch);
        }
        // The third rank came from the spur off `x` with root [s, r],
        // the last search the scratch ran.
        assert!(!scratch.search.entered_from_t(r), "entered an avoided node");
        assert_eq!(ranks.next_path(&g, &mut scratch), None);
        let found: Vec<_> = ranks.found().iter().map(|p| p.nodes()).collect();
        assert_eq!(
            found,
            [&[s, r, t][..], &[s, r, x, t][..], &[s, r, x, y, t][..]]
        );
    }

    /// White-box: the wrap refills the ban array, so no stamp of the
    /// generation that first held a number reads as banned once it comes
    /// round again, and a graph of another edge count re-sizes it.
    #[test]
    fn bans_are_refilled_on_wrap_and_resized_per_graph() {
        let g = test_graph();
        let mut scratch = YenScratch::default();
        scratch.next_generation(&g);
        assert_eq!(scratch.gen, 1);
        scratch.edge_ban[4] = scratch.gen;
        scratch.gen = u32::MAX;
        scratch.next_generation(&g);
        assert_eq!(scratch.gen, 1);
        assert_ne!(scratch.edge_ban[4], scratch.gen);

        let mut denser = g.clone();
        denser.add_edge(n(5), n(0)).unwrap();
        let mut bigger = DiGraph::new(9);
        bigger.add_edge(n(8), n(0)).unwrap();
        for h in [&denser, &bigger, &g] {
            scratch.next_generation(h);
            assert_eq!(scratch.edge_ban.len(), h.edge_count());
        }
    }
}
