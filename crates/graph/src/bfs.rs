//! Breadth-first shortest paths with edge filtering.
//!
//! Algorithm 1 of the paper calls `Breadth-First-Search(G, C', s, t)`: a
//! BFS over the locally known topology that only traverses edges whose
//! *residual* capacity is non-zero. [`shortest_path_filtered`] is that
//! primitive; the filter closure receives the edge id so callers can
//! consult any side table (residual matrices, exclusion sets, ...).
//!
//! [`BfsScratch::search`] returns the same path on arrays kept between
//! calls, and meets in the middle to get there: it grows the search from
//! both ends, so it scans the levels near `s` and near `t` rather than
//! every level before `t` (`docs/algorithm1.md` has the argument); Yen's
//! spurs run it. [`PhaseScratch`] serves Algorithm 1, whose probes
//! search a residual graph that only shrinks between them: one such
//! search per s–t distance, then a walk of its level DAG per probe. The
//! forward loop stays as the reference: [`shortest_path_filtered`],
//! [`distances_from`] and [`spanning_tree`] run it, and the dev-profile
//! oracles of Algorithm 1 and Yen hold every search to it.

use crate::{path::Path, DiGraph, EdgeId};
use pcn_types::NodeId;

/// Reusable state of breadth-first searches: discovery stamps, the
/// forward tree, the distances to `t` and both discovery orders, all
/// kept between calls so a caller that searches repeatedly allocates
/// only the paths it gets back.
///
/// Each side keeps its discovery order in a `Vec` that is never popped,
/// so every level it has grown is a consecutive run of it.
#[derive(Clone, Debug, Default)]
pub struct BfsScratch {
    /// `seen[v] == stamp` iff the search from the source discovered `v`,
    /// by the edge from `parent[v]`, or the search avoids `v`.
    seen: Vec<u32>,
    parent: Vec<NodeId>,
    /// `back[v] == (stamp, h)` iff the search from `t` discovered `v`,
    /// `h` hops before `t`, or the search avoids `v` (`h == u32::MAX`).
    back: Vec<(u32, u32)>,
    stamp: u32,
    /// Discovery order from the source.
    fwd: Vec<NodeId>,
    /// Discovery order from `t`, along in-edges.
    bwd: Vec<NodeId>,
}

impl BfsScratch {
    /// An empty scratch; arrays are sized by the first search.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds a fewest-hops path `s → t` that uses only edges accepted by
    /// `edge_ok` and never steps on a node of `avoid`, or `None` if `t`
    /// is unreachable: exactly the path [`shortest_path_filtered`] finds
    /// when its filter also rejects every edge with an end in `avoid`,
    /// ties broken by adjacency order. `avoid` must hold neither `s` nor
    /// `t`.
    ///
    /// The search meets in the middle. Each step grows one level on the
    /// side whose frontier has fewer adjacency entries to scan: along
    /// out-edges from `s`, or along in-edges into `t`. The avoided nodes
    /// count as discovered by both sides before the first step, so
    /// neither enters them. A forward level stops at the first node it
    /// discovers that the other side holds; a level grown from `t` is
    /// completed, then its meeting node is the forward frontier's first
    /// in discovery order. The answer is the forward tree's path to the
    /// meeting node, then a walk that always takes the first usable
    /// out-edge to a node one hop nearer to `t` (`docs/algorithm1.md`
    /// proves both halves equal the forward BFS). `edge_ok` is asked
    /// about edges from both ends and in no fixed order, so within one
    /// search it must be a function of the edge alone.
    // pcn-lint: hot — Yen runs one per spur node; every array is scratch-owned
    pub fn search(
        &mut self,
        g: &DiGraph,
        s: NodeId,
        t: NodeId,
        avoid: &[NodeId],
        mut edge_ok: impl FnMut(EdgeId) -> bool,
    ) -> Option<Path> {
        debug_assert!(
            !avoid.contains(&s) && !avoid.contains(&t),
            "{s:?} → {t:?} avoids one of its own ends"
        );
        if s == t || s.index() >= g.node_count() || t.index() >= g.node_count() {
            return None;
        }
        let stamp = self.start(g);
        let BfsScratch {
            seen,
            parent,
            back,
            fwd,
            bwd,
            ..
        } = &mut *self;
        for v in avoid {
            seen[v.index()] = stamp;
            back[v.index()] = (stamp, u32::MAX);
        }
        seen[s.index()] = stamp;
        fwd.push(s);
        back[t.index()] = (stamp, 0);
        bwd.push(t);
        // Each side's frontier is its last complete level, `fwd[f_lo..]`
        // from `s` and `bwd[b_lo..]` at `b` hops before `t`; its cost is
        // the adjacency entries growing it would scan.
        let (mut f_lo, mut f_cost) = (0, g.out_degree(s));
        let (mut b_lo, mut b_cost, mut b) = (0, g.in_neighbors(t).len(), 0);
        let m = 'grow: loop {
            if f_cost <= b_cost {
                let end = fwd.len();
                f_cost = 0;
                for i in f_lo..end {
                    let u = fwd[i];
                    for &(v, e) in g.out_neighbors(u) {
                        if seen[v.index()] == stamp || !edge_ok(e) {
                            continue;
                        }
                        seen[v.index()] = stamp;
                        parent[v.index()] = u;
                        // Every meeting node of this level is `b` hops
                        // before `t`; the forward BFS's path runs
                        // through the first one discovered.
                        if back[v.index()].0 == stamp {
                            break 'grow v;
                        }
                        fwd.push(v);
                        f_cost += g.out_degree(v);
                    }
                }
                if fwd.len() == end {
                    return None;
                }
                f_lo = end;
            } else {
                let (end, mut met) = (bwd.len(), false);
                b_cost = 0;
                b += 1;
                for i in b_lo..end {
                    let v = bwd[i];
                    for &(u, e) in g.in_neighbors(v) {
                        if back[u.index()].0 == stamp || !edge_ok(e) {
                            continue;
                        }
                        back[u.index()] = (stamp, b);
                        bwd.push(u);
                        b_cost += g.in_neighbors(u).len();
                        met |= seen[u.index()] == stamp;
                    }
                }
                if bwd.len() == end {
                    return None;
                }
                b_lo = end;
                // The meeting nodes are the forward frontier's nodes this
                // level reached; the first in discovery order is the one.
                if met {
                    break *fwd[f_lo..].iter().find(|v| back[v.index()].0 == stamp)?;
                }
            }
        };
        let to_t = back[m.index()].1;
        Some(self.path(g, s, m, to_t, &mut edge_ok))
    }

    /// Whether the last search's half grown from `t` discovered `v`; an
    /// avoided node was never discovered, only stamped.
    #[cfg(test)]
    pub(crate) fn reached_from_t(&self, v: NodeId) -> bool {
        let (stamp, h) = self.back[v.index()];
        stamp == self.stamp && h != u32::MAX
    }

    /// Discovers every node reachable from `root` — along in-edges when
    /// `backwards` — and returns them (without `root`) in discovery
    /// order, each with the node it was discovered from.
    fn explore(
        &mut self,
        g: &DiGraph,
        root: NodeId,
        backwards: bool,
    ) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.scan(g, root, None, backwards, |_| true);
        self.fwd[1..].iter().map(|&v| (v, self.parent[v.index()]))
    }

    /// Sizes the arrays for `g` and opens a new stamp under which
    /// nothing is discovered; returns the stamp.
    fn start(&mut self, g: &DiGraph) -> u32 {
        let n = g.node_count();
        if self.seen.len() != n {
            self.seen.clear();
            self.seen.resize(n, 0);
            self.back.clear();
            self.back.resize(n, (0, 0));
            self.parent.resize(n, NodeId(0));
            self.fwd.reserve(n);
            self.bwd.reserve(n);
        }
        if self.stamp == u32::MAX {
            self.seen.fill(0);
            self.back.fill((0, 0));
            self.stamp = 0;
        }
        self.stamp += 1;
        self.fwd.clear();
        self.bwd.clear();
        self.stamp
    }

    /// The forward loop, the reference [`BfsScratch::search`] is held
    /// to: expands `root`'s discovery order along out-edges or
    /// (`backwards`) in-edges until `t` is discovered or nothing is
    /// left, and returns the tree path to `t`.
    // pcn-lint: hot — Shortest Path routes every payment with one, and every dev-profile oracle check runs one; every array is scratch-owned
    fn scan(
        &mut self,
        g: &DiGraph,
        root: NodeId,
        t: Option<NodeId>,
        backwards: bool,
        mut edge_ok: impl FnMut(EdgeId) -> bool,
    ) -> Option<Path> {
        let stamp = self.start(g);
        self.seen[root.index()] = stamp;
        self.fwd.push(root);
        let mut head = 0;
        while let Some(&u) = self.fwd.get(head) {
            let adjacent = if backwards {
                g.in_neighbors(u)
            } else {
                g.out_neighbors(u)
            };
            for &(v, e) in adjacent {
                if self.seen[v.index()] == stamp || !edge_ok(e) {
                    continue;
                }
                self.seen[v.index()] = stamp;
                self.parent[v.index()] = u;
                self.fwd.push(v);
                if Some(v) == t {
                    return Some(self.path(g, root, v, 0, &mut edge_ok));
                }
            }
            head += 1;
        }
        None
    }

    /// The path through `m`: the forward tree's path from `s` to `m`,
    /// then `to_t` more hops, each along the first usable out-edge to a
    /// node the search from `t` found one hop nearer to it.
    fn path(
        &self,
        g: &DiGraph,
        s: NodeId,
        m: NodeId,
        to_t: u32,
        mut edge_ok: impl FnMut(EdgeId) -> bool,
    ) -> Path {
        let mut depth = 0;
        let mut v = m;
        while v != s {
            v = self.parent[v.index()];
            depth += 1;
        }
        // pcn-lint: allow(hot-alloc) — the result path is the search's return value, one per search and not per scanned edge
        let mut nodes = vec![m; depth + 1 + to_t as usize];
        for i in (0..depth).rev() {
            nodes[i] = self.parent[nodes[i + 1].index()];
        }
        for i in depth + 1..nodes.len() {
            let left = (nodes.len() - 1 - i) as u32;
            let next = g
                .out_neighbors(nodes[i - 1])
                .iter()
                .find(|&&(w, e)| self.back[w.index()] == (self.stamp, left) && edge_ok(e));
            debug_assert!(next.is_some(), "no usable edge one hop nearer to t");
            if let Some(&(w, _)) = next {
                nodes[i] = w;
            }
        }
        Path::from_vec_unchecked(nodes)
    }
}

/// The work a [`PhaseScratch`] has done since it was made: plain
/// counts, summed over every sequence it served.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchWork {
    /// Adjacency entries scanned, by the phase searches and the walks.
    pub scanned: u64,
    /// Phases opened: one meet-in-the-middle search each.
    pub phases: u64,
    /// Paths returned.
    pub paths: u64,
}

/// What one phase knows of a node; an entry written by another phase
/// holds nothing.
#[derive(Clone, Copy, Debug, Default)]
struct Level {
    stamp: u32,
    /// Hops from `s`, or [`UNSEEN`].
    fwd: u32,
    /// Hops to `t`, or [`UNSEEN`].
    back: u32,
    /// The out-adjacency position of the next edge the walk tries from
    /// this node, or [`DEAD`] once none is left.
    arc: u32,
}

/// A distance no side has found.
const UNSEEN: u32 = u32::MAX;
/// The arc of a node no walk can leave toward `t` in this phase.
const DEAD: u32 = u32::MAX;

/// Reusable state of a *sequence* of fewest-hops `s → t` searches in
/// which the filter only loses edges between calls, besides gaining
/// the reverses of the path just returned — Algorithm 1's residual
/// graph. Each call returns what [`shortest_path_filtered`] returns on
/// the filter of that moment, as [`BfsScratch::search`] would, but the
/// searches are shared Dinic-style, one per path length.
///
/// A *phase* opens with a meet-in-the-middle search, as
/// [`BfsScratch::search`] grows it, that stops at the first node both
/// sides hold. That fixes the s–t distance `d` and leaves the exact hop
/// counts from `s` of levels `0..F` and to `t` of levels `0..=d − F`,
/// for the `F` at which the sides met: the phase's level DAG. Every
/// shortest path of the phase's graph runs through it, and so does
/// every shortest path of a later call that is still `d` hops long
/// (`docs/algorithm1.md`).
/// Each call walks the DAG depth first from `s` in adjacency order.
/// Every node keeps a current arc that never rewinds within the phase,
/// so the walk returns the forward BFS's path and scans each adjacency
/// entry about once per phase. When the walk from `s` finds nothing
/// the distance has grown, and the next phase opens.
#[derive(Clone, Debug, Default)]
pub struct PhaseScratch {
    level: Vec<Level>,
    stamp: u32,
    /// The opening search's discovery orders, from `s` and from `t`
    /// along in-edges; each level is a consecutive run of its list.
    fwd: Vec<NodeId>,
    bwd: Vec<NodeId>,
    /// The walk's path from `s`.
    walk: Vec<NodeId>,
    /// `(s, t)` of the sequence; `None` before the first `begin`.
    ends: Option<(NodeId, NodeId)>,
    /// `(F, d)` of the open phase, or `None` before the next one.
    phase: Option<(u32, u32)>,
    work: SearchWork,
}

impl PhaseScratch {
    /// An empty scratch; arrays are sized by the first phase.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a sequence of `s → t` searches. Every call to
    /// [`PhaseScratch::next_path`] until the next `begin` must pass the
    /// same graph.
    pub fn begin(&mut self, s: NodeId, t: NodeId) {
        (self.ends, self.phase) = (Some((s, t)), None);
    }

    /// The work done so far.
    pub fn work(&self) -> SearchWork {
        self.work
    }

    /// The path [`shortest_path_filtered`] finds from `s` to `t` under
    /// `edge_ok`, or `None` if `t` is unreachable. Within one call the
    /// filter must be a function of the edge alone. Between calls of
    /// one sequence it may reject edges it accepted, and may start to
    /// accept only the reverses of the last path's edges.
    // pcn-lint: hot — Algorithm 1 takes every probe's path from here; the levels and the walk are scratch-owned
    pub fn next_path(
        &mut self,
        g: &DiGraph,
        mut edge_ok: impl FnMut(EdgeId) -> bool,
    ) -> Option<Path> {
        if let Some(phase) = self.phase {
            if let Some(path) = self.walk(g, phase, &mut edge_ok) {
                return Some(path);
            }
        }
        self.phase = self.open(g, &mut edge_ok);
        let path = self.walk(g, self.phase?, &mut edge_ok);
        debug_assert!(path.is_some(), "a fresh level DAG holds no path");
        path
    }

    /// Opens a phase: grows levels from `s` and `t`, each step on the
    /// side with fewer adjacency entries to scan, until a step finds a
    /// node the other side holds. Returns `(F, d)`: the walk reads
    /// depths below `F` by the distance from `s` and the rest by the
    /// distance to `t`. `None` when `t` is unreachable.
    fn open(
        &mut self,
        g: &DiGraph,
        edge_ok: &mut impl FnMut(EdgeId) -> bool,
    ) -> Option<(u32, u32)> {
        let ((s, t), n) = (self.ends?, g.node_count());
        if s == t || s.index() >= n || t.index() >= n {
            return None;
        }
        if self.level.len() != n {
            self.level.clear();
            self.level.resize(n, Level::default());
        }
        if self.stamp == u32::MAX {
            self.level.fill(Level::default());
            self.stamp = 0;
        }
        self.stamp += 1;
        self.work.phases += 1;
        let PhaseScratch {
            level,
            stamp,
            fwd,
            bwd,
            work,
            ..
        } = self;
        let fresh = Level {
            stamp: *stamp,
            fwd: UNSEEN,
            back: UNSEEN,
            arc: 0,
        };
        level[s.index()] = Level { fwd: 0, ..fresh };
        level[t.index()] = Level { back: 0, ..fresh };
        fwd.clear();
        fwd.push(s);
        bwd.clear();
        bwd.push(t);
        // Each side's frontier is its last level, `fwd[f_lo..]` at `a`
        // hops from `s` and `bwd[b_lo..]` at `b` hops before `t`; its
        // cost is the adjacency entries growing it would scan. Before
        // each step no node has both distances, so the first node a step
        // finds the other side holds closes a shortest path, `a + b` hops
        // after the step. The levels before it are complete on both
        // sides: `0..F` from `s` and `0..=d − F` to `t`, the ones the
        // walk reads.
        let (mut f_lo, mut f_cost, mut a) = (0, g.out_degree(s), 0);
        let (mut b_lo, mut b_cost, mut b) = (0, g.in_neighbors(t).len(), 0);
        loop {
            if f_cost <= b_cost {
                let end = fwd.len();
                f_cost = 0;
                a += 1;
                for i in f_lo..end {
                    for &(v, e) in g.out_neighbors(fwd[i]) {
                        work.scanned += 1;
                        let l = &mut level[v.index()];
                        if l.stamp == *stamp && l.fwd != UNSEEN || !edge_ok(e) {
                            continue;
                        }
                        if l.stamp != *stamp {
                            *l = fresh;
                        }
                        if l.back != UNSEEN {
                            return Some((a, a + b));
                        }
                        l.fwd = a;
                        fwd.push(v);
                        f_cost += g.out_degree(v);
                    }
                }
                if fwd.len() == end {
                    return None;
                }
                f_lo = end;
            } else {
                let end = bwd.len();
                b_cost = 0;
                b += 1;
                for i in b_lo..end {
                    for &(u, e) in g.in_neighbors(bwd[i]) {
                        work.scanned += 1;
                        let l = &mut level[u.index()];
                        if l.stamp == *stamp && l.back != UNSEEN || !edge_ok(e) {
                            continue;
                        }
                        if l.stamp != *stamp {
                            *l = fresh;
                        }
                        if l.fwd != UNSEEN {
                            return Some((a + 1, a + b));
                        }
                        l.back = b;
                        bwd.push(u);
                        b_cost += g.in_neighbors(u).len();
                    }
                }
                if bwd.len() == end {
                    return None;
                }
                b_lo = end;
            }
        }
    }

    /// Walks the open phase's level DAG from `s`: at depth `j` it takes
    /// the first usable edge past the current arc into a live node at
    /// level `j`, by its distance from `s` while `j < F` and by its
    /// distance to `t` from there on. Returns the path on reaching `t`,
    /// or `None` once `s` is dead.
    fn walk(
        &mut self,
        g: &DiGraph,
        (f, d): (u32, u32),
        edge_ok: &mut impl FnMut(EdgeId) -> bool,
    ) -> Option<Path> {
        let PhaseScratch {
            level,
            stamp,
            walk,
            ends,
            work,
            ..
        } = self;
        let (s, t) = (*ends)?;
        walk.clear();
        walk.push(s);
        let mut scanned = 0;
        let found = loop {
            let Some(&u) = walk.last() else {
                break false;
            };
            let j = walk.len() as u32;
            let adj = g.out_neighbors(u);
            let mut i = level[u.index()].arc as usize;
            let next = loop {
                let Some(&(v, e)) = adj.get(i) else {
                    break None;
                };
                scanned += 1;
                let l = level[v.index()];
                let at_j = if j < f { l.fwd == j } else { l.back == d - j };
                if l.stamp == *stamp && at_j && l.arc != DEAD && edge_ok(e) {
                    break Some(v);
                }
                i += 1;
            };
            if let Some(v) = next {
                level[u.index()].arc = i as u32;
                walk.push(v);
                if v == t {
                    break true;
                }
            } else {
                // Nothing left below `u`: it is dead for the phase, and
                // its parent moves past the edge into it.
                level[u.index()].arc = DEAD;
                walk.pop();
                if let Some(&p) = walk.last() {
                    level[p.index()].arc += 1;
                }
            }
        };
        work.scanned += scanned;
        if !found {
            return None;
        }
        work.paths += 1;
        // pcn-lint: allow(hot-alloc) — the result path is the walk's return value, one per call and not per scanned edge
        Some(Path::from_vec_unchecked(walk.clone()))
    }
}

/// Finds a fewest-hops path `s → t` using only edges accepted by
/// `edge_ok`, or `None` if `t` is unreachable.
///
/// Ties are broken by adjacency order, which is deterministic for a given
/// graph construction order — important for reproducible experiments.
/// This is the forward loop on a fresh scratch; a caller that searches
/// repeatedly keeps a [`BfsScratch`] and gets the same path from
/// [`BfsScratch::search`].
pub fn shortest_path_filtered(
    g: &DiGraph,
    s: NodeId,
    t: NodeId,
    edge_ok: impl FnMut(EdgeId) -> bool,
) -> Option<Path> {
    if s == t || s.index() >= g.node_count() || t.index() >= g.node_count() {
        return None;
    }
    BfsScratch::new().scan(g, s, Some(t), false, edge_ok)
}

/// Finds a fewest-hops path using every edge (no filter).
pub fn shortest_path(g: &DiGraph, s: NodeId, t: NodeId) -> Option<Path> {
    shortest_path_filtered(g, s, t, |_| true)
}

/// Hop distances from `s` to every node (`usize::MAX` when unreachable).
pub fn distances_from(g: &DiGraph, s: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.node_count()];
    if s.index() >= g.node_count() {
        return dist;
    }
    dist[s.index()] = 0;
    for (v, parent) in BfsScratch::new().explore(g, s, false) {
        dist[v.index()] = dist[parent.index()] + 1;
    }
    dist
}

/// A BFS spanning tree rooted at `root`, following edges *backwards*
/// (each entry is the parent on a shortest path **to** the root) when
/// `toward_root` is true, or forwards otherwise.
///
/// SpeedyMurmurs' landmark trees and SilentWhispers-style landmark
/// routing both build on this primitive.
pub fn spanning_tree(g: &DiGraph, root: NodeId, toward_root: bool) -> Vec<Option<NodeId>> {
    let mut parent: Vec<Option<NodeId>> = vec![None; g.node_count()];
    if root.index() >= g.node_count() {
        return parent;
    }
    // With `toward_root`, v is discovered from u when v → u exists: v's
    // route toward the root goes through u.
    for (v, from) in BfsScratch::new().explore(g, root, toward_root) {
        parent[v.index()] = Some(from);
    }
    parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_types::Result;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// The Figure 5(a) topology: node 1 reaches 6 via 2 (bottleneck) or
    /// via the longer 1-5-4-6 route. Node ids are 0-based (paper − 1).
    fn fig5a() -> Result<DiGraph> {
        let mut g = DiGraph::new(6);
        for (u, v) in [(1, 2), (1, 5), (2, 3), (2, 4), (3, 6), (4, 6), (5, 4)] {
            g.add_edge(n(u - 1), n(v - 1))?;
        }
        Ok(g)
    }

    #[test]
    fn finds_fewest_hops() {
        let g = fig5a().unwrap();
        let p = shortest_path(&g, n(0), n(5)).unwrap();
        assert_eq!(p.hops(), 3);
        assert_eq!(p.source(), n(0));
        assert_eq!(p.target(), n(5));
    }

    #[test]
    fn filter_excludes_edges() {
        let g = fig5a().unwrap();
        let via_2 = g.edge(n(0), n(1)).unwrap();
        // Block 1→2; the only remaining route is 1-5-4-6.
        let p = shortest_path_filtered(&g, n(0), n(5), |e| e != via_2).unwrap();
        assert_eq!(p.nodes(), &[n(0), n(4), n(3), n(5)]);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g = DiGraph::new(3);
        g.add_edge(n(0), n(1)).unwrap();
        assert!(shortest_path(&g, n(0), n(2)).is_none());
        // Directed: cannot go backwards.
        assert!(shortest_path(&g, n(1), n(0)).is_none());
    }

    #[test]
    fn same_source_target_is_none() {
        let g = fig5a().unwrap();
        assert!(shortest_path(&g, n(0), n(0)).is_none());
    }

    #[test]
    fn distances_match_paths() {
        let g = fig5a().unwrap();
        let d = distances_from(&g, n(0));
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1); // node 2
        assert_eq!(d[5], 3); // node 6
    }

    #[test]
    fn spanning_tree_toward_root_points_at_parent() {
        let mut g = DiGraph::new(3);
        g.add_channel(n(0), n(1)).unwrap();
        g.add_channel(n(1), n(2)).unwrap();
        let tree = spanning_tree(&g, n(0), true);
        assert_eq!(tree[0], None);
        assert_eq!(tree[1], Some(n(0)));
        assert_eq!(tree[2], Some(n(1)));
    }

    #[test]
    fn spanning_tree_respects_direction() {
        let mut g = DiGraph::new(3);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        // toward_root: need edges INTO the visited set; 0 has in-degree 0
        // from 1's perspective... here only 0→1→2 exist so no node can
        // route toward root 2 except via those edges.
        let tree = spanning_tree(&g, n(2), true);
        assert_eq!(tree[1], Some(n(2)));
        assert_eq!(tree[0], Some(n(1)));
    }

    /// The probes of Algorithm 1 on Figure 5(a), one search each on one
    /// scratch: the tie at node 2 goes to the adjacency-first edge.
    #[test]
    fn search_routes_around_the_blocked_edge() {
        let g = fig5a().unwrap();
        let mut bfs = BfsScratch::new();
        let p = bfs.search(&g, n(0), n(5), &[], |_| true).unwrap();
        assert_eq!(p.nodes(), &[n(0), n(1), n(2), n(5)]);
        // Block 2→3 (0-based 1→2): the path goes through 2→4.
        let dead = g.edge(n(1), n(2)).unwrap();
        let p = bfs.search(&g, n(0), n(5), &[], |e| e != dead).unwrap();
        assert_eq!(p.nodes(), &[n(0), n(1), n(3), n(5)]);
        // Block the first hop too: only 1-5-4-6 is left, then nothing.
        let first = g.edge(n(0), n(1)).unwrap();
        let p = bfs
            .search(&g, n(0), n(5), &[], |e| e != dead && e != first)
            .unwrap();
        assert_eq!(p.nodes(), &[n(0), n(4), n(3), n(5)]);
        let last = g.edge(n(3), n(5)).unwrap();
        let blocked = [dead, first, last];
        assert_eq!(
            bfs.search(&g, n(0), n(5), &[], |e| !blocked.contains(&e)),
            None
        );
    }

    #[test]
    fn scratch_survives_resizing() {
        let small = fig5a().unwrap();
        let mut big = DiGraph::new(9);
        for i in 0..8 {
            big.add_channel(n(i), n(i + 1)).unwrap();
        }
        let mut bfs = BfsScratch::new();
        for (g, t) in [(&small, n(5)), (&big, n(8)), (&small, n(5))] {
            assert_eq!(
                bfs.search(g, n(0), t, &[], |_| true),
                shortest_path(g, n(0), t)
            );
            assert_eq!(
                bfs.search(g, t, n(0), &[], |_| true),
                shortest_path(g, t, n(0))
            );
        }
        assert_eq!(bfs.search(&small, n(0), n(9), &[], |_| true), None);
    }

    /// Four billion searches later the stamp wraps to a value both
    /// sides' arrays still hold from the first search.
    #[test]
    fn stamp_wrap_forgets_stale_discoveries() {
        let g = fig5a().unwrap();
        let mut bfs = BfsScratch::new();
        let first = bfs.search(&g, n(0), n(5), &[], |_| true);
        bfs.stamp = u32::MAX;
        assert_eq!(bfs.search(&g, n(0), n(5), &[], |_| true), first);
        assert_eq!(bfs.stamp, 1);
        assert_eq!(
            bfs.search(&g, n(0), n(4), &[], |_| true),
            shortest_path(&g, n(0), n(4))
        );
    }

    /// Algorithm 1 on Figure 5(a) in phases, saturating each path's
    /// middle edge: the three 3-hop paths come from one phase, and the
    /// fourth call opens a second phase that finds `t` cut off.
    #[test]
    fn phases_return_the_forward_bfs_paths_in_turn() {
        let g = fig5a().unwrap();
        let mut phases = PhaseScratch::new();
        phases.begin(n(0), n(5));
        let mut blocked = Vec::new();
        let mut got = Vec::new();
        while let Some(p) = phases.next_path(&g, |e| !blocked.contains(&e)) {
            assert_eq!(
                Some(&p),
                shortest_path_filtered(&g, n(0), n(5), |e| !blocked.contains(&e)).as_ref()
            );
            blocked.push(g.edge(p.nodes()[1], p.nodes()[2]).unwrap());
            got.push(p.nodes().iter().map(|v| v.0).collect::<Vec<_>>());
        }
        assert_eq!(got, [[0, 1, 2, 5], [0, 1, 3, 5], [0, 4, 3, 5]]);
        assert_eq!((phases.work().phases, phases.work().paths), (2, 3));
    }

    #[test]
    fn phase_scratch_survives_resizing() {
        let small = fig5a().unwrap();
        let mut big = DiGraph::new(9);
        for i in 0..8 {
            big.add_channel(n(i), n(i + 1)).unwrap();
        }
        let mut phases = PhaseScratch::new();
        for (g, t) in [(&small, n(5)), (&big, n(8)), (&small, n(5))] {
            for (s, t) in [(n(0), t), (t, n(0))] {
                phases.begin(s, t);
                assert_eq!(phases.next_path(g, |_| true), shortest_path(g, s, t));
            }
        }
        phases.begin(n(0), n(9));
        assert_eq!(phases.next_path(&small, |_| true), None);
    }

    /// Four billion phases later the stamp wraps to a value the levels
    /// still hold from the first phase.
    #[test]
    fn phase_stamp_wrap_forgets_stale_levels() {
        let g = fig5a().unwrap();
        let mut phases = PhaseScratch::new();
        phases.begin(n(0), n(5));
        let first = phases.next_path(&g, |_| true);
        phases.stamp = u32::MAX;
        phases.begin(n(0), n(5));
        assert_eq!(phases.next_path(&g, |_| true), first);
        assert_eq!(phases.stamp, 1);
        phases.begin(n(0), n(4));
        assert_eq!(
            phases.next_path(&g, |_| true),
            shortest_path(&g, n(0), n(4))
        );
    }

    mod properties {
        use super::*;
        use crate::generators;
        use proptest::prelude::*;
        use rand::prelude::*;
        use rand::rngs::StdRng;

        proptest! {
            /// One scratch serves an Erdős–Rényi, a Watts–Strogatz and a
            /// Barabási–Albert graph of different sizes, each with up to
            /// 70 % of its edges blocked, and for every pair tried —
            /// drawn at random, adjacent, `s == t`, `t` out of range —
            /// `search` returns what the forward loop returns. Each pair
            /// is searched twice: avoiding nothing, and avoiding random
            /// nodes other than its ends (sometimes all of `s`'s
            /// out-neighbours), where the forward loop rejects every
            /// edge with an avoided end instead.
            #[test]
            fn search_equals_the_forward_bfs(
                sizes in (2usize..48, 5usize..48, 3usize..48),
                density in 0.02f64..0.4,
                seed in 0u64..1_000_000,
                blocked_pct in 0u32..=70,
                avoid_pct in 0u32..=40,
                pairs in proptest::collection::vec((0usize..10_000, 0usize..10_000), 1..24),
            ) {
                let graphs = [
                    generators::erdos_renyi(sizes.0, density, seed),
                    generators::watts_strogatz(sizes.1, 4, density, seed),
                    generators::barabasi_albert(sizes.2, 2, seed),
                ];
                let mut rng = StdRng::seed_from_u64(seed);
                let mut bfs = BfsScratch::new();
                for g in &graphs {
                    let blocked: Vec<bool> = (0..g.edge_count())
                        .map(|_| rng.random_range(0..100u32) < blocked_pct)
                        .collect();
                    let ok = |e: EdgeId| !blocked[e.index()];
                    let size = g.node_count();
                    for &(i, j) in &pairs {
                        let s = n((i % size) as u32);
                        let mut ends = vec![n((j % size) as u32), s, n(size as u32)];
                        ends.extend(g.out_neighbors(s).get(j % 3).map(|&(v, _)| v));
                        for t in ends {
                            prop_assert_eq!(
                                bfs.search(g, s, t, &[], ok),
                                shortest_path_filtered(g, s, t, ok),
                                "{:?} → {:?} on {} nodes",
                                s,
                                t,
                                size
                            );
                            let near = rng.random_bool(0.3);
                            let avoid: Vec<NodeId> = (0..size as u32)
                                .map(n)
                                .filter(|&v| v != s && v != t)
                                .filter(|&v| {
                                    rng.random_range(0..100u32) < avoid_pct
                                        || near && g.out_neighbors(s).iter().any(|&(w, _)| w == v)
                                })
                                .collect();
                            let ok_and_kept = |e: EdgeId| {
                                let (u, v) = g.endpoints(e);
                                ok(e) && !avoid.contains(&u) && !avoid.contains(&v)
                            };
                            prop_assert_eq!(
                                bfs.search(g, s, t, &avoid, ok),
                                shortest_path_filtered(g, s, t, ok_and_kept),
                                "{:?} → {:?} on {} nodes avoiding {:?}",
                                s,
                                t,
                                size,
                                avoid
                            );
                        }
                    }
                }
            }

            /// One scratch serves the same three kinds of graph. For each
            /// pair it runs a sequence of calls shaped like Algorithm 1:
            /// after each path it removes some of the path's edges (or
            /// just its first hop, a lost probe's ban) and a few random
            /// edges, and re-admits some reverses of the path's edges (a
            /// reverse credit). Every call returns what the forward loop
            /// returns on the filter of that moment.
            #[test]
            fn phases_equal_the_forward_bfs(
                sizes in (2usize..48, 5usize..48, 3usize..48),
                density in 0.02f64..0.4,
                seed in 0u64..1_000_000,
                blocked_pct in 0u32..=70,
                pairs in proptest::collection::vec((0usize..10_000, 0usize..10_000), 1..12),
            ) {
                let graphs = [
                    generators::erdos_renyi(sizes.0, density, seed),
                    generators::watts_strogatz(sizes.1, 4, density, seed),
                    generators::barabasi_albert(sizes.2, 2, seed),
                ];
                let mut rng = StdRng::seed_from_u64(seed);
                let mut phases = PhaseScratch::new();
                for g in &graphs {
                    let (size, edges) = (g.node_count(), g.edge_count());
                    for &(i, j) in &pairs {
                        let s = n((i % size) as u32);
                        let mut ends = vec![n((j % size) as u32), s, n(size as u32)];
                        ends.extend(g.out_neighbors(s).get(j % 3).map(|&(v, _)| v));
                        for t in ends {
                            let mut blocked: Vec<bool> = (0..edges)
                                .map(|_| rng.random_range(0..100u32) < blocked_pct)
                                .collect();
                            phases.begin(s, t);
                            for probe in 0..30 {
                                let ok = |e: EdgeId| !blocked[e.index()];
                                let got = phases.next_path(g, ok);
                                prop_assert_eq!(
                                    &got,
                                    &shortest_path_filtered(g, s, t, ok),
                                    "{:?} → {:?} on {} nodes, call {}",
                                    s,
                                    t,
                                    size,
                                    probe
                                );
                                let Some(path) = got else {
                                    break;
                                };
                                let on_path: Vec<EdgeId> = path
                                    .channels()
                                    .map(|(u, v)| g.edge(u, v).unwrap())
                                    .collect();
                                if rng.random_bool(0.2) {
                                    blocked[on_path[0].index()] = true;
                                } else {
                                    for e in &on_path {
                                        blocked[e.index()] |= rng.random_bool(0.4);
                                    }
                                }
                                for _ in 0..rng.random_range(0..3) {
                                    blocked[rng.random_range(0..edges)] = true;
                                }
                                for &e in &on_path {
                                    if let Some(r) = g.reverse_edge(e) {
                                        blocked[r.index()] &= rng.random_bool(0.5);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
