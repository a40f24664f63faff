//! Breadth-first shortest paths with edge filtering.
//!
//! Algorithm 1 of the paper calls `Breadth-First-Search(G, C', s, t)`: a
//! BFS over the locally known topology that only traverses edges whose
//! *residual* capacity is non-zero. [`shortest_path_filtered`] is that
//! primitive; the filter closure receives the edge id so callers can
//! consult any side table (residual matrices, exclusion sets, ...).
//!
//! [`PhaseScratch`] returns the same paths on arrays kept between calls,
//! and meets in the middle to get there: it grows its search from both
//! ends, so it scans the levels near `s` and near `t` rather than every
//! level before `t` (`docs/algorithm1.md` has the argument). It serves
//! a sequence of searches on a graph that only shrinks between them —
//! one search per s–t distance, then a walk of its level DAG per call —
//! and can avoid a set of nodes throughout. Algorithm 1's probes are
//! one such sequence per payment, and so are the edge-disjoint paths of
//! each Spider payment; each of Yen's spurs is a sequence of one call,
//! avoiding the root's nodes, and so is each payment of the Shortest
//! Path baseline and each call of [`shortest_path`]. The
//! forward loop stays as the reference: [`shortest_path_filtered`],
//! [`distances_from`] and [`spanning_tree`] run it, and the dev-profile
//! oracles of Algorithm 1 and Yen hold every search to it.

use crate::{path::Path, DiGraph, EdgeId};
use pcn_types::NodeId;

/// The forward loop's arrays, fresh for each search.
struct Forward {
    /// `seen[v]` iff the loop discovered `v`, from `parent[v]`.
    seen: Vec<bool>,
    parent: Vec<NodeId>,
    /// Discovery order, the root first.
    order: Vec<NodeId>,
}

impl Forward {
    /// Runs the forward loop from `root` on fresh arrays sized for `g`.
    fn run(
        g: &DiGraph,
        root: NodeId,
        stop: Option<NodeId>,
        backwards: bool,
        edge_ok: impl FnMut(EdgeId) -> bool,
    ) -> Forward {
        let n = g.node_count();
        let mut forward = Forward {
            seen: vec![false; n],
            parent: vec![root; n],
            order: Vec::with_capacity(n),
        };
        forward.scan(g, root, stop, backwards, edge_ok);
        forward
    }

    /// The forward loop, the reference [`PhaseScratch`] is held to:
    /// expands `root`'s discovery order along out-edges or
    /// (`backwards`) in-edges, each node's in adjacency order, until
    /// `stop` is discovered or nothing is left. Nothing in it allocates:
    /// [`Forward::run`] sizes the arrays.
    fn scan(
        &mut self,
        g: &DiGraph,
        root: NodeId,
        stop: Option<NodeId>,
        backwards: bool,
        mut edge_ok: impl FnMut(EdgeId) -> bool,
    ) {
        let Forward {
            seen,
            parent,
            order,
        } = self;
        seen[root.index()] = true;
        order.push(root);
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            let adjacent = if backwards {
                g.in_neighbors(u)
            } else {
                g.out_neighbors(u)
            };
            for &(v, e) in adjacent {
                if seen[v.index()] || !edge_ok(e) {
                    continue;
                }
                seen[v.index()] = true;
                parent[v.index()] = u;
                order.push(v);
                if Some(v) == stop {
                    return;
                }
            }
            head += 1;
        }
    }

    /// Every node discovered after the root, in discovery order, each
    /// with the node it was discovered from.
    fn tree(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.order[1..].iter().map(|&v| (v, self.parent[v.index()]))
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
    /// Hops from `s`, or [`UNSEEN`], or [`AVOIDED`].
    fwd: u32,
    /// Hops to `t`, or [`UNSEEN`], or [`AVOIDED`].
    back: u32,
    /// The out-adjacency position of the next edge the walk tries from
    /// this node, or [`DEAD`] once none is left.
    arc: u32,
}

/// A distance no side has found.
const UNSEEN: u32 = u32::MAX;
/// The depth tag of a node the walk cannot enter: outside the open
/// phase's complete levels, avoided, or dead.
const UNTAGGED: u32 = u32::MAX;
/// What an avoided node holds as both distances: no side's, but not
/// [`UNSEEN`], so neither side enters it.
const AVOIDED: u32 = u32::MAX - 1;
/// The arc of a node no walk can leave toward `t` in this phase. The
/// walk tests the node's depth tag instead; only the dev-profile check
/// that the two agree reads this.
const DEAD: u32 = u32::MAX;

/// Reusable state of a *sequence* of fewest-hops `s → t` searches in
/// which the filter only loses edges between calls, besides gaining
/// the reverses of the path just returned — Algorithm 1's residual
/// graph. Each call returns what [`shortest_path_filtered`] returns on
/// the filter of that moment, with every edge into or out of an avoided
/// node rejected too, but the searches are shared Dinic-style, one per
/// path length. A sequence of one call is a plain search.
///
/// A *phase* opens with a meet-in-the-middle search that grows levels
/// from `s` and from `t` and stops at the first node both sides hold.
/// The avoided nodes count as held by both sides, so neither enters
/// them. That fixes the s–t distance `d` and leaves the exact hop
/// counts from `s` of levels `0..F` and to `t` of levels `0..=d − F`,
/// for the `F` at which the sides met: the phase's level DAG. Every
/// shortest path of the phase's graph runs through it, and so does
/// every shortest path of a later call that is still `d` hops long
/// (`docs/algorithm1.md`).
/// Each call walks the DAG depth first from `s` in adjacency order,
/// avoided nodes counting as dead. Every node keeps a current arc that
/// never rewinds within the phase, so the walk returns the forward
/// BFS's path and scans each adjacency entry about once per phase. The
/// walk's test of a scanned entry reads one 4-byte depth tag, the
/// node's level while it is live, set when the phase opens and cleared
/// when the node dies.
/// When the walk from `s` finds nothing the distance has grown, and
/// the next phase opens.
#[derive(Clone, Debug, Default)]
pub struct PhaseScratch {
    level: Vec<Level>,
    /// `depth[v]` is `v`'s level in the open phase's DAG while `v` is
    /// live, and [`UNTAGGED`] otherwise: the walk's per-entry test.
    depth: Vec<u32>,
    stamp: u32,
    /// The opening search's discovery orders, from `s` and from `t`
    /// along in-edges; each level is a consecutive run of its list.
    fwd: Vec<NodeId>,
    bwd: Vec<NodeId>,
    /// The walk's path from `s`.
    walk: Vec<NodeId>,
    /// `(s, t)` of the sequence; `None` before the first `begin`.
    ends: Option<(NodeId, NodeId)>,
    /// The nodes the sequence avoids.
    avoid: Vec<NodeId>,
    /// `(F, d)` of the open phase, or `None` before the next one.
    phase: Option<(u32, u32)>,
    work: SearchWork,
}

impl PhaseScratch {
    /// An empty scratch; arrays are sized by the first phase.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a sequence of `s → t` searches that never step on a node
    /// of `avoid`, which must hold neither `s` nor `t`. Every call to
    /// [`PhaseScratch::next_path`] until the next `begin` must pass the
    /// same graph.
    pub fn begin(&mut self, s: NodeId, t: NodeId, avoid: &[NodeId]) {
        debug_assert!(
            !avoid.contains(&s) && !avoid.contains(&t),
            "{s:?} → {t:?} avoids one of its own ends"
        );
        (self.ends, self.phase) = (Some((s, t)), None);
        self.avoid.clear();
        self.avoid.extend_from_slice(avoid);
    }

    /// The work done so far.
    pub fn work(&self) -> SearchWork {
        self.work
    }

    /// Whether the last phase's side grown from `t` entered `v`; an
    /// avoided node is only stamped, never entered.
    #[cfg(test)]
    pub(crate) fn entered_from_t(&self, v: NodeId) -> bool {
        let l = self.level[v.index()];
        l.stamp == self.stamp && l.back != UNSEEN && l.back != AVOIDED
    }

    /// The path [`shortest_path_filtered`] finds from `s` to `t` under
    /// `edge_ok` and off the avoided nodes, or `None` if `t` is
    /// unreachable. Within one call the filter must be a function of
    /// the edge alone. Between calls of one sequence it may reject
    /// edges it accepted, and may start to accept only the reverses of
    /// the last path's edges.
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

    /// Opens a phase: stamps the avoided nodes as held by both sides and
    /// dead, then grows levels from `s` and `t`, each step on the side
    /// with fewer adjacency entries to scan, until a step finds a node
    /// the other side holds. Returns `(F, d)`: the walk reads
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
        // The last phase tagged nodes of its two lists only.
        for v in self.fwd.iter().chain(&self.bwd) {
            self.depth[v.index()] = UNTAGGED;
        }
        if self.level.len() != n {
            self.level.clear();
            self.level.resize(n, Level::default());
            self.depth.clear();
            self.depth.resize(n, UNTAGGED);
        }
        if self.stamp == u32::MAX {
            self.level.fill(Level::default());
            self.stamp = 0;
        }
        self.stamp += 1;
        self.work.phases += 1;
        let PhaseScratch {
            level,
            depth,
            stamp,
            fwd,
            bwd,
            avoid,
            work,
            ..
        } = self;
        let fresh = Level {
            stamp: *stamp,
            fwd: UNSEEN,
            back: UNSEEN,
            arc: 0,
        };
        for v in avoid.iter() {
            level[v.index()] = Level {
                fwd: AVOIDED,
                back: AVOIDED,
                arc: DEAD,
                ..fresh
            };
        }
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
        let (f, d) = 'meet: loop {
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
                            break 'meet (a, a + b);
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
                            break 'meet (a + 1, a + b);
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
        };
        // Tag the complete levels, each list in level order: `0..F`
        // from `s` by their distance from `s`, `0..=d − F` to `t` by
        // `d` less their distance to `t`.
        for &v in fwd.iter() {
            let j = level[v.index()].fwd;
            if j >= f {
                break;
            }
            depth[v.index()] = j;
        }
        for &v in bwd.iter() {
            let back = level[v.index()].back;
            if back > d - f {
                break;
            }
            depth[v.index()] = d - back;
        }
        Some((f, d))
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
            depth,
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
                let tagged = depth[v.index()] == j;
                debug_assert_eq!(
                    tagged,
                    {
                        let l = level[v.index()];
                        let at_j = if j < f { l.fwd == j } else { l.back == d - j };
                        l.stamp == *stamp && at_j && l.arc != DEAD
                    },
                    "{v:?}'s depth tag disagrees with its level record at depth {j}"
                );
                if tagged && edge_ok(e) {
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
                depth[u.index()] = UNTAGGED;
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
        Some(Path::from_vec_unchecked(walk.clone()))
    }
}

/// Finds a fewest-hops path `s → t` using only edges accepted by
/// `edge_ok`, or `None` if `t` is unreachable.
///
/// Ties are broken by adjacency order, which is deterministic for a given
/// graph construction order — important for reproducible experiments.
/// This is the forward loop on fresh arrays; a caller that searches
/// repeatedly keeps a [`PhaseScratch`] and gets the same path from
/// [`PhaseScratch::next_path`].
pub fn shortest_path_filtered(
    g: &DiGraph,
    s: NodeId,
    t: NodeId,
    edge_ok: impl FnMut(EdgeId) -> bool,
) -> Option<Path> {
    if s == t || s.index() >= g.node_count() || t.index() >= g.node_count() {
        return None;
    }
    let forward = Forward::run(g, s, Some(t), false, edge_ok);
    if !forward.seen[t.index()] {
        return None;
    }
    let mut nodes = vec![t];
    let mut v = t;
    while v != s {
        v = forward.parent[v.index()];
        nodes.push(v);
    }
    nodes.reverse();
    Some(Path::from_vec_unchecked(nodes))
}

/// Finds a fewest-hops path using every edge (no filter): the path
/// `shortest_path_filtered(g, s, t, |_| true)` finds, from a one-call
/// [`PhaseScratch`] sequence on fresh arrays.
pub fn shortest_path(g: &DiGraph, s: NodeId, t: NodeId) -> Option<Path> {
    let mut search = PhaseScratch::new();
    search.begin(s, t, &[]);
    search.next_path(g, |_| true)
}

/// Hop distances from `s` to every node (`usize::MAX` when unreachable).
pub fn distances_from(g: &DiGraph, s: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.node_count()];
    if s.index() >= g.node_count() {
        return dist;
    }
    dist[s.index()] = 0;
    for (v, parent) in Forward::run(g, s, None, false, |_| true).tree() {
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
    for (v, from) in Forward::run(g, root, None, toward_root, |_| true).tree() {
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

    /// `shortest_path` runs the phase search; at the edges of its domain
    /// it returns what the forward loop returns: nothing for `s == t`,
    /// for a node out of range, for an unreachable `t` and on a graph
    /// with no edges (or no nodes).
    #[test]
    fn shortest_path_edge_cases_match_the_forward_loop() {
        let fig = fig5a().unwrap();
        let mut one_way = DiGraph::new(3);
        one_way.add_edge(n(0), n(1)).unwrap();
        let (edgeless, empty) = (DiGraph::new(4), DiGraph::new(0));
        let cases = [
            (&fig, n(0), n(0)),
            (&fig, n(0), n(6)),
            (&fig, n(9), n(0)),
            (&one_way, n(0), n(2)),
            (&one_way, n(1), n(0)),
            (&edgeless, n(0), n(3)),
            (&edgeless, n(2), n(2)),
            (&empty, n(0), n(1)),
        ];
        for (g, s, t) in cases {
            let want = shortest_path_filtered(g, s, t, |_| true);
            assert_eq!(want, None, "{s:?} → {t:?} on {} nodes", g.node_count());
            assert_eq!(
                shortest_path(g, s, t),
                want,
                "{s:?} → {t:?} on {} nodes",
                g.node_count()
            );
        }
        assert_eq!(
            shortest_path(&one_way, n(0), n(1)),
            shortest_path_filtered(&one_way, n(0), n(1), |_| true)
        );
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

    /// Yen's pattern on Figure 5(a): one scratch, one call per `begin`,
    /// and filters that block and then re-admit edges from one search to
    /// the next. The tie at node 2 goes to the adjacency-first edge.
    #[test]
    fn search_routes_around_the_blocked_edge() {
        let g = fig5a().unwrap();
        let mut phases = PhaseScratch::new();
        let mut search = |blocked: &[EdgeId]| {
            phases.begin(n(0), n(5), &[]);
            phases
                .next_path(&g, |e| !blocked.contains(&e))
                .map(|p| p.nodes().iter().map(|v| v.0).collect::<Vec<_>>())
        };
        assert_eq!(search(&[]), Some(vec![0, 1, 2, 5]));
        // Block 2→3 (0-based 1→2): the path goes through 2→4.
        let dead = g.edge(n(1), n(2)).unwrap();
        assert_eq!(search(&[dead]), Some(vec![0, 1, 3, 5]));
        // Block the first hop too: only 1-5-4-6 is left, then nothing.
        let first = g.edge(n(0), n(1)).unwrap();
        assert_eq!(search(&[dead, first]), Some(vec![0, 4, 3, 5]));
        let last = g.edge(n(3), n(5)).unwrap();
        assert_eq!(search(&[dead, first, last]), None);
        // A new sequence forgets the last one's levels and dead nodes.
        assert_eq!(search(&[first]), Some(vec![0, 4, 3, 5]));
        assert_eq!(search(&[]), Some(vec![0, 1, 2, 5]));
    }

    /// Algorithm 1 on Figure 5(a) in phases, saturating each path's
    /// middle edge: the three 3-hop paths come from one phase, and the
    /// fourth call opens a second phase that finds `t` cut off.
    #[test]
    fn phases_return_the_forward_bfs_paths_in_turn() {
        let g = fig5a().unwrap();
        let mut phases = PhaseScratch::new();
        phases.begin(n(0), n(5), &[]);
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
                phases.begin(s, t, &[]);
                assert_eq!(
                    phases.next_path(g, |_| true),
                    shortest_path_filtered(g, s, t, |_| true)
                );
            }
        }
        phases.begin(n(0), n(9), &[]);
        assert_eq!(phases.next_path(&small, |_| true), None);
    }

    /// Four billion phases later the stamp wraps to a value the levels
    /// still hold from the first phase, which avoided node 2 (0-based 1).
    #[test]
    fn phase_stamp_wrap_forgets_stale_levels() {
        let g = fig5a().unwrap();
        let mut phases = PhaseScratch::new();
        phases.begin(n(0), n(5), &[n(1)]);
        let first = phases.next_path(&g, |_| true).unwrap();
        assert_eq!(first.nodes(), &[n(0), n(4), n(3), n(5)]);
        assert_eq!(phases.stamp, 1);
        phases.stamp = u32::MAX;
        phases.begin(n(0), n(5), &[]);
        assert_eq!(
            phases.next_path(&g, |_| true),
            shortest_path_filtered(&g, n(0), n(5), |_| true)
        );
        assert_eq!(phases.stamp, 1);
        phases.begin(n(0), n(4), &[]);
        assert_eq!(
            phases.next_path(&g, |_| true),
            shortest_path_filtered(&g, n(0), n(4), |_| true)
        );
    }

    mod properties {
        use super::*;
        use crate::generators;
        use proptest::prelude::*;
        use rand::prelude::*;
        use rand::rngs::StdRng;

        /// A star of stars: a core node joined to `hubs` hubs, each hub
        /// to `leaves` leaves of its own, and `extra` random channels
        /// between leaves. A walk from a leaf scans a whole hub list for
        /// the one or two nodes of the next level, as Algorithm 1's walks
        /// do at the Lightning topology's hubs.
        fn star_of_stars(hubs: usize, leaves: usize, extra: usize, seed: u64) -> DiGraph {
            let size = 1 + hubs * (1 + leaves);
            let mut g = DiGraph::new(size);
            for h in 0..hubs {
                let hub = 1 + h * (1 + leaves);
                g.add_channel(n(0), n(hub as u32)).unwrap();
                for l in 1..=leaves {
                    g.add_channel(n(hub as u32), n((hub + l) as u32)).unwrap();
                }
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let is_hub = |v: usize| v == 0 || (v - 1).is_multiple_of(1 + leaves);
            for _ in 0..extra {
                let (u, v) = (rng.random_range(0..size), rng.random_range(0..size));
                if u != v && !is_hub(u) && !is_hub(v) && g.edge(n(u as u32), n(v as u32)).is_none()
                {
                    g.add_channel(n(u as u32), n(v as u32)).unwrap();
                }
            }
            g
        }

        proptest! {
            /// One scratch serves an Erdős–Rényi, a Watts–Strogatz and a
            /// Barabási–Albert graph of different sizes, and two hub-heavy
            /// ones: a Barabási–Albert graph that attaches each node by
            /// five channels, and a star of stars. On those a walk scans
            /// adjacency lists far longer than the level it looks for.
            /// Pairs are drawn at random, adjacent, `s == t` and with `t`
            /// out of range.
            /// Each pair runs a sequence of calls shaped like Algorithm 1,
            /// from up to 70 % of the edges blocked: after each path it
            /// removes some of the path's edges (or just its first hop, a
            /// lost probe's ban) and a few random edges, and re-admits
            /// some reverses of the path's edges (a reverse credit). Each
            /// sequence also avoids random nodes other than its ends, like
            /// a Yen spur its root, and sometimes every out-neighbour of
            /// `s`. Every call returns what the forward loop returns on
            /// the filter of that moment with every edge that has an
            /// avoided end rejected too.
            #[test]
            fn phases_equal_the_forward_bfs(
                sizes in (2usize..48, 5usize..48, 3usize..48),
                stars in (2usize..6, 4usize..16, 0usize..12),
                density in 0.02f64..0.4,
                seed in 0u64..1_000_000,
                blocked_pct in 0u32..=70,
                avoid_pct in 0u32..=40,
                pairs in proptest::collection::vec((0usize..10_000, 0usize..10_000), 1..12),
            ) {
                let graphs = [
                    generators::erdos_renyi(sizes.0, density, seed),
                    generators::watts_strogatz(sizes.1, 4, density, seed),
                    generators::barabasi_albert(sizes.2, 2, seed),
                    generators::barabasi_albert(sizes.2 + 40, 5, seed),
                    star_of_stars(stars.0, stars.1, stars.2, seed),
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
                            let near = rng.random_bool(0.3);
                            let avoid: Vec<NodeId> = (0..size as u32)
                                .map(n)
                                .filter(|&v| v != s && v != t)
                                .filter(|&v| {
                                    rng.random_range(0..100u32) < avoid_pct
                                        || near && g.out_neighbors(s).iter().any(|&(w, _)| w == v)
                                })
                                .collect();
                            phases.begin(s, t, &avoid);
                            for probe in 0..30 {
                                let ok = |e: EdgeId| !blocked[e.index()];
                                let got = phases.next_path(g, ok);
                                prop_assert_eq!(
                                    &got,
                                    &shortest_path_filtered(g, s, t, |e| {
                                        let (u, v) = g.endpoints(e);
                                        ok(e) && !avoid.contains(&u) && !avoid.contains(&v)
                                    }),
                                    "{:?} → {:?} on {} nodes avoiding {:?}, call {}",
                                    s,
                                    t,
                                    size,
                                    avoid,
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
