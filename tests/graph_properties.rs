//! Property tests over the graph substrate on random topologies —
//! invariants the routing layers silently rely on.

use flash_offchain::core::flash::elephant::{find_paths_with, ElephantScratch};
use flash_offchain::core::SpiderRouter;
use flash_offchain::graph::bfs::SearchWork;
use flash_offchain::graph::yen::{RankedPaths, YenScratch};
use flash_offchain::graph::{bfs, generators, yen, DiGraph, EdgeId, Path};
use flash_offchain::sim::Network;
use flash_offchain::types::{Amount, FeePolicy, NodeId, PcnError};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_ws() -> impl Strategy<Value = DiGraph> {
    (6usize..20, 0u64..500).prop_map(|(n, seed)| generators::watts_strogatz(n.max(6), 4, 0.3, seed))
}

/// One graph from each generator family, small enough to enumerate.
fn arb_topology() -> impl Strategy<Value = DiGraph> {
    (0usize..3, 6usize..11, 0u64..500).prop_map(|(family, n, seed)| match family {
        0 => generators::watts_strogatz(n, 4, 0.3, seed),
        1 => generators::scale_free_with_channels(n, 2 * n, seed),
        _ => generators::erdos_renyi(n, 0.25, seed),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Yen's paths are simple, sorted by hops, pairwise distinct, and
    /// the first equals the BFS shortest path length.
    #[test]
    fn yen_invariants(g in arb_ws(), k in 1usize..8, s in 0u32..20, t in 0u32..20) {
        let n = g.node_count() as u32;
        let (s, t) = (NodeId(s % n), NodeId(t % n));
        prop_assume!(s != t);
        let paths = yen::k_shortest_paths_hops(&g, s, t, k);
        let bfs_path = bfs::shortest_path(&g, s, t);
        prop_assert_eq!(paths.is_empty(), bfs_path.is_none());
        if let Some(bp) = bfs_path {
            prop_assert_eq!(paths[0].hops(), bp.hops());
        }
        let mut seen = BTreeSet::new();
        for w in paths.windows(2) {
            prop_assert!(w[0].hops() <= w[1].hops());
        }
        for p in &paths {
            prop_assert_eq!(p.source(), s);
            prop_assert_eq!(p.target(), t);
            let nodes: BTreeSet<_> = p.nodes().iter().collect();
            prop_assert_eq!(nodes.len(), p.nodes().len(), "loop in {:?}", p);
            prop_assert!(seen.insert(p.nodes().to_vec()), "duplicate {:?}", p);
        }
    }

    /// The ranks do not depend on how many are asked for or on how the
    /// asking is spread over calls: `k` ranks are a prefix of `k + j`;
    /// an enumerator stepped one rank at a time, interleaved with an
    /// unrelated enumerator on the reversed pair, yields the batch
    /// result; and once exhausted it stays exhausted with its found
    /// list untouched.
    #[test]
    fn ranked_paths_are_resumable(
        g in arb_topology(), k in 0usize..6, j in 1usize..6, s in 0u32..11, t in 0u32..11,
    ) {
        let n = g.node_count() as u32;
        let (s, t) = (NodeId(s % n), NodeId(t % n));
        prop_assume!(s != t);
        let short = yen::k_shortest_paths_hops(&g, s, t, k);
        let long = yen::k_shortest_paths_hops(&g, s, t, k + j);
        prop_assert_eq!(&short[..], &long[..short.len()]);

        let mut scratch = YenScratch::default();
        let mut ranks = RankedPaths::new(s, t);
        let mut other = RankedPaths::new(t, s);
        for want in &long {
            prop_assert_eq!(ranks.next_path(&g, &mut scratch), Some(want));
            other.next_path(&g, &mut scratch);
        }
        prop_assert_eq!(ranks.found(), &long[..]);
        prop_assert_eq!(other.found(), &yen::k_shortest_paths_hops(&g, t, s, long.len())[..]);

        // Run to exhaustion (these graphs hold few simple paths per pair).
        let mut steps = 0;
        while ranks.next_path(&g, &mut scratch).is_some() {
            steps += 1;
            prop_assume!(steps < 2_000);
        }
        let all: Vec<Path> = ranks.found().to_vec();
        for _ in 0..3 {
            prop_assert_eq!(ranks.next_path(&g, &mut scratch), None);
            prop_assert_eq!(ranks.found(), &all[..]);
        }
    }

    /// One `YenScratch` serving interleaved enumerations of several
    /// pairs on two graphs of different size is invisible: after every
    /// step, each enumeration has found exactly what a fresh
    /// `k_shortest_paths_hops` finds for as many ranks.
    #[test]
    fn shared_yen_scratch_is_invisible(
        small in arb_topology(),
        big in (12usize..20, 0u64..500).prop_map(|(n, seed)| generators::watts_strogatz(n, 4, 0.3, seed)),
        pairs in proptest::collection::vec((0usize..2, 0u32..20, 0u32..20), 1..6),
        steps in proptest::collection::vec(0usize..6, 1..40),
    ) {
        let graphs = [&small, &big];
        let mut enums: Vec<_> = pairs
            .into_iter()
            .filter_map(|(gi, s, t)| {
                let n = graphs[gi].node_count() as u32;
                let (s, t) = (NodeId(s % n), NodeId(t % n));
                (s != t).then(|| (graphs[gi], s, t, RankedPaths::new(s, t), 0))
            })
            .collect();
        prop_assume!(!enums.is_empty());
        let mut scratch = YenScratch::default();
        for step in steps {
            let len = enums.len();
            let (g, s, t, ranks, calls) = &mut enums[step % len];
            let got = ranks.next_path(g, &mut scratch).cloned();
            *calls += 1;
            let want = yen::k_shortest_paths_hops(g, *s, *t, *calls);
            prop_assert_eq!(got.as_ref(), want.get(*calls - 1));
            prop_assert_eq!(ranks.found(), &want[..]);
        }
    }

    /// BFS distance is a metric lower bound: every Yen path length ≥
    /// the BFS distance; BFS distances obey the triangle inequality
    /// along any found path.
    #[test]
    fn bfs_distance_consistency(g in arb_ws(), s in 0u32..20) {
        let n = g.node_count() as u32;
        let s = NodeId(s % n);
        let dist = bfs::distances_from(&g, s);
        for t in g.nodes() {
            if t == s { continue; }
            match bfs::shortest_path(&g, s, t) {
                Some(p) => prop_assert_eq!(p.hops(), dist[t.index()]),
                None => prop_assert_eq!(dist[t.index()], usize::MAX),
            }
        }
        // Edge relaxation: d(v) ≤ d(u) + 1 for every edge u→v.
        for (_, u, v) in g.edges() {
            if dist[u.index()] != usize::MAX {
                prop_assert!(dist[v.index()] <= dist[u.index()] + 1);
            }
        }
    }

    /// Generated small-world graphs are almost entirely one component
    /// (β-rewiring can, rarely, isolate a node — that matches the
    /// standard Watts–Strogatz construction) and fully bidirectional.
    #[test]
    fn ws_generator_invariants(n in 6usize..40, seed in 0u64..300) {
        let g = generators::watts_strogatz(n, 4, 0.3, seed);
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(g.largest_weak_component().len() >= n - 2,
            "component {} of {n}", g.largest_weak_component().len());
        for (e, _, _) in g.edges() {
            prop_assert!(g.reverse_edge(e).is_some());
        }
    }

    /// Scale-free generator hits its channel target exactly and keeps
    /// a giant component.
    #[test]
    fn scale_free_invariants(n in 20usize..80, mult in 2usize..5, seed in 0u64..200) {
        let target = n * mult;
        let g = generators::scale_free_with_channels(n, target, seed);
        prop_assert_eq!(g.edge_count(), target * 2);
        prop_assert!(g.largest_weak_component().len() >= n * 9 / 10);
    }
}

/// FNV-1a over the node ids of `paths`, each path prefixed by a marker.
fn rank_fingerprint(paths: &[Path]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in paths {
        eat(u32::MAX);
        for n in p.nodes() {
            eat(n.0);
        }
    }
    h
}

/// The seeded Ripple-scale graph the Yen pins enumerate on.
fn ripple_scale() -> DiGraph {
    generators::scale_free_with_channels(1870, 8708, 11)
}

/// Fixed pair `i` on [`ripple_scale`].
fn ripple_pair(g: &DiGraph, i: u32) -> (NodeId, NodeId) {
    let n = g.node_count() as u32;
    (NodeId((i * 97 + 3) % n), NodeId((i * 389 + 1201) % n))
}

/// The first 12 ranks of 20 fixed pairs on the seeded Ripple-scale
/// graph, as recorded from the batch Yen loop that preceded
/// `RankedPaths` (commit 6d6dcaa): which path holds which rank is part
/// of every routing result, so it is pinned here and not left to the
/// benchmark to notice.
#[test]
fn yen_ranks_match_recorded_fingerprints() {
    const GOLDEN: [u64; 20] = [
        0x1a30b099cf520824,
        0x27872e9092e6e079,
        0x5fb9c2c8650f69b7,
        0xd1c6a84730dda9f2,
        0xcc236cfcb8c12e3f,
        0x4f92eae5031b2985,
        0x3e93c94ac6ac895d,
        0xcfe09f9696045df8,
        0x0562747653b31af9,
        0x8413adbf2181fec3,
        0x3490be8200ae1a7b,
        0x987f302048048523,
        0x6048794f7e80d560,
        0x2a7c58e5c1bbaba2,
        0xecb859152ffd3d61,
        0x53ab2a67d90511e4,
        0x53e5d3e57a6d84bc,
        0x396cf50e884cd7bc,
        0xf7c6d19d7fdaf3e1,
        0xcee1f37e55bd7fc2,
    ];
    let g = ripple_scale();
    for (i, want) in (0u32..).zip(GOLDEN) {
        let (s, t) = ripple_pair(&g, i);
        let paths = yen::k_shortest_paths_hops(&g, s, t, 12);
        assert_eq!(paths.len(), 12, "pair {i} ({s:?} → {t:?})");
        assert_eq!(
            rank_fingerprint(&paths),
            want,
            "pair {i} ({s:?} → {t:?}): ranks changed"
        );
    }
}

/// The work of the searches behind those ranks, all on one
/// `YenScratch`: adjacency entries scanned, searches run (rank 0 and
/// every spur) and searches that found a path, pinned by equality.
/// Only a deliberate change to how Yen's paths are searched may
/// re-record them; a failure names the counter and prints both values.
#[test]
fn yen_search_work_matches_recorded_counts() {
    const WANT: SearchWork = SearchWork {
        scanned: 143_755,
        phases: 686,
        paths: 686,
    };
    let g = ripple_scale();
    let mut scratch = YenScratch::default();
    for i in 0..20 {
        let (s, t) = ripple_pair(&g, i);
        let mut ranks = RankedPaths::new(s, t);
        while ranks.found().len() < 12 && ranks.next_path(&g, &mut scratch).is_some() {}
        assert_eq!(ranks.found().len(), 12, "pair {i} ({s:?} → {t:?})");
    }
    let got = scratch.work();
    assert_eq!(
        got.scanned, WANT.scanned,
        "adjacency entries scanned changed"
    );
    assert_eq!(got.phases, WANT.phases, "searches run changed");
    assert_eq!(got.paths, WANT.paths, "paths found changed");
}

/// FNV-1a over a graph's layout: its node and edge counts, then every
/// edge's endpoints and reverse link in `EdgeId` order, then every
/// node's out-row and in-row in adjacency order, each row prefixed by
/// its length. Two graphs with equal digests run every search, rank and
/// tie-break identically.
fn layout_digest(g: &DiGraph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(g.node_count() as u32);
    eat(g.edge_count() as u32);
    for (e, u, v) in g.edges() {
        eat(u.0);
        eat(v.0);
        eat(g.reverse_edge(e).map_or(u32::MAX, |r| r.0));
    }
    for u in g.nodes() {
        for row in [g.out_neighbors(u), g.in_neighbors(u)] {
            eat(row.len() as u32);
            for &(v, e) in row {
                eat(v.0);
                eat(e.0);
            }
        }
    }
    h
}

/// The three benchmark topologies' layouts, as recorded from the
/// hash-indexed adjacency lists that preceded the flat rows: edge ids,
/// reverse links and row order decide every BFS tie-break, Yen rank and
/// plan fingerprint, so a builder that reorders any of them fails here
/// first. A failure prints the new digest.
#[test]
fn benchmark_topologies_match_recorded_layout_digests() {
    use flash_offchain::workload::{lightning_topology, ripple_topology, testbed_topology};
    let cases = [
        (
            "ripple_topology(11)",
            ripple_topology(11),
            0x153b_3057_1fa4_81ea_u64,
        ),
        (
            "lightning_topology(11)",
            lightning_topology(11),
            0x48b6_5238_07c7_480b,
        ),
        (
            "testbed_topology(120, 1000, 1500, 11)",
            testbed_topology(120, 1000, 1500, 11),
            0xef3c_885a_243c_2eca,
        ),
    ];
    for (name, net, want) in cases {
        let got = layout_digest(net.graph());
        assert_eq!(got, want, "{name}: layout digest {got:#018x} changed");
    }
}

/// The two generators no benchmark topology uses, pinned the same way
/// and recorded while their channel sets and attachment lists were
/// still `usize`: a generator whose state narrows must draw the same
/// topology.
#[test]
fn other_generators_match_recorded_layout_digests() {
    let cases = [
        (
            "barabasi_albert(500, 3, 11)",
            generators::barabasi_albert(500, 3, 11),
            0xdd6d_3fed_f5cb_19af_u64,
        ),
        (
            "erdos_renyi(200, 0.05, 11)",
            generators::erdos_renyi(200, 0.05, 11),
            0x63af_ea3a_2d84_5eff,
        ),
    ];
    for (name, g, want) in cases {
        let got = layout_digest(&g);
        assert_eq!(got, want, "{name}: layout digest {got:#018x} changed");
    }
}

/// `items` in a seeded Fisher–Yates order (SplitMix64 draws).
fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
    items
}

/// The paths Algorithm 1 (`k = 20`) plans for 10 fixed pairs, and each
/// plan's probe count and max-flow, FNV-1a over their node ids.
fn plan_digest(net: &mut Network, pairs: &[(NodeId, NodeId)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut scratch = ElephantScratch::default();
    for &(s, t) in pairs {
        let plan = find_paths_with(net, &mut scratch, s, t, Amount::from_units(1_000), 20);
        for path in &plan.paths {
            eat(u64::MAX);
            path.nodes().iter().for_each(|n| eat(u64::from(n.0)));
        }
        eat(plan.probes as u64);
        eat(plan.max_flow.micros());
    }
    h
}

/// Every generated topology lays its out-rows out sorted by head, so
/// the pins above cannot tell adjacency order from head order. This
/// graph is a generated one rebuilt from its edge list in shuffled
/// order, so its rows hold their edges in list order, as a loaded edge
/// list's would. Yen's ranks and Algorithm 1's plans on it, recorded
/// before the flat rows were last touched, pin the row order: a builder
/// that lays each out-row out by head fails here.
#[test]
fn shuffled_rows_keep_their_recorded_ranks_and_plans() {
    let generated = generators::scale_free_with_channels(300, 1200, 17);
    let list = shuffled(generated.edges().map(|(_, u, v)| (u, v)).collect(), 23);
    let g = DiGraph::from_edges(generated.node_count(), &list).unwrap();
    assert!(
        g.nodes()
            .any(|u| g.out_neighbors(u).windows(2).any(|w| w[0].0 > w[1].0)),
        "the shuffle leaves some out-row out of head order"
    );
    assert!(!g.heads_sorted(), "edge(u, v) must scan these rows");
    let n = g.node_count() as u32;
    let pairs: Vec<_> = (0..10)
        .map(|i| (NodeId((i * 97 + 3) % n), NodeId((i * 389 + 101) % n)))
        .collect();

    let ranks: Vec<Path> = pairs
        .iter()
        .flat_map(|&(s, t)| yen::k_shortest_paths_hops(&g, s, t, 8))
        .collect();
    let yen_got = rank_fingerprint(&ranks);
    assert_eq!(
        yen_got, 0xb9ec_93d0_1502_beeb,
        "Yen ranks {yen_got:#018x} changed"
    );

    // Balances follow the endpoints, not the ids the shuffle handed out.
    let balances = g
        .edges()
        .map(|(_, u, v)| Amount::from_units(50 + u64::from(u.0 * 31 + v.0 * 17) % 400))
        .collect();
    let fees = vec![FeePolicy::FREE; g.edge_count()];
    let mut net = Network::new(g, balances, fees).unwrap();
    let plans_got = plan_digest(&mut net, &pairs);
    assert_eq!(
        plans_got, 0xe19d_557a_bd3d_18a7,
        "Algorithm 1 plans {plans_got:#018x} changed"
    );
}

/// Whether every out-row of `g` lists strictly increasing heads.
fn rows_are_head_sorted(g: &DiGraph) -> bool {
    g.nodes()
        .all(|u| g.out_neighbors(u).windows(2).all(|w| w[0].0 < w[1].0))
}

/// Every simple path `s → t` of `g`, by depth-first search, sorted by
/// (hops, nodes).
fn simple_paths(g: &DiGraph, s: NodeId, t: NodeId) -> Vec<Vec<NodeId>> {
    fn walk(g: &DiGraph, t: NodeId, path: &mut Vec<NodeId>, out: &mut Vec<Vec<NodeId>>) {
        let Some(&u) = path.last() else { return };
        if u == t {
            out.push(path.clone());
            return;
        }
        for &(v, _) in g.out_neighbors(u) {
            if !path.contains(&v) {
                path.push(v);
                walk(g, t, path, out);
                path.pop();
            }
        }
    }
    let mut out = Vec::new();
    walk(g, t, &mut vec![s], &mut out);
    out.sort_by(|a, b| (a.len(), a).cmp(&(b.len(), b)));
    out
}

/// `list` as the `add_edge` loop sees it: stopped at its first error.
fn add_edge_loop(n: usize, list: &[(NodeId, NodeId)]) -> Result<DiGraph, PcnError> {
    let mut g = DiGraph::new(n);
    for (i, &(u, v)) in list.iter().enumerate() {
        assert_eq!(g.add_edge(u, v)?.index(), i, "ids follow insertion order");
    }
    Ok(g)
}

proptest! {
    /// `from_edges` builds what the `add_edge` loop builds, on lists
    /// with duplicates, self-loops and unknown nodes, in random or in
    /// sorted order: the same error for the first offending pair, or
    /// else the edge table, reverse links, out-rows and in-rows in
    /// order, a true report of whether the rows are head-sorted, and the
    /// answer from `edge(u, v)` for every pair, absent pairs and `u ≥ n`
    /// included, that the list defines.
    #[test]
    fn from_edges_equals_the_add_edge_loop(
        n in 0usize..9,
        raw in proptest::collection::vec((0u32..11, 0u32..11), 0..40),
        keep in 0u8..4,
    ) {
        let mut list: Vec<(NodeId, NodeId)> =
            raw.into_iter().map(|(u, v)| (NodeId(u), NodeId(v))).collect();
        // 0 keeps the raw list, where an unknown node or a self-loop
        // usually comes first; 1 drops those, so duplicates decide the
        // error on an unsorted list; 2 drops duplicates too, so the
        // graphs get built; 3 is 1 sorted, so duplicates sit side by
        // side in rows that are otherwise head-sorted.
        let mut seen = BTreeSet::new();
        if keep > 0 {
            list.retain(|&(u, v)| {
                u != v && u.index() < n && v.index() < n && (keep != 2 || seen.insert((u, v)))
            });
        }
        if keep == 3 {
            list.sort_unstable();
        }
        let want = add_edge_loop(n, &list);
        let got = DiGraph::from_edges(n, &list);
        let (want, got) = match (want, got) {
            (Err(want), Err(got)) => {
                prop_assert_eq!(got, want);
                return Ok(());
            }
            (Ok(want), Ok(got)) => (want, got),
            (want, got) => {
                return Err(TestCaseError::fail(format!(
                    "add_edge loop {:?}, from_edges {:?}",
                    want.err(),
                    got.err()
                )))
            }
        };
        // Both builders share the row layout, so each graph is checked
        // against the list itself: edge `i` is the list's pair `i`, and
        // every row holds its edges in list order.
        let id_of = |u: NodeId, v: NodeId| {
            list.iter().position(|&p| p == (u, v)).map(|i| EdgeId(i as u32))
        };
        for g in [&want, &got] {
            prop_assert_eq!(g.node_count(), n);
            let edges: Vec<_> = (0u32..).zip(&list).map(|(i, &(u, v))| (EdgeId(i), u, v)).collect();
            prop_assert_eq!(g.edges().collect::<Vec<_>>(), edges.clone());
            for &(e, u, v) in &edges {
                prop_assert_eq!(g.reverse_edge(e), id_of(v, u));
            }
            for x in g.nodes() {
                let out: Vec<_> = edges.iter().filter(|t| t.1 == x).map(|t| (t.2, t.0)).collect();
                let inn: Vec<_> = edges.iter().filter(|t| t.2 == x).map(|t| (t.1, t.0)).collect();
                prop_assert_eq!(g.out_neighbors(x), &out[..]);
                prop_assert_eq!(g.in_neighbors(x), &inn[..]);
            }
            prop_assert_eq!(g.heads_sorted(), rows_are_head_sorted(g));
            for u in 0..n as u32 + 2 {
                for v in 0..n as u32 + 2 {
                    let (u, v) = (NodeId(u), NodeId(v));
                    prop_assert_eq!(g.edge(u, v), id_of(u, v), "edge({:?}, {:?})", u, v);
                }
            }
        }
    }

    /// `edge(u, v)` is the first edge of the edge table from `u` to `v`
    /// for every ordered pair, ids up to `n + 1` included, and so is
    /// `reverse_edge(e)` with the ends swapped: on generated graphs of
    /// every family, whose rows all report head-sorted, so the lookup
    /// binary-searches them, and on each rebuilt from its shuffled edge
    /// list, whose rows are out of head order, so it scans them.
    #[test]
    fn edge_lookup_equals_a_scan_of_the_edge_table(
        family in 0usize..4,
        n in 6usize..24,
        seed in 0u64..500,
    ) {
        let generated = match family {
            0 => generators::watts_strogatz(n, 4, 0.3, seed),
            1 => generators::barabasi_albert(n, 2, seed),
            2 => generators::scale_free_with_channels(n, 2 * n, seed),
            _ => generators::erdos_renyi(n, 0.3, seed),
        };
        prop_assert!(generated.heads_sorted(), "family {} left a row out of head order", family);
        let list = shuffled(generated.edges().map(|(_, u, v)| (u, v)).collect(), seed);
        let rebuilt = DiGraph::from_edges(n, &list).unwrap();
        for g in [&generated, &rebuilt] {
            prop_assert_eq!(g.heads_sorted(), rows_are_head_sorted(g));
            let scan = |u: NodeId, v: NodeId| {
                g.edges().find(|&(_, a, b)| (a, b) == (u, v)).map(|(e, _, _)| e)
            };
            for u in (0..n as u32 + 2).map(NodeId) {
                for v in (0..n as u32 + 2).map(NodeId) {
                    prop_assert_eq!(g.edge(u, v), scan(u, v), "edge({:?}, {:?})", u, v);
                }
            }
            for (e, u, v) in g.edges() {
                prop_assert_eq!(g.reverse_edge(e), scan(v, u));
            }
        }
    }

    /// A [`RankedPaths`] run to exhaustion hands out every simple path
    /// `s → t` once, for every ordered pair of a small random digraph.
    /// On rows laid out head-sorted, as a generated topology's are, the
    /// ranks are the depth-first enumeration sorted by (hops, nodes).
    /// On the same digraph rebuilt from its shuffled arc list, tie-breaks
    /// follow the rows, so the ranks are the same set in non-decreasing
    /// hops.
    #[test]
    fn ranked_paths_equal_every_simple_path_by_brute_force(
        n in 2usize..8,
        raw in proptest::collection::vec((0u32..8, 0u32..8), 0..24),
        seed in 0u64..1_000,
    ) {
        let arcs: BTreeSet<(NodeId, NodeId)> = raw
            .into_iter()
            .filter(|&(u, v)| u != v && (u as usize) < n && (v as usize) < n)
            .map(|(u, v)| (NodeId(u), NodeId(v)))
            .collect();
        let list: Vec<_> = arcs.into_iter().collect();
        let sorted = DiGraph::from_edges(n, &list).unwrap();
        let unsorted = DiGraph::from_edges(n, &shuffled(list, seed)).unwrap();
        prop_assert!(sorted.heads_sorted());
        let mut scratch = YenScratch::default();
        for (s, t) in (0..n).flat_map(|s| (0..n).map(move |t| (s, t))).filter(|(s, t)| s != t) {
            let (s, t) = (NodeId::from_index(s), NodeId::from_index(t));
            let want = simple_paths(&sorted, s, t);
            for g in [&sorted, &unsorted] {
                // One rank past the last, so an enumeration that does
                // not stop fails rather than runs on.
                let mut ranks = RankedPaths::new(s, t);
                while ranks.found().len() <= want.len()
                    && ranks.next_path(g, &mut scratch).is_some()
                {}
                let mut got: Vec<Vec<NodeId>> =
                    ranks.found().iter().map(|p| p.nodes().to_vec()).collect();
                prop_assert!(got.windows(2).all(|w| w[0].len() <= w[1].len()), "{:?}", got);
                if !g.heads_sorted() {
                    got.sort_by(|a, b| (a.len(), a).cmp(&(b.len(), b)));
                }
                prop_assert_eq!(&got, &want, "{:?} → {:?}", s, t);
            }
        }
    }

    /// Spider's path set, on one router reused across payments, is the
    /// greedy construction it replaced ([`greedy_disjoint_paths`]), on
    /// graphs of every generator family, directed ones included. The
    /// paths never share a directed edge, and there are no more of them
    /// than the sender has out-edges or the receiver in-edges.
    #[test]
    fn disjoint_invariants(
        family in 0usize..3,
        n in 6usize..20,
        seed in 0u64..500,
        k in 1usize..17,
        pairs in proptest::collection::vec((0u32..20, 0u32..20), 1..8),
    ) {
        let g = match family {
            0 => generators::watts_strogatz(n, 4, 0.3, seed),
            1 => generators::scale_free_with_channels(n, 2 * n, seed),
            _ => generators::erdos_renyi(n, 0.25, seed),
        };
        let mut spider = SpiderRouter::with_paths(k);
        for (s, t) in pairs {
            let (s, t) = (NodeId(s % n as u32), NodeId(t % n as u32));
            let paths = spider.edge_disjoint_paths(&g, s, t);
            prop_assert_eq!(&paths, &greedy_disjoint_paths(&g, s, t, k), "{:?} → {:?}", s, t);
            let mut used = BTreeSet::new();
            for p in &paths {
                for (u, v) in p.channels() {
                    prop_assert!(used.insert((u, v)), "edge reused");
                }
            }
            prop_assert!(paths.len() <= g.out_degree(s));
            prop_assert!(paths.len() <= g.in_neighbors(t).len());
        }
    }
}

/// The greedy edge-disjoint construction Spider's phase search
/// replaced: up to `k` forward-loop searches, each with the edges of the
/// paths found before it removed.
fn greedy_disjoint_paths(g: &DiGraph, s: NodeId, t: NodeId, k: usize) -> Vec<Path> {
    let mut used: BTreeSet<EdgeId> = BTreeSet::new();
    let mut out = Vec::new();
    while out.len() < k {
        let Some(p) = bfs::shortest_path_filtered(g, s, t, |e| !used.contains(&e)) else {
            break;
        };
        used.extend(p.channels().map(|(u, v)| g.edge(u, v).unwrap()));
        out.push(p);
    }
    out
}

/// The two paper-scale graphs' heap footprint, pinned by equality: the
/// flat rows hold 28 bytes per edge (endpoints, 4-byte reverse link,
/// out-row, in-row) and 8 per node (two `u32` offsets). A per-node
/// `Vec`, an edge index or a second copy of the rows coming back fails
/// here.
#[test]
fn paper_scale_graphs_hold_their_recorded_heap_bytes() {
    use flash_offchain::workload::{lightning_topology, ripple_topology};
    let cases = [
        ("ripple_topology(11)", ripple_topology(11), 502_616_usize),
        ("lightning_topology(11)", lightning_topology(11), 2_036_992),
    ];
    for (name, net, want) in cases {
        let got = net.graph().heap_bytes();
        assert_eq!(got, want, "{name}: heap bytes {got}, recorded {want}");
    }
}
