//! The mice routing table (§3.3 path finding).
//!
//! "Each node maintains a routing table for mice payments. It contains
//! paths for the unique receivers of this node. Upon seeing a new
//! receiver that does not exist in the routing table, the node computes
//! top-m shortest paths (i.e. using Yen's algorithm) on the local
//! topology G, and adds them to the routing table."
//!
//! This implementation keys entries by `(sender, receiver)` because one
//! `FlashRouter` instance simulates every node's local state at once;
//! the per-sender view is identical to per-node tables.
//!
//! An entry is the live path set, the pair's [`RankedPaths`] enumeration
//! and a last-used stamp. The enumeration is stepped `m` times on a miss
//! and once per dead path afterwards, so "the next top shortest path" is
//! wherever it stopped; how a rank is obtained is `pcn_graph::yen`'s
//! business, not this module's. The table owns the one [`YenScratch`]
//! every entry's spur searches run on, so an entry holds no search
//! arrays of its own.
//!
//! **Contract: the graph is fixed between refreshes.** Every call on a
//! table must pass the same topology until [`RoutingTable::refresh`],
//! which drops the entries and their enumerations with them. The
//! backends guarantee it: `PaymentNetwork::graph()` hands out a `&DiGraph`
//! that none of them mutates, and the router refreshes only when its
//! staleness tracker trips. The contract covers the scratch's sizing
//! too: the first miss sizes it, and only the first spur after a
//! refresh that brings a graph of another node or edge count re-sizes
//! it.

use pcn_graph::yen::{RankedPaths, YenScratch};
use pcn_graph::{DiGraph, Path};
use pcn_types::NodeId;
use std::collections::BTreeMap;

/// Routing-table entries unused for this many mice payments are evicted
/// ("Timeouts are used to remove receivers ... to limit the routing
/// table size"). The paper names no value, and every experiment, test
/// and committed bench record here runs with this one — hence a
/// constant, not a `FlashConfig` field.
pub const TABLE_TTL: u64 = 10_000;

/// One routing-table entry.
#[derive(Clone, Debug)]
struct TableEntry {
    /// The live path set: the top-m shortest paths, with dead paths
    /// swapped for later Yen ranks by [`RoutingTable::replace_path`].
    paths: Vec<Path>,
    /// The pair's Yen enumeration, stopped after the last rank handed
    /// out (initial paths + replacements).
    ranks: RankedPaths,
    /// Logical timestamp of the last lookup (for TTL eviction).
    last_used: u64,
}

/// The per-(sender, receiver) mice routing table. See the module docs
/// for the fixed-graph contract its methods share.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    m: usize,
    ttl: u64,
    entries: BTreeMap<(NodeId, NodeId), TableEntry>,
    /// A lower bound on every entry's `last_used` (`u64::MAX` while the
    /// table is empty), so [`RoutingTable::evict_stale`] can tell that
    /// nothing is stale without scanning the entries.
    oldest: u64,
    /// Yen's spur-search arrays, shared by every entry's enumeration.
    yen: YenScratch,
}

impl RoutingTable {
    /// Creates a table caching `m` paths per receiver, evicting entries
    /// unused for `ttl` lookups ([`TABLE_TTL`] in the router).
    pub fn new(m: usize, ttl: u64) -> Self {
        RoutingTable {
            m,
            ttl,
            entries: Default::default(),
            oldest: u64::MAX,
            yen: YenScratch::default(),
        }
    }

    /// Number of cached (sender, receiver) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the cached paths for `(s, t)`, computing the top-m Yen
    /// shortest paths on a miss ("path finding is simplified into table
    /// lookups in most cases"). `now` stamps the entry for TTL purposes.
    pub fn lookup_or_compute(&mut self, g: &DiGraph, s: NodeId, t: NodeId, now: u64) -> &[Path] {
        let m = self.m;
        let entry = self.entries.entry((s, t)).or_insert_with(|| {
            let mut ranks = RankedPaths::new(s, t);
            let paths = std::iter::from_fn(|| ranks.next_path(g, &mut self.yen).cloned())
                .take(m)
                .collect();
            TableEntry {
                paths,
                ranks,
                last_used: now,
            }
        });
        entry.last_used = now;
        self.oldest = self.oldest.min(now);
        &entry.paths
    }

    /// Replaces the path at `idx` with the next-ranked Yen shortest path
    /// ("when a payment encounters an unaccessible path with zero
    /// effective capacity or no connectivity, Flash replaces it with the
    /// next top shortest path"). If the graph has no further simple
    /// path, the dead path is simply dropped.
    pub fn replace_path(&mut self, g: &DiGraph, s: NodeId, t: NodeId, idx: usize) {
        let Some(entry) = self.entries.get_mut(&(s, t)) else {
            return;
        };
        if idx >= entry.paths.len() {
            return;
        }
        match entry.ranks.next_path(g, &mut self.yen) {
            Some(next) => entry.paths[idx] = next.clone(),
            None => {
                entry.paths.remove(idx);
            }
        }
    }

    /// Evicts entries unused for longer than the TTL. While the oldest
    /// possible stamp is within the TTL no entry can be stale, and the
    /// entries are not scanned.
    pub fn evict_stale(&mut self, now: u64) {
        let ttl = self.ttl;
        if now.saturating_sub(self.oldest) <= ttl {
            return;
        }
        let mut oldest = u64::MAX;
        self.entries.retain(|_, e| {
            let live = now.saturating_sub(e.last_used) <= ttl;
            if live {
                oldest = oldest.min(e.last_used);
            }
            live
        });
        self.oldest = oldest;
    }

    /// Drops every entry; they will be recomputed lazily against the new
    /// topology (the periodic refresh of §3.3).
    pub fn refresh(&mut self) {
        self.entries.clear();
        self.oldest = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Diamond + long detour: at least 3 simple paths 0 → 3.
    fn graph() -> DiGraph {
        let mut g = DiGraph::new(5);
        for (u, v) in [(0, 1), (1, 3), (0, 2), (2, 3), (0, 4), (4, 2)] {
            g.add_edge(n(u), n(v)).unwrap();
        }
        g
    }

    #[test]
    fn miss_computes_top_m() {
        let g = graph();
        let mut t = RoutingTable::new(2, 100);
        let paths = t.lookup_or_compute(&g, n(0), n(3), 1);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].hops(), 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn hit_reuses_cached_paths() {
        let g = graph();
        let mut t = RoutingTable::new(2, 100);
        let a = t.lookup_or_compute(&g, n(0), n(3), 1).to_vec();
        let b = t.lookup_or_compute(&g, n(0), n(3), 2);
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn replacement_advances_to_next_yen_path() {
        let g = graph();
        let mut t = RoutingTable::new(2, 100);
        let before = t.lookup_or_compute(&g, n(0), n(3), 1).to_vec();
        t.replace_path(&g, n(0), n(3), 0);
        let after = t.lookup_or_compute(&g, n(0), n(3), 2);
        assert_eq!(after.len(), 2);
        // Slot 0 now holds the 3rd Yen path (the 3-hop detour).
        assert_eq!(after[0].hops(), 3);
        assert_ne!(before[0].nodes(), after[0].nodes());
    }

    #[test]
    fn replacement_exhaustion_drops_path() {
        let mut g = DiGraph::new(2);
        g.add_edge(n(0), n(1)).unwrap();
        let mut t = RoutingTable::new(1, 100);
        let paths = t.lookup_or_compute(&g, n(0), n(1), 1);
        assert_eq!(paths.len(), 1);
        // Only one simple path exists; replacing it leaves nothing.
        t.replace_path(&g, n(0), n(1), 0);
        let paths = t.lookup_or_compute(&g, n(0), n(1), 2);
        assert!(paths.is_empty());
    }

    /// Topology change reaches an entry only through `refresh`: an entry
    /// that cached fewer than `m` paths because the old graph had no
    /// more is rebuilt from rank 1 of the grown graph, and replacements
    /// continue from there.
    #[test]
    fn refresh_restarts_ranks_on_grown_topology() {
        // g1 has a single simple path 0 → 3, so m = 2 caches just one.
        let mut g1 = DiGraph::new(5);
        for (u, v) in [(0, 1), (1, 3)] {
            g1.add_edge(n(u), n(v)).unwrap();
        }
        let mut t = RoutingTable::new(2, 100);
        assert_eq!(t.lookup_or_compute(&g1, n(0), n(3), 1).len(), 1);

        // The topology grows: now ranks are 0-1-3, 0-2-3, 0-4-3.
        let mut g2 = DiGraph::new(5);
        for (u, v) in [(0, 1), (1, 3), (0, 2), (2, 3), (0, 4), (4, 3)] {
            g2.add_edge(n(u), n(v)).unwrap();
        }
        t.refresh();
        let paths = t.lookup_or_compute(&g2, n(0), n(3), 2);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].nodes(), &[n(0), n(1), n(3)]);
        assert_eq!(paths[1].nodes(), &[n(0), n(2), n(3)]);
        // Two ranks handed out, so the replacement serves the third.
        t.replace_path(&g2, n(0), n(3), 0);
        let after = t.lookup_or_compute(&g2, n(0), n(3), 3);
        assert_eq!(after[0].nodes(), &[n(0), n(4), n(3)]);
    }

    /// Replacing past exhaustion drains the entry slot by slot and never
    /// searches again. The richer graph handed to the later calls is
    /// outside the fixed-graph contract on purpose: it is how the test
    /// sees that no search ran (one would find 0-5-3).
    #[test]
    fn replacements_past_exhaustion_drain_without_search() {
        // Exactly three simple paths 0 → 3.
        let mut g = DiGraph::new(6);
        for (u, v) in [(0, 1), (1, 3), (0, 2), (2, 3), (0, 4), (4, 3)] {
            g.add_edge(n(u), n(v)).unwrap();
        }
        let mut richer = g.clone();
        richer.add_edge(n(0), n(5)).unwrap();
        richer.add_edge(n(5), n(3)).unwrap();

        let mut t = RoutingTable::new(2, 100);
        assert_eq!(t.lookup_or_compute(&g, n(0), n(3), 1).len(), 2);
        t.replace_path(&g, n(0), n(3), 1);
        let paths = t.lookup_or_compute(&g, n(0), n(3), 2);
        assert_eq!(paths[1].nodes(), &[n(0), n(4), n(3)], "third rank");
        // Rank 4 does not exist: the enumeration is now exhausted.
        t.replace_path(&g, n(0), n(3), 1);
        assert_eq!(t.lookup_or_compute(&g, n(0), n(3), 3).len(), 1);
        t.replace_path(&richer, n(0), n(3), 0);
        assert!(t.lookup_or_compute(&richer, n(0), n(3), 4).is_empty());
        // Nothing left to replace; the empty entry stays cached.
        t.replace_path(&richer, n(0), n(3), 0);
        assert!(t.lookup_or_compute(&richer, n(0), n(3), 5).is_empty());
        assert_eq!(t.len(), 1);
    }

    /// Successive replacements hand out strictly increasing Yen ranks.
    #[test]
    fn successive_replacements_advance_through_ranks() {
        // Four simple paths 0 → 3, all distinct.
        let mut g = DiGraph::new(6);
        for (u, v) in [
            (0, 1),
            (1, 3),
            (0, 2),
            (2, 3),
            (0, 4),
            (4, 3),
            (0, 5),
            (5, 3),
        ] {
            g.add_edge(n(u), n(v)).unwrap();
        }
        let mut t = RoutingTable::new(2, 100);
        let initial = t.lookup_or_compute(&g, n(0), n(3), 1).to_vec();
        assert_eq!(initial.len(), 2);
        t.replace_path(&g, n(0), n(3), 0);
        t.replace_path(&g, n(0), n(3), 1);
        let after = t.lookup_or_compute(&g, n(0), n(3), 2);
        assert_eq!(after.len(), 2);
        let mut all: Vec<_> = initial
            .iter()
            .chain(after.iter())
            .map(|p| p.nodes().to_vec())
            .collect();
        let len_before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), len_before, "a Yen rank was handed out twice");
    }

    /// The caller's contract when several paths die in one payment:
    /// replacements must run highest index first, because an exhausted
    /// `replace_path` removes its slot and shifts everything after it.
    /// Descending order drops both dead paths; ascending would leave a
    /// dead path cached (the second index, shifted, points past the end).
    #[test]
    fn exhausted_replacements_in_descending_index_order_drop_all() {
        // Exactly two simple paths 0 → 3.
        let mut g = DiGraph::new(4);
        for (u, v) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
            g.add_edge(n(u), n(v)).unwrap();
        }
        let mut t = RoutingTable::new(2, 100);
        assert_eq!(t.lookup_or_compute(&g, n(0), n(3), 1).len(), 2);
        // Both paths found dead; Yen has no rank 3 to hand out.
        t.replace_path(&g, n(0), n(3), 1);
        t.replace_path(&g, n(0), n(3), 0);
        assert!(
            t.lookup_or_compute(&g, n(0), n(3), 2).is_empty(),
            "both dead paths must be gone"
        );
    }

    /// One table used across refreshes on graphs of different size
    /// serves, lookup for lookup and replacement for replacement, what a
    /// fresh table per graph serves: the Yen scratch it keeps between
    /// them is invisible.
    #[test]
    fn one_table_serves_graphs_of_different_size() {
        let ring = pcn_graph::generators::watts_strogatz(24, 4, 0.3, 7);
        let small = graph();
        let ring_pairs = [(0, 12), (3, 17), (20, 5)];
        let mut shared = RoutingTable::new(3, 100);
        let mut now = 0;
        for (g, pairs) in [
            (&ring, ring_pairs),
            (&small, [(0, 3), (4, 3), (0, 2)]),
            (&ring, ring_pairs),
        ] {
            shared.refresh();
            let mut fresh = RoutingTable::new(3, 100);
            for (s, t) in pairs {
                now += 1;
                let want = fresh.lookup_or_compute(g, n(s), n(t), now).to_vec();
                assert_eq!(shared.lookup_or_compute(g, n(s), n(t), now), want);
                for idx in [2, 0] {
                    fresh.replace_path(g, n(s), n(t), idx);
                    shared.replace_path(g, n(s), n(t), idx);
                }
                let want = fresh.lookup_or_compute(g, n(s), n(t), now).to_vec();
                assert_eq!(shared.lookup_or_compute(g, n(s), n(t), now), want);
            }
        }
    }

    #[test]
    fn ttl_eviction() {
        let g = graph();
        let mut t = RoutingTable::new(2, 10);
        t.lookup_or_compute(&g, n(0), n(3), 1);
        t.lookup_or_compute(&g, n(1), n(3), 5);
        t.evict_stale(12);
        // Entry stamped at 1 is stale (12 − 1 > 10); the one at 5 lives.
        assert_eq!(t.len(), 1);
        t.evict_stale(100);
        assert_eq!(t.len(), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rand::prelude::*;
        use rand::rngs::StdRng;

        proptest! {
            /// On random lookup sequences with a small TTL, a clock that
            /// stalls and jumps, and a refresh now and then, the table
            /// holds after every call exactly the pairs, with the stamps,
            /// that an eviction scanning every entry on every call keeps:
            /// skipping the scan never delays or advances an eviction.
            #[test]
            fn skipped_scans_evict_like_a_full_retain(
                seed in 0u64..1_000_000,
                ttl in 0u64..8,
            ) {
                let g = pcn_graph::generators::watts_strogatz(12, 4, 0.3, seed);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut table = RoutingTable::new(2, ttl);
                let mut want: BTreeMap<(u32, u32), u64> = BTreeMap::new();
                let mut now = 0;
                for call in 0..300 {
                    now += rng.random_range(0..4u64);
                    table.evict_stale(now);
                    want.retain(|_, used| now - *used <= ttl);
                    if rng.random_bool(0.02) {
                        table.refresh();
                        want.clear();
                    }
                    let (s, t) = (rng.random_range(0..12u32), rng.random_range(0..12u32));
                    table.lookup_or_compute(&g, n(s), n(t), now);
                    want.insert((s, t), now);
                    let got: BTreeMap<(u32, u32), u64> = table
                        .entries
                        .iter()
                        .map(|(&(s, t), e)| ((s.0, t.0), e.last_used))
                        .collect();
                    prop_assert_eq!(&got, &want, "call {} at {}", call, now);
                }
            }
        }
    }

    #[test]
    fn refresh_clears_everything() {
        let g = graph();
        let mut t = RoutingTable::new(2, 100);
        t.lookup_or_compute(&g, n(0), n(3), 1);
        t.lookup_or_compute(&g, n(2), n(3), 1);
        assert_eq!(t.len(), 2);
        t.refresh();
        assert!(t.is_empty());
    }

    #[test]
    fn unreachable_receiver_yields_empty_entry() {
        let mut g = DiGraph::new(3);
        g.add_edge(n(0), n(1)).unwrap();
        let mut t = RoutingTable::new(4, 100);
        let paths = t.lookup_or_compute(&g, n(0), n(2), 1);
        assert!(paths.is_empty());
    }
}
