//! Path selection: splitting an elephant payment across the candidate
//! paths to minimize transaction fees (program (1) of §3.2).
//!
//! The optimization is a linear program over one variable per path
//! (`r_p` = volume routed on path `p`):
//!
//! ```text
//! min  Σ_p Σ_(u,v) a^p_{u,v} · f_{u,v}(r_p)
//! s.t. Σ_p r_p = d
//!      Σ_p r_p a^p_{u,v} − Σ_p r_p a^p_{v,u} ≤ C(u,v)   ∀(u,v)
//! ```
//!
//! The capacity constraint is *netted*: "partial payments on different
//! direction of the same channel can offset each other in terms of
//! balance". A netted solution is not directly executable hop-by-hop
//! (escrow debits are gross), so after solving we convert the per-path
//! volumes to per-edge flows, cancel opposing flows, and re-decompose
//! into paths — the decomposed parts are gross-feasible against the
//! probed balances and deliver exactly the same volume at no higher fee.

use super::elephant::ElephantPlan;
use pcn_graph::maxflow::decompose_sparse;
use pcn_graph::{DiGraph, EdgeId, Path};
use pcn_lp::{Cmp, LpWork, Simplex};
use pcn_types::Amount;

/// Splits `demand` over the plan's paths.
///
/// With `optimize = true` the fee-minimizing LP decides the split; with
/// `optimize = false` (the Figure 9 baseline) "the paths are used
/// sequentially as they are found by our modified Edmonds-Karp algorithm
/// until the demand is met".
///
/// Returns executable `(path, amount)` parts summing exactly to `demand`,
/// or `None` when the plan cannot carry it. Runs on a throwaway
/// [`SplitScratch`]; a caller that splits repeatedly keeps one and calls
/// [`split_payment_with`].
pub fn split_payment(
    graph: &DiGraph,
    plan: &ElephantPlan,
    demand: Amount,
    optimize: bool,
) -> Option<Vec<(Path, Amount)>> {
    split_payment_with(graph, &mut SplitScratch::default(), plan, demand, optimize)
}

/// The split's working arrays, kept between splits: the plan's edge
/// book and the LP solver with its tableau. `FlashRouter` owns one;
/// it is sized by the largest plan so far.
#[derive(Clone, Debug, Default)]
pub struct SplitScratch {
    book: Book,
    simplex: Simplex,
}

impl SplitScratch {
    /// The LP work done so far: one solve per optimized split of a
    /// non-empty plan, and the pivots they took.
    pub fn work(&self) -> LpWork {
        self.simplex.work()
    }
}

/// [`split_payment`] on the caller's scratch; the parts are the same.
pub fn split_payment_with(
    graph: &DiGraph,
    scratch: &mut SplitScratch,
    plan: &ElephantPlan,
    demand: Amount,
    optimize: bool,
) -> Option<Vec<(Path, Amount)>> {
    if demand.is_zero() {
        return Some(Vec::new());
    }
    if plan.paths.is_empty() {
        return None;
    }
    debug_assert_eq!(plan.paths.len(), plan.path_edges.len());
    debug_assert_eq!(plan.paths.len(), plan.path_hops.len());
    let SplitScratch { book, simplex } = scratch;
    book.fill(graph, plan);
    let alloc = if optimize {
        lp_allocate(book, simplex, demand).or_else(|| sequential_allocate(book, demand))?
    } else {
        sequential_allocate(book, demand)?
    };
    debug_assert_eq!(
        alloc.iter().map(|a| *a as u128).sum::<u128>(),
        demand.micros() as u128
    );
    materialize(graph, plan, book, &alloc, demand)
}

/// The plan's distinct path edges, numbered in first-occurrence order,
/// with what the split needs of each. A plan holds a few dozen edges, so
/// numbering them is a linear search, not a hash map — and the per-edge
/// books below are plain vectors indexed by that number.
#[derive(Clone, Debug, Default)]
struct Book {
    edges: Vec<EdgeId>,
    /// First-probe capacity per edge, in micros.
    cap: Vec<u64>,
    /// Number of the opposite direction, when it is on some path too.
    rev: Vec<Option<usize>>,
    /// `paths[i]` lists the edge numbers of `plan.path_edges[i]`.
    paths: Vec<Vec<usize>>,
    /// Marginal fee cost of one micro-unit per path, in ppm / 1e6, with
    /// a small per-hop tie-break so equal-fee splits prefer shorter paths.
    unit_cost: Vec<f64>,
}

impl Book {
    /// Books `plan`'s paths, forgetting the last plan's; the vectors,
    /// the per-path ones included, keep their capacity.
    fn fill(&mut self, graph: &DiGraph, plan: &ElephantPlan) {
        let Book {
            edges,
            cap,
            rev,
            paths,
            unit_cost,
        } = self;
        edges.clear();
        cap.clear();
        unit_cost.clear();
        paths.resize_with(plan.paths.len(), Vec::new);
        for ((path_edges, hops), numbers) in plan.path_edges.iter().zip(&plan.path_hops).zip(paths)
        {
            numbers.clear();
            let mut ppm = 0.0f64;
            for (&e, hop) in path_edges.iter().zip(hops) {
                ppm += hop.fee.marginal_ppm() as f64;
                numbers.push(edges.iter().position(|&x| x == e).unwrap_or_else(|| {
                    edges.push(e);
                    cap.push(hop.capacity.micros());
                    edges.len() - 1
                }));
            }
            unit_cost.push(ppm / 1e6 + 1e-9 * path_edges.len() as f64);
        }
        rev.clear();
        rev.extend(edges.iter().map(|&e| {
            let r = graph.reverse_edge(e)?;
            edges.iter().position(|&x| x == r)
        }));
    }

    /// Residual capacity of edge number `e` given gross per-edge flows:
    /// probed capacity plus whatever flows on the reverse direction
    /// (offsets).
    fn residual(&self, e: usize, flow: &[u128]) -> u128 {
        let rev = self.rev[e].map_or(0, |r| flow[r]);
        (self.cap[e] as u128 + rev).saturating_sub(flow[e])
    }

    /// How much more of `want` fits on path `i` given the gross flows
    /// already placed; books it into `flow` and returns it.
    fn fill_path(&self, i: usize, want: u64, flow: &mut [u128]) -> u64 {
        let bottleneck = self.paths[i]
            .iter()
            .map(|&e| self.residual(e, flow))
            .min()
            .unwrap_or(0);
        let x = u64::try_from(bottleneck).unwrap_or(u64::MAX).min(want);
        if x > 0 {
            for &e in &self.paths[i] {
                flow[e] += x as u128;
            }
        }
        x
    }
}

/// Sequential fill in discovery order — the non-optimized baseline and
/// the fallback when the LP hits a numerically degenerate corner.
fn sequential_allocate(book: &Book, demand: Amount) -> Option<Vec<u64>> {
    let mut flow = vec![0u128; book.edges.len()];
    let mut alloc = vec![0u64; book.paths.len()];
    let mut remaining = demand.micros();
    for (i, slot) in alloc.iter_mut().enumerate() {
        if remaining == 0 {
            break;
        }
        *slot = book.fill_path(i, remaining, &mut flow);
        remaining -= *slot;
    }
    (remaining == 0).then_some(alloc)
}

/// LP-based allocation (the paper's program (1)), solved on `simplex`.
fn lp_allocate(book: &Book, simplex: &mut Simplex, demand: Amount) -> Option<Vec<u64>> {
    let np = book.paths.len();
    simplex.minimize(&book.unit_cost);

    // Demand constraint (micros).
    simplex.constrain(Cmp::Eq, demand.micros() as f64).fill(1.0);

    // Netted capacity constraint per directed edge that appears on any
    // path, row `1 + e` for edge number `e`: a path adds 1 on each of
    // its edges and takes 1 off each edge whose opposite direction it
    // uses.
    for &cap in &book.cap {
        simplex.constrain(Cmp::Le, cap as f64);
    }
    for (i, path) in book.paths.iter().enumerate() {
        for &e in path {
            simplex.row_mut(1 + e)[i] += 1.0;
            if let Some(r) = book.rev[e] {
                simplex.row_mut(1 + r)[i] -= 1.0;
            }
        }
    }

    simplex.solve().ok()?;

    // Round down to integer micros, then place the remainder on paths
    // with residual slack, cheapest first.
    let mut alloc: Vec<u64> = simplex
        .x()
        .iter()
        .map(|&v| if v <= 0.0 { 0 } else { v.floor() as u64 })
        .collect();
    let mut flow = vec![0u128; book.edges.len()];
    for (&a, path) in alloc.iter().zip(&book.paths) {
        for &e in path {
            flow[e] += a as u128;
        }
    }
    let assigned = alloc.iter().try_fold(0u64, |sum, &a| sum.checked_add(a))?;
    let mut rem = demand.micros().checked_sub(assigned)?;
    if rem > 0 {
        let mut order: Vec<usize> = (0..np).collect();
        order.sort_by(|&a, &b| book.unit_cost[a].total_cmp(&book.unit_cost[b]));
        for i in order {
            if rem == 0 {
                break;
            }
            let added = book.fill_path(i, rem, &mut flow);
            alloc[i] += added;
            rem -= added;
        }
    }
    (rem == 0).then_some(alloc)
}

/// Converts per-path volumes into executable parts: per-edge flows →
/// cancellation of opposing flows → path decomposition. The result is
/// gross-feasible against the probed capacities.
fn materialize(
    graph: &DiGraph,
    plan: &ElephantPlan,
    book: &Book,
    alloc: &[u64],
    demand: Amount,
) -> Option<Vec<(Path, Amount)>> {
    let flow = net_flow(book, alloc)?;
    let s = plan.paths[0].source();
    let t = plan.paths[0].target();
    let parts = decompose_sparse(graph, s, t, &book.edges, flow);
    let total: u128 = parts.iter().map(|(_, f)| *f as u128).sum();
    if total != demand.micros() as u128 {
        return None; // decomposition shortfall — should not happen
    }
    Some(
        parts
            .into_iter()
            .map(|(p, f)| (p, Amount::from_micros(f)))
            .collect(),
    )
}

/// The flow per book edge of the per-path volumes `alloc`, with the
/// opposing flows of each bidirectional channel cancelled.
fn net_flow(book: &Book, alloc: &[u64]) -> Option<Vec<u64>> {
    let mut flow = vec![0u64; book.edges.len()];
    for (path, &a) in book.paths.iter().zip(alloc) {
        for &e in path {
            flow[e] = flow[e].checked_add(a)?;
        }
    }
    // Cancel opposing flows on bidirectional channels. A pair is visited
    // from both sides; the second visit cancels nothing.
    for e in 0..flow.len() {
        if let Some(r) = book.rev[e] {
            let cancel = flow[e].min(flow[r]);
            flow[e] -= cancel;
            flow[r] -= cancel;
        }
    }
    Some(flow)
}

/// Total fees for a hypothetical split (analysis helper for tests and
/// the Figure 9 bench): applies each probed channel's fee policy to the
/// per-part volumes.
pub fn evaluate_fees(graph: &DiGraph, plan: &ElephantPlan, parts: &[(Path, Amount)]) -> Amount {
    let mut total = Amount::ZERO;
    for (path, amount) in parts {
        for (u, v) in path.channels() {
            let edge = graph.edge(u, v);
            if let Some((_, hop)) = plan.hops().find(|&(e, _)| Some(e) == edge) {
                total = total.saturating_add(hop.fee.fee(*amount));
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flash::elephant::Hop;
    use pcn_types::{FeePolicy, NodeId};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// A graph from `(u, v, capacity in units, fee ppm)` rows and the plan
    /// a lossless probe of each of `routes` (in order) would have made.
    fn probed_plan(
        nodes: usize,
        rows: &[(u32, u32, u64, u64)],
        routes: &[&[u32]],
        max_flow: u64,
    ) -> (DiGraph, ElephantPlan) {
        let mut g = DiGraph::new(nodes);
        for &(u, v, _, _) in rows {
            g.add_edge(n(u), n(v)).unwrap();
        }
        let paths: Vec<Path> = routes
            .iter()
            .map(|r| Path::new(r.iter().map(|&i| n(i)).collect(), Some(&g)).unwrap())
            .collect();
        let edges_of = |p: &Path| p.channels().map(|(u, v)| g.edge(u, v).unwrap()).collect();
        let path_edges: Vec<Vec<EdgeId>> = paths.iter().map(edges_of).collect();
        let hop = |e: &EdgeId| Hop {
            capacity: Amount::from_units(rows[e.index()].2),
            fee: FeePolicy::proportional(rows[e.index()].3),
            reverse: None,
        };
        let plan = ElephantPlan {
            path_hops: path_edges
                .iter()
                .map(|edges| edges.iter().map(hop).collect())
                .collect(),
            path_edges,
            probes: paths.len(),
            paths,
            max_flow: Amount::from_units(max_flow),
        };
        (g, plan)
    }

    /// Hand-built plan over a diamond: cheap path 0-1-3 (cap 10),
    /// expensive path 0-2-3 (cap 10), discovered expensive first.
    fn diamond_plan() -> (DiGraph, ElephantPlan) {
        probed_plan(
            4,
            &[
                (0, 1, 10, 1_000),
                (1, 3, 10, 1_000),
                (0, 2, 10, 50_000),
                (2, 3, 10, 50_000),
            ],
            &[&[0, 2, 3], &[0, 1, 3]],
            20,
        )
    }

    #[test]
    fn lp_prefers_cheap_path() {
        let (g, plan) = diamond_plan();
        let parts = split_payment(&g, &plan, Amount::from_units(8), true).unwrap();
        // Everything fits on the cheap path (0.1% × 2 hops) — the LP
        // must avoid the 5% path entirely.
        assert_eq!(parts.len(), 1);
        assert!(parts[0].0.uses_channel(n(0), n(1)));
        assert_eq!(parts[0].1, Amount::from_units(8));
    }

    #[test]
    fn sequential_follows_discovery_order() {
        let (g, plan) = diamond_plan();
        let parts = split_payment(&g, &plan, Amount::from_units(8), false).unwrap();
        // Discovery order had the expensive path first.
        assert_eq!(parts.len(), 1);
        assert!(parts[0].0.uses_channel(n(0), n(2)));
    }

    #[test]
    fn lp_cheaper_than_sequential() {
        let (g, plan) = diamond_plan();
        let d = Amount::from_units(8);
        let opt = split_payment(&g, &plan, d, true).unwrap();
        let seq = split_payment(&g, &plan, d, false).unwrap();
        let fee_opt = evaluate_fees(&g, &plan, &opt);
        let fee_seq = evaluate_fees(&g, &plan, &seq);
        assert!(
            fee_opt < fee_seq,
            "LP fees {fee_opt} must beat sequential {fee_seq}"
        );
    }

    #[test]
    fn split_covers_demand_across_paths() {
        let (g, plan) = diamond_plan();
        let parts = split_payment(&g, &plan, Amount::from_units(15), true).unwrap();
        let total: Amount = parts.iter().map(|(_, a)| *a).sum();
        assert_eq!(total, Amount::from_units(15));
        assert!(parts.len() >= 2, "15 > 10 requires both paths");
        // Per-edge feasibility.
        let mut per_edge = vec![0u64; g.edge_count()];
        for (p, a) in &parts {
            for (u, v) in p.channels() {
                per_edge[g.edge(u, v).unwrap().index()] += a.micros();
            }
        }
        for (e, hop) in plan.hops() {
            assert!(per_edge[e.index()] <= hop.capacity.micros());
        }
    }

    #[test]
    fn infeasible_demand_is_none() {
        let (g, plan) = diamond_plan();
        assert!(split_payment(&g, &plan, Amount::from_units(21), true).is_none());
        assert!(split_payment(&g, &plan, Amount::from_units(21), false).is_none());
    }

    #[test]
    fn zero_demand_is_empty() {
        let (g, plan) = diamond_plan();
        assert_eq!(
            split_payment(&g, &plan, Amount::ZERO, true).unwrap().len(),
            0
        );
    }

    #[test]
    fn exact_micro_rounding() {
        let (g, plan) = diamond_plan();
        // A demand that does not divide evenly: 15 units + 1 micro.
        let d = Amount::from_micros(15_000_001);
        let parts = split_payment(&g, &plan, d, true).unwrap();
        let total: Amount = parts.iter().map(|(_, a)| *a).sum();
        assert_eq!(total, d);
    }

    #[test]
    fn overlapping_paths_respect_shared_edge() {
        // Shared first hop 0→1 with capacity 12, then 1→2 direct or
        // 1→3→2, 10 each: demand 12 must be split so the shared edge
        // carries exactly 12.
        let (g, plan) = probed_plan(
            4,
            &[(0, 1, 12, 0), (1, 2, 10, 0), (1, 3, 10, 0), (3, 2, 10, 0)],
            &[&[0, 1, 2], &[0, 1, 3, 2]],
            12,
        );
        let parts = split_payment(&g, &plan, Amount::from_units(12), true).unwrap();
        let total: Amount = parts.iter().map(|(_, a)| *a).sum();
        assert_eq!(total, Amount::from_units(12));
        let shared_use: u64 = parts
            .iter()
            .filter(|(p, _)| p.uses_channel(n(0), n(1)))
            .map(|(_, a)| a.micros())
            .sum();
        assert!(shared_use <= Amount::from_units(12).micros());
        // Demand 13 exceeds the shared edge: infeasible.
        assert!(split_payment(&g, &plan, Amount::from_units(13), true).is_none());
    }

    mod properties {
        use super::*;
        use crate::flash::elephant::find_paths;
        use pcn_graph::generators;
        use pcn_graph::maxflow::decompose_into_paths;
        use pcn_sim::Network;
        use proptest::prelude::*;
        use rand::prelude::*;
        use rand::rngs::StdRng;

        proptest! {
            /// On Algorithm 1's plans over random channel graphs with
            /// random balances and fees, the sparse decomposition returns
            /// the dense one's parts, in order, for the netted flows of
            /// the LP split, the sequential split and a random allocation
            /// (which need not conserve flow).
            #[test]
            fn sparse_decomposition_equals_the_dense_one(
                nodes in 6usize..40,
                seed in 0u64..1_000_000,
                demand in 1u64..400,
                k in 1usize..12,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let g = if seed % 2 == 0 {
                    generators::watts_strogatz(nodes, 4, 0.3, seed)
                } else {
                    generators::barabasi_albert(nodes, 2, seed)
                };
                let caps = (0..g.edge_count())
                    .map(|_| Amount::from_units(rng.random_range(0..60)))
                    .collect();
                let fees = (0..g.edge_count())
                    .map(|_| FeePolicy::proportional(rng.random_range(0..20_000)))
                    .collect();
                let mut net = Network::new(g, caps, fees).unwrap();
                let s = NodeId(rng.random_range(0..nodes as u32));
                let t = NodeId(rng.random_range(0..nodes as u32));
                let plan = find_paths(&mut net, s, t, Amount::from_units(demand), k);
                prop_assume!(!plan.paths.is_empty());
                let g = net.graph();
                let mut book = Book::default();
                book.fill(g, &plan);
                let d = plan.max_flow.min(Amount::from_units(demand));
                let random: Vec<u64> = book.paths.iter().map(|_| rng.random_range(0..1_000)).collect();
                let lp = lp_allocate(&book, &mut Simplex::new(), d);
                let allocs = [lp, sequential_allocate(&book, d), Some(random)];
                for alloc in allocs.into_iter().flatten() {
                    let flow = net_flow(&book, &alloc).unwrap();
                    let mut dense = vec![0u64; g.edge_count()];
                    for (&e, &f) in book.edges.iter().zip(&flow) {
                        dense[e.index()] = f;
                    }
                    prop_assert_eq!(
                        decompose_sparse(g, s, t, &book.edges, flow),
                        decompose_into_paths(g, s, t, dense)
                    );
                }
            }
        }
    }
}
