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
use pcn_graph::maxflow::{decompose_into_paths, MaxFlow};
use pcn_graph::{DiGraph, EdgeId, Path};
use pcn_lp::{Cmp, LinearProgram};
use pcn_types::Amount;
use std::collections::HashMap;

/// Splits `demand` over the plan's paths.
///
/// With `optimize = true` the fee-minimizing LP decides the split; with
/// `optimize = false` (the Figure 9 baseline) "the paths are used
/// sequentially as they are found by our modified Edmonds-Karp algorithm
/// until the demand is met".
///
/// Returns executable `(path, amount)` parts summing exactly to `demand`,
/// or `None` when the plan cannot carry it.
pub fn split_payment(
    graph: &DiGraph,
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
    let alloc = if optimize {
        lp_allocate(graph, plan, demand).or_else(|| sequential_allocate(graph, plan, demand))?
    } else {
        sequential_allocate(graph, plan, demand)?
    };
    debug_assert_eq!(
        alloc.iter().map(|a| *a as u128).sum::<u128>(),
        demand.micros() as u128
    );
    materialize(graph, plan, &alloc, demand)
}

/// Marginal fee cost of one micro-unit on a path with these `edges`, in
/// ppm, with a small per-hop tie-break so equal-fee splits prefer
/// shorter paths.
fn path_unit_cost(plan: &ElephantPlan, edges: &[EdgeId]) -> f64 {
    let mut ppm = 0.0f64;
    for e in edges {
        ppm += plan
            .fees
            .get(e)
            .map(|f| f.marginal_ppm() as f64)
            .unwrap_or(0.0);
    }
    ppm / 1e6 + 1e-9 * edges.len() as f64
}

/// Residual capacity of edge `e` given gross per-edge flows: probed
/// capacity plus whatever flows on the reverse direction (offsets).
fn residual(
    e: EdgeId,
    graph: &DiGraph,
    caps: &HashMap<EdgeId, Amount>,
    flow: &HashMap<EdgeId, u128>,
) -> u128 {
    let c = caps.get(&e).map(|a| a.micros() as u128).unwrap_or(0);
    let fwd = flow.get(&e).copied().unwrap_or(0);
    let rev = graph
        .reverse_edge(e)
        .and_then(|r| flow.get(&r).copied())
        .unwrap_or(0);
    (c + rev).saturating_sub(fwd)
}

/// How much more of `want` fits on a path with these `edges` given the
/// gross flows already placed; books it into `flow` and returns it.
fn fill_path(
    edges: &[EdgeId],
    want: u64,
    graph: &DiGraph,
    plan: &ElephantPlan,
    flow: &mut HashMap<EdgeId, u128>,
) -> u64 {
    let bottleneck = edges
        .iter()
        .map(|&e| residual(e, graph, &plan.capacities, flow))
        .min()
        .unwrap_or(0);
    let x = u64::try_from(bottleneck).unwrap_or(u64::MAX).min(want);
    if x > 0 {
        for &e in edges {
            *flow.entry(e).or_insert(0) += x as u128;
        }
    }
    x
}

/// Sequential fill in discovery order — the non-optimized baseline and
/// the fallback when the LP hits a numerically degenerate corner.
fn sequential_allocate(graph: &DiGraph, plan: &ElephantPlan, demand: Amount) -> Option<Vec<u64>> {
    let mut flow: HashMap<EdgeId, u128> = HashMap::new();
    let mut alloc = vec![0u64; plan.paths.len()];
    let mut remaining = demand.micros();
    for (slot, edges) in alloc.iter_mut().zip(&plan.path_edges) {
        if remaining == 0 {
            break;
        }
        *slot = fill_path(edges, remaining, graph, plan, &mut flow);
        remaining -= *slot;
    }
    (remaining == 0).then_some(alloc)
}

/// LP-based allocation (the paper's program (1)).
fn lp_allocate(graph: &DiGraph, plan: &ElephantPlan, demand: Amount) -> Option<Vec<u64>> {
    let np = plan.paths.len();
    let costs: Vec<f64> = plan
        .path_edges
        .iter()
        .map(|edges| path_unit_cost(plan, edges))
        .collect();
    let mut lp = LinearProgram::minimize(costs.clone());

    // Demand constraint (micros).
    lp.constrain(vec![1.0; np], Cmp::Eq, demand.micros() as f64);

    // Netted capacity constraint per directed edge that appears on any
    // path (both directions handled by the sign pattern).
    let mut edges: Vec<EdgeId> = Vec::new();
    {
        let mut seen = std::collections::HashSet::new();
        for &e in plan.path_edges.iter().flatten() {
            if seen.insert(e) {
                edges.push(e);
            }
        }
    }
    for &e in &edges {
        let rev = graph.reverse_edge(e);
        let mut row = vec![0.0f64; np];
        for (coef, path_edges) in row.iter_mut().zip(&plan.path_edges) {
            for &pe in path_edges {
                if pe == e {
                    *coef += 1.0;
                } else if Some(pe) == rev {
                    *coef -= 1.0;
                }
            }
        }
        let cap = plan
            .capacities
            .get(&e)
            .map(|a| a.micros() as f64)
            .unwrap_or(0.0);
        lp.constrain(row, Cmp::Le, cap);
    }

    let sol = lp.solve().ok()?;

    // Round down to integer micros, then place the remainder on paths
    // with residual slack, cheapest first.
    let mut alloc: Vec<u64> = sol
        .x
        .iter()
        .map(|&v| if v <= 0.0 { 0 } else { v.floor() as u64 })
        .collect();
    let mut flow: HashMap<EdgeId, u128> = HashMap::new();
    for (&a, path_edges) in alloc.iter().zip(&plan.path_edges) {
        for &e in path_edges {
            *flow.entry(e).or_insert(0) += a as u128;
        }
    }
    let assigned = alloc.iter().try_fold(0u64, |sum, &a| sum.checked_add(a))?;
    let mut rem = demand.micros().checked_sub(assigned)?;
    if rem > 0 {
        let mut order: Vec<usize> = (0..np).collect();
        order.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]));
        for i in order {
            if rem == 0 {
                break;
            }
            let added = fill_path(&plan.path_edges[i], rem, graph, plan, &mut flow);
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
    alloc: &[u64],
    demand: Amount,
) -> Option<Vec<(Path, Amount)>> {
    let mut edge_flow = vec![0u64; graph.edge_count()];
    for (path_edges, &a) in plan.path_edges.iter().zip(alloc) {
        if a == 0 {
            continue;
        }
        for e in path_edges {
            edge_flow[e.index()] = edge_flow[e.index()].checked_add(a)?;
        }
    }
    // Cancel opposing flows on bidirectional channels.
    for (e, _, _) in graph.edges() {
        if let Some(r) = graph.reverse_edge(e) {
            if e.index() < r.index() {
                let cancel = edge_flow[e.index()].min(edge_flow[r.index()]);
                edge_flow[e.index()] -= cancel;
                edge_flow[r.index()] -= cancel;
            }
        }
    }
    let s = plan.paths[0].source();
    let t = plan.paths[0].target();
    let mf = MaxFlow {
        value: demand.micros(),
        edge_flow,
    };
    let parts = decompose_into_paths(graph, s, t, &mf);
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

/// Total fees for a hypothetical split (analysis helper for tests and
/// the Figure 9 bench): applies each probed channel's fee policy to the
/// per-part volumes.
pub fn evaluate_fees(graph: &DiGraph, plan: &ElephantPlan, parts: &[(Path, Amount)]) -> Amount {
    let mut total = Amount::ZERO;
    for (path, amount) in parts {
        for (u, v) in path.channels() {
            if let Some(fee) = graph.edge(u, v).and_then(|e| plan.fees.get(&e)) {
                total = total.saturating_add(fee.fee(*amount));
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_types::{FeePolicy, NodeId};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn edges_of(g: &DiGraph, paths: &[Path]) -> Vec<Vec<EdgeId>> {
        paths
            .iter()
            .map(|p| p.channels().map(|(u, v)| g.edge(u, v).unwrap()).collect())
            .collect()
    }

    /// Hand-built plan over a diamond: cheap path 0-1-3 (cap 10),
    /// expensive path 0-2-3 (cap 10).
    fn diamond_plan() -> (DiGraph, ElephantPlan) {
        let mut g = DiGraph::new(4);
        let mut caps = HashMap::new();
        let mut fees = HashMap::new();
        for (u, v, ppm) in [
            (0, 1, 1_000u64),
            (1, 3, 1_000),
            (0, 2, 50_000),
            (2, 3, 50_000),
        ] {
            let e = g.add_edge(n(u), n(v)).unwrap();
            caps.insert(e, Amount::from_units(10));
            fees.insert(e, FeePolicy::proportional(ppm));
        }
        let p1 = Path::new(vec![n(0), n(1), n(3)], Some(&g)).unwrap();
        let p2 = Path::new(vec![n(0), n(2), n(3)], Some(&g)).unwrap();
        let paths = vec![p2, p1]; // discovery order: expensive first
        let plan = ElephantPlan {
            path_edges: edges_of(&g, &paths),
            paths,
            capacities: caps,
            fees,
            max_flow: Amount::from_units(20),
            probes: 2,
        };
        (g, plan)
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
        let mut per_edge: HashMap<EdgeId, u64> = HashMap::new();
        for (p, a) in &parts {
            for (u, v) in p.channels() {
                *per_edge.entry(g.edge(u, v).unwrap()).or_insert(0) += a.micros();
            }
        }
        // det-lint: allow(hash-order) — independent per-edge assertions; any order fails the same way
        for (e, used) in per_edge {
            assert!(used <= plan.capacities[&e].micros());
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
        // Shared first hop with capacity 12, two tails of 10 each:
        // demand 12 must be split so the shared edge carries exactly 12.
        let mut g = DiGraph::new(4);
        let mut caps = HashMap::new();
        let mut fees = HashMap::new();
        let shared = g.add_edge(n(0), n(1)).unwrap();
        caps.insert(shared, Amount::from_units(12));
        fees.insert(shared, FeePolicy::FREE);
        for (u, v) in [(1, 2), (1, 3)] {
            let e = g.add_edge(n(u), n(v)).unwrap();
            caps.insert(e, Amount::from_units(10));
            fees.insert(e, FeePolicy::FREE);
        }
        // Paths 0-1-2 and 0-1-3 — but receiver must be one node; use
        // target node 2 reached two ways: 0-1-2 and 0-1-3? Different
        // targets are invalid. Rebuild: 0-1-2 direct and 0-1-3-2.
        let e32 = g.add_edge(n(3), n(2)).unwrap();
        caps.insert(e32, Amount::from_units(10));
        fees.insert(e32, FeePolicy::FREE);
        let p1 = Path::new(vec![n(0), n(1), n(2)], Some(&g)).unwrap();
        let p2 = Path::new(vec![n(0), n(1), n(3), n(2)], Some(&g)).unwrap();
        let paths = vec![p1, p2];
        let plan = ElephantPlan {
            path_edges: edges_of(&g, &paths),
            paths,
            capacities: caps.clone(),
            fees,
            max_flow: Amount::from_units(12),
            probes: 2,
        };
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
}
