//! Figure 11: number of paths per receiver (m) for mice routing —
//! success volume and probing overhead of mice payments, Ripple trace.
//!
//! `m = 0` routes mice with the elephant algorithm, "the performance
//! upperbound". To isolate mice statistics the experiment replays only
//! the mice payments of the trace (classified at the default 90%
//! threshold), exactly the population whose behaviour m controls.
//!
//! What makes `m = 0` the upper bound is max-flow: each send can deliver
//! at most the true max-flow between sender and receiver at that moment.
//! Algorithm 1 run to exhaustion (`k = usize::MAX`, demand
//! `Amount::MAX`) finds that max-flow itself, and the max-flow/min-cut
//! certificate (`elephant::certify`) proves it: the tests below check
//! the bound that way on the pristine network, with no max-flow kernel.

use crate::harness::{run_scheme, sim_point, Effort, Topo, DEFAULT_MICE_FRACTION};
use crate::report::{FigureResult, Series};
use flash_core::classify::threshold_for_mice_fraction;
use flash_core::Scheme;
use pcn_types::Amount;

const SEED: u64 = 600;

/// Regenerates Figures 11a and 11b.
pub fn run(effort: Effort) -> Vec<FigureResult> {
    let ms: &[usize] = match effort {
        Effort::Quick => &[0, 2, 4],
        Effort::Paper => &[0, 2, 4, 8],
    };
    let mut fig_vol = FigureResult::new(
        "fig11a",
        "Mice success volume vs paths per receiver (Ripple)",
        "number of paths per receiver (m)",
        "success volume (USD)",
    );
    let mut fig_probe = FigureResult::new(
        "fig11b",
        "Mice probing overhead vs paths per receiver (Ripple)",
        "number of paths per receiver (m)",
        "number of probing messages",
    );
    let mut vol = Series::new("Flash");
    let mut probes = Series::new("Flash");
    let (net, full_trace) = sim_point(Topo::Ripple, effort, 10, effort.txns(), SEED, SEED + 71);
    // Mice-only replay.
    let amounts: Vec<Amount> = full_trace.iter().map(|p| p.amount).collect();
    let threshold = threshold_for_mice_fraction(&amounts, DEFAULT_MICE_FRACTION);
    let mice_trace: Vec<_> = full_trace
        .iter()
        .filter(|p| p.classify(threshold).is_mice())
        .copied()
        .collect();
    for &m in ms {
        let metrics = run_scheme(&net, Scheme::FlashWithM(m), &mice_trace, 1.0, SEED);
        vol.push(m as f64, metrics.success_volume().as_units_f64());
        probes.push(m as f64, metrics.probe_messages as f64);
    }
    fig_vol.series.push(vol);
    fig_probe.series.push(probes);
    vec![fig_vol, fig_probe]
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_core::flash::elephant::{certify, find_paths};
    use pcn_graph::maxflow::Certificate;

    #[test]
    fn table_routing_cuts_probing_versus_m0() {
        let figs = run(Effort::Quick);
        let probes = figs[1].series("Flash").unwrap();
        let m0 = probes.y_at(0.0).unwrap();
        let m4 = probes.y_at(4.0).unwrap();
        // "using a few routes achieves at least ∼12x less probing
        // overhead" — direction with slack at quick scale.
        assert!(m4 < m0, "m=4 probes ({m4}) should be far below m=0 ({m0})");
    }

    /// The `m = 0` upper bound is Algorithm 1 itself: run to exhaustion
    /// on the pristine network, its plan is certified maximum for every
    /// payment of the experiment, and the first routed payment (pristine
    /// balances) can never deliver more than it.
    #[test]
    fn m0_upper_bound_is_certified() {
        let net = Topo::Ripple.build_network(Effort::Quick, 600);
        let trace = Topo::Ripple.build_trace(&net, 10, 671);
        let bounds: Vec<Amount> = trace
            .iter()
            .map(|p| {
                let mut probed = net.clone();
                let (s, t) = (p.sender, p.receiver);
                let plan = find_paths(&mut probed, s, t, Amount::MAX, usize::MAX);
                let cut = plan.max_flow.micros();
                assert_eq!(
                    certify(net.graph(), &plan, s, t),
                    Ok(Certificate::Maximum { cut }),
                    "{s} → {t}"
                );
                plan.max_flow
            })
            .collect();
        let first = trace[0];
        let metrics = run_scheme(&net, Scheme::FlashWithM(0), &trace[..1], 1.0, 600);
        assert!(
            metrics.success_volume() <= bounds[0].min(first.amount),
            "m = 0 delivered {} above the max-flow bound {}",
            metrics.success_volume(),
            bounds[0]
        );
    }

    #[test]
    fn volume_with_few_paths_is_competitive() {
        let figs = run(Effort::Quick);
        let vol = figs[0].series("Flash").unwrap();
        let m0 = vol.y_at(0.0).unwrap();
        let m4 = vol.y_at(4.0).unwrap();
        // "the gap is within 15% with m = 6" — allow slack at quick
        // scale, but the cached-paths variant must stay in the same
        // ballpark as the elephant-routing upper bound.
        assert!(
            m4 >= m0 * 0.6,
            "m=4 volume ({m4}) collapsed versus m=0 upper bound ({m0})"
        );
    }
}
