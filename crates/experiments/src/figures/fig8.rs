//! Figure 8: probing-message overhead, Flash vs Spider (2,000
//! transactions, capacity scale factor 10). SpeedyMurmurs and SP are
//! static schemes with zero probes and are excluded, as in the paper.

use crate::harness::{run_scheme, sim_point, Effort, Topo, DEFAULT_MICE_FRACTION};
use crate::report::{FigureResult, Series};
use flash_core::Scheme;

const SEED: u64 = 300;

/// Regenerates Figures 8a (Ripple) and 8b (Lightning). X encodes the
/// scheme index (0 = Flash, 1 = Spider) since the paper plots bars.
pub fn run(effort: Effort) -> Vec<FigureResult> {
    let mut out = Vec::new();
    for (topo, id) in [(Topo::Ripple, "fig8a"), (Topo::Lightning, "fig8b")] {
        let mut fig = FigureResult::new(
            id,
            format!("Probing messages, {}", topo.name()),
            "scheme (0=Flash, 1=Spider)",
            "number of probing messages",
        );
        let (net, trace) = sim_point(topo, effort, 10, effort.txns(), SEED, SEED + 41);
        for (x, scheme) in [(0.0, Scheme::Flash), (1.0, Scheme::Spider)] {
            let m = run_scheme(&net, scheme, &trace, DEFAULT_MICE_FRACTION, SEED);
            let mut s = Series::new(scheme.label());
            s.push(x, m.probe_messages as f64);
            fig.series.push(s);
        }
        out.push(fig);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_probes_less_than_spider() {
        let figs = run(Effort::Quick);
        assert_eq!(figs.len(), 2);
        for fig in &figs {
            let flash = fig.series("Flash").unwrap().points[0].1;
            let spider = fig.series("Spider").unwrap().points[0].1;
            // "Flash saves 43% message overhead in Ripple and 37% in
            // Lightning" — assert the direction with slack at quick
            // scale.
            assert!(
                flash < spider,
                "{}: Flash probes {flash} not below Spider {spider}",
                fig.id
            );
        }
    }
}
