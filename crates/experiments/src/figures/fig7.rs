//! Figure 7: success ratio and volume vs. number of transactions
//! (1,000–6,000) at capacity scale factor 10.

use super::fig6::SCHEMES;
use crate::harness::{run_scheme, sim_point, Effort, Topo, DEFAULT_MICE_FRACTION};
use crate::report::{FigureResult, Series};

const SEED: u64 = 200;

/// Regenerates Figures 7a–7d.
pub fn run(effort: Effort) -> Vec<FigureResult> {
    let txn_counts: &[usize] = match effort {
        Effort::Quick => &[200, 600],
        // Paper: {1000..6000 step 1000}; the two lightest loads here.
        Effort::Paper => &[1000, 2000],
    };
    let mut out = Vec::new();
    for (topo, ratio_id, vol_id) in [
        (Topo::Ripple, "fig7a", "fig7b"),
        (Topo::Lightning, "fig7c", "fig7d"),
    ] {
        let mut fig_ratio = FigureResult::new(
            ratio_id,
            format!("Success ratio vs #transactions, {}", topo.name()),
            "number of transactions",
            "success ratio (%)",
        );
        let mut fig_vol = FigureResult::new(
            vol_id,
            format!("Success volume vs #transactions, {}", topo.name()),
            "number of transactions",
            "success volume (native units)",
        );
        let points: Vec<_> = txn_counts
            .iter()
            .map(|&txns| (txns, sim_point(topo, effort, 10, txns, SEED, SEED + 31)))
            .collect();
        for scheme in SCHEMES {
            let mut s_ratio = Series::new(scheme.label());
            let mut s_vol = Series::new(scheme.label());
            for (txns, (net, trace)) in &points {
                let m = run_scheme(net, scheme, trace, DEFAULT_MICE_FRACTION, SEED);
                s_ratio.push(*txns as f64, m.success_ratio() * 100.0);
                s_vol.push(*txns as f64, m.success_volume().as_units_f64());
            }
            fig_ratio.series.push(s_ratio);
            fig_vol.series.push(s_vol);
        }
        out.push(fig_ratio);
        out.push(fig_vol);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_degrades_with_load() {
        let figs = run(Effort::Quick);
        assert_eq!(figs.len(), 4);
        let ratio = &figs[0];
        // "With the increase of number of transactions, the success
        // ratio of all schemes degrades" — allow slack at quick scale.
        let flash = ratio.series("Flash").unwrap();
        let lo = flash.y_at(200.0).unwrap();
        let hi = flash.y_at(600.0).unwrap();
        assert!(hi <= lo + 15.0, "ratio at high load {hi} ≫ low load {lo}");
        // Volume grows with more transactions.
        let vol = figs[1].series("Flash").unwrap();
        assert!(vol.y_at(600.0).unwrap() >= vol.y_at(200.0).unwrap() * 0.8);
    }
}
