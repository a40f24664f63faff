//! Figure 6: success ratio and success volume vs. capacity scale factor
//! (1–60), Ripple and Lightning, 2,000 transactions, four schemes.

use crate::harness::{run_scheme, sim_point, Effort, Topo, DEFAULT_MICE_FRACTION};
use crate::report::{FigureResult, Series};
use flash_core::Scheme;

/// Schemes compared in Figures 6 and 7.
pub const SCHEMES: [Scheme; 4] = [
    Scheme::Flash,
    Scheme::Spider,
    Scheme::SpeedyMurmurs,
    Scheme::ShortestPath,
];

const SEED: u64 = 100;

/// Regenerates Figures 6a–6d.
pub fn run(effort: Effort) -> Vec<FigureResult> {
    let scales: &[u64] = match effort {
        Effort::Quick => &[1, 10, 40],
        // The paper sweeps {1,10,20,30,40,50,60}; the reproduction
        // keeps the endpoints and the knee at 10.
        Effort::Paper => &[1, 10, 60],
    };
    let mut out = Vec::new();
    for (topo, ratio_id, vol_id) in [
        (Topo::Ripple, "fig6a", "fig6b"),
        (Topo::Lightning, "fig6c", "fig6d"),
    ] {
        let mut fig_ratio = FigureResult::new(
            ratio_id,
            format!("Success ratio vs capacity, {}", topo.name()),
            "capacity scale factor",
            "success ratio (%)",
        );
        let mut fig_vol = FigureResult::new(
            vol_id,
            format!("Success volume vs capacity, {}", topo.name()),
            "capacity scale factor",
            "success volume (native units)",
        );
        let points: Vec<_> = scales
            .iter()
            .map(|&scale| {
                (
                    scale,
                    sim_point(topo, effort, scale, effort.txns(), SEED, SEED + 17),
                )
            })
            .collect();
        for scheme in SCHEMES {
            let mut s_ratio = Series::new(scheme.label());
            let mut s_vol = Series::new(scheme.label());
            for (scale, (net, trace)) in &points {
                let m = run_scheme(net, scheme, trace, DEFAULT_MICE_FRACTION, SEED);
                s_ratio.push(*scale as f64, m.success_ratio() * 100.0);
                s_vol.push(*scale as f64, m.success_volume().as_units_f64());
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
    fn shape_matches_paper() {
        let figs = run(Effort::Quick);
        assert_eq!(figs.len(), 4);
        let ratio = &figs[0]; // fig6a: Ripple success ratio
        let vol = &figs[1]; // fig6b: Ripple success volume

        // Success ratio increases with capacity for Flash.
        let flash_ratio = ratio.series("Flash").unwrap();
        assert!(
            flash_ratio.y_at(40.0).unwrap() >= flash_ratio.y_at(1.0).unwrap(),
            "success ratio should not fall as capacity grows"
        );
        // Flash's success volume dominates SpeedyMurmurs and SP at high
        // capacity (the paper's headline result).
        let f = vol.series("Flash").unwrap().y_at(40.0).unwrap();
        let sm = vol.series("SpeedyMurmurs").unwrap().y_at(40.0).unwrap();
        let sp = vol.series("Shortest Path").unwrap().y_at(40.0).unwrap();
        assert!(f >= sm, "Flash volume {f} < SpeedyMurmurs {sm}");
        assert!(f >= sp, "Flash volume {f} < SP {sp}");
    }
}
