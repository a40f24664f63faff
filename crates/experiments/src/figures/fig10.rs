//! Figure 10: impact of the elephant/mice threshold — success volume
//! and probing messages as the percentage of payments classified as
//! mice sweeps 0% → 100%.

use crate::harness::{run_scheme, sim_point, Effort, Topo};
use crate::report::{FigureResult, Series};
use flash_core::Scheme;

const SEED: u64 = 500;

/// Regenerates Figures 10a (Ripple) and 10b (Lightning).
pub fn run(effort: Effort) -> Vec<FigureResult> {
    let fractions: &[f64] = match effort {
        Effort::Quick => &[0.0, 0.5, 0.9, 1.0],
        // Paper: 0%..100% in 10% steps; both extremes and the default
        // 90% here.
        Effort::Paper => &[0.0, 0.9, 1.0],
    };
    let mut out = Vec::new();
    for (topo, id) in [(Topo::Ripple, "fig10a"), (Topo::Lightning, "fig10b")] {
        let mut fig = FigureResult::new(
            id,
            format!("Threshold sweep, {}", topo.name()),
            "percentage of mice payments (%)",
            "success volume / probe messages",
        );
        let mut vol = Series::new("Succ. Volume");
        let mut probes = Series::new("Probing Messages");
        let (net, trace) = sim_point(topo, effort, 10, effort.txns(), SEED, SEED + 61);
        for &frac in fractions {
            let m = run_scheme(&net, Scheme::Flash, &trace, frac, SEED);
            vol.push(frac * 100.0, m.success_volume().as_units_f64());
            probes.push(frac * 100.0, m.probe_messages as f64);
        }
        fig.series.push(vol);
        fig.series.push(probes);
        out.push(fig);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probing_decreases_as_mice_fraction_grows() {
        let figs = run(Effort::Quick);
        assert_eq!(figs.len(), 2);
        let probes = figs[0].series("Probing Messages").unwrap();
        // "the probing overhead increases as the percentage of mice
        // payments decreases".
        let all_elephant = probes.y_at(0.0).unwrap();
        let all_mice = probes.y_at(100.0).unwrap();
        assert!(
            all_elephant > all_mice,
            "probes at 0% mice ({all_elephant}) should exceed 100% mice ({all_mice})"
        );
    }

    #[test]
    fn volume_stable_until_high_mice_fraction() {
        let figs = run(Effort::Quick);
        let vol = figs[0].series("Succ. Volume").unwrap();
        let at_0 = vol.y_at(0.0).unwrap();
        let at_90 = vol.y_at(90.0).unwrap();
        // "success volume of mice payments remains stable until the
        // percentage of mice reaches 80–90%" — at 90% mice, volume is
        // still within a reasonable factor of the all-elephant bound.
        assert!(
            at_90 >= at_0 * 0.5,
            "volume at 90% mice ({at_90}) collapsed vs all-elephant ({at_0})"
        );
    }
}
