//! Figure 9: impact of the transaction-fee optimization — unit fee
//! (fees/volume, %) with and without the fee-minimizing LP, at 1,000 /
//! 2,000 / 4,000 transactions, with the paper's fee distribution (90%
//! of channels at 0.1–1%, 10% at 1–10%).

use crate::harness::{run_scheme, sim_point, with_paper_fees, Effort, Topo, DEFAULT_MICE_FRACTION};
use crate::report::{FigureResult, Series};
use flash_core::Scheme;

const SEED: u64 = 400;

/// Regenerates Figures 9a (Lightning) and 9b (Ripple).
pub fn run(effort: Effort) -> Vec<FigureResult> {
    let txn_counts: &[usize] = match effort {
        Effort::Quick => &[200, 400],
        Effort::Paper => &[1000, 2000],
    };
    let mut out = Vec::new();
    // The paper's panel order: (a) Lightning, (b) Ripple.
    for (topo, id) in [(Topo::Lightning, "fig9a"), (Topo::Ripple, "fig9b")] {
        let mut fig = FigureResult::new(
            id,
            format!("Fee ratio w/ and w/o optimization, {}", topo.name()),
            "number of transactions",
            "fees / volume (%)",
        );
        let mut with_opt = Series::new("w/ optimization");
        let mut without_opt = Series::new("w/o optimization");
        for &txns in txn_counts {
            let (net, trace) = sim_point(topo, effort, 10, txns, SEED, SEED + 51);
            let net = with_paper_fees(&net, SEED + 5);
            for (scheme, series) in [
                (Scheme::Flash, &mut with_opt),
                (Scheme::FlashNoFeeOpt, &mut without_opt),
            ] {
                let m = run_scheme(&net, scheme, &trace, DEFAULT_MICE_FRACTION, SEED);
                series.push(txns as f64, m.fee_ratio_percent());
            }
        }
        fig.series.push(with_opt);
        fig.series.push(without_opt);
        out.push(fig);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimization_reduces_unit_fees() {
        let figs = run(Effort::Quick);
        assert_eq!(figs.len(), 2);
        for fig in &figs {
            for &(x, with) in &fig.series("w/ optimization").unwrap().points {
                let without = fig.series("w/o optimization").unwrap().y_at(x).unwrap();
                // "Flash reduces the transaction cost by around 40% on
                // average" — require an improvement, with slack for the
                // quick scale.
                assert!(
                    with <= without * 1.02,
                    "{} @ {x}: optimized fee {with}% exceeds unoptimized {without}%",
                    fig.id
                );
            }
        }
    }
}
