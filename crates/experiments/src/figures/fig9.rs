//! Figure 9: impact of the transaction-fee optimization — unit fee
//! (fees/volume, %) with and without the fee-minimizing LP, at 1,000 /
//! 2,000 / 4,000 transactions, with the paper's fee distribution (90%
//! of channels at 0.1–1%, 10% at 1–10%).

use crate::harness::{run_scheme, with_paper_fees, Effort, Topo, DEFAULT_MICE_FRACTION};
use crate::report::{FigureResult, Series};
use flash_core::Scheme;

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
            let runs = effort.runs();
            let (mut acc_with, mut acc_without) = (0.0, 0.0);
            for r in 0..runs {
                let seed = 400 + 1000 * r;
                let mut net = topo.build_network(effort, seed);
                net.scale_balances(10);
                let net = with_paper_fees(&net, seed + 5);
                let trace = topo.build_trace(&net, txns, seed + 51);
                let m_with = run_scheme(&net, Scheme::Flash, &trace, DEFAULT_MICE_FRACTION, seed);
                let m_without = run_scheme(
                    &net,
                    Scheme::FlashNoFeeOpt,
                    &trace,
                    DEFAULT_MICE_FRACTION,
                    seed,
                );
                acc_with += m_with.fee_ratio_percent();
                acc_without += m_without.fee_ratio_percent();
            }
            with_opt.push(txns as f64, acc_with / runs as f64);
            without_opt.push(txns as f64, acc_without / runs as f64);
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
