//! Figure 13: testbed results on the 100-node Watts–Strogatz network.

use super::testbed::run_testbed;
use crate::harness::Effort;
use crate::report::FigureResult;

/// Regenerates Figures 13a–13d, plus the per-hop message-overhead panel 13e.
pub fn run(effort: Effort) -> Vec<FigureResult> {
    let nodes = match effort {
        Effort::Quick => 30,
        Effort::Paper => 100,
    };
    run_testbed(nodes, "fig13", effort)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hundred_node_variant_runs() {
        let figs = run(Effort::Quick);
        assert_eq!(figs.len(), 5);
        assert_eq!(figs[0].id, "fig13a");
        // All five schemes produced data for every interval.
        for fig in &figs {
            assert_eq!(fig.series.len(), 5);
            for s in &fig.series {
                assert_eq!(s.points.len(), 3);
            }
        }
    }
}
