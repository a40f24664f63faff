//! Figure 12: testbed results on the 50-node Watts–Strogatz network.

use super::testbed::run_testbed;
use crate::harness::Effort;
use crate::report::FigureResult;

/// Regenerates Figures 12a–12d, plus the per-hop message-overhead panel 12e.
pub fn run(effort: Effort) -> Vec<FigureResult> {
    let nodes = match effort {
        Effort::Quick => 20,
        Effort::Paper => 50,
    };
    run_testbed(nodes, "fig12", effort)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_panels_have_all_schemes() {
        let figs = run(Effort::Quick);
        assert_eq!(figs.len(), 5);
        for fig in &figs {
            assert_eq!(fig.series.len(), 5, "{}: all five schemes", fig.id);
            for s in &fig.series {
                assert_eq!(s.points.len(), 3, "{}/{}", fig.id, s.label);
            }
        }
        // Flash success volume ≥ SP's in every interval (paper: much
        // larger than Spider, far above SP).
        let vol = &figs[0];
        for i in 0..3 {
            let f = vol.series("Flash").unwrap().y_at(i as f64).unwrap();
            let sp = vol.series("Shortest Path").unwrap().y_at(i as f64).unwrap();
            assert!(f >= sp * 0.8, "interval {i}: Flash {f} ≪ SP {sp}");
        }
        // SP's normalized delay is 1 by construction.
        let delay = &figs[2];
        for i in 0..3 {
            let sp = delay
                .series("Shortest Path")
                .unwrap()
                .y_at(i as f64)
                .unwrap();
            assert!((sp - 1.0).abs() < 1e-6);
        }
        // Message breakdown: the static schemes send commit traffic but
        // never probe, so probing schemes must out-message SP.
        let msgs = &figs[4];
        for i in 0..3 {
            let f = msgs.series("Flash").unwrap().y_at(i as f64).unwrap();
            let sp = msgs
                .series("Shortest Path")
                .unwrap()
                .y_at(i as f64)
                .unwrap();
            assert!(sp > 0.0, "SP sends commit messages");
            assert!(f >= sp, "interval {i}: Flash messages {f} < SP {sp}");
        }
    }
}
