//! Success and latency under topology churn (beyond the paper).
//!
//! The paper's simulator assumes a static channel graph, but §5.1's
//! staleness discussion — probed state going bad between probe and
//! commit — is exactly what topology churn produces at scale: channels
//! close mid-payment, nodes crash while serving commits, balances
//! deplete. This sweep drives all five schemes through `pcn_sim::des`
//! with a seeded [`ChurnRate`] and plots, per churn intensity:
//!
//! * `churn_a` — success ratio;
//! * `churn_b` — p95 completion latency (virtual ms).
//!
//! The sweep variable is the channel-close intensity (closes per
//! virtual second across the network); node crashes and balance drains
//! ride along at a tenth of it, and [`CHURN_DOWNTIME_SECS`] keeps
//! everything that fails down for the rest of the run, so success must
//! fall monotonically with the rate — the shape `flash_bench::shape`
//! enforces on the committed `BENCH_churn.json`.
//!
//! **`reprobes_triggered` is a Flash column.** Flash is the one scheme
//! that caches routes between payments (the mice table), so it is the
//! one scheme with something to recompute when stale NACKs and bounced
//! probes pile up on a receiver (`flash_core::flash`'s re-probe
//! module). Shortest Path and Spider search afresh per payment, and the
//! landmark trees of SpeedyMurmurs and SilentWhispers are built over a
//! `graph()` that keeps listing a closed channel — a rebuild would equal
//! the old trees — so the four baselines record 0 at every rate. The
//! tree schemes' collapse from 0.81 to 0.34 / 0.22 at the lowest rate
//! is static tree routes with no alternative path.

use crate::harness::{des_sweep, DesLoad, Effort, SweepPoint};
use crate::report::{FigureResult, Series};
use pcn_sim::{ChurnRate, LatencyModel, ServiceModel, SimTime};

pub use super::latency::{HOP_LATENCY_MS, NODE_SERVICE_MS};

/// Offered load of the sweep (payments per virtual second) — fixed, so
/// churn intensity is the only thing varying between points.
pub const OFFERED_LOAD_PPS: f64 = 100.0;

/// How long closed channels stay closed and crashed nodes stay down:
/// longer than any run's horizon, so churn damage accumulates and the
/// success-vs-churn curve is cleanly monotone.
pub const CHURN_DOWNTIME_SECS: u64 = 3_600;

/// The full churn mix at a given channel-close intensity: node crashes
/// and balance drains ride along at a tenth of the close rate.
pub fn churn_mix(closes_per_sec: f64) -> ChurnRate {
    ChurnRate {
        closes_per_sec,
        node_downs_per_sec: closes_per_sec / 10.0,
        drains_per_sec: closes_per_sec / 10.0,
        downtime: SimTime::from_secs(CHURN_DOWNTIME_SECS),
    }
}

/// The churn sweep itself: all five schemes at [`OFFERED_LOAD_PPS`]
/// under [`churn_mix`] at each channel-close intensity in `rates`. Both
/// [`run`] and the `bench` binary's churn family are built on it.
pub fn sweep(nodes: usize, payments: usize, rates: &[f64], seed: u64) -> Vec<SweepPoint> {
    des_sweep(nodes, payments, rates, seed, |rate| DesLoad {
        rate_per_sec: OFFERED_LOAD_PPS,
        latency: LatencyModel::constant_ms(HOP_LATENCY_MS),
        service: ServiceModel::constant_ms(NODE_SERVICE_MS),
        churn: churn_mix(rate),
    })
}

/// Regenerates the churn sweep (`churn_a`, `churn_b`).
pub fn run(effort: Effort) -> Vec<FigureResult> {
    let (nodes, txns, rates): (usize, usize, &[f64]) = match effort {
        Effort::Quick => (60, 150, &[0.0, 20.0, 80.0]),
        Effort::Paper => (200, 600, &[0.0, 10.0, 40.0, 160.0]),
    };
    let mut fig_ratio = FigureResult::new(
        "churn_a",
        format!("Success ratio vs churn rate (DES, {nodes}-node testbed topology)"),
        "channel closes per virtual second",
        "success ratio (%)",
    );
    let mut fig_p95 = FigureResult::new(
        "churn_b",
        format!("p95 completion latency vs churn rate (DES, {nodes}-node testbed topology)"),
        "channel closes per virtual second",
        "p95 completion latency (virtual ms)",
    );
    // Scheme-major points: one chunk of `rates.len()` per scheme.
    for per_scheme in sweep(nodes, txns, rates, 97).chunks(rates.len()) {
        let mut s_ratio = Series::new(per_scheme[0].scheme.label());
        let mut s_p95 = Series::new(per_scheme[0].scheme.label());
        for p in per_scheme {
            s_ratio.push(p.x, p.report.metrics.success_ratio() * 100.0);
            s_p95.push(p.x, p.report.latency_ms(0.95));
        }
        fig_ratio.series.push(s_ratio);
        fig_p95.series.push(s_p95);
    }
    vec![fig_ratio, fig_p95]
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_core::Scheme;

    #[test]
    fn sweep_covers_all_schemes_and_rates() {
        let figs = run(Effort::Quick);
        assert_eq!(figs.len(), 2);
        for fig in &figs {
            assert_eq!(fig.series.len(), Scheme::ALL.len());
            for s in &fig.series {
                assert_eq!(s.points.len(), 3, "{}: {}", fig.id, s.label);
            }
        }
    }

    #[test]
    fn churn_degrades_success() {
        // The tentpole's end-to-end claim: topology churn must cost
        // every scheme success. The committed BENCH_churn.json pins
        // strict monotonicity; here the cheaper quick sweep checks the
        // endpoints.
        let figs = run(Effort::Quick);
        let ratio = figs.iter().find(|f| f.id == "churn_a").unwrap();
        for s in &ratio.series {
            let zero = s.points.first().unwrap().1;
            let max = s.points.last().unwrap().1;
            assert!(
                max < zero,
                "{}: success at max churn ({max}%) must fall below zero-churn ({zero}%)",
                s.label
            );
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run(Effort::Quick);
        let b = run(Effort::Quick);
        for (fa, fb) in a.iter().zip(&b) {
            for (sa, sb) in fa.series.iter().zip(&fb.series) {
                assert_eq!(sa.points, sb.points, "{} {}", fa.id, sa.label);
            }
        }
    }
}
