//! Load vs. latency on the discrete-event engine (beyond the paper).
//!
//! The paper reports per-payment processing *delay* on the testbed
//! (Figures 12c/d, 13c/d) but its simulator is instantaneous, so it
//! cannot relate offered load to completion latency or show the
//! throughput knee where in-flight contention starts failing payments.
//! This sweep drives all five schemes through `pcn_sim::des` on the
//! §5.2 Watts–Strogatz testbed topology under a Poisson arrival
//! process and plots, per offered load:
//!
//! * `lat_a` — success ratio;
//! * `lat_b` — p95 completion latency (admission → final settlement,
//!   virtual ms);
//! * `lat_c` — delivered throughput (successful payments per virtual
//!   second);
//! * `lat_d` — p95 per-message queueing delay behind node backlogs
//!   (virtual ms).
//!
//! Delay has two halves: per-hop *propagation* ([`LatencyModel`],
//! load-independent) and per-node *service*
//! ([`ServiceModel`], [`NODE_SERVICE_MS`] of
//! deterministic processing behind a FIFO backlog — M/D/1 per node).
//! Service is what couples `lat_b` to load: at low offered load nodes
//! are mostly idle and completion latency is set by hop counts alone,
//! while at high load messages pile up behind busy nodes and `lat_b`
//! rises toward the congestion knee that `lat_a`/`lat_c` show from the
//! success side. (Before service queues existed, `lat_b` was nearly
//! flat across a 16× load spread — the committed `BENCH_e2e.json`
//! even recorded bit-identical percentiles at 50 and 400 pps, which is
//! exactly the physical suspicion `flash_bench::shape` now rejects.)

use crate::harness::{des_sweep, DesLoad, Effort, SweepPoint};
use crate::report::{FigureResult, Series};
use pcn_sim::{ChurnRate, LatencyModel, ServiceModel};

/// Per-hop message *propagation* latency of the sweep: 25ms, the order
/// the paper's LAN testbed measures per-hop processing in (§5.2).
pub const HOP_LATENCY_MS: u64 = 25;

/// Per-node message *service* time of the sweep: each delivered
/// message occupies the receiving node's single server for 10ms behind
/// a FIFO backlog (the paper's testbed measures per-hop processing in
/// the tens of milliseconds, §5.2). Small enough against the 25ms
/// propagation that lightly loaded paths keep their hop-count latency,
/// large enough that busy nodes run at 0.3–0.9 utilization inside the
/// swept load range and the latency knee appears.
pub const NODE_SERVICE_MS: u64 = 10;

/// The load sweep itself: all five schemes at each offered load
/// (payments per virtual second) in `loads`, churn-free. Both
/// [`run`] and the `bench` binary's e2e family are built on it.
pub fn sweep(nodes: usize, payments: usize, loads: &[f64], seed: u64) -> Vec<SweepPoint> {
    des_sweep(nodes, payments, loads, seed, |load| DesLoad {
        rate_per_sec: load,
        latency: LatencyModel::constant_ms(HOP_LATENCY_MS),
        service: ServiceModel::constant_ms(NODE_SERVICE_MS),
        churn: ChurnRate::zero(),
    })
}

/// Regenerates the load sweep (`lat_a`–`lat_d`).
pub fn run(effort: Effort) -> Vec<FigureResult> {
    let (nodes, txns, loads): (usize, usize, &[f64]) = match effort {
        Effort::Quick => (60, 150, &[50.0, 200.0]),
        Effort::Paper => (200, 600, &[25.0, 100.0, 400.0]),
    };
    let mut fig_ratio = FigureResult::new(
        "lat_a",
        format!("Success ratio vs offered load (DES, {nodes}-node testbed topology)"),
        "offered load (payments/s)",
        "success ratio (%)",
    );
    let mut fig_p95 = FigureResult::new(
        "lat_b",
        format!("p95 completion latency vs offered load (DES, {nodes}-node testbed topology)"),
        "offered load (payments/s)",
        "p95 completion latency (virtual ms)",
    );
    let mut fig_tput = FigureResult::new(
        "lat_c",
        format!("Delivered throughput vs offered load (DES, {nodes}-node testbed topology)"),
        "offered load (payments/s)",
        "successful payments per virtual second",
    );
    let mut fig_queue = FigureResult::new(
        "lat_d",
        format!("p95 queueing delay vs offered load (DES, {nodes}-node testbed topology)"),
        "offered load (payments/s)",
        "p95 per-message queueing delay (virtual ms)",
    );
    // Scheme-major points: one chunk of `loads.len()` per scheme.
    for per_scheme in sweep(nodes, txns, loads, 97).chunks(loads.len()) {
        let label = per_scheme[0].scheme.label();
        let series = |y: fn(&SweepPoint) -> f64| {
            let mut s = Series::new(label.clone());
            for p in per_scheme {
                s.push(p.x, y(p));
            }
            s
        };
        fig_ratio
            .series
            .push(series(|p| p.report.metrics.success_ratio() * 100.0));
        fig_p95.series.push(series(|p| p.report.latency_ms(0.95)));
        fig_tput.series.push(series(|p| p.report.throughput_pps));
        fig_queue
            .series
            .push(series(|p| p.report.queue_delay_ms(0.95)));
    }
    vec![fig_ratio, fig_p95, fig_tput, fig_queue]
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_core::Scheme;

    #[test]
    fn sweep_covers_all_schemes_and_loads() {
        let figs = run(Effort::Quick);
        assert_eq!(figs.len(), 4);
        for fig in &figs {
            assert_eq!(fig.series.len(), Scheme::ALL.len());
            for s in &fig.series {
                assert_eq!(s.points.len(), 2, "{}: {}", fig.id, s.label);
            }
        }
        // Latencies are nonzero whenever anything succeeded: a payment
        // cannot settle faster than one hop's delay.
        let p95 = figs.iter().find(|f| f.id == "lat_b").unwrap();
        let ratio = figs.iter().find(|f| f.id == "lat_a").unwrap();
        for s in &p95.series {
            let succeeded = ratio.series(&s.label).unwrap().points[0].1 > 0.0;
            if succeeded {
                assert!(
                    s.points[0].1 >= HOP_LATENCY_MS as f64,
                    "{} p95 {} below one hop delay",
                    s.label,
                    s.points[0].1
                );
            }
        }
    }

    #[test]
    fn latency_responds_to_load() {
        // The flat-curve regression this module used to carry: across
        // the quick sweep's 4× load spread, p95 completion latency must
        // rise for most schemes (queueing at busy nodes), and the
        // queueing-delay panel must show why.
        let figs = run(Effort::Quick);
        let p95 = figs.iter().find(|f| f.id == "lat_b").unwrap();
        let queue = figs.iter().find(|f| f.id == "lat_d").unwrap();
        let rising = p95
            .series
            .iter()
            .filter(|s| s.points[1].1 > s.points[0].1)
            .count();
        assert!(
            rising >= 4,
            "p95 latency must rise with load for most schemes ({rising}/5 rose)"
        );
        let queueing = queue
            .series
            .iter()
            .filter(|s| s.points[1].1 > s.points[0].1)
            .count();
        assert!(
            queueing >= 4,
            "queueing delay must grow with load ({queueing}/5 grew)"
        );
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
