//! Shared driver for the testbed experiments (Figures 12 and 13).
//!
//! Every scheme routes through the same `flash-core` [`pcn_sim::Router`]
//! implementations the simulator uses, via the
//! [`pcn_sim::PaymentNetwork`] impl for `pcn_proto::Cluster` — so the
//! testbed sweep now covers all five schemes (the paper's §5.2 ran
//! three) and reports the probe/commit message breakdown alongside the
//! delay panels. Each (scheme, interval) cell is one
//! [`run_scheme_testbed`] run, which must conserve funds and wire
//! frames and shut down clean.

use crate::harness::{run_scheme_testbed, Effort, DEFAULT_MICE_FRACTION};
use crate::report::{FigureResult, Series};
use flash_core::Scheme;
use pcn_workload::testbed_topology;
use pcn_workload::trace::{generate_trace, TraceConfig};

/// The three capacity intervals of §5.2, USD.
pub const CAPACITY_INTERVALS: [(u64, u64); 3] = [(1000, 1500), (1500, 2000), (2000, 2500)];

/// The schemes the testbed compares — all five, SP first so the delay
/// panels can normalize against it.
pub const SCHEMES: [Scheme; 5] = [
    Scheme::ShortestPath,
    Scheme::Flash,
    Scheme::Spider,
    Scheme::SpeedyMurmurs,
    Scheme::SilentWhispers,
];

/// Runs the full §5 testbed experiment for a node count, producing the
/// four panels of the paper (success volume, success ratio, normalized
/// overall delay, normalized mice delay) plus a message-overhead panel
/// (probe + commit messages, one per hop, as the simulator counts them).
pub fn run_testbed(nodes: usize, fig_prefix: &str, effort: Effort) -> Vec<FigureResult> {
    let txns = match effort {
        Effort::Quick => 60,
        // The paper uses 10,000; 1,000 keeps the full sweep (3 intervals
        // × 5 schemes × real TCP) tractable while preserving shape.
        Effort::Paper => 1000,
    };
    let mut fig_vol = FigureResult::new(
        format!("{fig_prefix}a"),
        format!("Testbed success volume, {nodes} nodes"),
        "capacity interval index",
        "success volume (USD)",
    );
    let mut fig_ratio = FigureResult::new(
        format!("{fig_prefix}b"),
        format!("Testbed success ratio, {nodes} nodes"),
        "capacity interval index",
        "success ratio (%)",
    );
    let mut fig_delay = FigureResult::new(
        format!("{fig_prefix}c"),
        format!("Testbed overall processing delay, {nodes} nodes"),
        "capacity interval index",
        "delay normalized to SP",
    );
    let mut fig_mice_delay = FigureResult::new(
        format!("{fig_prefix}d"),
        format!("Testbed mice processing delay, {nodes} nodes"),
        "capacity interval index",
        "mice delay normalized to SP",
    );
    let mut fig_messages = FigureResult::new(
        format!("{fig_prefix}e"),
        format!("Testbed message overhead, {nodes} nodes"),
        "capacity interval index",
        "probe + commit messages",
    );
    for scheme in SCHEMES {
        fig_vol.series.push(Series::new(scheme.label()));
        fig_ratio.series.push(Series::new(scheme.label()));
        fig_delay.series.push(Series::new(scheme.label()));
        fig_mice_delay.series.push(Series::new(scheme.label()));
        fig_messages.series.push(Series::new(scheme.label()));
    }

    for (i, &(lo, hi)) in CAPACITY_INTERVALS.iter().enumerate() {
        let x = i as f64;
        // One trace shared by all schemes on identical clusters. The
        // harness derives the 90%-mice threshold from this same trace,
        // so every scheme classifies identically.
        let seed = 42 + i as u64;
        let reference = testbed_topology(nodes, lo, hi, seed);
        let trace = generate_trace(reference.graph(), &TraceConfig::ripple(txns, seed + 7));

        // SCHEMES runs SP first, which seeds the delay normalization.
        let mut sp_delay = 1.0f64;
        let mut sp_mice_delay = 1.0f64;
        for scheme in SCHEMES {
            let report =
                run_scheme_testbed(&reference, scheme, &trace, DEFAULT_MICE_FRACTION, seed + 13);
            let cell = format!("{fig_prefix}-{}-interval{i}", scheme.label());
            assert_eq!(report.funds_before, report.funds_after, "{cell}: funds");
            assert_eq!(report.wire_in(), report.wire_out(), "{cell}: wire frames");
            assert!(report.clean_shutdown, "{cell}: unclean shutdown");
            let delay_us = report.avg_delay_ms * 1e3;
            let mice_delay_us = report.avg_mice_delay_ms * 1e3;
            if scheme == Scheme::ShortestPath {
                sp_delay = delay_us.max(1e-9);
                sp_mice_delay = mice_delay_us.max(1e-9);
            }
            let label = scheme.label();
            fig_vol
                .series
                .iter_mut()
                .find(|s| s.label == label)
                .unwrap()
                .push(x, report.metrics.success_volume().micros() as f64 / 1e6);
            fig_ratio
                .series
                .iter_mut()
                .find(|s| s.label == label)
                .unwrap()
                .push(x, report.metrics.success_ratio() * 100.0);
            fig_delay
                .series
                .iter_mut()
                .find(|s| s.label == label)
                .unwrap()
                .push(x, delay_us / sp_delay);
            fig_mice_delay
                .series
                .iter_mut()
                .find(|s| s.label == label)
                .unwrap()
                .push(x, mice_delay_us / sp_mice_delay);
            fig_messages
                .series
                .iter_mut()
                .find(|s| s.label == label)
                .unwrap()
                .push(
                    x,
                    (report.metrics.probe_messages + report.metrics.commit_messages) as f64,
                );
        }
    }
    vec![fig_vol, fig_ratio, fig_delay, fig_mice_delay, fig_messages]
}
