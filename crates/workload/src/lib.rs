//! # pcn-workload
//!
//! Workload synthesis for the Flash reproduction. The paper's evaluation
//! drives everything from two proprietary-ish data sets — a Ripple
//! transaction trace (2.6 M payments, 2013–2016) and a crawled Bitcoin
//! trace (103 M payments) — plus crawled Ripple/Lightning topologies.
//! None are redistributable here, so this crate synthesizes equivalents
//! calibrated to **every statistic the paper publishes about them**:
//!
//! * [`size`] — heavy-tailed payment-size samplers anchored to Figure 3:
//!   Ripple median $4.8 / p90 $1,740 / top-10% ≈ 94.5% of volume;
//!   Bitcoin median 1.293e6 sat / p90 8.9e7 sat / top-10% ≈ 94.7%.
//! * [`recurrence`] — sender–receiver pair generation reproducing
//!   Figure 4: ≈86% of a day's transactions recur within 24 h, and a
//!   sender's top-5 receivers carry ≈70% of its recurring payments.
//! * [`topology`] — scale-free topologies at the paper's exact scale
//!   (Ripple: 1,870 nodes / 17,416 directed edges; Lightning: 2,511
//!   nodes / 36,016 channels) with skewed channel funds (medians $250
//!   and 500,000 satoshi respectively), plus the Watts–Strogatz testbed
//!   topologies of §5.2 with U[lo, hi) capacities.
//! * [`arrivals`] — arrival processes for the discrete-event engine:
//!   seeded Poisson offered load and fixed-gap controls, plus helpers
//!   stamping traces into timed workloads.
//! * [`churn`] — seeded topology-churn schedules (channel closes, node
//!   crashes, balance drains) for `pcn_sim::des`, generated from
//!   Poisson intensities the same way arrivals are.
//! * [`trace`] — end-to-end trace generation and JSON-lines I/O
//!   (timed and untimed; `time_micros` stamps replay through
//!   `pcn_sim::des`).
//! * [`stats`] — CDF/quantile/volume-share/recurrence statistics used to
//!   validate calibration and to regenerate Figures 3 and 4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports through returned values and serialized artifacts,
// never ad-hoc stdout; the experiment/bench binaries print, libraries do not.
// A panic aborts a million-payment run hours in, so library code
// propagates errors; a site whose invariant rules the panic out carries
// `#[expect(clippy::…, reason = "<the invariant>")]`.
#![deny(
    clippy::dbg_macro,
    clippy::print_stdout,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod arrivals;
pub mod churn;
pub mod recurrence;
pub mod size;
pub mod stats;
pub mod topology;
pub mod trace;

pub use churn::churn_schedule;
pub use size::SizeModel;
pub use topology::{lightning_topology, ripple_topology, testbed_topology};
pub use trace::{generate_trace, TraceConfig};
