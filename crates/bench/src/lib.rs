//! # flash-bench
//!
//! The smoke-bench binaries and the gate that reads their records:
//!
//! * `maxflow_bench` — compares every `MaxFlowSolver` kernel on the
//!   Watts–Strogatz and Ripple/Lightning generator topologies,
//!   cross-checks their flow values, and writes `BENCH_maxflow.json`.
//! * `e2e_bench` — all five schemes through the discrete-event engine
//!   (propagation latency + per-node service queues) under Poisson
//!   load, writing `BENCH_e2e.json`.
//! * `churn_bench` — the success-under-churn trajectory, writing
//!   `BENCH_churn.json`.
//! * `testbed_bench` — scenario-driven runs on the event-loop TCP
//!   cluster (including the 200-node single-process scale point),
//!   writing `BENCH_testbed.json`.
//! * `bench_gate` — diffs the regenerated smoke benches against the
//!   committed files and fails CI on regressions or physically
//!   suspicious shapes (see [`gate`]).
//!
//! The committed `BENCH_*.json` files are the `--smoke` outputs (so
//! the gate always compares like with like on PR CI); the weekly
//! scheduled workflow regenerates the full-scale trajectory as
//! artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports through returned values and serialized artifacts,
// never ad-hoc stdout; the experiment/bench binaries print, libraries do not.
#![deny(clippy::dbg_macro, clippy::print_stdout)]

pub mod gate;
