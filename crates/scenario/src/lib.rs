//! # pcn-scenario
//!
//! Declarative testbed orchestration. Where `pcn_proto` gives you the
//! raw pieces — an event-loop-hosted TCP cluster, a wire protocol, a
//! `PaymentNetwork` backend — this crate gives you one sentence per
//! experiment: *this topology, this workload, this scheme, these
//! faults, and here is what must hold afterwards.*
//!
//! ```no_run
//! use flash_core::Scheme;
//! use pcn_scenario::{Invariant, ScenarioBuilder, TopologySpec, WorkloadSpec};
//!
//! let report = ScenarioBuilder::new(
//!     "smoke",
//!     TopologySpec::Testbed { n: 60, lo: 1000, hi: 1500, seed: 1 },
//! )
//! .workload(WorkloadSpec::Ripple { txns: 200, seed: 2 })
//! .scheme(Scheme::Flash)
//! .expect(Invariant::FundsConserved)
//! .expect(Invariant::MessagesConserved)
//! .expect(Invariant::SuccessRatioAtLeast(0.3))
//! .build()
//! .run()
//! .unwrap();
//! assert!(report.all_invariants_hold());
//! ```
//!
//! [`Scenario::run`] deploys a [`pcn_proto::Cluster`], derives the
//! elephant threshold from the trace (90% mice, §5.2),
//! drives the workload through the *same* [`pcn_sim::Router`]
//! implementations the simulator evaluates, applies churn events at
//! their scheduled wall offsets, snapshots per-node telemetry, checks
//! the declared invariants, and returns a serializable
//! [`ScenarioReport`]. Imperative tests keep full control through
//! [`Scenario::manual_cluster`], which deploys the same configuration
//! and hands back the raw cluster.
//!
//! ## Threading contract
//!
//! The cluster a scenario deploys hosts every node on the
//! single-threaded [`pcn_proto::EventLoop`], and exclusive access to it
//! is `&mut Cluster` — `Scenario::run` owns its cluster, a test owns
//! the one [`Scenario::manual_cluster`] hands back. There is no
//! thread-per-node, no async runtime, and no background work: when
//! `run` returns, the loop has been wound down by
//! [`pcn_proto::Cluster::shutdown`] and nothing is left running.
//!
//! ## Determinism and wall time
//!
//! This crate measures *real elapsed time* (processing delay,
//! events/sec) — that is its job, and it is exactly why its numbers are
//! not bit-reproducible the way the DES is. The repo's determinism
//! tooling still applies:
//!
//! * **det-lint D1** (wall-clock confinement): every clock read goes
//!   through [`pcn_proto::wall_now`] and binds to a `wall_*`-prefixed
//!   name, so the auditor can see that wall time only feeds reported
//!   metrics and churn pacing, never routing decisions.
//! * **pcn-lint** hot-path rules: scenario orchestration is setup code,
//!   not per-message code; the per-message hot path stays in
//!   `pcn_proto::event_loop`, which the rules already cover.
//!
//! Everything *decision-shaped* is seeded: topology, trace, fault
//! plan, churn schedule, and router all derive from explicit seeds, so
//! two runs of the same scenario route identically even though their
//! wall-clock measurements differ.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports through returned values and serialized artifacts,
// never ad-hoc stdout; the experiment/bench binaries print, libraries do not.
#![deny(clippy::dbg_macro, clippy::print_stdout)]

pub mod builder;
pub mod report;

pub use builder::{Invariant, Scenario, ScenarioBuilder, TopologySpec, WorkloadSpec};
pub use report::{InvariantOutcome, NodeTelemetry, ScenarioReport};
