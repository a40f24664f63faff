//! The deterministic discrete-event engine (virtual time, concurrent
//! in-flight payments, latency/throughput metrics).
//!
//! The paper's §4 evaluation and §5 prototype both live in a world
//! where payments overlap in time: probes go stale, concurrent payments
//! contend on shared channels, and every hop costs real delay. The
//! instantaneous [`Network`](crate::Network) cannot express any of
//! that, so this module adds a second, *time-aware* backend behind the
//! very same [`PaymentNetwork`](crate::PaymentNetwork) /
//! [`PaymentSession`](crate::PaymentSession) traits — all five routing
//! schemes run on it unmodified.
//!
//! * [`SimTime`] — virtual microseconds; nothing here reads a wall
//!   clock.
//! * [`EventQueue`] — binary-heap event queue with insertion-sequence
//!   tie-breaking, so runs are bit-reproducible (see its module docs
//!   for the invariants).
//! * [`LatencyModel`] — per-hop *propagation* delay: constant, or
//!   deterministic uniform jitter.
//! * [`ServiceModel`] / [`ServiceQueues`] — per-node *service*: every
//!   message delivered to a node occupies its single server for a
//!   deterministic service time behind a FIFO backlog (M/D/1-style),
//!   so completion latency responds to offered load and the
//!   congestion knee is visible.
//! * [`DesNetwork`] / [`DesSession`] — the backend: phase-1
//!   reservations escrow funds across virtual time; phase-2
//!   `CONFIRM`/`REVERSE` settlement is scheduled into the queue and
//!   lands hop-by-hop later, which is what makes concurrent payments
//!   genuinely contend and probes genuinely stale.
//! * [`DesEngine`] — the executor: admits payments from a timed
//!   workload (`pcn_workload::arrivals` builds Poisson and
//!   trace-replay arrival processes) and reports completion-latency
//!   percentiles, peak in-flight, and throughput in [`DesReport`].
//! * [`churn`] — deterministic topology dynamics: a declarative
//!   [`ChurnSchedule`] of channel close/reopen, node crash/recovery,
//!   and balance-drain events, admitted into the same `(time, seq)`
//!   event order and applied mid-run. Schedule generation is
//!   per-schedule seeded (`pcn_workload::churn_schedule`); an empty
//!   schedule leaves the engine bit-identical to a churn-free build
//!   (see the [`churn`] module docs for the invariants).
//!
//! # Determinism invariants
//!
//! The differential suite (zero-latency DES ≡ instantaneous simulator,
//! empty churn ≡ churn-free, same-seed bit-identical reports) and the
//! tier-1 pin of every committed `BENCH_*.json` field rely on three
//! invariants, which the workspace `clippy.toml` enforces in CI
//! (`cargo clippy -- -D warnings`):
//!
//! 1. **No wall clock**: time here is [`SimTime`] — virtual
//!    microseconds advanced only by the event queue.
//!    `disallowed-methods` bans `Instant::now` and `SystemTime::now`;
//!    wall metrics live in the testbed/bench crates behind
//!    `pcn_proto::wall_now()`.
//! 2. **Total event order**: events are ordered by `(time, seq)` where
//!    `seq` is the insertion sequence — and by *nothing else*.
//!    `disallowed-types` bans `HashMap` and `HashSet`, so no hash
//!    iteration order can reach scheduling decisions, metrics, or
//!    serialized reports.
//! 3. **Single-threaded by contract**: `disallowed-methods` bans
//!    `thread::spawn` and `disallowed-types` the `std::sync` locks,
//!    channels and atomics. A conservative parallel engine may relax
//!    this later, but only with deterministic merge rules that keep the
//!    `(time, seq)` order observable-equivalent.
//!
//! Given those, the whole engine is a pure function of
//! (topology seed, workload seed, model parameters): running it twice
//! — on one machine or two — produces byte-identical [`DesReport`]s.

pub mod churn;
pub mod engine;
pub mod latency;
pub mod network;
pub mod node;
pub mod queue;
pub mod time;

pub use churn::{ChurnAction, ChurnEvent, ChurnRate, ChurnSchedule};
pub use engine::{DesEngine, DesReport};
pub use latency::LatencyModel;
pub use network::{DesConfig, DesNetwork, DesSession};
pub use node::{CalendarWork, ServiceModel, ServiceQueues};
pub use queue::EventQueue;
pub use time::SimTime;
