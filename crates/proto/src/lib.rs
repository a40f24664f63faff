//! # pcn-proto
//!
//! The testbed prototype of §5: a message-level offchain routing system
//! over **real TCP sockets** on localhost, reimplementing the paper's
//! Golang prototype in Rust. One [`node::NodeState`] per participant
//! (the paper used one process per participant), each bound to its own
//! `127.0.0.1:port` and hosted on a single-threaded poll-based
//! [`event_loop::EventLoop`] — so one process scales to hundreds of
//! node actors — realizes the three functions "required by any routing
//! algorithm: source routing, probing, and atomic payment processing":
//!
//! * [`wire`] — the byte-exact message format of Table 1 (`TransID`,
//!   `Type`, `Path`, `Capacity`, `Commit`) with nine message types:
//!   `PROBE`/`PROBE_ACK`, `COMMIT`/`COMMIT_ACK`/`COMMIT_NACK`,
//!   `CONFIRM`/`CONFIRM_ACK`, `REVERSE`/`REVERSE_ACK`.
//! * [`transport`] — length-prefixed framing: the incremental
//!   [`transport::FrameDecoder`] the reactor reads through.
//! * [`node`] — the passive per-node state machine: probe capacity
//!   appending, hop-by-hop balance escrow on `COMMIT`, rollback on
//!   `COMMIT_NACK`, reverse-direction crediting on `CONFIRM_ACK`, and
//!   forward-direction restoration on `REVERSE` (the two-phase commit
//!   of §5.1) — plus per-node telemetry ([`node::NodeCounters`]) and
//!   live churn state (closed channels, crashed nodes).
//! * [`event_loop`] — the reactor: non-blocking listeners and
//!   connections, readiness polling, request/reply correlation, and a
//!   deterministic, loud shutdown. No threads, no async runtime.
//! * [`cluster`] — the orchestrator: launches a cluster and exposes
//!   the raw wire operations, the probe/commit message counters and
//!   sender-side fee policies. Batched probe, commit, and settlement
//!   waves go through the loop in flight together, and `ChurnAction`s
//!   apply mid-run. Driving a trace and timing it is
//!   `pcn_experiments::harness::run_scheme_testbed`'s job.
//! * [`backend`] — implements [`pcn_sim::PaymentNetwork`] for
//!   [`Cluster`], mapping probes and payment sessions onto the wire
//!   protocol. This is what lets **all five** routing schemes from
//!   `flash-core` (Flash, Spider, SP, SpeedyMurmurs, SilentWhispers)
//!   run on the testbed through the *same* [`pcn_sim::Router`]
//!   implementations the simulator evaluates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports through returned values and serialized artifacts,
// never ad-hoc stdout; the experiment/bench binaries print, libraries do not.
#![deny(clippy::dbg_macro, clippy::print_stdout)]

pub mod backend;
pub mod cluster;
pub mod event_loop;
pub mod node;
pub mod transport;
pub mod wall;
pub mod wire;

pub use backend::ClusterSession;
pub use cluster::Cluster;
pub use event_loop::{EventLoop, ShutdownReport};
pub use node::NodeCounters;
pub use wall::{wall_now, WallInstant};
pub use wire::{Message, MsgType};
