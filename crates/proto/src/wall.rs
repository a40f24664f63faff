//! The single wall-clock entry point of the workspace.
//!
//! Everything deterministic (pcn-types, pcn-graph, pcn-lp, pcn-sim,
//! flash-core, pcn-workload) runs on virtual time
//! (`pcn_sim::des::SimTime`) and must never read the host clock:
//! same-seed runs are bit-identical. The workspace `clippy.toml` bans
//! `Instant::now` and `SystemTime::now` in every crate
//! (`disallowed_methods`).
//!
//! The testbed and the bench/experiment binaries *do* need wall time —
//! Figures 12/13 report real per-transaction processing delay over TCP
//! — so they get it from exactly one place: [`wall_now`], the one
//! function allowed to call `Instant::now`. Its result is a
//! [`WallInstant`], a type that cannot mix with a `SimTime`, so wall
//! and virtual readings stay apart without any naming rule.

use std::time::Instant;

/// Reads the host monotonic clock:
///
/// ```
/// let wall_start = pcn_proto::wall_now();
/// let wall_elapsed = wall_start.elapsed();
/// ```
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "the workspace's one wall-clock read; every other crate calls this helper"
)]
pub fn wall_now() -> Instant {
    Instant::now()
}

/// The wall-clock instant type, for signatures and struct fields in
/// wall-allowed crates. Naming the alias keeps every deadline visibly
/// tied to the single [`wall_now`] entry point.
pub type WallInstant = Instant;
