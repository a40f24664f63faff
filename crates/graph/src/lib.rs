//! # pcn-graph
//!
//! Directed-graph substrate for the Flash reproduction. The paper's Python
//! simulation leans on NetworkX; this crate provides the equivalent
//! machinery natively:
//!
//! * [`DiGraph`] — directed graph on compressed sparse rows (flat
//!   out-rows and in-rows in insertion order, binary-searched for an
//!   edge when every out-row is also sorted by head, as generated
//!   topologies' are) with dense [`EdgeId`]s so per-edge attributes
//!   (balances, fees) can live in flat vectors owned by the simulator.
//! * [`Path`] — a validated simple path with hop/edge iteration.
//! * [`bfs`] — breadth-first shortest paths with edge filters (the
//!   `Breadth-First-Search(G, C', s, t)` primitive of Algorithm 1), and
//!   [`bfs::PhaseScratch`], the one search that meets in the middle:
//!   Algorithm 1's probes and Yen's spurs run on it, and the forward
//!   loop is its reference.
//! * [`yen`] — Yen's k-shortest loopless paths as a resumable
//!   enumerator, [`yen::RankedPaths`]: one rank per call, spurred by
//!   Lawler's rule, search state kept in between (§3.3 mice routing tables take the top `m` ranks
//!   and later "the next top shortest path" from the same enumeration).
//! * [`maxflow`] — the max-flow/min-cut certificate
//!   ([`maxflow::certify`]) that checks Algorithm 1's plans and the
//!   kernel's flows, the highest-label push-relabel kernel behind the
//!   [`maxflow::MaxFlowSolver`] trait (kept for flashbench's replay),
//!   and path decomposition.
//! * [`generators`] — Watts–Strogatz (§5.2 testbed topologies),
//!   Barabási–Albert scale-free (Ripple/Lightning-like topologies), and
//!   Erdős–Rényi graphs.
//! * [`io`] — edge-list text topology (de)serialization.

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

pub mod bfs;
pub mod digraph;
pub mod generators;
pub mod io;
pub mod maxflow;
pub mod path;
pub mod yen;

pub use digraph::{DiGraph, EdgeId};
pub use path::Path;
