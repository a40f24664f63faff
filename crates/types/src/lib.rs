//! # pcn-types
//!
//! Foundational types shared by every crate in the Flash reproduction:
//!
//! * [`Amount`] — fixed-point money (micro-units of the native currency),
//!   the unit in which channel balances, payment demands, and fees are all
//!   expressed. Using integers end-to-end keeps balance conservation exact,
//!   which the simulator's invariant checks rely on.
//! * [`NodeId`] / [`ChannelId`] / [`TxId`] — graph and payment identifiers.
//! * [`Payment`] — a (sender, receiver, demand) triple with arrival order,
//!   exactly the `(s, t, d)` of Algorithm 1 in the paper.
//! * [`FeePolicy`] — the per-channel charging function `f_{u,v}`: a fixed
//!   base fee plus a volume-proportional component ("typically linear with a
//!   fixed fee plus a volume-dependent component", §3.2).
//! * [`PcnError`] — the shared error vocabulary.
//!
//! The crate is dependency-light by design so that every substrate can use
//! it without pulling in the simulator or graph machinery.

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

pub mod amount;
pub mod error;
pub mod fee;
pub mod ids;
pub mod payment;

pub use amount::Amount;
pub use error::PcnError;
pub use fee::FeePolicy;
pub use ids::{ChannelId, NodeId, TxId};
pub use payment::{Payment, PaymentClass};

/// Convenience result alias used across the workspace.
pub type Result<T> = std::result::Result<T, PcnError>;
