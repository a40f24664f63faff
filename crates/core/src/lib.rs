//! # flash-core
//!
//! The paper's primary contribution — the **Flash** routing protocol —
//! plus every baseline it is evaluated against, all behind the
//! [`pcn_sim::Router`] trait:
//!
//! * [`FlashRouter`] (§3): differentiates elephant and mice payments.
//!   Elephants are routed with a modified Edmonds–Karp probe-as-you-go
//!   max-flow search (Algorithm 1, [`flash::elephant`]) and split across
//!   paths by a fee-minimizing linear program ([`flash::fees`]). Mice hit
//!   a per-receiver routing table of top-m Yen shortest paths with a
//!   random trial-and-error loop ([`flash::mice`]).
//! * [`SpiderRouter`] (§4.1 benchmark): waterfilling over 4 edge-disjoint
//!   shortest paths, probing every path for every payment.
//! * [`SpeedyMurmursRouter`] (§4.1 benchmark): static embedding-based
//!   routing with 3 landmark spanning trees.
//! * [`ShortestPathRouter`] (§4.1 baseline): single fewest-hops path.
//! * [`Scheme`]: the one registry naming these schemes and building
//!   their routers for any [`pcn_sim::PaymentNetwork`] backend.
//! * [`classify`]: elephant/mice threshold selection ("The elephant-mice
//!   threshold is set such that 90% of payments are mice").

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

pub mod classify;
pub mod flash;
pub mod scheme;
pub mod shortest;
pub mod silentwhispers;
pub mod speedymurmurs;
pub mod spider;

pub use flash::{FlashConfig, FlashRouter};
pub use scheme::Scheme;
pub use shortest::ShortestPathRouter;
pub use silentwhispers::SilentWhispersRouter;
pub use speedymurmurs::SpeedyMurmursRouter;
pub use spider::SpiderRouter;
