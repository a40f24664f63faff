//! # flash-offchain
//!
//! Umbrella crate of the Flash reproduction (CoNEXT 2019): re-exports
//! every workspace crate under one roof so examples, integration tests,
//! and downstream users need a single dependency.
//!
//! * [`types`] — money, ids, payments, fees ([`pcn_types`]).
//! * [`graph`] — graph algorithms and generators ([`pcn_graph`]).
//! * [`lp`] — the simplex solver ([`pcn_lp`]).
//! * [`sim`] — the backend-agnostic `PaymentNetwork` routing API and
//!   the PCN simulator backend ([`pcn_sim`]).
//! * [`core`] — Flash and the baseline routers, generic over the
//!   backend ([`flash_core`]).
//! * [`workload`] — calibrated workload synthesis ([`pcn_workload`]).
//! * [`proto`] — the TCP testbed prototype, the second `PaymentNetwork`
//!   backend ([`pcn_proto`]).
//! * [`experiments`] — figure regeneration and one harness function
//!   per backend: simulator, DES and TCP testbed ([`pcn_experiments`]).
//!
//! ## Example
//!
//! ```
//! use flash_offchain::core::{FlashConfig, FlashRouter};
//! use flash_offchain::graph::generators;
//! use flash_offchain::sim::{Network, Router};
//! use flash_offchain::types::{Amount, NodeId, Payment, TxId};
//!
//! // A small-world network with $200 per channel direction.
//! let graph = generators::watts_strogatz(20, 4, 0.3, 7);
//! let mut net = Network::uniform(graph, Amount::from_units(200));
//!
//! let threshold = Amount::from_units(100);
//! let mut flash = FlashRouter::new(FlashConfig {
//!     elephant_threshold: threshold,
//!     ..Default::default()
//! });
//!
//! let payment = Payment::new(TxId(0), NodeId(0), NodeId(11), Amount::from_units(150));
//! let outcome = flash.route(&mut net, &payment, payment.classify(threshold));
//! assert!(outcome.is_success());
//! // Elephant payments probe paths before splitting:
//! assert!(net.metrics().probe_messages > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports through returned values and serialized artifacts,
// never ad-hoc stdout; the experiment/bench binaries print, libraries do not.
#![deny(clippy::dbg_macro, clippy::print_stdout)]

pub use flash_core as core;
pub use pcn_experiments as experiments;
pub use pcn_graph as graph;
pub use pcn_lp as lp;
pub use pcn_proto as proto;
pub use pcn_sim as sim;
pub use pcn_types as types;
pub use pcn_workload as workload;
