//! # pcn-sim
//!
//! The payment-channel-network simulator behind the paper's §4
//! evaluation, plus the backend-agnostic routing API ([`backend`]) that
//! lets the same routers also drive the §5 TCP testbed.
//!
//! Every backend exposes exactly the three operations the paper's
//! prototype implements (§5.1): **probing**, **source-routed two-phase
//! commit**, and **atomic multi-path payments** — captured by the
//! [`PaymentNetwork`] and [`PaymentSession`] traits:
//!
//! * [`Network`] — the in-memory backend: topology + balances + fees.
//!   Routers never read balances directly — the trait surface has no
//!   balance accessor; they call [`PaymentNetwork::probe_path`] (which
//!   meters probe messages) or attempt a send (which can fail mid-path
//!   exactly like a `COMMIT_NACK`).
//! * Payment sessions — [`PaymentNetwork::begin_payment`] opens an
//!   atomic [`NetworkSession`]; parts reserved with
//!   [`PaymentSession::try_send_part`] are escrowed and either all
//!   committed ([`PaymentSession::commit`], crediting the reverse
//!   channel direction like the prototype's `CONFIRM_ACK`) or all
//!   reversed ([`PaymentSession::abort`]). Every backend's session
//!   keeps its books in one [`PaymentLedger`].
//! * [`Router`] — a scheme, generic over the backend; `flash-core`
//!   implements all five schemes against it.
//! * [`Metrics`] — success ratio / success volume / probing messages /
//!   fees, the exact quantities plotted in Figures 6–13.
//! * [`FaultConfig`] — optional fault injection (stale probes, probe
//!   loss), in the spirit of the smoltcp examples' `--drop-chance`.
//! * [`des`] — the deterministic discrete-event engine: a second,
//!   time-aware backend behind the same traits, where payments overlap
//!   in virtual time, reservations hold escrow until delayed
//!   settlement waves land, and [`Metrics`] gains completion-latency
//!   percentiles, peak in-flight, and throughput. Its
//!   [`des::churn`] submodule injects deterministic topology dynamics
//!   (channel close/reopen, node crash, balance drain) into the same
//!   event order.
//!
//! Total funds are conserved exactly (integer micro-units): every debit
//! of a forward balance is matched by a credit of escrow and ultimately
//! of the reverse balance, which the property tests assert.

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

pub mod backend;
pub mod des;
pub mod fault;
pub mod metrics;
pub mod network;
pub mod outcome;
pub mod router;

pub use backend::{FailureCause, PartFailure, PaymentLedger, PaymentNetwork, PaymentSession};
pub use des::{
    ChurnAction, ChurnEvent, ChurnRate, ChurnSchedule, DesConfig, DesEngine, DesNetwork, DesReport,
    LatencyModel, ServiceModel, SimTime,
};
pub use fault::FaultConfig;
pub use metrics::{ClassMetrics, LatencyHistogram, Metrics};
pub use network::{ChannelInfo, Network, NetworkSession, ProbeReport};
pub use outcome::{FailureReason, RouteOutcome};
pub use router::Router;
