//! The backend-agnostic payment-network API.
//!
//! The paper evaluates every routing scheme twice: on the §4 simulator
//! and on the §5 distributed prototype. Both expose the same three
//! primitives — "source routing, probing, and atomic payment
//! processing" — so the routers are written once, against the
//! [`PaymentNetwork`] trait, and run unmodified on either backend:
//!
//! * [`Network`](crate::Network) — the in-memory simulator. Probes and
//!   commits mutate a balance vector directly and are metered into
//!   [`Metrics`].
//! * [`DesNetwork`](crate::DesNetwork) — the same network replayed over
//!   virtual time: hops take delays and queue for service, and phase 2
//!   lands as scheduled settlement waves.
//! * `pcn_proto::Cluster` — the TCP testbed. Probes become `PROBE` /
//!   `PROBE_ACK` frames, payment sessions become the concurrent
//!   two-phase `COMMIT` / `CONFIRM` / `REVERSE` exchange of §5.1.
//!
//! The trait captures the *only* surface routers may touch: the local
//! topology, path probing, and a transactional [`PaymentSession`].
//! Balances are never readable directly — a backend that wanted to leak
//! them would have to do so through [`PaymentNetwork::probe_path`],
//! where the probing overhead the paper measures (Figure 8) is charged.
//!
//! ## Where the two-phase bookkeeping lives
//!
//! Every session keeps its books in one [`PaymentLedger`]: it records
//! the attempt when the session opens, holds the demand, the class, the
//! reserved parts with their amounts and the fees they accrued, answers
//! [`PaymentSession::reserved`] and [`PaymentSession::remaining`], and on
//! commit checks the demand is covered and records the success. A
//! backend writes only its mechanism: how a part is reserved (and what
//! of it phase 2 needs, the ledger's part type) and how phase 2 lands —
//! credit the reverse directions on commit, restore the escrow on abort
//! or drop.
//!
//! ## Plugging in a custom backend
//!
//! Any settlement substrate that can probe a path and atomically
//! reserve/commit funds can host the routers. A minimal example — an
//! instant-settlement rail of unlimited capacity, whose parts need
//! nothing in phase 2 — and a custom router driving it:
//!
//! ```
//! use pcn_graph::{DiGraph, Path};
//! use pcn_sim::{
//!     ChannelInfo, FailureCause, FailureReason, Metrics, PartFailure, PaymentLedger,
//!     PaymentNetwork, PaymentSession, ProbeReport, RouteOutcome, Router,
//! };
//! use pcn_types::{Amount, FeePolicy, NodeId, Payment, PaymentClass, TxId};
//!
//! /// A toy backend: every existing channel has unlimited capacity.
//! struct Unlimited {
//!     graph: DiGraph,
//!     metrics: Metrics,
//! }
//!
//! struct UnlimitedSession<'a> {
//!     graph: &'a DiGraph,
//!     metrics: &'a mut Metrics,
//!     ledger: PaymentLedger<()>,
//! }
//!
//! impl PaymentNetwork for Unlimited {
//!     type Session<'a> = UnlimitedSession<'a>;
//!
//!     fn graph(&self) -> &DiGraph {
//!         &self.graph
//!     }
//!
//!     fn probe_path(&mut self, path: &Path) -> Option<ProbeReport> {
//!         let channels = path
//!             .channels()
//!             .map(|(u, v)| {
//!                 Some(ChannelInfo {
//!                     edge: self.graph.edge(u, v)?,
//!                     capacity: Amount::MAX,
//!                     fee: FeePolicy::FREE,
//!                     reverse: None,
//!                 })
//!             })
//!             .collect::<Option<Vec<_>>>()?;
//!         Some(ProbeReport { channels })
//!     }
//!
//!     fn begin_payment(&mut self, payment: &Payment, class: PaymentClass) -> UnlimitedSession<'_> {
//!         UnlimitedSession {
//!             graph: &self.graph,
//!             ledger: PaymentLedger::open(&mut self.metrics, payment, class, Vec::new()),
//!             metrics: &mut self.metrics,
//!         }
//!     }
//! }
//!
//! impl PaymentSession for UnlimitedSession<'_> {
//!     fn try_send_part(&mut self, path: &Path, amount: Amount) -> Result<(), PartFailure> {
//!         if amount.is_zero() {
//!             return Ok(());
//!         }
//!         // Reject parts over channels that do not exist; accept the rest.
//!         if let Some(hop) = path.channels().position(|(u, v)| self.graph.edge(u, v).is_none()) {
//!             return Err(PartFailure {
//!                 failed_hop: hop,
//!                 available: Amount::ZERO,
//!                 cause: FailureCause::MissingChannel,
//!             });
//!         }
//!         self.ledger.reserve((), amount, Amount::ZERO);
//!         Ok(())
//!     }
//!
//!     fn probe_path(&mut self, _path: &Path) -> Option<ProbeReport> {
//!         None // nothing mid-session to learn: capacity is unlimited
//!     }
//!
//!     fn reserved(&self) -> Amount {
//!         self.ledger.reserved()
//!     }
//!
//!     fn remaining(&self) -> Amount {
//!         self.ledger.remaining()
//!     }
//!
//!     fn commit(mut self) -> RouteOutcome {
//!         // Nothing was escrowed, so phase 2 has nothing to land.
//!         self.ledger.commit(self.metrics).0
//!     }
//!
//!     fn abort(self) {}
//! }
//!
//! // Any `Router<N>` — here a one-hop direct-send router — runs on it.
//! struct Direct;
//!
//! impl<N: PaymentNetwork> Router<N> for Direct {
//!     fn name(&self) -> &'static str {
//!         "Direct"
//!     }
//!
//!     fn route(&mut self, net: &mut N, payment: &Payment, class: PaymentClass) -> RouteOutcome {
//!         let Ok(path) = Path::new(vec![payment.sender, payment.receiver], None) else {
//!             return RouteOutcome::failure(FailureReason::NoRoute);
//!         };
//!         net.send_single_path(payment, class, &path)
//!     }
//! }
//!
//! let mut g = DiGraph::new(2);
//! g.add_edge(NodeId(0), NodeId(1)).unwrap();
//! let mut rail = Unlimited {
//!     graph: g,
//!     metrics: Metrics::default(),
//! };
//! let p = Payment::new(TxId(1), NodeId(0), NodeId(1), Amount::from_units(3));
//! assert!(Direct.route(&mut rail, &p, PaymentClass::Mice).is_success());
//! assert_eq!(rail.metrics.mice.succeeded, 1);
//! ```

use crate::{FailureReason, Metrics, ProbeReport, RouteOutcome};
use pcn_graph::{DiGraph, Path};
use pcn_types::{Amount, Payment, PaymentClass};

/// Why one hop NACKed a commit attempt — the signal Flash's re-probe
/// trip (`flash_core::flash`) classifies failures by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureCause {
    /// The hop's channel existed and was open but held less than the
    /// part's amount — ordinary contention, *not* evidence of stale
    /// topology knowledge.
    InsufficientBalance,
    /// The path names a channel the topology never had.
    MissingChannel,
    /// The hop's channel has been closed since the sender learned the
    /// path (topology churn — see [`des::churn`](crate::des::churn)).
    ChannelClosed,
    /// The hop's node is down and NACKed the message (topology churn).
    NodeDown,
    /// The backend's wire protocol reports no cause (the prototype's
    /// `COMMIT_NACK` carries none).
    Unreported,
}

impl FailureCause {
    /// Whether the cause indicates *stale topology knowledge* (a
    /// closed channel or crashed node) rather than ordinary balance
    /// contention. Only stale causes feed re-probe thresholds — an
    /// `InsufficientBalance` NACK must never trigger a topology
    /// refresh, or zero-churn runs would change behavior.
    pub fn is_stale(self) -> bool {
        matches!(self, FailureCause::ChannelClosed | FailureCause::NodeDown)
    }
}

/// One hop-failure during a commit attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartFailure {
    /// Index of the hop whose balance was insufficient (0 = first hop).
    pub failed_hop: usize,
    /// Balance available at that hop when the part arrived. Best effort:
    /// backends whose wire protocol does not report it (the prototype's
    /// `COMMIT_NACK` carries no balance field) leave it at zero.
    pub available: Amount,
    /// Why the hop NACKed, best effort: backends whose wire protocol
    /// reports no cause use [`FailureCause::Unreported`].
    pub cause: FailureCause,
}

/// An in-flight atomic multi-path payment — the AMP guarantee of §3.1
/// realized as the two-phase commit of §5.1.
///
/// Parts reserved with [`PaymentSession::try_send_part`] escrow funds
/// hop-by-hop (phase 1, the prototype's `COMMIT` forward pass);
/// [`PaymentSession::commit`] settles every part (phase 2, the
/// `CONFIRM_ACK` pass crediting each reverse channel direction), while
/// [`PaymentSession::abort`] — or simply dropping the session — restores
/// every escrow (the `REVERSE` pass). A failed payment therefore leaves
/// no trace in any backend's balances.
pub trait PaymentSession {
    /// Attempts to reserve `amount` along `path` (phase-1 commit). On
    /// success the funds are escrowed until [`PaymentSession::commit`]
    /// or [`PaymentSession::abort`]; on failure nothing from *this part*
    /// stays escrowed and the failing hop is reported best-effort.
    ///
    /// A zero `amount` is a no-op that reserves nothing and always
    /// succeeds.
    fn try_send_part(&mut self, path: &Path, amount: Amount) -> Result<(), PartFailure>;

    /// Reserves a batch of parts. The paper's prototype "prepares a
    /// COMMIT message for each of the sub-payment and sends them out"
    /// before collecting replies, so every part is sent, whether a part
    /// before it was refused or not, and the first refusal is returned.
    /// The parts go one after another in batch order, each meeting the
    /// balances the earlier ones left. Parts that fit stay escrowed;
    /// every router [`PaymentSession::abort`]s a session whose batch
    /// failed. Every backend, the DES and the testbed included, uses
    /// this default.
    fn try_send_parts(&mut self, parts: &[(Path, Amount)]) -> Result<(), PartFailure> {
        let mut first = Ok(());
        for (path, amount) in parts {
            first = first.and(self.try_send_part(path, *amount));
        }
        first
    }

    /// Probes a path while the session is open. Escrowed funds of
    /// already-reserved parts are invisible to the probe, exactly as a
    /// concurrent prototype probe sees post-`COMMIT` balances (Flash's
    /// mice loop probes a path only after a full-amount attempt fails).
    fn probe_path(&mut self, path: &Path) -> Option<ProbeReport>;

    /// Total amount reserved so far across all parts.
    fn reserved(&self) -> Amount;

    /// Remaining demand (`demand − reserved`, clamped at zero).
    fn remaining(&self) -> Amount;

    /// Whether the reserved parts cover the full demand.
    fn is_satisfied(&self) -> bool {
        self.remaining().is_zero()
    }

    /// Commits every reserved part (phase 2), crediting reverse channel
    /// directions, and returns the success outcome.
    ///
    /// # Panics
    /// Panics if the reserved total does not cover the demand — routers
    /// must check [`PaymentSession::is_satisfied`] first.
    fn commit(self) -> RouteOutcome;

    /// Aborts the session, restoring every escrowed part. Equivalent to
    /// dropping the session; provided for explicitness at call sites.
    fn abort(self);
}

/// A payment-channel network backend: the complete surface a
/// [`Router`](crate::Router) may touch.
///
/// Implementations exist for the in-memory simulator
/// ([`Network`](crate::Network)), the discrete-event backend
/// ([`DesNetwork`](crate::DesNetwork)) and the TCP testbed prototype
/// (`pcn_proto::Cluster`); the module docs show how to plug in a custom
/// one. Routers never see balances except through
/// [`PaymentNetwork::probe_path`] — the trait is what turns the old
/// "routers never read balances directly" convention into a guarantee.
pub trait PaymentNetwork {
    /// The session type opened by [`PaymentNetwork::begin_payment`].
    type Session<'a>: PaymentSession
    where
        Self: 'a;

    /// The locally known topology — no balance information, exactly what
    /// the paper assumes every node knows (§3.1).
    fn graph(&self) -> &DiGraph;

    /// Probes a path end-to-end: per-hop capacities and fees, charging
    /// the backend's probe-message accounting. `None` when the path has
    /// a missing channel or the probe was lost (fault injection /
    /// transport timeout) — messages are still charged in that case.
    fn probe_path(&mut self, path: &Path) -> Option<ProbeReport>;

    /// Probes several paths. Spider probes all its candidate paths for
    /// every payment; backends with real message latency override this
    /// to probe concurrently, as the prototype's sender does. The
    /// default probes sequentially (the simulator's semantics).
    fn probe_paths(&mut self, paths: &[Path]) -> Vec<Option<ProbeReport>> {
        paths.iter().map(|p| self.probe_path(p)).collect()
    }

    /// Opens an atomic payment session and records the attempt in the
    /// backend's accounting. The session must be
    /// [`PaymentSession::commit`]ted or it aborts on drop.
    fn begin_payment(&mut self, payment: &Payment, class: PaymentClass) -> Self::Session<'_>;

    /// Convenience for single-path schemes: attempt the full amount on
    /// one path and commit if it fits.
    fn send_single_path(
        &mut self,
        payment: &Payment,
        class: PaymentClass,
        path: &Path,
    ) -> RouteOutcome {
        let mut session = self.begin_payment(payment, class);
        match session.try_send_part(path, payment.amount) {
            Ok(()) => session.commit(),
            Err(_) => {
                session.abort();
                RouteOutcome::failure(FailureReason::InsufficientCapacity)
            }
        }
    }

    /// Records a payment the router rejected without touching any
    /// channel (no route, infeasible demand) so success-ratio accounting
    /// stays fair across schemes: the attempt is counted, nothing moves.
    fn record_rejected_attempt(&mut self, payment: &Payment, class: PaymentClass) {
        self.begin_payment(payment, class).abort();
    }

    /// Notifies the backend that the router tripped a re-probe
    /// threshold and is about to recompute its cached routes instead of
    /// retrying a dead path (Flash is the one scheme that does).
    /// Default: no-op. The DES backend counts these into
    /// [`DesReport::reprobes_triggered`](crate::DesReport).
    fn note_reprobe(&mut self) {}
}

/// The bookkeeping of one atomic payment's two-phase commit, the same on
/// every backend: the demand and class, the reserved parts with their
/// amounts, the fees they accrued, and whether the payment is closed.
///
/// A session opens one with [`PaymentLedger::open`], which records the
/// attempt; books each part its mechanism escrowed with
/// [`PaymentLedger::reserve`]; and closes it exactly once, by
/// [`PaymentLedger::commit`] (which checks the demand is covered and
/// records the success) or by [`PaymentLedger::close`] (abort or drop).
/// Both hand the parts back for phase 2, which stays the session's own:
/// `P` is whatever its settlement needs of a part — the debited edges on
/// the simulator and the DES, the wire transaction id and path on the
/// testbed. A backend that keeps the emptied parts list after phase 2
/// and opens the next ledger on it allocates no list per payment.
#[derive(Debug)]
pub struct PaymentLedger<P> {
    demand: Amount,
    class: PaymentClass,
    parts: Vec<(P, Amount)>,
    fees: Amount,
    closed: bool,
}

impl<P> PaymentLedger<P> {
    /// Opens the ledger of `payment` on the list `parts` (cleared first:
    /// a spare one an earlier payment's phase 2 handed back, or
    /// `Vec::new()`) and records the attempt in `metrics`.
    pub fn open(
        metrics: &mut Metrics,
        payment: &Payment,
        class: PaymentClass,
        mut parts: Vec<(P, Amount)>,
    ) -> Self {
        metrics.record_attempt(class, payment.amount);
        parts.clear();
        PaymentLedger {
            demand: payment.amount,
            class,
            parts,
            fees: Amount::ZERO,
            closed: false,
        }
    }

    /// Books a part whose phase 1 succeeded: `amount` is escrowed along
    /// it and `fee` is what its hops charge for that amount.
    pub fn reserve(&mut self, part: P, amount: Amount, fee: Amount) {
        self.parts.push((part, amount));
        self.fees = self.fees.saturating_add(fee);
    }

    /// Total amount reserved so far across all parts.
    pub fn reserved(&self) -> Amount {
        self.parts.iter().map(|(_, amount)| *amount).sum()
    }

    /// Remaining demand (`demand − reserved`, clamped at zero).
    pub fn remaining(&self) -> Amount {
        self.demand.saturating_sub(self.reserved())
    }

    /// Parts reserved so far — the paths a commit would report used.
    pub fn paths_used(&self) -> u32 {
        self.parts.len() as u32
    }

    /// Whether [`PaymentLedger::commit`] or [`PaymentLedger::close`] has
    /// run: a session dropped while its ledger is open aborts.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Closes a satisfied payment: records its success in `metrics` and
    /// returns the outcome with the parts for the session to settle.
    ///
    /// # Panics
    /// Panics if the reserved total does not cover the demand, leaving
    /// the ledger open so the session's drop aborts.
    pub fn commit(&mut self, metrics: &mut Metrics) -> (RouteOutcome, Vec<(P, Amount)>) {
        assert!(
            self.remaining().is_zero(),
            "commit called with unsatisfied demand (reserved {} of {})",
            self.reserved(),
            self.demand
        );
        let paths_used = self.paths_used();
        metrics.record_success(self.class, self.demand, self.fees, u64::from(paths_used));
        let outcome = RouteOutcome::Success {
            volume: self.demand,
            fees: self.fees,
            paths_used,
        };
        (outcome, self.close())
    }

    /// Closes the payment without success and returns its parts for the
    /// session to restore.
    pub fn close(&mut self) -> Vec<(P, Amount)> {
        self.closed = true;
        std::mem::take(&mut self.parts)
    }
}
