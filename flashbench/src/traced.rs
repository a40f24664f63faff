//! `Traced<N>`: a backend wrapper that delegates every
//! [`PaymentNetwork`] / [`PaymentSession`] call to the wrapped backend
//! and records one child span per call. It must be transparent — the
//! unit tests compare a routed trace on `Traced<Network>` with the bare
//! [`Network`](pcn_sim::Network) payment by payment.
//!
//! [`RouteHook`] is how the router wrapper ([`crate::run::Observed`])
//! opens the per-payment `core.route.*` span without knowing whether
//! the backend is traced: bare backends implement it as a no-op.

use crate::spans::{SpanId, Tracer};
use pcn_graph::{DiGraph, Path};
use pcn_proto::Cluster;
use pcn_sim::{
    DesNetwork, Network, PartFailure, PaymentNetwork, PaymentSession, ProbeReport, RouteOutcome,
};
use pcn_types::{Amount, Payment, PaymentClass};

/// Span names of the backend calls. The report prefixes them with the
/// layer that served them (`sim.backend.*` or `proto.cluster.*`).
pub mod names {
    /// `PaymentNetwork::probe_path(s)` and `PaymentSession::probe_path`.
    pub const PROBE: &str = "backend.probe";
    /// A successful `try_send_part(s)`.
    pub const SEND_PART: &str = "backend.send_part";
    /// A `try_send_part(s)` that returned a `PartFailure`.
    pub const SEND_PART_FAILED: &str = "backend.send_part_failed";
    /// `PaymentSession::commit`.
    pub const COMMIT: &str = "backend.commit";
    /// `PaymentSession::abort`.
    pub const ABORT: &str = "backend.abort";
    /// One `Router::route` call on a mice payment.
    pub const ROUTE_MICE: &str = "core.route.mice";
    /// One `Router::route` call on an elephant payment.
    pub const ROUTE_ELEPHANT: &str = "core.route.elephant";
}

/// Lets the router wrapper bracket a `Router::route` call with a span
/// when, and only when, the backend records spans.
pub trait RouteHook {
    /// Called just before `Router::route`.
    fn route_begin(&mut self, _payment: &Payment, _class: PaymentClass) -> SpanId {
        0
    }
    /// Called just after `Router::route` with what `route_begin` gave.
    fn route_end(&mut self, _span: SpanId) {}
}

impl RouteHook for Network {}
impl RouteHook for DesNetwork {}
impl RouteHook for Cluster {}

/// A backend plus the tracer its calls are recorded in.
pub struct Traced<N> {
    /// The wrapped backend.
    pub inner: N,
    /// The spans recorded so far.
    pub tracer: Tracer,
}

impl<N> Traced<N> {
    /// Wraps `inner` with an empty tracer.
    pub fn new(inner: N) -> Self {
        Traced {
            inner,
            tracer: Tracer::new(),
        }
    }
}

impl<N> RouteHook for Traced<N> {
    fn route_begin(&mut self, payment: &Payment, class: PaymentClass) -> SpanId {
        self.tracer.set_tx(payment.id.0);
        let name = match class {
            PaymentClass::Mice => names::ROUTE_MICE,
            PaymentClass::Elephant => names::ROUTE_ELEPHANT,
        };
        self.tracer.open(name, 1)
    }

    fn route_end(&mut self, span: SpanId) {
        self.tracer.close(span);
    }
}

impl<N: PaymentNetwork> PaymentNetwork for Traced<N> {
    type Session<'a>
        = TracedSession<'a, N>
    where
        Self: 'a;

    fn graph(&self) -> &DiGraph {
        self.inner.graph()
    }

    fn probe_path(&mut self, path: &Path) -> Option<ProbeReport> {
        let span = self.tracer.open(names::PROBE, 1);
        let report = self.inner.probe_path(path);
        self.tracer.close(span);
        report
    }

    // Delegated, not defaulted: the testbed probes a batch concurrently.
    fn probe_paths(&mut self, paths: &[Path]) -> Vec<Option<ProbeReport>> {
        let span = self.tracer.open(names::PROBE, paths.len() as u32);
        let reports = self.inner.probe_paths(paths);
        self.tracer.close(span);
        reports
    }

    fn begin_payment(&mut self, payment: &Payment, class: PaymentClass) -> TracedSession<'_, N> {
        TracedSession {
            inner: self.inner.begin_payment(payment, class),
            tracer: &mut self.tracer,
        }
    }

    // `send_single_path` and `record_rejected_attempt` keep their
    // default bodies: every backend in the repository uses those same
    // bodies, and through `begin_payment` above they record child spans.

    fn note_reprobe(&mut self) {
        self.inner.note_reprobe();
    }
}

/// The session of a [`Traced`] backend.
pub struct TracedSession<'a, N: PaymentNetwork + 'a> {
    inner: N::Session<'a>,
    tracer: &'a mut Tracer,
}

impl<'a, N: PaymentNetwork + 'a> TracedSession<'a, N> {
    /// Records one phase-1 call of `n` parts, named by its result.
    fn send(
        &mut self,
        n: u32,
        call: impl FnOnce(&mut N::Session<'a>) -> Result<(), PartFailure>,
    ) -> Result<(), PartFailure> {
        let span = self.tracer.open(names::SEND_PART, n);
        let result = call(&mut self.inner);
        self.tracer.close(span);
        if result.is_err() {
            self.tracer.rename(span, names::SEND_PART_FAILED);
        }
        result
    }
}

impl<'a, N: PaymentNetwork + 'a> PaymentSession for TracedSession<'a, N> {
    fn try_send_part(&mut self, path: &Path, amount: Amount) -> Result<(), PartFailure> {
        self.send(1, |s| s.try_send_part(path, amount))
    }

    // Delegated, not defaulted: the testbed commits a batch concurrently.
    fn try_send_parts(&mut self, parts: &[(Path, Amount)]) -> Result<(), PartFailure> {
        self.send(parts.len() as u32, |s| s.try_send_parts(parts))
    }

    fn probe_path(&mut self, path: &Path) -> Option<ProbeReport> {
        let span = self.tracer.open(names::PROBE, 1);
        let report = self.inner.probe_path(path);
        self.tracer.close(span);
        report
    }

    fn reserved(&self) -> Amount {
        self.inner.reserved()
    }

    fn remaining(&self) -> Amount {
        self.inner.remaining()
    }

    fn is_satisfied(&self) -> bool {
        self.inner.is_satisfied()
    }

    fn commit(self) -> RouteOutcome {
        let span = self.tracer.open(names::COMMIT, 1);
        let outcome = self.inner.commit();
        self.tracer.close(span);
        outcome
    }

    fn abort(self) {
        let span = self.tracer.open(names::ABORT, 1);
        self.inner.abort();
        self.tracer.close(span);
    }
}
