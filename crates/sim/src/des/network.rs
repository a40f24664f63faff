//! The time-aware [`PaymentNetwork`] backend.
//!
//! [`DesNetwork`] wraps the instantaneous [`Network`] and re-plays every
//! backend operation over virtual time: probes take a round trip, each
//! phase-1 `COMMIT` hop takes one link delay, and — crucially — the
//! phase-2 settlement (`CONFIRM` reverse-direction credits on commit,
//! `REVERSE` escrow releases on abort) is **scheduled into the event
//! queue** instead of applied immediately. Funds reserved by
//! [`PaymentSession::try_send_part`] therefore stay escrowed across
//! virtual time until the delayed settlement wave fires, so payments
//! admitted close together genuinely contend for channel balance and
//! probe reports genuinely go stale — the paper's §5.1 failure mode
//! ("the balance of some channel has changed after it was last probed")
//! emerges from delay instead of from
//! [`FaultConfig`](crate::FaultConfig) injection.
//!
//! ## Timing model
//!
//! Hop `i` of a wave crosses channel `i` after that channel's
//! [`LatencyModel::delay`] (*propagation*), and is then **serviced** by
//! the receiving node: it waits behind that node's FIFO backlog and
//! occupies its single server for the [`ServiceModel`]'s deterministic
//! service time before its handler runs and the next hop is scheduled
//! (see [`node`](super::node) for the M/D/1 model). Waves retrace the
//! path for ACKs/NACKs, paying propagation *and* service at every
//! delivery on the way back. For a `k`-hop path:
//!
//! * a probe costs a full round trip (`2k` link delays plus `2k` node
//!   services, the last at the sender itself) and snapshots balances
//!   when the farthest node finishes servicing the probe;
//! * a successful part reservation costs `2k` delays + services
//!   (COMMIT forward, ACK back) and escrows each hop as its node
//!   finishes servicing the COMMIT;
//! * a failed reservation NACKs back from the failing hop, releasing
//!   each escrowed hop as the NACK is serviced on the retrace;
//! * `commit`/`abort` launch one settlement wave per part from the
//!   sender's current clock; each hop settles when its node finishes
//!   servicing the wave.
//!
//! With the default [`ServiceModel::instant`] every service completes
//! at its arrival instant, no queue forms, and propagation is the only
//! delay.
//!
//! ## Sender-serialized admission
//!
//! Routers are ordinary synchronous code, so the engine runs each
//! payment's decision logic to completion at its arrival time (in
//! arrival order). Balance state is shared and settles monotonically in
//! drain order: reservations made by an earlier-admitted payment are
//! visible immediately, and a scheduled release becomes visible once
//! the *farthest-advanced* sender clock has drained past its fire time
//! — not necessarily the observing payment's own clock. The resulting
//! contention model is approximate in both directions: a payment can be
//! blocked by an in-flight payment's escrow (and its probes can be
//! stale with respect to waves that have not yet drained), but it can
//! also observe a release that a previously admitted payment's
//! farther-ahead clock already applied. What holds exactly: event
//! application order is the queue's `(time, insertion)` order, runs are
//! bit-reproducible, funds are conserved at every event boundary, and
//! with a zero-latency model every wave fires at its issue instant,
//! making the backend behaviorally identical to [`Network`] (the parity
//! tests assert this).

use super::churn::{ChurnAction, ChurnSchedule};
use super::latency::LatencyModel;
use super::node::{ServiceModel, ServiceQueues};
use super::queue::EventQueue;
use super::time::SimTime;
use crate::backend::{FailureCause, PartFailure, PaymentLedger, PaymentNetwork, PaymentSession};
use crate::{Metrics, Network, ProbeReport, RouteOutcome};
use pcn_graph::{DiGraph, EdgeId, Path};
use pcn_types::{Amount, NodeId, Payment, PaymentClass};

/// Configuration of the discrete-event backend.
#[derive(Clone, Debug)]
pub struct DesConfig {
    /// Per-hop message *propagation* latency model.
    pub latency: LatencyModel,
    /// Per-node message *service* model: how long a node's single
    /// server takes per delivered message, with FIFO queueing behind
    /// the backlog. The default ([`ServiceModel::instant`]) disables
    /// queueing.
    pub service: ServiceModel,
    /// Deterministic topology dynamics applied mid-run (see
    /// [`churn`](super::churn)). Events are admitted into the engine's
    /// `(time, seq)` event order at construction, in declared order;
    /// the default empty schedule admits nothing and keeps the run
    /// bit-identical to a churn-free engine.
    pub churn: ChurnSchedule,
    /// Assert funds conservation (balances + escrow + settled-out funds
    /// = initial total) and service-backlog conservation after
    /// **every** applied event. O(edges + nodes) per event — enable in
    /// tests, leave off in benchmarks.
    pub check_conservation: bool,
}

impl Default for DesConfig {
    fn default() -> Self {
        DesConfig {
            latency: LatencyModel::constant_ms(10),
            service: ServiceModel::instant(),
            churn: ChurnSchedule::none(),
            check_conservation: false,
        }
    }
}

/// One delayed settlement effect.
enum Settle {
    /// Abort/NACK: return the escrowed amount to the forward direction.
    Restore { edge: EdgeId, amount: Amount },
    /// Commit: credit the reverse direction of a debited hop (funds
    /// leave the channel system when the hop has no reverse direction,
    /// exactly as in [`Network`]'s instantaneous commit).
    Credit { edge: EdgeId, amount: Amount },
    /// A payment's final settlement landed: it is no longer in flight.
    Done,
    /// A scheduled topology mutation (see [`churn`](super::churn)).
    /// Unlike settlement events, churn never extends the run's horizon:
    /// a reopen scheduled past the last settlement must not stretch the
    /// makespan.
    Churn(ChurnAction),
}

/// The discrete-event [`PaymentNetwork`] backend. See the module docs
/// for the timing model; see [`DesEngine`](super::engine::DesEngine) for
/// the executor that feeds it timed arrivals.
pub struct DesNetwork {
    inner: Network,
    latency: LatencyModel,
    /// Per-node FIFO service queues (see [`node`](super::node)).
    service: ServiceQueues,
    queue: EventQueue<Settle>,
    /// The current sender-local virtual clock.
    now: SimTime,
    /// Monotone message counter feeding the latency model.
    msg_tick: u64,
    /// Micros currently escrowed (debited but not yet settled).
    escrow: u128,
    /// Micros settled out of the channel system (commits over
    /// unidirectional hops).
    exited: u128,
    /// `inner.total_funds()` at construction, in micros.
    initial_total: u128,
    check_conservation: bool,
    in_flight: u64,
    peak_in_flight: u64,
    /// Latest fire time ever scheduled or applied — the run's makespan.
    /// Churn events are excluded: topology mutations do not extend a
    /// run, only the settlement traffic does.
    horizon: SimTime,
    /// Edge-indexed closed flags (both directions of a closed channel
    /// are flagged). Balances of a closed channel stay frozen in the
    /// balance vector, so conservation holds trivially.
    closed: Vec<bool>,
    /// Node-indexed crashed flags: a down node NACKs everything it
    /// would service.
    down: Vec<bool>,
    /// Close events applied to channels that were open.
    closed_channels: u64,
    /// Probes bounced by a closed channel or a down node mid-walk.
    stale_probe_failures: u64,
    /// Times a router reported consuming stale evidence and refreshing
    /// its topology knowledge ([`PaymentNetwork::note_reprobe`]).
    reprobes_triggered: u64,
}

impl DesNetwork {
    /// Wraps a network in the discrete-event backend, starting the
    /// virtual clock at [`SimTime::ZERO`].
    ///
    /// The churn schedule (if any) is admitted into the event queue
    /// here, in declared order, so its events share the engine's
    /// `(time, seq)` total order with every settlement wave. Installing
    /// the empty schedule schedules nothing, draws no randomness, and
    /// advances no message tick. Fault injection (probe loss / noise)
    /// is whatever `inner` already carries
    /// ([`Network::set_faults`]); under this backend stale probes also
    /// arise naturally from delay.
    pub fn new(inner: Network, config: DesConfig) -> Self {
        let initial_total = inner.total_funds().micros() as u128;
        let service = ServiceQueues::new(config.service, inner.graph().node_count());
        let mut queue = EventQueue::new();
        for ev in config.churn.events() {
            // Deliberately not via `schedule()`: churn must not touch
            // the horizon (it would stretch the makespan of runs whose
            // schedule outlives their traffic).
            queue.schedule(ev.at, Settle::Churn(ev.action));
        }
        let closed = vec![false; inner.graph().edge_count()];
        let down = vec![false; inner.graph().node_count()];
        DesNetwork {
            inner,
            latency: config.latency,
            service,
            queue,
            now: SimTime::ZERO,
            msg_tick: 0,
            escrow: 0,
            exited: 0,
            initial_total,
            check_conservation: config.check_conservation,
            in_flight: 0,
            peak_in_flight: 0,
            horizon: SimTime::ZERO,
            closed,
            down,
            closed_channels: 0,
            stale_probe_failures: 0,
            reprobes_triggered: 0,
        }
    }

    /// The current virtual time (the active sender's local clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Metrics collected so far (delegates to the wrapped [`Network`]).
    pub fn metrics(&self) -> &Metrics {
        self.inner.metrics()
    }

    /// Moves the accumulated metrics out, leaving fresh (zeroed)
    /// counters behind. [`DesEngine::run`](super::engine::DesEngine)
    /// uses this to hand the report its metrics without cloning the
    /// latency histograms at the end of every run.
    pub fn take_metrics(&mut self) -> Metrics {
        std::mem::take(self.inner.metrics_mut())
    }

    /// Payments currently in flight (admitted, not yet fully settled).
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// The maximum number of concurrently in-flight payments observed.
    pub fn peak_in_flight(&self) -> u64 {
        self.peak_in_flight
    }

    /// Settlement and churn events applied so far.
    pub fn events_delivered(&self) -> u64 {
        self.queue.delivered()
    }

    /// Close events applied to channels that were open at the time.
    pub fn closed_channels(&self) -> u64 {
        self.closed_channels
    }

    /// Probes bounced mid-walk by a closed channel or a down node —
    /// the router's cached path was stale.
    pub fn stale_probe_failures(&self) -> u64 {
        self.stale_probe_failures
    }

    /// Times a router crossed its staleness threshold and refreshed
    /// its topology knowledge ([`PaymentNetwork::note_reprobe`]).
    pub fn reprobes_triggered(&self) -> u64 {
        self.reprobes_triggered
    }

    /// Whether `edge` belongs to a currently closed channel.
    fn edge_closed(&self, edge: EdgeId) -> bool {
        self.closed.get(edge.0 as usize).copied().unwrap_or(false)
    }

    /// Whether `node` is currently crashed.
    fn node_down(&self, node: NodeId) -> bool {
        self.down.get(node.0 as usize).copied().unwrap_or(false)
    }

    /// Flags or unflags both directions of `edge`'s channel.
    fn set_channel_closed(&mut self, edge: EdgeId, val: bool) {
        if let Some(flag) = self.closed.get_mut(edge.0 as usize) {
            *flag = val;
        }
        if let Some(rev) = self.inner.graph().reverse_edge(edge) {
            if let Some(flag) = self.closed.get_mut(rev.0 as usize) {
                *flag = val;
            }
        }
    }

    /// Applies one topology mutation. Freeze semantics: a closed
    /// channel's balances stay in the balance vector (conservation
    /// holds trivially) and resurface on reopen; in-flight settlement
    /// waves land harmlessly on frozen balances. Draining moves funds
    /// to the reverse direction, or out of the channel system when the
    /// direction is unidirectional.
    fn apply_churn(&mut self, action: ChurnAction) {
        match action {
            ChurnAction::ChannelClose(edge) => {
                if !self.edge_closed(edge) {
                    self.closed_channels += 1;
                    self.set_channel_closed(edge, true);
                }
            }
            ChurnAction::ChannelReopen(edge) => self.set_channel_closed(edge, false),
            ChurnAction::NodeDown(node) => {
                if let Some(flag) = self.down.get_mut(node.0 as usize) {
                    *flag = true;
                }
            }
            ChurnAction::NodeUp(node) => {
                if let Some(flag) = self.down.get_mut(node.0 as usize) {
                    *flag = false;
                }
            }
            ChurnAction::BalanceDrain { edge, amount } => {
                let bal = self.inner.balance(edge);
                let moved = bal.min(amount);
                if !moved.is_zero() {
                    self.inner.set_balance(edge, bal.saturating_sub(moved));
                    match self.inner.graph().reverse_edge(edge) {
                        Some(rev) => {
                            let rbal = self.inner.balance(rev).saturating_add(moved);
                            self.inner.set_balance(rev, rbal);
                        }
                        None => self.exited += moved.micros() as u128,
                    }
                }
            }
        }
    }

    /// The latest virtual time any event was scheduled or applied — the
    /// run's makespan once the queue is drained.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Micros currently escrowed across all in-flight parts.
    pub fn escrow_micros(&self) -> u128 {
        self.escrow
    }

    /// Channel balances + escrow + settled-out funds, in micros. Equal
    /// to the initial total at every event boundary (the conservation
    /// invariant; asserted per event under
    /// [`DesConfig::check_conservation`]).
    pub fn conserved_total_micros(&self) -> u128 {
        self.inner.total_funds().micros() as u128 + self.escrow + self.exited
    }

    /// The initial total funds, in micros.
    pub fn initial_total_micros(&self) -> u128 {
        self.initial_total
    }

    /// Advances the active sender clock to `t`, applying every
    /// settlement event scheduled at or before it. The engine calls this
    /// at each arrival; `t` may be earlier than a previous sender's
    /// clock (clocks are per-sender), which applies nothing.
    pub fn advance_to(&mut self, t: SimTime) {
        self.drain_until(t);
        // No message computed from here on can arrive before `t`: raise
        // the release watermark, and each node drops its finished
        // reservations below it at its next delivery.
        self.service.release_before(t);
        self.now = t;
    }

    /// Applies every pending settlement event and advances the clock to
    /// the run's horizon. Call at the end of a run before reading final
    /// balances.
    pub fn drain_all(&mut self) {
        self.drain_until(SimTime::MAX);
        self.now = self.now.max(self.horizon);
    }

    /// Drains the wrapped network back out. Pending settlements are
    /// applied first so no escrow is lost.
    pub fn into_inner(mut self) -> Network {
        self.drain_all();
        self.inner
    }

    fn drain_until(&mut self, horizon: SimTime) {
        while let Some((fire, settle)) = self.queue.pop_before(horizon) {
            self.apply(fire, settle);
        }
    }

    fn apply(&mut self, fire: SimTime, settle: Settle) {
        if !matches!(settle, Settle::Churn(_)) {
            self.horizon = self.horizon.max(fire);
        }
        match settle {
            Settle::Churn(action) => self.apply_churn(action),
            Settle::Restore { edge, amount } => {
                self.escrow -= amount.micros() as u128;
                let bal = self.inner.balance(edge).saturating_add(amount);
                self.inner.set_balance(edge, bal);
            }
            Settle::Credit { edge, amount } => {
                self.escrow -= amount.micros() as u128;
                match self.inner.graph().reverse_edge(edge) {
                    Some(rev) => {
                        let bal = self.inner.balance(rev).saturating_add(amount);
                        self.inner.set_balance(rev, bal);
                    }
                    None => self.exited += amount.micros() as u128,
                }
            }
            Settle::Done => {
                self.in_flight -= 1;
            }
        }
        if self.check_conservation {
            assert_eq!(
                self.conserved_total_micros(),
                self.initial_total,
                "funds not conserved after event at {fire}"
            );
            self.service.assert_backlog_conserved();
        }
    }

    fn schedule(&mut self, fire: SimTime, settle: Settle) {
        self.horizon = self.horizon.max(fire);
        self.queue.schedule(fire, settle);
    }

    /// Moves one message sent at `sent` across a hop to `to`: one link
    /// delay of propagation, then FIFO queueing and service at `to`.
    /// Returns the instant `to` finishes processing it and records the
    /// queueing delay in the metrics histogram (zero-service nodes are
    /// infinitely fast and record nothing — see [`node`](super::node)).
    fn hop(&mut self, to: NodeId, sent: SimTime) -> SimTime {
        let arrival = sent + self.latency.delay(self.msg_tick);
        self.msg_tick += 1;
        if self.service.model().service_time() == SimTime::ZERO {
            return arrival;
        }
        let pass = self.service.admit(to, arrival);
        self.inner
            .metrics_mut()
            .observe_queue_delay(pass.queued.micros());
        pass.complete
    }

    /// Walks a reply sent at `sent` back down `nodes`, one hop to each,
    /// last node first. Returns the instant `nodes[0]` finishes
    /// processing it.
    fn retrace(&mut self, nodes: &[NodeId], sent: SimTime) -> SimTime {
        nodes.iter().rev().fold(sent, |t, &up| self.hop(up, t))
    }

    /// The per-node service-queue state and statistics.
    pub fn service_queues(&self) -> &ServiceQueues {
        &self.service
    }
}

impl PaymentNetwork for DesNetwork {
    type Session<'a> = DesSession<'a>;

    fn graph(&self) -> &DiGraph {
        self.inner.graph()
    }

    /// Probes over virtual time: the request takes one link delay plus
    /// one node service per hop out, the `PROBE_ACK` the same per hop
    /// back (the final service is the sender absorbing the ACK).
    /// Balances are snapshotted when the farthest node finishes
    /// servicing the probe — any settlement wave landing after that
    /// instant is invisible, which is exactly how probe reports go
    /// stale under load.
    fn probe_path(&mut self, path: &Path) -> Option<ProbeReport> {
        let nodes = path.nodes();
        let mut t = self.now;
        // Out: hop i crosses channel i, then nodes[i + 1] services it.
        // Settlement *and churn* events up to each node's finish
        // instant are drained before the walk continues, so a channel
        // that closed (or a node that crashed) mid-walk bounces the
        // probe, and the balances read at the end are those of the
        // instant the farthest node finished servicing it.
        for (i, (u, v)) in path.channels().enumerate() {
            t = self.hop(v, t);
            self.drain_until(t);
            if self.node_down(v)
                || matches!(self.inner.graph().edge(u, v), Some(e) if self.edge_closed(e))
            {
                // The probe dies at hop i: a NACK retraces the traversed
                // prefix, serviced by each upstream node down to the
                // sender. The i + 1 outbound messages are still metered.
                self.now = self.retrace(&nodes[..=i], t);
                self.inner.metrics_mut().probe_messages += (i + 1) as u64;
                self.stale_probe_failures += 1;
                return None;
            }
        }
        // Back: the ACK retraces, serviced by each upstream node down
        // to (and including) the sender.
        self.now = self.retrace(&nodes[..nodes.len() - 1], t);
        self.inner.probe_path(path)
    }

    fn note_reprobe(&mut self) {
        self.reprobes_triggered += 1;
    }

    fn begin_payment(&mut self, payment: &Payment, class: PaymentClass) -> DesSession<'_> {
        let ledger = PaymentLedger::open(self.inner.metrics_mut(), payment, class);
        self.in_flight += 1;
        self.peak_in_flight = self.peak_in_flight.max(self.in_flight);
        let admitted = self.now;
        DesSession {
            net: self,
            admitted,
            ledger,
        }
    }
}

/// An in-flight atomic multi-path payment on the [`DesNetwork`] backend:
/// the same two-phase bookkeeping as
/// [`NetworkSession`](crate::NetworkSession) (one [`PaymentLedger`] of
/// debited edge lists), with phase-1 hops walked over virtual time and
/// phase-2 settlement deferred into the event queue (see the module
/// docs).
pub struct DesSession<'a> {
    net: &'a mut DesNetwork,
    admitted: SimTime,
    ledger: PaymentLedger<Vec<EdgeId>>,
}

impl DesSession<'_> {
    /// Phase 2 of §5.1 over virtual time: one wave per part leaves the
    /// sender now — `CONFIRM` crediting each hop's reverse direction
    /// (`commit`) or `REVERSE` restoring its escrow — and each hop
    /// settles when its downstream node finishes servicing the wave.
    /// The payment stops being in flight when the last wave lands, and
    /// a committed one records its completion latency (admission → last
    /// settlement). The parts' edge lists return to the pool.
    fn settle(&mut self, parts: Vec<(Vec<EdgeId>, Amount)>, commit: bool) {
        let net = &mut *self.net;
        let mut settle_end = net.now;
        for (edges, amount) in parts {
            let mut t = net.now;
            for &edge in &edges {
                let (_, to) = net.inner.graph().endpoints(edge);
                t = net.hop(to, t);
                let settle = if commit {
                    Settle::Credit { edge, amount }
                } else {
                    Settle::Restore { edge, amount }
                };
                net.schedule(t, settle);
            }
            settle_end = settle_end.max(t);
            net.inner.recycle(edges);
        }
        if commit {
            net.inner
                .metrics_mut()
                .observe_latency(settle_end.saturating_sub(self.admitted).micros());
        }
        net.schedule(settle_end, Settle::Done);
    }
}

impl PaymentSession for DesSession<'_> {
    /// Reserves `amount` along `path` over virtual time. Each hop is
    /// escrowed when its node finishes servicing the phase-1 `COMMIT`
    /// (propagation across the channel, then FIFO queueing and service
    /// at the receiving node); on failure the NACK retraces the debited
    /// hops, scheduling their escrow release as each upstream node
    /// services it, and the sender's clock lands when it has serviced
    /// the returning NACK. On success the sender's clock lands when it
    /// has serviced the last hop's ACK.
    fn try_send_part(&mut self, path: &Path, amount: Amount) -> Result<(), PartFailure> {
        if amount.is_zero() {
            return Ok(());
        }
        let mut t = self.net.now;
        let mut debited = self.net.inner.edge_list();
        for (hop, (u, v)) in path.channels().enumerate() {
            let edge = self.net.inner.graph().edge(u, v);
            t = self.net.hop(v, t);
            self.net.drain_until(t);
            self.net.inner.metrics_mut().commit_messages += 1;
            // Churn first: a crashed node NACKs everything it would
            // service, and a closed channel refuses the COMMIT — both
            // before any balance is consulted. Zero churn leaves both
            // flags false everywhere, so the flow is unchanged.
            let (available, cause) = if self.net.node_down(v) {
                (Amount::ZERO, FailureCause::NodeDown)
            } else {
                match edge {
                    Some(e) if self.net.edge_closed(e) => {
                        (Amount::ZERO, FailureCause::ChannelClosed)
                    }
                    Some(e) => {
                        let bal = self.net.inner.balance(e);
                        if bal >= amount {
                            self.net.inner.set_balance(e, bal.saturating_sub(amount));
                            self.net.escrow += amount.micros() as u128;
                            debited.push(e);
                            continue;
                        }
                        (bal, FailureCause::InsufficientBalance)
                    }
                    None => (Amount::ZERO, FailureCause::MissingChannel),
                }
            };
            // NACK back to the sender, releasing escrow as each
            // upstream node services the retracing message — the
            // REVERSE wave that also fails in-flight escrow when a
            // channel closes under a COMMIT. Debited edge `i` leaves
            // path node `i`.
            let ups = &path.nodes()[..debited.len()];
            for (&d, &up) in debited.iter().zip(ups).rev() {
                t = self.net.hop(up, t);
                self.net.schedule(t, Settle::Restore { edge: d, amount });
            }
            self.net.now = t;
            self.net.inner.recycle(debited);
            return Err(PartFailure {
                failed_hop: hop,
                available,
                cause,
            });
        }
        // ACK retraces the path to the sender; escrow is held.
        let nodes = path.nodes();
        self.net.now = self.net.retrace(&nodes[..nodes.len() - 1], t);
        let fee = debited.iter().fold(Amount::ZERO, |fee, &e| {
            fee.saturating_add(self.net.inner.fee_policy(e).fee(amount))
        });
        self.ledger.reserve(debited, amount, fee);
        Ok(())
    }

    fn probe_path(&mut self, path: &Path) -> Option<ProbeReport> {
        self.net.probe_path(path)
    }

    fn reserved(&self) -> Amount {
        self.ledger.reserved()
    }

    fn remaining(&self) -> Amount {
        self.ledger.remaining()
    }

    /// Commits every reserved part: one `CONFIRM` wave per part leaves
    /// the sender now; each hop's reverse-direction credit is scheduled
    /// for the instant the wave reaches it. The payment's completion
    /// latency (admission → last settlement) is recorded in the metrics
    /// histogram.
    fn commit(mut self) -> RouteOutcome {
        let (outcome, parts) = self.ledger.commit(self.net.inner.metrics_mut());
        self.settle(parts, true);
        outcome
    }

    fn abort(self) {}
}

impl Drop for DesSession<'_> {
    fn drop(&mut self) {
        if !self.ledger.is_closed() {
            let parts = self.ledger.close();
            self.settle(parts, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_types::{NodeId, TxId};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// A 4-node line with bidirectional channels of 10 units each way.
    fn line_net() -> Network {
        let mut g = DiGraph::new(4);
        g.add_channel(n(0), n(1)).unwrap();
        g.add_channel(n(1), n(2)).unwrap();
        g.add_channel(n(2), n(3)).unwrap();
        Network::uniform(g, Amount::from_units(10))
    }

    /// The line at 10 ms per hop, conservation checked at every event.
    fn des_with(service: ServiceModel, churn: ChurnSchedule) -> DesNetwork {
        DesNetwork::new(
            line_net(),
            DesConfig {
                latency: LatencyModel::constant_ms(10),
                service,
                churn,
                check_conservation: true,
            },
        )
    }

    fn des() -> DesNetwork {
        des_with(ServiceModel::instant(), ChurnSchedule::none())
    }

    fn payment(amount: u64) -> Payment {
        Payment::new(TxId(1), n(0), n(3), Amount::from_units(amount))
    }

    fn path_0123() -> Path {
        Path::new(vec![n(0), n(1), n(2), n(3)], None).unwrap()
    }

    #[test]
    fn probe_costs_a_round_trip_of_virtual_time() {
        let mut net = des();
        let report = net.probe_path(&path_0123()).unwrap();
        assert_eq!(report.bottleneck(), Amount::from_units(10));
        // 3 hops out + 3 hops back at 10ms each.
        assert_eq!(net.now(), SimTime::from_millis(60));
        assert_eq!(net.metrics().probe_messages, 3);
    }

    #[test]
    fn reservation_holds_escrow_until_commit_wave_lands() {
        let mut net = des();
        let p = payment(4);
        let mut s = net.begin_payment(&p, PaymentClass::Mice);
        s.try_send_part(&path_0123(), Amount::from_units(4))
            .unwrap();
        let out = s.commit();
        assert!(out.is_success());
        // Escrow is still held: the CONFIRM wave has not fired yet.
        assert_eq!(
            net.escrow_micros(),
            3 * Amount::from_units(4).micros() as u128
        );
        assert_eq!(net.in_flight(), 1);
        // The wave lands hop by hop; drain everything.
        net.drain_all();
        assert_eq!(net.escrow_micros(), 0);
        assert_eq!(net.in_flight(), 0);
        let rev = net.graph().edge(n(1), n(0)).unwrap();
        let inner = net.into_inner();
        assert_eq!(inner.balance(rev), Amount::from_units(14));
        assert_eq!(inner.total_funds(), Amount::from_units(60));
    }

    #[test]
    fn failed_part_nacks_back_and_restores_later() {
        // Drain the middle channel so hop 1 NACKs.
        let mut inner = line_net();
        let mid = inner.graph().edge(n(1), n(2)).unwrap();
        inner.set_balance(mid, Amount::from_units(2));
        let mut net = DesNetwork::new(
            inner,
            DesConfig {
                latency: LatencyModel::constant_ms(10),
                check_conservation: true,
                ..DesConfig::default()
            },
        );
        let p = payment(5);
        let mut s = net.begin_payment(&p, PaymentClass::Mice);
        let err = s
            .try_send_part(&path_0123(), Amount::from_units(5))
            .unwrap_err();
        assert_eq!(err.failed_hop, 1);
        assert_eq!(err.available, Amount::from_units(2));
        assert_eq!(err.cause, FailureCause::InsufficientBalance);
        s.abort();
        // 2 hops forward + 1 hop NACK back = 30ms on the sender clock.
        assert_eq!(net.now(), SimTime::from_millis(30));
        // Hop 0's escrow was scheduled for release but has not fired.
        assert_eq!(net.escrow_micros(), Amount::from_units(5).micros() as u128);
        net.drain_all();
        assert_eq!(net.escrow_micros(), 0);
        let first = net.graph().edge(n(0), n(1)).unwrap();
        let inner = net.into_inner();
        assert_eq!(inner.balance(first), Amount::from_units(10));
    }

    #[test]
    fn concurrent_payment_contends_with_held_escrow() {
        // Payment A reserves the full line; payment B admitted before
        // A's settlement wave lands must fail, even though B's probe at
        // admission time saw the pre-A balances go stale.
        let mut net = des();
        let pa = Payment::new(TxId(1), n(0), n(3), Amount::from_units(8));
        let mut sa = net.begin_payment(&pa, PaymentClass::Mice);
        sa.try_send_part(&path_0123(), Amount::from_units(8))
            .unwrap();
        assert!(sa.commit().is_success());
        // B arrives 1ms later — long before A's 30ms settlement wave.
        net.advance_to(SimTime::from_millis(1));
        let pb = Payment::new(TxId(2), n(0), n(3), Amount::from_units(5));
        let mut sb = net.begin_payment(&pb, PaymentClass::Mice);
        let err = sb.try_send_part(&path_0123(), Amount::from_units(5));
        assert!(err.is_err(), "B must contend with A's escrow");
        sb.abort();
        assert_eq!(net.peak_in_flight(), 2);
        net.drain_all();
        assert_eq!(net.conserved_total_micros(), net.initial_total_micros());
    }

    #[test]
    fn later_payment_sees_released_escrow() {
        let mut net = des();
        let pa = Payment::new(TxId(1), n(0), n(3), Amount::from_units(8));
        let mut sa = net.begin_payment(&pa, PaymentClass::Mice);
        sa.try_send_part(&path_0123(), Amount::from_units(8))
            .unwrap();
        assert!(sa.commit().is_success());
        // B arrives after A's settlement horizon: 0→3 is drained to 2,
        // but the reverse direction has been credited.
        net.advance_to(SimTime::from_secs(10));
        let pb = Payment::new(TxId(2), n(3), n(0), Amount::from_units(15));
        let path_back = Path::new(vec![n(3), n(2), n(1), n(0)], None).unwrap();
        let mut sb = net.begin_payment(&pb, PaymentClass::Mice);
        sb.try_send_part(&path_back, Amount::from_units(15))
            .unwrap();
        assert!(sb.commit().is_success());
        net.drain_all();
        assert_eq!(net.conserved_total_micros(), net.initial_total_micros());
    }

    #[test]
    fn dropping_session_schedules_reverse_wave() {
        let mut net = des();
        {
            let p = payment(5);
            let mut s = net.begin_payment(&p, PaymentClass::Mice);
            s.try_send_part(&path_0123(), Amount::from_units(5))
                .unwrap();
            // dropped without commit
        }
        assert!(net.escrow_micros() > 0, "REVERSE wave still in flight");
        net.drain_all();
        assert_eq!(net.escrow_micros(), 0);
        assert_eq!(net.in_flight(), 0);
        let inner = net.into_inner();
        assert_eq!(inner.total_funds(), Amount::from_units(60));
    }

    #[test]
    fn service_time_slows_every_wave() {
        // 3 hops at 10ms propagation + 5ms service per delivery: a
        // probe's round trip is 6 deliveries = 60ms + 30ms.
        let mut net = des_with(ServiceModel::constant_ms(5), ChurnSchedule::none());
        net.probe_path(&path_0123()).unwrap();
        assert_eq!(net.now(), SimTime::from_millis(90));
        // Every delivery waited zero behind an idle node, but each was
        // still observed into the queue-delay histogram.
        assert_eq!(net.metrics().queue_delay.count(), 6);
        assert_eq!(net.metrics().queue_delay.max_us(), 0);
        assert_eq!(net.service_queues().peak_backlog(), 1);
    }

    #[test]
    fn settlement_wave_contends_with_a_probe_for_node_service() {
        // A's CONFIRM wave is in flight when a probe lands on the same
        // nodes: the probe must wait behind the wave's service.
        let mut net = des_with(ServiceModel::constant_ms(5), ChurnSchedule::none());
        let pa = payment(4);
        let mut sa = net.begin_payment(&pa, PaymentClass::Mice);
        sa.try_send_part(&path_0123(), Amount::from_units(4))
            .unwrap();
        assert!(sa.commit().is_success());
        // The sender's clock is past the COMMIT/ACK round trip; the
        // CONFIRM wave is being serviced hop by hop right now. A probe
        // issued immediately reaches node 1 while it is busy.
        let before = net.metrics().queue_delay.count();
        net.probe_path(&path_0123()).unwrap();
        assert!(net.metrics().queue_delay.count() > before);
        assert!(
            net.metrics().queue_delay.max_us() > 0,
            "probe must have queued behind the settlement wave"
        );
        assert!(net.service_queues().peak_backlog() >= 2);
        net.drain_all();
        assert_eq!(net.conserved_total_micros(), net.initial_total_micros());
    }

    #[test]
    fn zero_latency_matches_instantaneous_network() {
        let mut des_net = DesNetwork::new(
            line_net(),
            DesConfig {
                latency: LatencyModel::instant(),
                check_conservation: true,
                ..DesConfig::default()
            },
        );
        let mut plain = line_net();
        for (id, amount) in [(1u64, 4u64), (2, 9), (3, 11), (4, 10)] {
            let p = Payment::new(TxId(id), n(0), n(3), Amount::from_units(amount));
            let a = crate::PaymentNetwork::send_single_path(
                &mut des_net,
                &p,
                PaymentClass::Mice,
                &path_0123(),
            );
            des_net.drain_all();
            let b = plain.send_single_path(&p, PaymentClass::Mice, &path_0123());
            assert_eq!(a, b, "outcome diverged on payment {id}");
        }
        assert_eq!(des_net.now(), SimTime::ZERO);
        let m = des_net.metrics();
        let pm = plain.metrics();
        assert_eq!(m.total(), pm.total());
        assert_eq!(m.probe_messages, pm.probe_messages);
        assert_eq!(m.commit_messages, pm.commit_messages);
        let des_inner = des_net.into_inner();
        for (e, _, _) in plain.graph().edges() {
            assert_eq!(des_inner.balance(e), plain.balance(e));
        }
    }

    #[test]
    fn mid_run_close_nacks_commit_and_releases_escrow() {
        // The middle channel closes at 15ms — after hop 0's COMMIT is
        // escrowed (10ms) but before hop 1's arrives (20ms). The COMMIT
        // must NACK with ChannelClosed and hop 0's escrow must come
        // back over the REVERSE wave.
        let mid = line_net().graph().edge(n(1), n(2)).unwrap();
        let mut schedule = ChurnSchedule::none();
        schedule.push(SimTime::from_millis(15), ChurnAction::ChannelClose(mid));
        let mut net = des_with(ServiceModel::instant(), schedule);
        let p = payment(5);
        let mut s = net.begin_payment(&p, PaymentClass::Mice);
        let err = s
            .try_send_part(&path_0123(), Amount::from_units(5))
            .unwrap_err();
        assert_eq!(err.failed_hop, 1);
        assert_eq!(err.cause, FailureCause::ChannelClosed);
        assert!(err.cause.is_stale());
        s.abort();
        assert_eq!(net.closed_channels(), 1);
        net.drain_all();
        assert_eq!(net.escrow_micros(), 0);
        assert_eq!(net.conserved_total_micros(), net.initial_total_micros());
        let first = net.graph().edge(n(0), n(1)).unwrap();
        assert_eq!(net.into_inner().balance(first), Amount::from_units(10));
    }

    #[test]
    fn down_node_bounces_probes_and_commits_until_up() {
        let mut schedule = ChurnSchedule::none();
        schedule.push(SimTime::ZERO, ChurnAction::NodeDown(n(2)));
        schedule.push(SimTime::from_secs(1), ChurnAction::NodeUp(n(2)));
        let mut net = des_with(ServiceModel::instant(), schedule);
        // The probe reaches node 2 (2 hops, 20ms), finds it down, and
        // the NACK retraces the same 2 hops: sender clock lands at 40ms.
        assert!(net.probe_path(&path_0123()).is_none());
        assert_eq!(net.now(), SimTime::from_millis(40));
        assert_eq!(net.stale_probe_failures(), 1);
        assert_eq!(net.metrics().probe_messages, 2);
        // A commit attempt dies at the same node with a stale cause.
        let p = payment(3);
        let mut s = net.begin_payment(&p, PaymentClass::Mice);
        let err = s
            .try_send_part(&path_0123(), Amount::from_units(3))
            .unwrap_err();
        assert_eq!(err.cause, FailureCause::NodeDown);
        s.abort();
        // After recovery everything flows again.
        net.advance_to(SimTime::from_secs(2));
        let report = net.probe_path(&path_0123()).unwrap();
        assert_eq!(report.bottleneck(), Amount::from_units(10));
        net.drain_all();
        assert_eq!(net.conserved_total_micros(), net.initial_total_micros());
    }

    #[test]
    fn reopen_resurfaces_frozen_funds() {
        let first = line_net().graph().edge(n(0), n(1)).unwrap();
        let mut schedule = ChurnSchedule::none();
        schedule.push(SimTime::ZERO, ChurnAction::ChannelClose(first));
        schedule.push(SimTime::from_millis(30), ChurnAction::ChannelReopen(first));
        let mut net = des_with(ServiceModel::instant(), schedule);
        // Closed: the probe bounces at hop 0 (out 10ms + back 10ms).
        assert!(net.probe_path(&path_0123()).is_none());
        assert_eq!(net.now(), SimTime::from_millis(20));
        // Reopened: the frozen balances resurface untouched.
        net.advance_to(SimTime::from_millis(50));
        let report = net.probe_path(&path_0123()).unwrap();
        assert_eq!(report.bottleneck(), Amount::from_units(10));
        assert_eq!(net.conserved_total_micros(), net.initial_total_micros());
    }

    #[test]
    fn balance_drain_depletes_a_direction_and_conserves() {
        let first = line_net().graph().edge(n(0), n(1)).unwrap();
        let mut schedule = ChurnSchedule::none();
        schedule.push(
            SimTime::from_millis(1),
            ChurnAction::BalanceDrain {
                edge: first,
                // More than the balance: the drain clamps to 10.
                amount: Amount::from_units(25),
            },
        );
        let mut net = des_with(ServiceModel::instant(), schedule);
        net.advance_to(SimTime::from_millis(5));
        let rev = net.graph().edge(n(1), n(0)).unwrap();
        assert_eq!(net.conserved_total_micros(), net.initial_total_micros());
        let inner = net.into_inner();
        assert_eq!(inner.balance(first), Amount::ZERO);
        assert_eq!(inner.balance(rev), Amount::from_units(20));
    }

    #[test]
    fn trailing_churn_never_extends_the_makespan() {
        // A close/reopen pair scheduled an hour past the traffic must
        // not stretch the horizon (= makespan) by one microsecond.
        let run = |churn: ChurnSchedule| {
            let mut net = des_with(ServiceModel::instant(), churn);
            let p = payment(4);
            let mut s = net.begin_payment(&p, PaymentClass::Mice);
            s.try_send_part(&path_0123(), Amount::from_units(4))
                .unwrap();
            assert!(s.commit().is_success());
            net.drain_all();
            net.horizon()
        };
        let quiet = run(ChurnSchedule::none());
        let mid = line_net().graph().edge(n(1), n(2)).unwrap();
        let mut late = ChurnSchedule::none();
        late.push(SimTime::from_secs(3600), ChurnAction::ChannelClose(mid));
        late.push(SimTime::from_secs(7200), ChurnAction::ChannelReopen(mid));
        assert_eq!(run(late), quiet);
    }
}
