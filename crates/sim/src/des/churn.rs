//! Deterministic topology dynamics for the DES backend.
//!
//! Every backend used to assume a static channel graph, but the
//! paper's setting — and any production PCN — lives with channel
//! opens/closes, balance depletion, and node crashes that silently
//! invalidate probed state (the §5.1 staleness problem that
//! [`FaultConfig`](crate::FaultConfig) only approximates with probe
//! noise). A [`ChurnSchedule`] is a declarative list of
//! [`ChurnEvent`]s that [`DesNetwork`](super::network::DesNetwork)
//! admits into its event queue at construction and applies mid-run:
//!
//! * [`ChurnAction::ChannelClose`] freezes a channel (both
//!   directions). Frozen balances stay in the balance vector, so the
//!   funds-conservation invariant holds trivially and a later
//!   [`ChurnAction::ChannelReopen`] resurfaces them. In-flight
//!   `CONFIRM`/`REVERSE` settlement waves land harmlessly on frozen
//!   balances; a phase-1 `COMMIT` arriving at a closed hop NACKs back
//!   over the existing REVERSE retrace, releasing the escrow of every
//!   hop already debited.
//! * [`ChurnAction::NodeDown`] crashes a node: every message that
//!   would be serviced by it — probes and commits alike — is NACKed
//!   until a matching [`ChurnAction::NodeUp`].
//! * [`ChurnAction::BalanceDrain`] models depletion: it moves up to
//!   the requested amount from a channel direction to its reverse
//!   direction (or out of the channel system entirely when the
//!   channel is unidirectional), conserving total funds.
//!
//! # Determinism invariants
//!
//! * Schedule events share the engine's `(time, seq)` total order:
//!   they are scheduled into the same
//!   [`EventQueue`](super::queue::EventQueue) as the settlement
//!   waves, at install time, in declared order — so two runs with the
//!   same seeds and the same schedule apply every event at the same
//!   point of the same total order, bit for bit.
//! * Schedule *generation* is seeded per schedule
//!   (`pcn_workload::churn_schedule` draws from its own
//!   `StdRng::seed_from_u64` stream); applying a schedule draws no
//!   randomness at all.
//! * An **empty schedule is exact**: installing it schedules nothing,
//!   draws nothing, and advances no message tick, so a zero-churn run
//!   is bit-identical to the engine without churn support (the
//!   differential test in `tests/des_engine.rs` pins this for all
//!   five schemes).
//! * Churn events never extend the run's makespan: a reopen scheduled
//!   past the last settlement fires during the final drain without
//!   stretching [`DesNetwork::horizon`](super::network::DesNetwork).

use super::time::SimTime;
use pcn_graph::EdgeId;
use pcn_types::{Amount, NodeId};

/// One topology mutation a [`ChurnSchedule`] can apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnAction {
    /// Freeze a channel: both directions of `edge`'s channel stop
    /// accepting probes and commits. Balances stay frozen in place.
    ChannelClose(EdgeId),
    /// Reopen a previously closed channel (both directions). A no-op
    /// on an open channel.
    ChannelReopen(EdgeId),
    /// Crash a node: everything it would service NACKs until
    /// [`ChurnAction::NodeUp`].
    NodeDown(NodeId),
    /// Bring a crashed node back. A no-op on a live node.
    NodeUp(NodeId),
    /// Deplete a channel direction: move up to `amount` from `edge`
    /// to its reverse direction (or out of the channel system when
    /// unidirectional). Funds are conserved either way.
    BalanceDrain {
        /// The direction being drained.
        edge: EdgeId,
        /// Upper bound on the amount moved (clamped to the balance).
        amount: Amount,
    },
}

/// One scheduled topology mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Virtual instant the mutation takes effect.
    pub at: SimTime,
    /// The mutation.
    pub action: ChurnAction,
}

/// A declarative, replayable list of topology mutations.
///
/// Events are applied in the engine's `(time, seq)` total order: the
/// schedule is installed into the event queue in declared order, so
/// same-time events tie-break by their position in the schedule. Build
/// one by hand with [`ChurnSchedule::push`] or generate one from a
/// [`ChurnRate`] with `pcn_workload::churn_schedule`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnSchedule {
    events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// The empty schedule: a run with it is bit-identical to a run
    /// without churn support (see the module docs).
    pub fn none() -> Self {
        ChurnSchedule::default()
    }

    /// Appends one event.
    pub fn push(&mut self, at: SimTime, action: ChurnAction) {
        self.events.push(ChurnEvent { at, action });
    }

    /// Whether the schedule holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The events, in declared (installation) order.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }
}

/// Poisson intensities for generated churn — the input to
/// `pcn_workload::churn_schedule`, which turns a rate, a horizon, and
/// a seed into a concrete [`ChurnSchedule`].
///
/// Each field is an independent Poisson process; an event drawn from
/// the close (resp. down) process picks a uniformly random channel
/// (resp. node) and schedules the matching reopen (resp. up) after
/// [`ChurnRate::downtime`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnRate {
    /// Channel closes per virtual second across the whole network.
    pub closes_per_sec: f64,
    /// Node crashes per virtual second across the whole network.
    pub node_downs_per_sec: f64,
    /// Balance-drain events per virtual second across the whole
    /// network (each drains one random channel direction completely).
    pub drains_per_sec: f64,
    /// How long a closed channel stays closed / a crashed node stays
    /// down before the matching reopen/up event.
    pub downtime: SimTime,
}

impl ChurnRate {
    /// No churn at all: generation from this rate yields the empty
    /// schedule.
    pub fn zero() -> Self {
        ChurnRate {
            closes_per_sec: 0.0,
            node_downs_per_sec: 0.0,
            drains_per_sec: 0.0,
            downtime: SimTime::ZERO,
        }
    }

    /// Channel closes only, at `closes_per_sec`, each lasting
    /// `downtime`.
    pub fn closes(closes_per_sec: f64, downtime: SimTime) -> Self {
        ChurnRate {
            closes_per_sec,
            downtime,
            ..ChurnRate::zero()
        }
    }

    /// Whether every intensity is zero.
    pub fn is_zero(&self) -> bool {
        self.closes_per_sec <= 0.0 && self.node_downs_per_sec <= 0.0 && self.drains_per_sec <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_keeps_declared_order() {
        let mut s = ChurnSchedule::none();
        assert!(s.is_empty());
        s.push(
            SimTime::from_millis(5),
            ChurnAction::ChannelClose(EdgeId(1)),
        );
        s.push(
            SimTime::from_millis(5),
            ChurnAction::ChannelReopen(EdgeId(1)),
        );
        s.push(SimTime::from_millis(1), ChurnAction::NodeDown(NodeId(2)));
        assert_eq!(s.len(), 3);
        // Declared order is preserved verbatim — the event queue's
        // (time, seq) order decides application order at install time.
        assert_eq!(s.events()[0].at, SimTime::from_millis(5));
        assert_eq!(s.events()[2].action, ChurnAction::NodeDown(NodeId(2)));
    }

    #[test]
    fn zero_rate_is_zero() {
        assert!(ChurnRate::zero().is_zero());
        assert!(!ChurnRate::closes(0.5, SimTime::from_secs(10)).is_zero());
        let r = ChurnRate::closes(1.0, SimTime::from_secs(3));
        assert_eq!(r.downtime, SimTime::from_secs(3));
        assert_eq!(r.node_downs_per_sec, 0.0);
    }
}
