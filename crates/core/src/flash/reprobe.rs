//! Stale-state detection with threshold-driven re-probing.
//!
//! Flash is the one scheme that caches routes between payments (the
//! mice routing table), so it is the one scheme whose knowledge goes
//! stale under topology churn (`pcn_sim::des::churn`): commits NACK
//! with [`FailureCause::ChannelClosed`] / [`FailureCause::NodeDown`]
//! and probes vanish. Retrying the dead path burns messages without
//! converging, so the router carries a [`StalenessTracker`]: it
//! accumulates per-destination stale-error and probe-drop counts, and
//! when either crosses its edge-scaled threshold ([`error_threshold`],
//! [`drop_threshold`]) the router recomputes its table (§3.3: "all
//! entries are re-computed using the latest G") instead of retrying,
//! notifying the backend via `PaymentNetwork::note_reprobe`.
//!
//! The threshold shape follows FlyPath's `should_flood`: scale with
//! the network's edge count, clamped to a sane band —
//! `(edge_count × SCALE / 100)` clamped to `[10, 100]`, with separate
//! scales for hard errors (30) and probe drops (20). Larger networks
//! tolerate more scattered failures before concluding their state is
//! stale; tiny networks still require a burst of 10.
//!
//! **Zero-churn exactness:** only *stale* causes
//! ([`FailureCause::is_stale`]) and lost probes feed the tracker.
//! Ordinary `InsufficientBalance` contention never does — so in a run
//! with no churn and no probe-loss faults the tracker stays at zero,
//! no threshold ever trips, and router behavior is bit-identical to a
//! build without the staleness layer.

use pcn_sim::FailureCause;
use pcn_types::NodeId;

/// FlyPath's error scale: threshold = 30% of the edge count.
const ERROR_SCALE: u64 = 30;
/// FlyPath's drop scale: threshold = 20% of the edge count.
const DROP_SCALE: u64 = 20;
/// Thresholds never drop below this, however small the network.
const MIN_THRESHOLD: u64 = 10;
/// Thresholds never exceed this, however large the network.
const MAX_THRESHOLD: u64 = 100;

/// Edge-scaled threshold (FlyPath's `should_flood` shape).
fn threshold(scale: u64, edge_count: usize) -> u64 {
    ((edge_count as u64).saturating_mul(scale) / 100).clamp(MIN_THRESHOLD, MAX_THRESHOLD)
}

/// Stale-error count at which a destination triggers a re-probe.
fn error_threshold(edge_count: usize) -> u64 {
    threshold(ERROR_SCALE, edge_count)
}

/// Lost-probe count at which a destination triggers a re-probe.
fn drop_threshold(edge_count: usize) -> u64 {
    threshold(DROP_SCALE, edge_count)
}

/// Per-destination stale-failure accounting for one router.
///
/// Deterministic by construction: plain counters in [`NodeId`]-indexed
/// vectors (no hash order, no randomness, no clock). See the module
/// docs for the trip semantics.
#[derive(Clone, Debug, Default)]
pub(super) struct StalenessTracker {
    /// Stale commit errors per destination, indexed by `NodeId`.
    errors: Vec<u64>,
    /// Lost probes per destination, indexed by `NodeId`.
    drops: Vec<u64>,
}

impl StalenessTracker {
    fn slot(v: &mut Vec<u64>, dest: NodeId) -> &mut u64 {
        let i = dest.0 as usize;
        if v.len() <= i {
            v.resize(i + 1, 0);
        }
        &mut v[i]
    }

    /// Records one commit failure toward `dest`. Only stale causes
    /// ([`FailureCause::is_stale`]) count; ordinary balance contention
    /// is ignored so zero-churn behavior is unchanged.
    pub(super) fn record_failure(&mut self, dest: NodeId, cause: FailureCause) {
        if cause.is_stale() {
            *Self::slot(&mut self.errors, dest) += 1;
        }
    }

    /// Records one lost probe toward `dest` (the probe returned
    /// `None`: a closed/crashed hop or injected probe loss).
    pub(super) fn record_probe_loss(&mut self, dest: NodeId) {
        *Self::slot(&mut self.drops, dest) += 1;
    }

    /// Stale commit errors recorded toward `dest`.
    fn errors(&self, dest: NodeId) -> u64 {
        self.errors.get(dest.0 as usize).copied().unwrap_or(0)
    }

    /// Lost probes recorded toward `dest`.
    fn drops(&self, dest: NodeId) -> u64 {
        self.drops.get(dest.0 as usize).copied().unwrap_or(0)
    }

    /// Whether `dest`'s accumulated evidence crosses either threshold
    /// for a network of `edge_count` edges. On trip the destination's
    /// counters reset (the refresh consumes the evidence) and the
    /// caller refreshes its routing table and calls
    /// `PaymentNetwork::note_reprobe`.
    pub(super) fn should_reprobe(&mut self, dest: NodeId, edge_count: usize) -> bool {
        let errors = self.errors(dest);
        let drops = self.drops(dest);
        if errors == 0 && drops == 0 {
            return false;
        }
        let trip = errors >= error_threshold(edge_count) || drops >= drop_threshold(edge_count);
        if trip {
            *Self::slot(&mut self.errors, dest) = 0;
            *Self::slot(&mut self.drops, dest) = 0;
        }
        trip
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn thresholds_scale_with_edges_and_clamp() {
        // Tiny network: clamp to the floor.
        assert_eq!(error_threshold(4), 10);
        assert_eq!(drop_threshold(4), 10);
        // Mid-size: 200 edges → 60 errors / 40 drops.
        assert_eq!(error_threshold(200), 60);
        assert_eq!(drop_threshold(200), 40);
        // Huge: clamp to the ceiling.
        assert_eq!(error_threshold(10_000), 100);
        assert_eq!(drop_threshold(10_000), 100);
    }

    #[test]
    fn only_stale_causes_accumulate() {
        let mut t = StalenessTracker::default();
        t.record_failure(n(3), FailureCause::InsufficientBalance);
        t.record_failure(n(3), FailureCause::MissingChannel);
        t.record_failure(n(3), FailureCause::Unreported);
        assert_eq!(t.errors(n(3)), 0, "non-stale causes must not count");
        t.record_failure(n(3), FailureCause::ChannelClosed);
        t.record_failure(n(3), FailureCause::NodeDown);
        assert_eq!(t.errors(n(3)), 2);
        assert!(!t.should_reprobe(n(3), 4), "below the floor of 10");
    }

    #[test]
    fn tripping_resets_the_destination() {
        let mut t = StalenessTracker::default();
        for _ in 0..10 {
            t.record_failure(n(7), FailureCause::ChannelClosed);
        }
        t.record_probe_loss(n(9));
        assert!(t.should_reprobe(n(7), 4));
        assert_eq!(t.errors(n(7)), 0, "trip consumes the evidence");
        assert!(!t.should_reprobe(n(7), 4), "reset means no double trip");
        assert_eq!(t.drops(n(9)), 1, "other destinations untouched");
    }

    #[test]
    fn probe_losses_trip_their_own_threshold() {
        let mut t = StalenessTracker::default();
        for _ in 0..9 {
            t.record_probe_loss(n(2));
        }
        assert!(!t.should_reprobe(n(2), 4));
        t.record_probe_loss(n(2));
        assert!(t.should_reprobe(n(2), 4));
    }

    #[test]
    fn untouched_destination_never_trips() {
        let mut t = StalenessTracker::default();
        assert!(!t.should_reprobe(n(0), 0));
        assert_eq!(t.errors(n(42)), 0);
        assert_eq!(t.drops(n(42)), 0);
    }
}
