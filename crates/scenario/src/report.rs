//! The serializable result of one scenario run.
//!
//! A [`ScenarioReport`] carries everything `BENCH_testbed.json` and the
//! CI gate need: headline success/fee/latency numbers (the columns
//! `tests/backend_parity.rs` compares with the simulator's `Metrics`),
//! per-node telemetry rows straight from the event loop's
//! [`pcn_proto::NodeCounters`], and one [`InvariantOutcome`] per
//! declared invariant.

use serde::{Deserialize, Serialize};

/// Telemetry of one node, snapshotted at the end of the run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeTelemetry {
    /// Node id.
    pub node: u32,
    /// Wire frames received, by message-type discriminant (`PROBE` = 0
    /// … `REVERSE_ACK` = 8).
    pub msgs_in: Vec<u64>,
    /// Wire frames sent, same indexing.
    pub msgs_out: Vec<u64>,
    /// `PROBE` messages serviced (per-hop accounting, as the paper
    /// counts probing messages).
    pub probes_served: u64,
    /// `COMMIT` messages serviced.
    pub commits_served: u64,
    /// `COMMIT`s this node refused with a `COMMIT_NACK`.
    pub commits_nacked: u64,
    /// Micro-units still escrowed at snapshot time (0 at quiescence).
    pub escrow_held: u64,
    /// High-water mark of escrowed micro-units.
    pub escrow_high_water: u64,
    /// High-water mark of frames queued on outbound connections.
    pub queue_high_water: u64,
}

impl NodeTelemetry {
    /// Total wire frames received.
    pub fn wire_in(&self) -> u64 {
        self.msgs_in.iter().sum()
    }

    /// Total wire frames sent.
    pub fn wire_out(&self) -> u64 {
        self.msgs_out.iter().sum()
    }
}

/// The checked result of one declared invariant.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InvariantOutcome {
    /// Which invariant (display form, e.g. `success_ratio >= 0.40`).
    pub invariant: String,
    /// Whether it held.
    pub holds: bool,
    /// Observed value(s), for the failure message.
    pub detail: String,
}

/// Everything one scenario run produced.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario name (for bench records and CI summaries).
    pub name: String,
    /// Routing scheme driven.
    pub scheme: String,
    /// Hosted node count.
    pub nodes: usize,
    /// Payments attempted.
    pub attempted: u64,
    /// Payments fully delivered.
    pub succeeded: u64,
    /// `succeeded / attempted` in [0, 1].
    pub success_ratio: f64,
    /// Volume of fully delivered payments, micro-units.
    pub success_volume_micros: u64,
    /// Fees charged on successful payments, micro-units.
    pub fees_micros: u64,
    /// Mean per-payment processing delay, wall milliseconds.
    pub avg_delay_ms: f64,
    /// Mice payments in the trace (per the derived elephant threshold).
    pub mice_count: u64,
    /// Mean processing delay restricted to mice payments, wall
    /// milliseconds (the Figure 12d/13d panel).
    pub avg_mice_delay_ms: f64,
    /// `PROBE` messages serviced cluster-wide.
    pub probe_messages: u64,
    /// `COMMIT` messages serviced cluster-wide.
    pub commit_messages: u64,
    /// Wire frames sent cluster-wide (post-fault-roll).
    pub wire_out: u64,
    /// Wire frames received cluster-wide.
    pub wire_in: u64,
    /// `accept`/`read`/`write` calls the reactor issued. Over
    /// `wire_in` this is the reactor's system-call cost per frame, which
    /// must not grow with the number of hosted nodes.
    pub socket_ops: u64,
    /// Frames the fault plan dropped.
    pub dropped_messages: u64,
    /// Churn events applied during the run.
    pub churn_events_applied: u64,
    /// Wall-clock duration of the workload, milliseconds.
    pub wall_ms: f64,
    /// Wire frames received per wall second — the single-process
    /// throughput figure the weekly bench tracks.
    pub events_per_sec: f64,
    /// Per-payment success flags, in trace order (parity tests diff
    /// these against the simulator's outcomes).
    pub outcomes: Vec<bool>,
    /// Per-node telemetry rows, indexed by node id.
    pub telemetry: Vec<NodeTelemetry>,
    /// One outcome per declared invariant.
    pub invariants: Vec<InvariantOutcome>,
    /// Whether the event loop wound down with nothing left behind (no
    /// unflushed frames, half-decoded bytes or transport errors).
    pub clean_shutdown: bool,
}

impl ScenarioReport {
    /// Whether every declared invariant held.
    pub fn all_invariants_hold(&self) -> bool {
        self.invariants.iter().all(|i| i.holds)
    }

    /// The invariants that failed (empty when the run is healthy).
    pub fn failed_invariants(&self) -> Vec<&InvariantOutcome> {
        self.invariants.iter().filter(|i| !i.holds).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let report = ScenarioReport {
            name: "smoke".into(),
            scheme: "Flash".into(),
            nodes: 3,
            attempted: 2,
            succeeded: 1,
            success_ratio: 0.5,
            outcomes: vec![true, false],
            telemetry: vec![NodeTelemetry {
                node: 0,
                msgs_in: vec![1; 9],
                msgs_out: vec![2; 9],
                ..NodeTelemetry::default()
            }],
            invariants: vec![InvariantOutcome {
                invariant: "funds conserved".into(),
                holds: true,
                detail: "30000000 == 30000000".into(),
            }],
            ..ScenarioReport::default()
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: ScenarioReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.outcomes, vec![true, false]);
        assert_eq!(back.telemetry[0].wire_in(), 9);
        assert_eq!(back.telemetry[0].wire_out(), 18);
        assert!(back.all_invariants_hold());
        assert_eq!(back.name, "smoke");
    }

    #[test]
    fn failed_invariants_surface() {
        let mut report = ScenarioReport::default();
        report.invariants.push(InvariantOutcome {
            invariant: "success_ratio >= 0.9".into(),
            holds: false,
            detail: "observed 0.50".into(),
        });
        assert!(!report.all_invariants_hold());
        assert_eq!(report.failed_invariants().len(), 1);
    }
}
