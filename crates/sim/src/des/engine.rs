//! The discrete-event executor.
//!
//! [`DesEngine::run`] admits payments from a timed workload (see
//! `pcn_workload::arrivals` for Poisson and trace-replay arrival
//! processes), drives the scheme's [`Router`] against the
//! [`DesNetwork`] backend at each arrival instant, and drains the
//! settlement queue at the end. Because settlement is delayed, payments
//! whose arrival spacing is shorter than their settlement latency are
//! genuinely concurrent: they contend for escrowed balance, their
//! probes go stale, and the run reports a nonzero peak in-flight count.
//!
//! Runs are bit-reproducible: the only sources of ordering are the
//! sorted arrival list (ties broken by position) and the
//! [event queue](super::queue)'s `(time, insertion)` order, and nothing
//! reads a wall clock.

use super::network::{DesConfig, DesNetwork};
use super::time::SimTime;
use crate::{Metrics, Network, Router};
use pcn_types::{Amount, Payment};
use serde::{Deserialize, Serialize};

/// The result of one discrete-event run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DesReport {
    /// The usual simulation metrics (success ratio, volume, messages)
    /// plus the completion-latency histogram
    /// ([`Metrics::latency`](crate::Metrics)).
    pub metrics: Metrics,
    /// Maximum number of concurrently in-flight payments observed.
    pub peak_in_flight: u64,
    /// Settlement events processed (a determinism fingerprint: two runs
    /// with the same seed must agree on this exactly).
    pub events: u64,
    /// Virtual time from the first arrival to the last settlement.
    pub makespan: SimTime,
    /// Successful payments per virtual second
    /// (`succeeded / makespan`; zero for an empty or instant run).
    pub throughput_pps: f64,
    /// Highest number of messages simultaneously queued (waiting + in
    /// service) at any single node. Zero under the zero-service
    /// default (no queues form — see [`node`](super::node)).
    #[serde(default)]
    pub peak_backlog: u64,
    /// The busiest node's utilization: its accumulated service time
    /// over the makespan, in `[0, 1]`. Approaches 1 as that node
    /// saturates — the congestion knee. Zero under the zero-service
    /// default.
    #[serde(default)]
    pub max_node_utilization: f64,
    /// Churn: close events applied to channels that were open
    /// ([`DesNetwork::closed_channels`]). Zero without a schedule.
    #[serde(default)]
    pub closed_channels: u64,
    /// Churn: probes bounced mid-walk by a closed channel or a down
    /// node ([`DesNetwork::stale_probe_failures`]).
    #[serde(default)]
    pub stale_probe_failures: u64,
    /// Times a router crossed its staleness threshold and refreshed its
    /// topology knowledge ([`DesNetwork::reprobes_triggered`]).
    #[serde(default)]
    pub reprobes_triggered: u64,
}

impl DesReport {
    /// Completion-latency quantile in virtual milliseconds (successful
    /// payments only). `q` in `[0, 1]`; zero when nothing succeeded.
    pub fn latency_ms(&self, q: f64) -> f64 {
        self.metrics.latency.quantile_us(q) as f64 / 1_000.0
    }

    /// Per-message queueing-delay quantile in virtual milliseconds
    /// (time spent waiting behind node backlogs;
    /// [`Metrics::queue_delay`](crate::Metrics)). `q` in `[0, 1]`;
    /// zero when no message was serviced by a nonzero-service node.
    pub fn queue_delay_ms(&self, q: f64) -> f64 {
        self.metrics.queue_delay.quantile_us(q) as f64 / 1_000.0
    }
}

/// The discrete-event engine: a [`DesNetwork`] plus the arrival loop.
pub struct DesEngine {
    net: DesNetwork,
}

impl DesEngine {
    /// Wraps `net` in a fresh engine at virtual time zero.
    pub fn new(net: Network, config: DesConfig) -> Self {
        DesEngine {
            net: DesNetwork::new(net, config),
        }
    }

    /// The underlying time-aware backend.
    pub fn network(&self) -> &DesNetwork {
        &self.net
    }

    /// Drains all pending settlements and returns the backend.
    pub fn into_network(mut self) -> DesNetwork {
        self.net.drain_all();
        self.net
    }

    /// Runs one timed workload to completion.
    ///
    /// Arrivals are admitted in `(time, position)` order (the slice need
    /// not be pre-sorted; sorting is stable so equal-time payments keep
    /// their order). Each payment is classified against
    /// `elephant_threshold` and routed at its arrival instant; the
    /// settlement queue is fully drained before the report is built.
    ///
    /// The engine is one continuing virtual world: a second `run` on
    /// the same engine keeps the clock, balances, and event counter.
    /// The **metrics are moved into the report** (no per-run clone of
    /// the latency histograms), so each report covers exactly its own
    /// workload's attempts while the makespan of a second run is still
    /// measured from that run's earliest arrival over the shared
    /// clock. Build a fresh engine per independent run.
    pub fn run<R>(
        &mut self,
        router: &mut R,
        workload: &[(SimTime, Payment)],
        elephant_threshold: Amount,
    ) -> DesReport
    where
        R: Router<DesNetwork> + ?Sized,
    {
        let mut order: Vec<usize> = (0..workload.len()).collect();
        order.sort_by_key(|&i| workload[i].0);
        let first_arrival = order
            .first()
            .map(|&i| workload[i].0)
            .unwrap_or(SimTime::ZERO);
        for &i in &order {
            let (t, p) = &workload[i];
            self.net.advance_to(*t);
            let class = p.classify(elephant_threshold);
            router.route(&mut self.net, p, class);
        }
        self.net.drain_all();
        let makespan = self.net.horizon().saturating_sub(first_arrival);
        let metrics = self.net.take_metrics();
        let succeeded = metrics.total().succeeded;
        let secs = makespan.as_secs_f64();
        let throughput_pps = if secs > 0.0 {
            succeeded as f64 / secs
        } else {
            0.0
        };
        DesReport {
            metrics,
            peak_in_flight: self.net.peak_in_flight(),
            events: self.net.events_delivered(),
            makespan,
            throughput_pps,
            peak_backlog: self.net.service_queues().peak_backlog(),
            max_node_utilization: self.net.service_queues().max_utilization(makespan),
            closed_channels: self.net.closed_channels(),
            stale_probe_failures: self.net.stale_probe_failures(),
            reprobes_triggered: self.net.reprobes_triggered(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::{LatencyModel, ServiceModel};
    use crate::{FailureReason, PaymentNetwork, RouteOutcome};
    use pcn_graph::{DiGraph, Path};
    use pcn_types::{NodeId, PaymentClass, TxId};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn line_net() -> Network {
        let mut g = DiGraph::new(4);
        g.add_channel(n(0), n(1)).unwrap();
        g.add_channel(n(1), n(2)).unwrap();
        g.add_channel(n(2), n(3)).unwrap();
        Network::uniform(g, Amount::from_units(10))
    }

    /// A one-path router: sends the full amount along 0→1→2→3.
    struct LineRouter;

    impl Router<DesNetwork> for LineRouter {
        fn name(&self) -> &'static str {
            "Line"
        }

        fn route(
            &mut self,
            net: &mut DesNetwork,
            payment: &Payment,
            class: PaymentClass,
        ) -> RouteOutcome {
            let path = Path::new(vec![n(0), n(1), n(2), n(3)], None).unwrap();
            match net.send_single_path(payment, class, &path) {
                out @ RouteOutcome::Success { .. } => out,
                _ => RouteOutcome::failure(FailureReason::InsufficientCapacity),
            }
        }
    }

    fn workload(gap_ms: u64, count: u64, amount: u64) -> Vec<(SimTime, Payment)> {
        (0..count)
            .map(|i| {
                (
                    SimTime::from_millis(i * gap_ms),
                    Payment::new(TxId(i), n(0), n(3), Amount::from_units(amount)),
                )
            })
            .collect()
    }

    fn config() -> DesConfig {
        DesConfig {
            latency: LatencyModel::constant_ms(10),
            check_conservation: true,
            ..DesConfig::default()
        }
    }

    #[test]
    fn widely_spaced_arrivals_never_overlap() {
        let mut engine = DesEngine::new(line_net(), config());
        // 3-hop settlement finishes ~90ms after arrival; 1s spacing.
        // 5 × 2 units exactly drains the 10-unit forward direction.
        let report = engine.run(&mut LineRouter, &workload(1000, 5, 2), Amount::MAX);
        assert_eq!(report.metrics.total().attempted, 5);
        assert_eq!(report.metrics.total().succeeded, 5);
        assert_eq!(report.peak_in_flight, 1);
    }

    #[test]
    fn tight_arrivals_overlap_and_contend() {
        let mut engine = DesEngine::new(line_net(), config());
        // 5 payments of 4 units back-to-back: the line holds 10, so at
        // most two fit before settlement returns capacity.
        let report = engine.run(&mut LineRouter, &workload(1, 5, 4), Amount::MAX);
        assert!(report.peak_in_flight > 1, "expected overlapping payments");
        assert!(
            report.metrics.total().succeeded < 5,
            "contention must fail some payments"
        );
        let net = engine.into_network();
        assert_eq!(net.conserved_total_micros(), net.initial_total_micros());
    }

    #[test]
    fn same_workload_same_report() {
        let run = || {
            let mut engine = DesEngine::new(line_net(), config());
            engine.run(&mut LineRouter, &workload(3, 20, 3), Amount::MAX)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unsorted_workload_is_admitted_in_time_order() {
        let mut w = workload(10, 6, 2);
        w.reverse();
        let mut a = DesEngine::new(line_net(), config());
        let ra = a.run(&mut LineRouter, &w, Amount::MAX);
        w.reverse();
        let mut b = DesEngine::new(line_net(), config());
        let rb = b.run(&mut LineRouter, &w, Amount::MAX);
        assert_eq!(ra, rb);
    }

    #[test]
    fn empty_workload_is_a_clean_noop() {
        let mut engine = DesEngine::new(line_net(), config());
        let report = engine.run(&mut LineRouter, &[], Amount::MAX);
        assert_eq!(report.metrics.total().attempted, 0);
        assert_eq!(report.events, 0);
        assert_eq!(report.makespan, SimTime::ZERO);
        assert_eq!(report.throughput_pps, 0.0);
    }

    #[test]
    fn service_queues_make_latency_respond_to_load() {
        // Same workload, compressed arrival gaps: with a nonzero
        // per-node service time the tighter spacing piles messages onto
        // the line's nodes and completion latency must rise. Amounts of
        // 1 unit never exhaust the 10-unit channels, so success is
        // identical across loads and only queueing moves.
        let run = |gap_ms: u64| {
            let mut engine = DesEngine::new(
                line_net(),
                DesConfig {
                    latency: LatencyModel::constant_ms(10),
                    service: ServiceModel::constant_ms(8),
                    check_conservation: true,
                    ..DesConfig::default()
                },
            );
            engine.run(&mut LineRouter, &workload(gap_ms, 8, 1), Amount::MAX)
        };
        let relaxed = run(2000);
        let loaded = run(1);
        assert_eq!(relaxed.metrics.total().succeeded, 8);
        assert_eq!(loaded.metrics.total().succeeded, 8);
        assert_eq!(relaxed.peak_backlog, 1, "spaced arrivals never queue");
        assert!(
            loaded.peak_backlog > 1,
            "tight arrivals must queue: peak {}",
            loaded.peak_backlog
        );
        assert!(
            loaded.latency_ms(0.95) > relaxed.latency_ms(0.95),
            "p95 must rise with load: {} !> {}",
            loaded.latency_ms(0.95),
            relaxed.latency_ms(0.95)
        );
        assert!(loaded.metrics.queue_delay.count() > 0);
        assert_eq!(
            relaxed.metrics.queue_delay.max_us(),
            0,
            "spaced arrivals must not wait"
        );
        assert!(loaded.max_node_utilization > relaxed.max_node_utilization);
    }

    #[test]
    fn zero_service_reports_no_queueing() {
        let mut engine = DesEngine::new(line_net(), config());
        let report = engine.run(&mut LineRouter, &workload(1, 5, 1), Amount::MAX);
        assert_eq!(report.peak_backlog, 0);
        assert_eq!(report.max_node_utilization, 0.0);
        assert_eq!(report.metrics.queue_delay.count(), 0);
    }

    #[test]
    fn old_report_json_still_parses() {
        // Growth hygiene: every field added to DesReport after the
        // seed is #[serde(default)], so committed bench artifacts from
        // older PRs keep parsing. Reconstruct the older shapes by
        // truncating the serialized report at the first field each PR
        // introduced (serialization follows declaration order).
        let mut engine = DesEngine::new(line_net(), config());
        let report = engine.run(&mut LineRouter, &workload(1000, 3, 2), Amount::MAX);
        let json = serde_json::to_string(&report).unwrap();
        for first_new_field in [",\"peak_backlog\"", ",\"closed_channels\""] {
            let cut = json
                .find(first_new_field)
                .expect("report fields must keep declaration order");
            let old = format!("{}}}", &json[..cut]);
            let parsed: DesReport = serde_json::from_str(&old)
                .unwrap_or_else(|e| panic!("old report JSON must parse: {e}"));
            assert_eq!(parsed.metrics, report.metrics);
            assert_eq!(parsed.makespan, report.makespan);
            assert_eq!(parsed.events, report.events);
            assert_eq!(parsed.closed_channels, 0);
            assert_eq!(parsed.stale_probe_failures, 0);
            assert_eq!(parsed.reprobes_triggered, 0);
        }
    }

    #[test]
    fn report_measures_latency_and_throughput() {
        let mut engine = DesEngine::new(line_net(), config());
        let report = engine.run(&mut LineRouter, &workload(1000, 4, 2), Amount::MAX);
        // Each success settles 3 forward + 3 ack + 3 confirm hops after
        // arrival = 90ms of completion latency.
        assert_eq!(report.metrics.latency.count(), 4);
        assert!((report.latency_ms(0.5) - 90.0).abs() < 15.0);
        assert!(report.throughput_pps > 0.0);
        assert!(report.makespan >= SimTime::from_secs(3));
    }
}
