//! The one record schema of every `BENCH_*.json` file: a [`RunRecord`]
//! per run, whatever the backend. Fields every backend measures are
//! plain values; a field only one backend measures is an `Option`,
//! written `null` on the other backend's rows, never zero. The
//! discrete-event rows come from one conversion of a `des_sweep` point
//! ([`RunRecord::des`]), the testbed rows from one conversion of a
//! `TestbedReport` ([`RunRecord::testbed`]).
//!
//! A missing `Option` parses as `None`, and the few plain fields added
//! after the first committed artifacts carry `#[serde(default)]`, so
//! historical artifacts (and the shape rules' rejection fixtures) still
//! parse.

use flash_core::Scheme;
use pcn_experiments::figures::latency::{HOP_LATENCY_MS, NODE_SERVICE_MS};
use pcn_experiments::harness::{SweepPoint, TestbedReport};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The engine a run went through.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum Backend {
    /// The discrete-event engine (`pcn_sim::des`). Artifacts older than
    /// the column parse as this; no shape rule reads it.
    #[default]
    Des,
    /// The event-loop TCP cluster (`pcn_proto::Cluster`).
    Testbed,
}

/// One run of one scheme on one backend.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunRecord {
    /// The engine the run went through.
    #[serde(default)]
    pub backend: Backend,
    /// Scheme label (`Flash`, `Shortest Path`, …).
    pub scheme: String,
    /// Topology size (hosted node count on the testbed).
    pub nodes: usize,
    /// Trace length.
    pub payments: usize,

    /// Offered load, payments per virtual second (DES).
    pub offered_pps: Option<f64>,
    /// Per-hop propagation latency, ms (DES).
    pub hop_latency_ms: Option<u64>,
    /// Per-node service time, ms (DES).
    pub service_time_ms: Option<u64>,
    /// Channel-close intensity, closes per virtual second (DES; crashes
    /// and drains ride along, see the churn figure module).
    pub closes_per_sec: Option<f64>,

    /// Fraction of payments fully delivered.
    pub success_ratio: f64,
    /// Volume delivered, micro-units.
    #[serde(default)]
    pub success_volume_micros: u64,
    /// Fees charged on delivered payments, micro-units.
    #[serde(default)]
    pub fees_micros: u64,
    /// Probe messages, one per hop a probe crossed.
    #[serde(default)]
    pub probe_messages: u64,
    /// Phase-1 commit messages, one per hop a part crossed.
    #[serde(default)]
    pub commit_messages: u64,

    /// Successful payments per virtual second (DES).
    pub throughput_pps: Option<f64>,
    /// Median completion latency, virtual ms (DES).
    pub p50_latency_ms: Option<f64>,
    /// p95 completion latency, virtual ms (DES).
    pub p95_latency_ms: Option<f64>,
    /// p99 completion latency, virtual ms (DES).
    pub p99_latency_ms: Option<f64>,
    /// Median per-message queueing delay, virtual ms (DES).
    pub p50_queue_delay_ms: Option<f64>,
    /// p95 per-message queueing delay, virtual ms (DES).
    pub p95_queue_delay_ms: Option<f64>,
    /// Peak concurrently in-flight payments (DES).
    pub peak_in_flight: Option<u64>,
    /// Peak per-node message backlog (DES).
    pub peak_backlog: Option<u64>,
    /// Busiest node's utilization in `[0, 1]` (DES).
    pub max_node_utilization: Option<f64>,
    /// Settlement events processed (DES).
    pub events: Option<u64>,
    /// Virtual makespan, ms (DES).
    pub virtual_makespan_ms: Option<f64>,
    /// Channels closed by churn during the run (DES).
    pub closed_channels: Option<u64>,
    /// Probes bounced off closed channels or crashed nodes (DES).
    pub stale_probe_failures: Option<u64>,
    /// Threshold-triggered re-probes across all routers (DES).
    pub reprobes_triggered: Option<u64>,

    /// Wire frames received cluster-wide (testbed).
    pub wire_in: Option<u64>,
    /// Wire frames sent cluster-wide (testbed).
    pub wire_out: Option<u64>,
    /// Micro-units still escrowed at the end of the run (testbed; must be
    /// 0: every commit was confirmed or reversed).
    pub escrow_end: Option<u64>,
    /// Largest per-connection frame-queue high-water mark (testbed).
    pub queue_high_water: Option<u64>,

    /// Wall-clock cost of the routing run, ns: the engine over the
    /// arrivals on the DES, the routing loop on the testbed (set-up,
    /// launch and shutdown excluded on both).
    #[serde(default)]
    pub wall_ns: u64,
    /// Events per wall second of the same span: engine events on the
    /// DES, wire frames received on the testbed.
    #[serde(default)]
    pub events_per_sec: f64,
    /// `accept`/`read`/`write` calls the reactor issued per wire frame
    /// received (testbed). Counts reads the kernel answered
    /// `WouldBlock`, so it differs in the last digits between runs.
    pub socket_ops_per_frame: Option<f64>,
}

impl RunRecord {
    /// The fields measured on the host clock; everything else
    /// reproduces bit for bit and is compared by equality.
    pub const WALL_FIELDS: [&'static str; 3] =
        ["wall_ns", "events_per_sec", "socket_ops_per_frame"];

    /// How findings name the record (`Flash @ 60 nodes, 50 pps, 0
    /// closes/s`): scheme, scale and the workload parameters the row
    /// has; unique within one file.
    pub fn label(&self) -> String {
        let mut label = format!("{} @ {} nodes", self.scheme, self.nodes);
        if let Some(pps) = self.offered_pps {
            label.push_str(&format!(", {pps} pps"));
        }
        if let Some(rate) = self.closes_per_sec {
            label.push_str(&format!(", {rate} closes/s"));
        }
        label
    }

    /// The record of one `des_sweep` point over a `nodes`-node topology
    /// and a `payments`-long trace. Both DES sweeps share the hop
    /// latency and service time of the latency figure module.
    pub fn des(point: &SweepPoint, nodes: usize, payments: usize) -> RunRecord {
        let report = &point.report;
        let (wall_ns, events_per_sec) = wall_span(point.wall_elapsed, report.events);
        RunRecord {
            backend: Backend::Des,
            offered_pps: Some(point.load.rate_per_sec),
            hop_latency_ms: Some(HOP_LATENCY_MS),
            service_time_ms: Some(NODE_SERVICE_MS),
            closes_per_sec: Some(point.load.churn.closes_per_sec),
            throughput_pps: Some(report.throughput_pps),
            p50_latency_ms: Some(report.latency_ms(0.5)),
            p95_latency_ms: Some(report.latency_ms(0.95)),
            p99_latency_ms: Some(report.latency_ms(0.99)),
            p50_queue_delay_ms: Some(report.queue_delay_ms(0.5)),
            p95_queue_delay_ms: Some(report.queue_delay_ms(0.95)),
            peak_in_flight: Some(report.peak_in_flight),
            peak_backlog: Some(report.peak_backlog),
            max_node_utilization: Some(report.max_node_utilization),
            events: Some(report.events),
            virtual_makespan_ms: Some(report.makespan.as_millis_f64()),
            closed_channels: Some(report.closed_channels),
            stale_probe_failures: Some(report.stale_probe_failures),
            reprobes_triggered: Some(report.reprobes_triggered),
            wall_ns,
            events_per_sec,
            ..RunRecord::outcome(point.scheme, nodes, payments, &report.metrics)
        }
    }

    /// The record of one `run_scheme_testbed` run of `scheme` on `nodes`
    /// nodes over `payments` payments.
    ///
    /// # Panics
    /// When the run leaked funds, lost a wire frame or did not shut
    /// down clean.
    pub fn testbed(
        scheme: Scheme,
        nodes: usize,
        payments: usize,
        report: &TestbedReport,
    ) -> RunRecord {
        let run = format!("{} at {nodes} nodes", scheme.label());
        assert_eq!(report.funds_before, report.funds_after, "{run}: funds");
        let (wire_in, wire_out) = (report.wire_in(), report.wire_out());
        assert_eq!(wire_in, wire_out, "{run}: wire frames");
        assert!(report.clean_shutdown, "{run}: unclean shutdown");
        let counters = &report.counters;
        let (wall_ns, events_per_sec) = wall_span(report.wall, wire_in);
        RunRecord {
            backend: Backend::Testbed,
            wire_in: Some(wire_in),
            wire_out: Some(wire_out),
            escrow_end: Some(counters.iter().map(|c| c.escrow_held).sum()),
            queue_high_water: counters.iter().map(|c| c.queue_high_water).max(),
            wall_ns,
            events_per_sec,
            socket_ops_per_frame: Some(report.socket_ops as f64 / wire_in.max(1) as f64),
            ..RunRecord::outcome(scheme, nodes, payments, &report.metrics)
        }
    }

    /// The columns every backend fills, read from the run's `Metrics`.
    fn outcome(
        scheme: Scheme,
        nodes: usize,
        payments: usize,
        metrics: &pcn_sim::Metrics,
    ) -> RunRecord {
        RunRecord {
            scheme: scheme.label().to_string(),
            nodes,
            payments,
            success_ratio: metrics.success_ratio(),
            success_volume_micros: metrics.success_volume().micros(),
            fees_micros: metrics.fees_paid.micros(),
            probe_messages: metrics.probe_messages,
            commit_messages: metrics.commit_messages,
            ..RunRecord::default()
        }
    }
}

/// `wall_ns` and `events_per_sec` of a routing run that took `wall` and
/// counted `events`.
fn wall_span(wall: Duration, events: u64) -> (u64, f64) {
    let secs = wall.as_secs_f64();
    let per_sec = if secs > 0.0 {
        events as f64 / secs
    } else {
        0.0
    };
    (u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX), per_sec)
}
