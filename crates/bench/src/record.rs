//! The record schema of each `BENCH_*.json` family — one struct per
//! family, produced by its `records` function and parsed back from the
//! committed file by `tests/committed.rs`.
//!
//! Fields added after a family's first committed artifact carry
//! `#[serde(default)]`, so historical artifacts (and the shape rules'
//! rejection fixtures) still parse; a missing field reads as zero.

use serde::{Deserialize, Serialize};

/// What [`crate::differences`] needs to know about a family's record.
pub trait Record: Serialize + for<'de> Deserialize<'de> {
    /// The fields measured on the host clock — everything else
    /// reproduces bit for bit and is compared by equality.
    const WALL_FIELDS: &'static [&'static str];

    /// How findings name the record (`Flash @ 50 pps`); unique within
    /// one file.
    fn label(&self) -> String;
}

/// One record of `BENCH_e2e.json`: one (scheme, offered-load) point of
/// the load sweep on the discrete-event engine.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct E2eRecord {
    /// Scheme label (`Flash`, `Spider`, …).
    pub scheme: String,
    /// Topology size.
    pub nodes: usize,
    /// Trace length.
    pub payments: usize,
    /// Offered load, payments per virtual second.
    pub offered_pps: f64,
    /// Per-hop propagation latency, ms.
    pub hop_latency_ms: u64,
    /// Per-node service time, ms (0 in pre-queue artifacts).
    #[serde(default)]
    pub service_time_ms: u64,
    /// Fraction of payments fully delivered.
    pub success_ratio: f64,
    /// Successful payments per virtual second.
    pub throughput_pps: f64,
    /// Median completion latency, virtual ms.
    pub p50_latency_ms: f64,
    /// p95 completion latency, virtual ms.
    pub p95_latency_ms: f64,
    /// p99 completion latency, virtual ms.
    pub p99_latency_ms: f64,
    /// Median per-message queueing delay, virtual ms.
    #[serde(default)]
    pub p50_queue_delay_ms: f64,
    /// p95 per-message queueing delay, virtual ms.
    #[serde(default)]
    pub p95_queue_delay_ms: f64,
    /// Peak concurrently in-flight payments.
    pub peak_in_flight: u64,
    /// Peak per-node message backlog.
    #[serde(default)]
    pub peak_backlog: u64,
    /// Busiest node's utilization in `[0, 1]`.
    #[serde(default)]
    pub max_node_utilization: f64,
    /// Settlement events processed.
    pub events: u64,
    /// Virtual makespan, ms.
    pub virtual_makespan_ms: f64,
    /// Wall-clock cost of the simulation, ns.
    pub wall_ns: u64,
    /// Engine events processed per wall-clock second.
    #[serde(default)]
    pub events_per_sec: f64,
}

impl Record for E2eRecord {
    const WALL_FIELDS: &'static [&'static str] = &["wall_ns", "events_per_sec"];

    fn label(&self) -> String {
        format!("{} @ {} pps", self.scheme, self.offered_pps)
    }
}

/// One record of `BENCH_churn.json`: one (scheme, churn-rate) point of
/// the success-under-churn trajectory.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChurnRecord {
    /// Scheme label (`Flash`, `Spider`, …).
    pub scheme: String,
    /// Topology size.
    pub nodes: usize,
    /// Trace length.
    pub payments: usize,
    /// Offered load, payments per virtual second (fixed within a sweep).
    pub offered_pps: f64,
    /// Channel-close intensity — the sweep variable (crashes and
    /// drains ride along proportionally; see the churn figure module).
    pub closes_per_sec: f64,
    /// Per-hop propagation latency, ms.
    pub hop_latency_ms: u64,
    /// Per-node service time, ms.
    pub service_time_ms: u64,
    /// Fraction of payments fully delivered.
    pub success_ratio: f64,
    /// p95 completion latency, virtual ms.
    pub p95_latency_ms: f64,
    /// Channels closed by churn during the run.
    #[serde(default)]
    pub closed_channels: u64,
    /// Probes bounced off closed channels / crashed nodes.
    #[serde(default)]
    pub stale_probe_failures: u64,
    /// Threshold-triggered re-probes across all routers.
    #[serde(default)]
    pub reprobes_triggered: u64,
    /// Wall-clock cost of the simulation, ns.
    #[serde(default)]
    pub wall_ns: u64,
}

impl Record for ChurnRecord {
    const WALL_FIELDS: &'static [&'static str] = &["wall_ns"];

    fn label(&self) -> String {
        format!("{} @ {} closes/s", self.scheme, self.closes_per_sec)
    }
}

/// One record of `BENCH_testbed.json`: one (scheme, scale) run on the
/// event-loop TCP cluster. Everything but the wall-derived fields
/// (`events_per_sec`, `wall_ns`, and `socket_ops_per_frame`, which
/// counts reads the kernel answered `WouldBlock`) is deterministic for
/// a zero-fault run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TestbedRecord {
    /// Scheme label (`Flash`, `Shortest Path`, …).
    pub scheme: String,
    /// Hosted node count (the ≥200 record is the single-process scale
    /// acceptance check).
    pub nodes: usize,
    /// Trace length.
    pub payments: usize,
    /// Fraction of payments fully delivered.
    pub success_ratio: f64,
    /// Volume delivered, micro-units.
    #[serde(default)]
    pub success_volume_micros: u64,
    /// Fees charged, micro-units.
    #[serde(default)]
    pub fees_micros: u64,
    /// `PROBE` messages serviced cluster-wide.
    pub probe_messages: u64,
    /// `COMMIT` messages serviced cluster-wide.
    pub commit_messages: u64,
    /// Wire frames received cluster-wide.
    pub wire_in: u64,
    /// Wire frames sent cluster-wide.
    pub wire_out: u64,
    /// Micro-units still escrowed at the end of the run (must be 0:
    /// every commit was confirmed or reversed).
    #[serde(default)]
    pub escrow_end: u64,
    /// Largest per-connection frame-queue high-water mark.
    #[serde(default)]
    pub queue_high_water: u64,
    /// Wire frames received per wall second.
    #[serde(default)]
    pub events_per_sec: f64,
    /// Wall-clock cost of the run, ns.
    #[serde(default)]
    pub wall_ns: u64,
    /// `accept`/`read`/`write` calls the reactor issued per wire frame
    /// received (0 in artifacts older than the counter).
    #[serde(default)]
    pub socket_ops_per_frame: f64,
}

impl Record for TestbedRecord {
    const WALL_FIELDS: &'static [&'static str] =
        &["wall_ns", "events_per_sec", "socket_ops_per_frame"];

    fn label(&self) -> String {
        format!("{} @ {} nodes", self.scheme, self.nodes)
    }
}
