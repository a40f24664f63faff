//! Declarative scenario construction and execution.
//!
//! A [`ScenarioBuilder`] describes *what* a testbed run looks like —
//! topology, workload, scheme, fault schedule, invariants — and
//! [`Scenario::run`] turns that description into a live
//! [`pcn_proto::Cluster`], drives the trace through the stock
//! [`pcn_sim::Router`] implementations, applies churn at its scheduled wall
//! offsets, and returns a [`ScenarioReport`].
//!
//! Imperative tests that need the raw cluster (to inject hand-crafted
//! wire messages, race sub-payments, or freeze channels at exact
//! moments) use [`Scenario::manual_cluster`] instead: it deploys the
//! *same* topology/fault/fee configuration and hands back the
//! [`Cluster`] without running the workload.

use crate::report::{InvariantOutcome, NodeTelemetry, ScenarioReport};
use flash_core::classify::threshold_for_mice_fraction;
use flash_core::Scheme;
use pcn_graph::DiGraph;
use pcn_proto::{wall_now, Cluster, FaultPlan};
use pcn_sim::{ChurnSchedule, FaultConfig, RouteOutcome};
use pcn_types::{Amount, Payment, PcnError, Result};
use pcn_workload::{generate_trace, testbed_topology, TraceConfig};
use std::time::Duration;

/// How the scenario's channel graph is produced.
pub enum TopologySpec {
    /// The Watts–Strogatz testbed topology of §5.2: `n` nodes with
    /// U\[`lo`, `hi`) channel capacities (in whole units).
    Testbed {
        /// Node count.
        n: usize,
        /// Capacity lower bound (units, inclusive).
        lo: u64,
        /// Capacity upper bound (units, exclusive).
        hi: u64,
        /// Topology seed.
        seed: u64,
    },
    /// An explicit graph with per-edge balances (any `pcn_graph`
    /// generator output plugs in here).
    Explicit {
        /// The directed channel graph.
        graph: DiGraph,
        /// Initial balances, indexed by edge id.
        balances: Vec<Amount>,
    },
}

/// How the scenario's payment trace is produced.
pub enum WorkloadSpec {
    /// A synthetic Ripple-calibrated trace (`pcn_workload`), sized and
    /// seeded here.
    Ripple {
        /// Number of payments.
        txns: usize,
        /// Trace seed.
        seed: u64,
    },
    /// An explicit payment list.
    Explicit(Vec<Payment>),
}

/// A declared expectation checked after the workload finishes. Failed
/// invariants do not abort the run — they surface as
/// [`InvariantOutcome`]s in the report so the caller (a test, the bench
/// gate) decides how loud to be.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Invariant {
    /// `succeeded / attempted` must reach this floor.
    SuccessRatioAtLeast(f64),
    /// Total funds after the run equal total funds before it.
    FundsConserved,
    /// Every wire frame sent was received: Σ `msgs_out` == Σ `msgs_in`
    /// across all nodes at quiescence.
    MessagesConserved,
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Invariant::SuccessRatioAtLeast(r) => write!(f, "success_ratio >= {r}"),
            Invariant::FundsConserved => write!(f, "funds conserved"),
            Invariant::MessagesConserved => write!(f, "wire messages conserved"),
        }
    }
}

/// The share of a scenario's payments classified as mice when deriving
/// the elephant threshold from the trace (§5.2).
const MICE_FRACTION: f64 = 0.9;

/// Builder for a [`Scenario`]. Every knob has a sensible default except
/// the topology — [`ScenarioBuilder::new`] requires one up front.
pub struct ScenarioBuilder {
    name: String,
    topology: TopologySpec,
    workload: WorkloadSpec,
    scheme: Scheme,
    seed: u64,
    faults: Option<FaultConfig>,
    churn: ChurnSchedule,
    invariants: Vec<Invariant>,
    timeout: Option<Duration>,
}

impl ScenarioBuilder {
    /// Starts a scenario over `topology`. Defaults: empty workload,
    /// Flash routing, seed 1, no faults, no churn, no invariants, the
    /// cluster's stock timeout. Payments are issued back-to-back, fees
    /// are free, and the elephant threshold makes 90% of the trace mice
    /// (§5.2).
    pub fn new(name: impl Into<String>, topology: TopologySpec) -> Self {
        ScenarioBuilder {
            name: name.into(),
            topology,
            workload: WorkloadSpec::Explicit(Vec::new()),
            scheme: Scheme::Flash,
            seed: 1,
            faults: None,
            churn: ChurnSchedule::none(),
            invariants: Vec::new(),
            timeout: None,
        }
    }

    /// Sets the payment workload.
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Selects the routing scheme (default Flash).
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Seeds the router (default 1).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a message-level fault plan (probe drops / noise),
    /// bridged through [`FaultPlan::from_fault_config`].
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Installs a topology-churn schedule. Event offsets are virtual
    /// times interpreted as **wall offsets from the start of the
    /// workload**: before each payment, every not-yet-applied event
    /// whose offset has elapsed is applied; events scheduled past the
    /// last payment fire right after it (mirroring the DES final
    /// drain).
    pub fn churn(mut self, churn: ChurnSchedule) -> Self {
        self.churn = churn;
        self
    }

    /// Declares an invariant to check after the workload.
    pub fn expect(mut self, invariant: Invariant) -> Self {
        self.invariants.push(invariant);
        self
    }

    /// Overrides the cluster's stall guard (see
    /// [`Cluster::set_timeout`]): how long a request waits on bytes the
    /// kernel is not delivering. Dropped frames do not cost it — a
    /// request they leave unanswered returns as soon as the cluster is
    /// idle — so fault scenarios need not lower it.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Finalizes the description.
    pub fn build(self) -> Scenario {
        Scenario { spec: self }
    }
}

/// A fully described scenario, ready to [`run`](Scenario::run) — or to
/// hand out its configured cluster via
/// [`manual_cluster`](Scenario::manual_cluster).
pub struct Scenario {
    spec: ScenarioBuilder,
}

impl Scenario {
    /// Resolves the topology spec into a graph + balance table.
    fn resolve_topology(spec: TopologySpec) -> (DiGraph, Vec<Amount>) {
        match spec {
            TopologySpec::Testbed { n, lo, hi, seed } => {
                let net = testbed_topology(n, lo, hi, seed);
                let graph = net.graph().clone();
                let balances = graph.edges().map(|(e, _, _)| net.balance(e)).collect();
                (graph, balances)
            }
            TopologySpec::Explicit { graph, balances } => (graph, balances),
        }
    }

    /// Builds the cluster the spec describes (topology, faults,
    /// timeout) without generating or running the workload.
    fn deploy(
        topology: TopologySpec,
        faults: &Option<FaultConfig>,
        timeout: Option<Duration>,
    ) -> Result<(Cluster, DiGraph)> {
        let (graph, balances) = Self::resolve_topology(topology);
        let plan = match faults {
            Some(config) => FaultPlan::from_fault_config(config),
            None => FaultPlan::none(),
        };
        let mut cluster = Cluster::launch_with_faults(graph.clone(), &balances, plan)?;
        if let Some(t) = timeout {
            cluster.set_timeout(t);
        }
        Ok((cluster, graph))
    }

    /// The escape hatch for imperative tests: deploys the scenario's
    /// cluster (same topology, faults, and timeout as
    /// [`Scenario::run`] would use) and returns it without driving any
    /// workload. The caller owns the cluster and its shutdown.
    pub fn manual_cluster(self) -> Result<Cluster> {
        let spec = self.spec;
        let (cluster, _) = Self::deploy(spec.topology, &spec.faults, spec.timeout)?;
        Ok(cluster)
    }

    /// Resolves the workload spec into a payment trace.
    fn resolve_workload(spec: WorkloadSpec, graph: &DiGraph) -> Vec<Payment> {
        match spec {
            WorkloadSpec::Ripple { txns, seed } => {
                generate_trace(graph, &TraceConfig::ripple(txns, seed))
            }
            WorkloadSpec::Explicit(trace) => trace,
        }
    }

    /// Deploys the cluster, drives the workload, applies churn, checks
    /// invariants, and reports.
    pub fn run(self) -> Result<ScenarioReport> {
        let spec = self.spec;
        if matches!(&spec.workload, WorkloadSpec::Explicit(t) if t.is_empty()) {
            return Err(PcnError::InvalidConfig(format!(
                "scenario '{}' has an empty workload",
                spec.name
            )));
        }
        let (mut cluster, graph) = Self::deploy(spec.topology, &spec.faults, spec.timeout)?;
        let trace = Self::resolve_workload(spec.workload, &graph);
        let amounts: Vec<Amount> = trace.iter().map(|p| p.amount).collect();
        let threshold = threshold_for_mice_fraction(&amounts, MICE_FRACTION);
        let mut router = spec.scheme.router::<Cluster>(threshold, spec.seed);

        let funds_before = cluster.total_funds();
        let mut churn_events = spec.churn.events().iter();
        let mut next_churn = churn_events.next();
        let mut churn_applied: u64 = 0;
        let mut outcomes = Vec::with_capacity(trace.len());
        let mut succeeded: u64 = 0;
        let mut success_volume = Amount::ZERO;
        let mut fees_paid = Amount::ZERO;
        let mut total_delay = Duration::ZERO;
        let mut mice_count: u64 = 0;
        let mut mice_delay = Duration::ZERO;

        let wall_run_start = wall_now();
        for payment in &trace {
            let wall_elapsed_us = wall_run_start.elapsed().as_micros() as u64;
            // Apply every churn event whose wall offset has passed.
            while let Some(ev) = next_churn {
                if ev.at.micros() > wall_elapsed_us {
                    break;
                }
                cluster.apply_churn(&ev.action);
                churn_applied += 1;
                next_churn = churn_events.next();
            }
            let class = payment.classify(threshold);
            let wall_pay_start = wall_now();
            let outcome = router.route(&mut cluster, payment, class);
            let wall_pay_elapsed = wall_pay_start.elapsed();
            total_delay += wall_pay_elapsed;
            if class.is_mice() {
                mice_count += 1;
                mice_delay += wall_pay_elapsed;
            }
            if let RouteOutcome::Success { volume, fees, .. } = outcome {
                succeeded += 1;
                success_volume = success_volume.saturating_add(volume);
                fees_paid = fees_paid.saturating_add(fees);
            }
            outcomes.push(outcome.is_success());
        }
        // Events scheduled past the last payment fire in the final
        // drain, as the DES does — they never extend the makespan.
        while let Some(ev) = next_churn {
            cluster.apply_churn(&ev.action);
            churn_applied += 1;
            next_churn = churn_events.next();
        }
        let wall_ms = wall_run_start.elapsed().as_secs_f64() * 1e3;

        let attempted = trace.len() as u64;
        let telemetry: Vec<NodeTelemetry> = cluster
            .node_counters()
            .iter()
            .enumerate()
            .map(|(id, c)| NodeTelemetry {
                node: id as u32,
                msgs_in: c.msgs_in.to_vec(),
                msgs_out: c.msgs_out.to_vec(),
                probes_served: c.probe_messages,
                commits_served: c.commit_messages,
                commits_nacked: c.commits_nacked,
                escrow_held: c.escrow_held,
                escrow_high_water: c.escrow_high_water,
                queue_high_water: c.queue_high_water,
            })
            .collect();
        let wire_in: u64 = telemetry.iter().map(NodeTelemetry::wire_in).sum();
        let wire_out: u64 = telemetry.iter().map(NodeTelemetry::wire_out).sum();
        let mut report = ScenarioReport {
            name: spec.name,
            scheme: spec.scheme.label(),
            nodes: graph.node_count(),
            attempted,
            succeeded,
            success_ratio: if attempted == 0 {
                0.0
            } else {
                succeeded as f64 / attempted as f64
            },
            success_volume_micros: success_volume.micros(),
            fees_micros: fees_paid.micros(),
            avg_delay_ms: if attempted == 0 {
                0.0
            } else {
                total_delay.as_secs_f64() * 1e3 / attempted as f64
            },
            mice_count,
            avg_mice_delay_ms: if mice_count == 0 {
                0.0
            } else {
                mice_delay.as_secs_f64() * 1e3 / mice_count as f64
            },
            probe_messages: cluster.probe_messages(),
            commit_messages: cluster.commit_messages(),
            wire_out,
            wire_in,
            socket_ops: cluster.socket_ops(),
            dropped_messages: cluster.dropped_messages(),
            churn_events_applied: churn_applied,
            wall_ms,
            events_per_sec: if wall_ms > 0.0 {
                wire_in as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
            outcomes,
            telemetry,
            invariants: Vec::new(),
            clean_shutdown: false,
        };
        let funds_after = cluster.total_funds();
        report.invariants = spec
            .invariants
            .iter()
            .map(|inv| Self::check(inv, &report, funds_before, funds_after))
            .collect();
        report.clean_shutdown = cluster.shutdown().is_clean();
        Ok(report)
    }

    fn check(
        inv: &Invariant,
        report: &ScenarioReport,
        funds_before: u64,
        funds_after: u64,
    ) -> InvariantOutcome {
        let (holds, detail) = match *inv {
            Invariant::SuccessRatioAtLeast(floor) => (
                report.success_ratio >= floor,
                format!("observed {:.4}", report.success_ratio),
            ),
            Invariant::FundsConserved => (
                funds_before == funds_after,
                format!("{funds_before} -> {funds_after}"),
            ),
            Invariant::MessagesConserved => (
                report.wire_out == report.wire_in,
                format!("out {} vs in {}", report.wire_out, report.wire_in),
            ),
        };
        InvariantOutcome {
            invariant: inv.to_string(),
            holds,
            detail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_graph::{DiGraph, Path};
    use pcn_types::{NodeId, TxId};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// A 3-node line 0 — 1 — 2 with 10-unit channels.
    fn line() -> TopologySpec {
        let mut g = DiGraph::new(3);
        g.add_channel(n(0), n(1)).unwrap();
        g.add_channel(n(1), n(2)).unwrap();
        let balances = vec![Amount::from_units(10); g.edge_count()];
        TopologySpec::Explicit { graph: g, balances }
    }

    fn pay(id: u64, amount: u64) -> Payment {
        Payment::new(TxId(id), n(0), n(2), Amount::from_units(amount))
    }

    #[test]
    fn zero_fault_scenario_reports_successes() {
        let report = ScenarioBuilder::new("line-smoke", line())
            .workload(WorkloadSpec::Explicit(vec![pay(1, 3), pay(2, 30)]))
            .scheme(Scheme::ShortestPath)
            .expect(Invariant::FundsConserved)
            .expect(Invariant::MessagesConserved)
            .expect(Invariant::SuccessRatioAtLeast(0.5))
            .build()
            .run()
            .unwrap();
        assert_eq!(report.attempted, 2);
        assert_eq!(report.succeeded, 1);
        assert_eq!(report.outcomes, vec![true, false]);
        assert_eq!(report.success_volume_micros, 3_000_000);
        assert!(report.commit_messages > 0 && report.avg_delay_ms > 0.0);
        assert!(
            report.all_invariants_hold(),
            "{:?}",
            report.failed_invariants()
        );
        assert_eq!(report.nodes, 3);
        assert!(report.wire_in > 0);
        assert!(report.events_per_sec > 0.0);
        assert_eq!(report.scheme, "Shortest Path");
    }

    #[test]
    fn failed_invariant_is_reported_not_fatal() {
        let report = ScenarioBuilder::new("too-demanding", line())
            .workload(WorkloadSpec::Explicit(vec![pay(1, 30)]))
            .scheme(Scheme::ShortestPath)
            .expect(Invariant::SuccessRatioAtLeast(1.0))
            .build()
            .run()
            .unwrap();
        assert!(!report.all_invariants_hold());
        assert_eq!(report.failed_invariants().len(), 1);
    }

    #[test]
    fn empty_workload_is_rejected() {
        let err = ScenarioBuilder::new("empty", line()).build().run();
        assert!(err.is_err());
    }

    #[test]
    fn ripple_workload_on_testbed_topology_runs() {
        let report = ScenarioBuilder::new(
            "testbed-ripple",
            TopologySpec::Testbed {
                n: 14,
                lo: 1000,
                hi: 1500,
                seed: 7,
            },
        )
        .workload(WorkloadSpec::Ripple { txns: 10, seed: 8 })
        .scheme(Scheme::Flash)
        .expect(Invariant::FundsConserved)
        .expect(Invariant::MessagesConserved)
        .build()
        .run()
        .unwrap();
        assert_eq!(report.attempted, 10);
        assert_eq!(report.nodes, 14);
        assert_eq!(report.telemetry.len(), 14);
        assert!(
            report.all_invariants_hold(),
            "{:?}",
            report.failed_invariants()
        );
    }

    #[test]
    fn churn_schedule_applies_during_run() {
        // An immediate close of the only channel 0→1 makes every
        // payment fail; offset 0 fires before the first payment.
        let mut g = DiGraph::new(3);
        g.add_channel(n(0), n(1)).unwrap();
        g.add_channel(n(1), n(2)).unwrap();
        let e01 = g.edge(n(0), n(1)).unwrap();
        let balances = vec![Amount::from_units(10); g.edge_count()];
        let mut churn = ChurnSchedule::none();
        churn.push(
            pcn_sim::SimTime::from_micros(0),
            pcn_sim::ChurnAction::ChannelClose(e01),
        );
        let report =
            ScenarioBuilder::new("closed-path", TopologySpec::Explicit { graph: g, balances })
                .workload(WorkloadSpec::Explicit(vec![pay(1, 1)]))
                .scheme(Scheme::ShortestPath)
                .churn(churn)
                .expect(Invariant::FundsConserved)
                .build()
                .run()
                .unwrap();
        assert_eq!(report.churn_events_applied, 1);
        assert_eq!(report.succeeded, 0);
        assert!(
            report.all_invariants_hold(),
            "{:?}",
            report.failed_invariants()
        );
    }

    #[test]
    fn manual_cluster_deploys_the_same_spec() {
        let mut cluster = ScenarioBuilder::new("manual", line())
            .build()
            .manual_cluster()
            .unwrap();
        let path = Path::new(vec![n(0), n(1), n(2)], Some(cluster.graph())).unwrap();
        let caps = cluster.probe(1, &path).unwrap();
        assert_eq!(caps, vec![10_000_000, 10_000_000]);
        assert!(cluster.shutdown().is_clean());
    }

    #[test]
    fn invariant_display_names_are_stable() {
        assert_eq!(
            Invariant::SuccessRatioAtLeast(0.4).to_string(),
            "success_ratio >= 0.4"
        );
        assert_eq!(Invariant::FundsConserved.to_string(), "funds conserved");
        assert_eq!(
            Invariant::MessagesConserved.to_string(),
            "wire messages conserved"
        );
    }
}
