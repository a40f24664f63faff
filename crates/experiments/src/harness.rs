//! Shared simulation machinery for the figure modules: one function
//! runs a scheme over a trace on each backend — the simulator
//! ([`run_scheme`]), the discrete-event engine ([`run_scheme_des`]) and
//! the TCP testbed ([`run_scheme_testbed`]).

use flash_core::classify::threshold_for_mice_fraction;
use flash_core::Scheme;
use pcn_graph::generators;
use pcn_proto::{Cluster, NodeCounters};
use pcn_sim::{
    ChurnRate, DesConfig, DesEngine, DesNetwork, DesReport, LatencyModel, Metrics, Network,
    ServiceModel, SimTime,
};
use pcn_types::{Amount, Payment};
use pcn_workload::trace::{generate_trace, TraceConfig};
use pcn_workload::{lightning_topology, ripple_topology};
use std::time::Duration;

/// Experiment effort level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effort {
    /// Scaled-down configuration for CI/tests: ~150-node topology, short
    /// traces, a single seed.
    Quick,
    /// The paper-scale configuration (full topologies). The paper
    /// averages 5 runs; this reproduction plots one seeded run per
    /// point (the harness is deterministic, and the single-core budget
    /// of the reproduction environment cannot afford 5× the full
    /// sweeps — run-to-run variance is covered by the quick-scale test
    /// suite).
    Paper,
}

impl Effort {
    /// Default transaction count. The paper fixes 2,000 for most
    /// simulation figures; the paper-scale reproduction uses 1,000 on
    /// the full topologies to fit the single-core time budget (the
    /// load-dependence itself is swept explicitly by Figure 7).
    pub fn txns(self) -> usize {
        match self {
            Effort::Quick => 300,
            Effort::Paper => 1000,
        }
    }
}

/// Which evaluation topology to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topo {
    /// Ripple-scale (1,870 nodes) with $-denominated sizes.
    Ripple,
    /// Lightning-scale (2,511 nodes) with satoshi-denominated sizes.
    Lightning,
}

impl Topo {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Topo::Ripple => "Ripple",
            Topo::Lightning => "Lightning",
        }
    }

    /// Builds the network at the given effort (quick mode shrinks the
    /// topology but keeps the funds distribution).
    pub fn build_network(self, effort: Effort, seed: u64) -> Network {
        match (self, effort) {
            (Topo::Ripple, Effort::Paper) => ripple_topology(seed),
            (Topo::Lightning, Effort::Paper) => lightning_topology(seed),
            (Topo::Ripple, Effort::Quick) => {
                let g = generators::scale_free_with_channels(150, 700, seed);
                let mut net = Network::uniform(g, Amount::ZERO);
                seed_quick_funds(&mut net, 250.0, seed);
                net
            }
            (Topo::Lightning, Effort::Quick) => {
                let g = generators::scale_free_with_channels(150, 700, seed);
                let mut net = Network::uniform(g, Amount::ZERO);
                seed_quick_funds(&mut net, 500_000.0, seed);
                net
            }
        }
    }

    /// Builds a trace matched to the topology's currency.
    pub fn build_trace(self, net: &Network, txns: usize, seed: u64) -> Vec<Payment> {
        let config = match self {
            Topo::Ripple => TraceConfig::ripple(txns, seed),
            Topo::Lightning => TraceConfig::lightning(txns, seed),
        };
        generate_trace(net.graph(), &config)
    }
}

fn seed_quick_funds(net: &mut Network, median: f64, seed: u64) {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = net.graph().clone();
    for (e, _, _) in graph.edges() {
        if net.balance(e) != Amount::ZERO {
            continue;
        }
        // Log-uniform spread of one decade around the median.
        let factor = 10f64.powf(rng.random_range(-0.5..0.5));
        let b = Amount::from_units_f64(median * factor);
        net.set_balance(e, b);
        if let Some(r) = graph.reverse_edge(e) {
            net.set_balance(r, b);
        }
    }
}

/// The network and trace of one simulator figure point — the setup
/// Figures 6–11 share: the `topo` topology at `effort` scale from
/// `seed`, every balance multiplied by the capacity `scale` factor, and
/// a `txns`-long trace in the topology's currency from `trace_seed`.
pub fn sim_point(
    topo: Topo,
    effort: Effort,
    scale: u64,
    txns: usize,
    seed: u64,
    trace_seed: u64,
) -> (Network, Vec<Payment>) {
    let mut net = topo.build_network(effort, seed);
    net.scale_balances(scale);
    let trace = topo.build_trace(&net, txns, trace_seed);
    (net, trace)
}

/// The fraction of payments classified as mice in the default setup
/// ("The elephant-mice threshold is set such that 90% of payments are
/// mice").
pub const DEFAULT_MICE_FRACTION: f64 = 0.9;

/// Runs one scheme over a trace on a **copy** of the network; returns
/// the collected metrics. `mice_fraction` sets the classification
/// threshold from the trace's own size distribution.
pub fn run_scheme(
    net: &Network,
    scheme: Scheme,
    trace: &[Payment],
    mice_fraction: f64,
    seed: u64,
) -> Metrics {
    let amounts: Vec<Amount> = trace.iter().map(|p| p.amount).collect();
    let threshold = threshold_for_mice_fraction(&amounts, mice_fraction);
    let mut net = net.clone();
    let mut router = scheme.router::<Network>(threshold, seed);
    for p in trace {
        let class = p.classify(threshold);
        router.route(&mut net, p, class);
    }
    std::mem::take(net.metrics_mut())
}

/// What one testbed run ([`run_scheme_testbed`]) reports. Delays and
/// `wall` are wall time; everything else repeats exactly per seed.
#[derive(Clone, Debug)]
pub struct TestbedReport {
    /// The cluster's [`Metrics`] ([`Cluster::metrics`]), as a
    /// [`DesReport`] carries the engine's: attempts and successes by
    /// class, volume, fees and paths, and the nodes' probe and commit
    /// message counts.
    pub metrics: Metrics,
    /// Per-payment success flags, in trace order.
    pub outcomes: Vec<bool>,
    /// Mean per-payment processing delay, wall milliseconds.
    pub avg_delay_ms: f64,
    /// Mean processing delay of the mice payments, wall milliseconds
    /// (the Figure 12d/13d panel).
    pub avg_mice_delay_ms: f64,
    /// Per-node telemetry at the end of the trace, indexed by node id.
    pub counters: Vec<NodeCounters>,
    /// `accept`/`read`/`write` calls the reactor issued.
    pub socket_ops: u64,
    /// Connects the reactor made: one per channel that carried a frame.
    pub connects: u64,
    /// Frames the lossy wire dropped.
    pub dropped_messages: u64,
    /// Total funds before the first payment, micro-units.
    pub funds_before: u64,
    /// Total funds after the last payment, micro-units.
    pub funds_after: u64,
    /// Wall-clock duration of the routing loop (launch and shutdown
    /// excluded).
    pub wall: Duration,
    /// Whether the cluster wound down with nothing left behind.
    pub clean_shutdown: bool,
}

impl TestbedReport {
    /// Wire frames received cluster-wide.
    pub fn wire_in(&self) -> u64 {
        self.counters.iter().map(NodeCounters::wire_in).sum()
    }

    /// Wire frames sent cluster-wide (after the drop roll).
    pub fn wire_out(&self) -> u64 {
        self.counters.iter().map(NodeCounters::wire_out).sum()
    }
}

/// Runs one scheme over a trace on the TCP testbed: a [`Cluster`]
/// launched from `net`'s graph, balances, fee table and fault
/// configuration, routed payment by payment with each payment's wall
/// delay measured, then shut down. Routing is the same as in
/// [`run_scheme`]; only the backend differs.
pub fn run_scheme_testbed(
    net: &Network,
    scheme: Scheme,
    trace: &[Payment],
    mice_fraction: f64,
    seed: u64,
) -> TestbedReport {
    let amounts: Vec<Amount> = trace.iter().map(|p| p.amount).collect();
    let threshold = threshold_for_mice_fraction(&amounts, mice_fraction);
    let graph = net.graph();
    let balances: Vec<Amount> = graph.edges().map(|(e, _, _)| net.balance(e)).collect();
    let fees = graph.edges().map(|(e, _, _)| net.fee_policy(e)).collect();
    let mut cluster = Cluster::launch_with_faults(graph.clone(), &balances, net.faults())
        .expect("loopback listeners bind");
    cluster.set_fee_policies(fees).expect("one fee per edge");
    let mut router = scheme.router::<Cluster>(threshold, seed);

    let funds_before = cluster.total_funds();
    let mut outcomes = Vec::with_capacity(trace.len());
    let (mut total_delay, mut mice_delay, mut mice) = (Duration::ZERO, Duration::ZERO, 0);
    let wall_run_start = pcn_proto::wall_now();
    for p in trace {
        let class = p.classify(threshold);
        let wall_pay_start = pcn_proto::wall_now();
        let success = router.route(&mut cluster, p, class).is_success();
        let wall_pay_elapsed = wall_pay_start.elapsed();
        total_delay += wall_pay_elapsed;
        if class.is_mice() {
            mice += 1;
            mice_delay += wall_pay_elapsed;
        }
        outcomes.push(success);
    }
    let wall = wall_run_start.elapsed();
    let mean_ms = |total: Duration, n: usize| match n {
        0 => 0.0,
        n => total.as_secs_f64() * 1e3 / n as f64,
    };
    TestbedReport {
        metrics: cluster.metrics(),
        avg_delay_ms: mean_ms(total_delay, trace.len()),
        avg_mice_delay_ms: mean_ms(mice_delay, mice),
        outcomes,
        counters: cluster.node_counters(),
        socket_ops: cluster.socket_ops(),
        connects: cluster.connects(),
        dropped_messages: cluster.dropped_messages(),
        funds_before,
        funds_after: cluster.total_funds(),
        wall,
        clean_shutdown: cluster.shutdown().is_clean(),
    }
}

/// The load-and-delay configuration of one discrete-event run: the
/// offered load plus both halves of the delay model (per-hop
/// propagation, per-node service).
#[derive(Clone, Debug)]
pub struct DesLoad {
    /// Poisson arrival rate, payments per virtual second.
    pub rate_per_sec: f64,
    /// Per-hop message propagation latency.
    pub latency: LatencyModel,
    /// Per-node message service time (FIFO queueing behind the
    /// backlog; [`ServiceModel::instant`] disables queueing).
    pub service: ServiceModel,
    /// Topology-churn intensities. [`ChurnRate::zero`] (the common
    /// case) generates the empty schedule, keeping the run
    /// bit-identical to a churn-free engine.
    pub churn: ChurnRate,
}

/// Seed salt for the churn process, so churn draws never share a
/// stream with the Poisson arrival process seeded from the same run
/// seed.
const CHURN_SEED_SALT: u64 = 0x6368_7572_6e5f_7631; // "churn_v1"

/// Runs one scheme over a trace on the discrete-event engine: payments
/// arrive from a seeded Poisson process at `load.rate_per_sec`
/// (offered load), hop messages take `load.latency` on the wire plus
/// the per-node `load.service` time behind each receiving node's FIFO
/// backlog, and many payments are in flight concurrently. Returns the
/// full [`DesReport`] (success metrics plus completion-latency and
/// queueing-delay percentiles, peak in-flight/backlog, utilization,
/// and throughput). The network is copied, exactly like
/// [`run_scheme`].
pub fn run_scheme_des(
    net: &Network,
    scheme: Scheme,
    trace: &[Payment],
    mice_fraction: f64,
    seed: u64,
    load: DesLoad,
) -> DesReport {
    timed_des_run(net, scheme, trace, mice_fraction, seed, load).0
}

/// [`run_scheme_des`], also returning the wall time of the routing run
/// itself: the engine over the arrivals, its set-up excluded.
fn timed_des_run(
    net: &Network,
    scheme: Scheme,
    trace: &[Payment],
    mice_fraction: f64,
    seed: u64,
    load: DesLoad,
) -> (DesReport, Duration) {
    let amounts: Vec<Amount> = trace.iter().map(|p| p.amount).collect();
    let threshold = threshold_for_mice_fraction(&amounts, mice_fraction);
    let workload = pcn_workload::arrivals::poisson_workload(trace, load.rate_per_sec, seed);
    // Churn runs over the arrival window; reopens past the horizon
    // fire during the final drain without extending the makespan.
    let horizon = workload.last().map(|&(t, _)| t).unwrap_or(SimTime::ZERO);
    let churn =
        pcn_workload::churn_schedule(net.graph(), horizon, &load.churn, seed ^ CHURN_SEED_SALT);
    let mut router = scheme.router::<DesNetwork>(threshold, seed);
    let mut engine = DesEngine::new(
        net.clone(),
        DesConfig {
            latency: load.latency,
            service: load.service,
            churn,
            ..DesConfig::default()
        },
    );
    let wall_start = pcn_proto::wall_now();
    let report = engine.run(router.as_mut(), &workload, threshold);
    (report, wall_start.elapsed())
}

/// One measured point of a [`des_sweep`]: a scheme at one value of the
/// swept variable.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The scheme that ran.
    pub scheme: Scheme,
    /// The swept variable at this point (offered load, churn rate, …).
    pub x: f64,
    /// The load-and-delay configuration the swept value turned into.
    pub load: DesLoad,
    /// Everything the engine reported.
    pub report: DesReport,
    /// Host time of the routing run (the engine over the arrivals, its
    /// set-up excluded) — the only non-deterministic field.
    pub wall_elapsed: Duration,
}

/// Runs every scheme in [`Scheme::ALL`] through the discrete-event
/// engine at each of `xs` — scheme-major, the order figures and bench
/// records are laid out in — on one seeded `nodes`-node §5.2 testbed
/// topology and one `payments`-long Ripple trace. `load_at` turns a
/// swept value into the run's load-and-delay configuration. The
/// figures' `run(effort)` and the e2e and churn families of the
/// `bench` binary all consume this one loop.
pub fn des_sweep(
    nodes: usize,
    payments: usize,
    xs: &[f64],
    seed: u64,
    load_at: impl Fn(f64) -> DesLoad,
) -> Vec<SweepPoint> {
    let net = pcn_workload::testbed_topology(nodes, 1000, 1500, seed);
    let trace = generate_trace(net.graph(), &TraceConfig::ripple(payments, seed + 7));
    let mut points = Vec::with_capacity(Scheme::ALL.len() * xs.len());
    for scheme in Scheme::ALL {
        for &x in xs {
            let load = load_at(x);
            let (report, wall_elapsed) = timed_des_run(
                &net,
                scheme,
                &trace,
                DEFAULT_MICE_FRACTION,
                seed + 31,
                load.clone(),
            );
            points.push(SweepPoint {
                scheme,
                x,
                load,
                report,
                wall_elapsed,
            });
        }
    }
    points
}

/// Installs the Figure 9 fee distribution on a copy of the network.
pub fn with_paper_fees(net: &Network, seed: u64) -> Network {
    let mut net = net.clone();
    pcn_workload::topology::assign_paper_fees(&mut net, seed);
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_networks_build_and_are_funded() {
        for topo in [Topo::Ripple, Topo::Lightning] {
            let net = topo.build_network(Effort::Quick, 1);
            assert_eq!(net.graph().node_count(), 150);
            assert!(net.total_funds() > Amount::ZERO);
        }
    }

    #[test]
    fn traces_match_topology() {
        let net = Topo::Ripple.build_network(Effort::Quick, 1);
        let trace = Topo::Ripple.build_trace(&net, 100, 2);
        assert_eq!(trace.len(), 100);
    }

    #[test]
    fn all_schemes_run_and_record_attempts() {
        let net = Topo::Ripple.build_network(Effort::Quick, 1);
        let trace = Topo::Ripple.build_trace(&net, 60, 2);
        for scheme in [
            Scheme::Flash,
            Scheme::FlashNoFeeOpt,
            Scheme::FlashWithM(2),
            Scheme::FlashWithM(0),
            Scheme::Spider,
            Scheme::SpeedyMurmurs,
            Scheme::SilentWhispers,
            Scheme::ShortestPath,
        ] {
            let m = run_scheme(&net, scheme, &trace, DEFAULT_MICE_FRACTION, 3);
            assert_eq!(m.total().attempted, 60, "{}", scheme.label());
        }
    }

    #[test]
    fn zero_fault_testbed_run_reports_successes() {
        use pcn_types::{NodeId, TxId};
        // A 3-node line 0 — 1 — 2 with 10-unit channels: $3 fits, $30
        // does not.
        let mut g = pcn_graph::DiGraph::new(3);
        g.add_channel(NodeId(0), NodeId(1)).unwrap();
        g.add_channel(NodeId(1), NodeId(2)).unwrap();
        let net = Network::uniform(g, Amount::from_units(10));
        let pay =
            |id, units| Payment::new(TxId(id), NodeId(0), NodeId(2), Amount::from_units(units));
        let trace = [pay(1, 3), pay(2, 30)];
        let report = run_scheme_testbed(&net, Scheme::ShortestPath, &trace, 0.9, 1);
        assert_eq!(report.outcomes, vec![true, false]);
        assert_eq!(report.metrics.total().succeeded, 1);
        assert_eq!(report.metrics.success_ratio(), 0.5);
        assert_eq!(report.metrics.success_volume(), Amount::from_units(3));
        assert!(report.metrics.commit_messages > 0 && report.avg_delay_ms > 0.0);
        assert_eq!(report.funds_before, report.funds_after);
        assert_eq!(report.counters.len(), 3);
        assert!(report.wire_in() > 0);
        assert_eq!(report.wire_in(), report.wire_out());
        assert!(report.clean_shutdown);
    }

    #[test]
    fn ripple_workload_on_testbed_topology_runs() {
        let net = pcn_workload::testbed_topology(14, 1000, 1500, 7);
        let trace = generate_trace(net.graph(), &TraceConfig::ripple(10, 8));
        let report = run_scheme_testbed(&net, Scheme::Flash, &trace, DEFAULT_MICE_FRACTION, 1);
        assert_eq!(report.outcomes.len(), 10);
        assert_eq!(report.counters.len(), 14);
        assert_eq!(report.funds_before, report.funds_after);
        assert_eq!(report.wire_in(), report.wire_out());
    }

    #[test]
    fn flash_beats_shortest_path_on_volume() {
        let net = Topo::Ripple.build_network(Effort::Quick, 5);
        let trace = Topo::Ripple.build_trace(&net, 200, 6);
        let flash = run_scheme(&net, Scheme::Flash, &trace, DEFAULT_MICE_FRACTION, 7);
        let sp = run_scheme(&net, Scheme::ShortestPath, &trace, DEFAULT_MICE_FRACTION, 7);
        assert!(
            flash.success_volume() >= sp.success_volume(),
            "Flash {} < SP {}",
            flash.success_volume(),
            sp.success_volume()
        );
    }
}
