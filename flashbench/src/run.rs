//! One pass of a workload: a fresh backend and router, the pass's
//! trace routed once, the system's laws checked.
//!
//! The same code runs the untraced and the traced pass. Untraced, the
//! router drives the bare backend and, on the DES workloads,
//! `DesEngine::run` owns the loop. Traced, the backend is wrapped in
//! [`Traced`] and the engine loop is recomposed here from the public
//! `advance_to` / `route` / `drain_all`, so that each piece can carry a
//! span; its report must equal the engine's.

use crate::host::{cpu_times, CpuTimes};
use crate::spans::Tracer;
use crate::stats::Digest;
use crate::traced::{RouteHook, Traced};
use crate::workload::{launch_cluster, DesLoad, Driver, Fixture, PassInput, RouterKind};
use flash_core::{FlashConfig, FlashRouter};
use pcn_graph::Path;
use pcn_proto::{wall_now, Cluster};
use pcn_sim::{
    DesEngine, DesNetwork, DesReport, FailureReason, Metrics, PaymentNetwork, RouteOutcome, Router,
    SimTime,
};
use pcn_types::{Payment, PaymentClass};
use pcn_workload::arrivals::stamp;

/// Routers whose routing-table size the benchmark samples around each
/// call (a call that grows the table was a first sight of its pair).
pub trait TableLen {
    /// Entries currently cached.
    fn table_len(&self) -> usize;
}

impl TableLen for FlashRouter {
    fn table_len(&self) -> usize {
        self.routing_table_len()
    }
}

/// The `des-engine` router: no search, no probe — the precomputed BFS
/// path of the payment's pair, sent in one part. All that is left is
/// the DES backend's own work.
pub struct ReplayRouter<'a> {
    /// Path per payment, indexed by `TxId`.
    pub paths: &'a [Option<Path>],
}

impl TableLen for ReplayRouter<'_> {
    fn table_len(&self) -> usize {
        0
    }
}

impl<N: PaymentNetwork> Router<N> for ReplayRouter<'_> {
    fn name(&self) -> &'static str {
        "Replay"
    }

    fn route(&mut self, net: &mut N, payment: &Payment, class: PaymentClass) -> RouteOutcome {
        match self.paths.get(payment.id.0 as usize) {
            Some(Some(path)) => net.send_single_path(payment, class, path),
            _ => {
                net.record_rejected_attempt(payment, class);
                RouteOutcome::failure(FailureReason::NoRoute)
            }
        }
    }
}

/// What a pass delivered, counted from the outcomes `route` returned.
/// Deterministic for a seed: the untraced and the traced pass of one
/// input, and two runs of one seed, must agree on every field.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Quality {
    /// Payments handed to the router.
    pub attempted: u64,
    /// Payments delivered in full.
    pub succeeded: u64,
    /// Volume attempted, micro-units.
    pub attempted_volume: u128,
    /// Volume delivered, micro-units.
    pub success_volume: u128,
    /// Fees paid on delivered payments, micro-units.
    pub fees: u128,
    /// Hop-counted probe messages the backend metered.
    pub probe_messages: u64,
    /// Digest of every payment's `(id, outcome)` in routing order.
    pub outcomes: Digest,
    /// The engine's report (DES workloads).
    pub des: Option<DesReport>,
}

impl Quality {
    fn record(&mut self, payment: &Payment, outcome: &RouteOutcome) {
        self.attempted += 1;
        self.attempted_volume += u128::from(payment.amount.micros());
        self.outcomes.push(payment.id.0);
        match *outcome {
            RouteOutcome::Success {
                volume,
                fees,
                paths_used,
            } => {
                self.succeeded += 1;
                self.success_volume += u128::from(volume.micros());
                self.fees += u128::from(fees.micros());
                self.outcomes.push(volume.micros());
                self.outcomes.push(fees.micros());
                self.outcomes.push(u64::from(paths_used));
            }
            RouteOutcome::Failure { reason } => self.outcomes.push(reason as u64),
        }
    }

    /// Adds another pass's counts to this one's (the digest and the
    /// engine report stay this one's).
    pub fn absorb(&mut self, other: &Quality) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.attempted_volume += other.attempted_volume;
        self.success_volume += other.success_volume;
        self.fees += other.fees;
        self.probe_messages += other.probe_messages;
    }

    /// Delivered / attempted payments.
    pub fn success_ratio(&self) -> f64 {
        self.succeeded as f64 / self.attempted.max(1) as f64
    }

    /// Delivered / attempted volume.
    pub fn success_volume_ratio(&self) -> f64 {
        self.success_volume as f64 / self.attempted_volume.max(1) as f64
    }

    /// Probe messages per attempted payment.
    pub fn probe_msgs_per_payment(&self) -> f64 {
        self.probe_messages as f64 / self.attempted.max(1) as f64
    }

    /// Fees as a percentage of delivered volume.
    pub fn fee_pct(&self) -> f64 {
        100.0 * self.fees as f64 / self.success_volume.max(1) as f64
    }
}

/// A router wrapper that times every `route` call, tallies its outcome
/// and — when the backend is [`Traced`] — brackets it with a span.
pub struct Observed<R> {
    inner: R,
    /// Host nanoseconds of each `route` call, in routing order.
    pub route_ns: Vec<u64>,
    /// Outcome tally.
    pub quality: Quality,
    /// Calls that grew the routing table.
    pub table_miss_n: u64,
}

impl<R> Observed<R> {
    fn new(inner: R, payments: usize) -> Self {
        Observed {
            inner,
            route_ns: Vec::with_capacity(payments),
            quality: Quality::default(),
            table_miss_n: 0,
        }
    }
}

impl<N, R> Router<N> for Observed<R>
where
    N: PaymentNetwork + RouteHook,
    R: Router<N> + TableLen,
{
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, net: &mut N, payment: &Payment, class: PaymentClass) -> RouteOutcome {
        let table_before = self.inner.table_len();
        let span = net.route_begin(payment, class);
        let wall_route = wall_now();
        let outcome = self.inner.route(net, payment, class);
        let route_ns = wall_route.elapsed().as_nanos();
        net.route_end(span);
        self.route_ns
            .push(u64::try_from(route_ns).unwrap_or(u64::MAX));
        self.quality.record(payment, &outcome);
        if self.inner.table_len() > table_before {
            self.table_miss_n += 1;
        }
        outcome
    }
}

/// Cluster-wide wire counters at the end of a testbed pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WireCounters {
    /// Frames received, all nodes.
    pub frames_in: u64,
    /// Frames sent, all nodes.
    pub frames_out: u64,
    /// Escrow still held.
    pub escrow_end: u64,
    /// Messages dropped by the fault plan.
    pub dropped: u64,
    /// Deepest outbound queue of any node.
    pub queue_high_water: u64,
    /// Host milliseconds `Cluster::launch` took before the pass.
    pub launch_ms: f64,
}

/// Everything one pass produced.
pub struct PassOutcome {
    /// Host seconds of the timed section (the routing loop only).
    pub wall_s: f64,
    /// CPU time the process spent in the timed section.
    pub cpu: CpuTimes,
    /// Host nanoseconds of each `route` call, in routing order.
    pub route_ns: Vec<u64>,
    /// What was delivered.
    pub quality: Quality,
    /// Calls that grew the routing table.
    pub table_miss_n: u64,
    /// Routing-table entries when the pass ended.
    pub table_len_end: u64,
    /// Wire counters (testbed only).
    pub wire: Option<WireCounters>,
    /// The pass's spans (traced passes only).
    pub tracer: Option<Tracer>,
    /// Laws this pass broke; empty on a correct pass.
    pub violations: Vec<String>,
}

/// Runs pass `pass` of the fixture's workload, traced or not.
pub fn run_pass(fixture: &Fixture, pass: u64, traced: bool) -> PassOutcome {
    let input = fixture.pass_input(pass);
    match fixture.spec.router {
        RouterKind::Flash => dispatch(fixture, &input, flash_router(fixture, &input), traced),
        RouterKind::Replay => {
            let router = ReplayRouter {
                paths: &fixture.replay_paths,
            };
            dispatch(fixture, &input, router, traced)
        }
    }
}

fn flash_router(fixture: &Fixture, input: &PassInput) -> FlashRouter {
    FlashRouter::new(FlashConfig {
        elephant_threshold: fixture.threshold,
        seed: input.router_seed,
        ..Default::default()
    })
}

fn dispatch<R>(fixture: &Fixture, input: &PassInput, router: R, traced: bool) -> PassOutcome
where
    R: TableLen
        + Router<pcn_sim::Network>
        + Router<Traced<pcn_sim::Network>>
        + Router<DesNetwork>
        + Router<Traced<DesNetwork>>
        + Router<Cluster>
        + Router<Traced<Cluster>>,
{
    let trace = &input.trace[..];
    let router = Observed::new(router, trace.len());
    let mut out = match (fixture.spec.driver, traced) {
        (Driver::Sim, false) => sim_pass(fixture, trace, router, |net| net, |net| (net, None)),
        (Driver::Sim, true) => sim_pass(fixture, trace, router, Traced::new, |t| {
            (t.inner, Some(t.tracer))
        }),
        (Driver::Des(load), false) => des_engine_pass(fixture, input, router, load),
        (Driver::Des(load), true) => des_recomposed_pass(fixture, input, router, load),
        (Driver::Testbed, false) => testbed_pass(fixture, trace, router, |c| c, |c| (c, None)),
        (Driver::Testbed, true) => testbed_pass(fixture, trace, router, Traced::new, |t| {
            (t.inner, Some(t.tracer))
        }),
    };
    if out.quality.attempted != trace.len() as u64 {
        out.violations.push(format!(
            "attempted {} payments of a trace of {}",
            out.quality.attempted,
            trace.len()
        ));
    }
    out
}

/// A pass's timed section: runs `section` and returns what it returned
/// with the host seconds and the CPU time it took.
fn timed<T>(section: impl FnOnce() -> T) -> (T, f64, CpuTimes) {
    let cpu_start = cpu_times();
    let wall_section = wall_now();
    let value = section();
    let wall_s = wall_section.elapsed().as_secs_f64();
    (value, wall_s, cpu_times().since(cpu_start))
}

/// The closed loop every non-DES workload runs: one sender, the next
/// payment after the previous one returned. Returns the timed
/// section's host seconds and CPU time.
fn drive<N, R>(
    net: &mut N,
    router: &mut Observed<R>,
    trace: &[Payment],
    fixture: &Fixture,
) -> (f64, CpuTimes)
where
    N: PaymentNetwork + RouteHook,
    R: Router<N> + TableLen,
{
    let ((), wall_s, cpu) = timed(|| {
        for p in trace {
            let class = p.classify(fixture.threshold);
            router.route(net, p, class);
        }
    });
    (wall_s, cpu)
}

/// Takes the probe count from the backend's own metering and checks
/// that it counted the payments the outcomes say were routed.
fn check_metering(out: &mut PassOutcome, metrics: &Metrics) {
    out.quality.probe_messages = metrics.probe_messages;
    let metered = metrics.total();
    if (metered.attempted, metered.succeeded) != (out.quality.attempted, out.quality.succeeded) {
        out.violations.push(format!(
            "backend metered {}/{} payments, outcomes say {}/{}",
            metered.succeeded, metered.attempted, out.quality.succeeded, out.quality.attempted
        ));
    }
}

fn finish<R: TableLen>(
    router: Observed<R>,
    wall_s: f64,
    cpu: CpuTimes,
    tracer: Option<Tracer>,
) -> PassOutcome {
    PassOutcome {
        wall_s,
        cpu,
        table_len_end: router.inner.table_len() as u64,
        table_miss_n: router.table_miss_n,
        route_ns: router.route_ns,
        quality: router.quality,
        wire: None,
        tracer,
        violations: Vec::new(),
    }
}

fn sim_pass<N, R>(
    fixture: &Fixture,
    trace: &[Payment],
    mut router: Observed<R>,
    wrap: impl FnOnce(pcn_sim::Network) -> N,
    unwrap: impl FnOnce(N) -> (pcn_sim::Network, Option<Tracer>),
) -> PassOutcome
where
    N: PaymentNetwork + RouteHook,
    R: Router<N> + TableLen,
{
    let funds_before = fixture.net.total_funds();
    let mut net = wrap(fixture.net.clone());
    let (wall_s, cpu) = drive(&mut net, &mut router, trace, fixture);
    let (net, tracer) = unwrap(net);
    let mut out = finish(router, wall_s, cpu, tracer);
    check_metering(&mut out, net.metrics());
    if net.total_funds() != funds_before {
        out.violations.push(format!(
            "total funds moved from {} to {}",
            funds_before,
            net.total_funds()
        ));
    }
    out
}

/// Laws of a drained DES backend, and the report folded into the
/// pass's quality.
fn des_finish(out: &mut PassOutcome, net: &DesNetwork, report: DesReport) {
    check_metering(out, &report.metrics);
    if net.conserved_total_micros() != net.initial_total_micros() {
        out.violations.push(format!(
            "DES funds not conserved: {} of {} micro-units",
            net.conserved_total_micros(),
            net.initial_total_micros()
        ));
    }
    if net.in_flight() != 0 {
        out.violations.push(format!(
            "{} payments still in flight after drain",
            net.in_flight()
        ));
    }
    out.quality.des = Some(report);
}

fn des_engine_pass<R>(
    fixture: &Fixture,
    input: &PassInput,
    mut router: Observed<R>,
    load: DesLoad,
) -> PassOutcome
where
    R: Router<DesNetwork> + TableLen,
{
    let workload = stamp(&input.trace, &input.arrivals);
    let mut engine = DesEngine::new(fixture.net.clone(), load.config());
    let (report, wall_s, cpu) = timed(|| engine.run(&mut router, &workload, fixture.threshold));
    let net = engine.into_network();
    let mut out = finish(router, wall_s, cpu, None);
    des_finish(&mut out, &net, report);
    out
}

/// Span names of the recomposed engine loop.
pub mod des_spans {
    /// `DesNetwork::advance_to` before each arrival.
    pub const ADVANCE: &str = "des.advance";
    /// `DesNetwork::drain_all` after the last arrival.
    pub const DRAIN: &str = "des.drain";
}

/// `DesEngine::run`, recomposed from `DesNetwork`'s public methods so
/// that advance, route and drain each carry a span. The report is
/// assembled exactly as the engine assembles it.
fn des_recomposed_pass<R>(
    fixture: &Fixture,
    input: &PassInput,
    mut router: Observed<R>,
    load: DesLoad,
) -> PassOutcome
where
    R: Router<Traced<DesNetwork>> + TableLen,
{
    let workload = stamp(&input.trace, &input.arrivals);
    let mut net = Traced::new(DesNetwork::new(fixture.net.clone(), load.config()));
    let (first_arrival, wall_s, cpu) = timed(|| {
        let mut order: Vec<usize> = (0..workload.len()).collect();
        order.sort_by_key(|&i| workload[i].0);
        for &i in &order {
            let (t, p) = &workload[i];
            net.tracer.set_tx(p.id.0);
            let span = net.tracer.open(des_spans::ADVANCE, 1);
            net.inner.advance_to(*t);
            net.tracer.close(span);
            let class = p.classify(fixture.threshold);
            router.route(&mut net, p, class);
        }
        let span = net.tracer.open(des_spans::DRAIN, 1);
        net.inner.drain_all();
        net.tracer.close(span);
        order.first().map_or(SimTime::ZERO, |&i| workload[i].0)
    });

    let Traced {
        inner: mut des,
        tracer,
    } = net;
    let makespan = des.horizon().saturating_sub(first_arrival);
    let metrics = des.take_metrics();
    let secs = makespan.as_secs_f64();
    let throughput_pps = if secs > 0.0 {
        metrics.total().succeeded as f64 / secs
    } else {
        0.0
    };
    let report = DesReport {
        metrics,
        peak_in_flight: des.peak_in_flight(),
        events: des.events_delivered(),
        makespan,
        throughput_pps,
        peak_backlog: des.service_queues().peak_backlog(),
        max_node_utilization: des.service_queues().max_utilization(makespan),
        closed_channels: des.closed_channels(),
        stale_probe_failures: des.stale_probe_failures(),
        reprobes_triggered: des.reprobes_triggered(),
    };
    let mut out = finish(router, wall_s, cpu, Some(tracer));
    des_finish(&mut out, &des, report);
    out
}

fn testbed_pass<N, R>(
    fixture: &Fixture,
    trace: &[Payment],
    mut router: Observed<R>,
    wrap: impl FnOnce(Cluster) -> N,
    unwrap: impl FnOnce(N) -> (Cluster, Option<Tracer>),
) -> PassOutcome
where
    N: PaymentNetwork + RouteHook,
    R: Router<N> + TableLen,
{
    let wall_launch = wall_now();
    let cluster = launch_cluster(&fixture.net);
    let launch_ms = wall_launch.elapsed().as_secs_f64() * 1e3;
    let funds_before = cluster.total_funds();
    let mut net = wrap(cluster);
    let (wall_s, cpu) = drive(&mut net, &mut router, trace, fixture);
    let (cluster, tracer) = unwrap(net);
    let mut out = finish(router, wall_s, cpu, tracer);
    out.quality.probe_messages = cluster.probe_messages();

    let counters = cluster.node_counters();
    let wire = WireCounters {
        frames_in: counters.iter().map(|c| c.wire_in()).sum(),
        frames_out: counters.iter().map(|c| c.wire_out()).sum(),
        escrow_end: counters.iter().map(|c| c.escrow_held).sum(),
        dropped: cluster.dropped_messages(),
        queue_high_water: counters
            .iter()
            .map(|c| c.queue_high_water)
            .max()
            .unwrap_or(0),
        launch_ms,
    };
    if wire.frames_in != wire.frames_out {
        out.violations.push(format!(
            "wire frames not conserved: {} sent, {} received",
            wire.frames_out, wire.frames_in
        ));
    }
    if wire.escrow_end != 0 || wire.dropped != 0 {
        out.violations.push(format!(
            "{} micro-units still escrowed, {} messages dropped",
            wire.escrow_end, wire.dropped
        ));
    }
    if cluster.total_funds() != funds_before {
        out.violations.push(format!(
            "cluster funds moved from {} to {}",
            funds_before,
            cluster.total_funds()
        ));
    }
    let shutdown = cluster.shutdown();
    if !shutdown.is_clean() || shutdown.unanswered_requests != 0 {
        out.violations
            .push(format!("cluster shutdown left {shutdown:?} behind"));
    }
    out.wire = Some(wire);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{setup, Workload};
    use flash_core::SpiderRouter;
    use pcn_sim::Network;

    /// Routes `trace` payment by payment and returns every outcome.
    fn outcomes<N: PaymentNetwork>(
        net: &mut N,
        router: &mut impl Router<N>,
        fixture: &Fixture,
    ) -> Vec<RouteOutcome> {
        fixture
            .trace
            .iter()
            .map(|p| router.route(net, p, p.classify(fixture.threshold)))
            .collect()
    }

    fn flash(fixture: &Fixture) -> FlashRouter {
        flash_router(fixture, &fixture.pass_input(0))
    }

    #[test]
    fn traced_network_is_transparent_for_flash_and_spider() {
        let fixture = setup(Workload::SimRecurrent.spec(true), 11);
        assert_eq!(fixture.net.graph().node_count(), 60);

        let mut bare: Network = fixture.net.clone();
        let mut traced = Traced::new(fixture.net.clone());
        let a = outcomes(&mut bare, &mut flash(&fixture), &fixture);
        let b = outcomes(&mut traced, &mut flash(&fixture), &fixture);
        assert_eq!(a, b, "Flash outcomes differ payment by payment");
        assert_eq!(bare.metrics(), traced.inner.metrics());
        assert!(a.iter().any(RouteOutcome::is_success));
        assert!(!traced.tracer.spans().is_empty());

        let mut bare: Network = fixture.net.clone();
        let mut traced = Traced::new(fixture.net.clone());
        let a = outcomes(&mut bare, &mut SpiderRouter::new(), &fixture);
        let b = outcomes(&mut traced, &mut SpiderRouter::new(), &fixture);
        assert_eq!(a, b, "Spider outcomes differ payment by payment");
        assert_eq!(bare.metrics(), traced.inner.metrics());
    }

    #[test]
    fn recomposed_des_loop_equals_the_engine() {
        for workload in [Workload::DesFlash, Workload::DesEngine] {
            let fixture = setup(workload.spec(true), 11);
            let engine = run_pass(&fixture, 0, false);
            let recomposed = run_pass(&fixture, 0, true);
            assert!(engine.violations.is_empty(), "{:?}", engine.violations);
            assert!(
                recomposed.violations.is_empty(),
                "{:?}",
                recomposed.violations
            );
            assert!(engine.quality.des.is_some());
            assert_eq!(engine.quality, recomposed.quality, "{workload:?}");
            let totals = recomposed.tracer.expect("traced pass keeps spans").totals();
            assert_eq!(totals[des_spans::ADVANCE].spans, 200);
            assert_eq!(totals[des_spans::DRAIN].spans, 1);
        }
    }

    #[test]
    fn every_workload_passes_its_laws_traced_and_untraced() {
        for workload in Workload::ALL {
            let fixture = setup(workload.spec(true), 12);
            let plain = run_pass(&fixture, 0, false);
            let traced = run_pass(&fixture, 0, true);
            let again = run_pass(&fixture, 0, false);
            for out in [&plain, &traced, &again] {
                assert!(
                    out.violations.is_empty(),
                    "{workload:?}: {:?}",
                    out.violations
                );
                assert_eq!(out.route_ns.len(), fixture.trace.len());
            }
            assert_eq!(
                plain.quality, traced.quality,
                "{workload:?}: tracing changed outcomes"
            );
            assert_eq!(
                plain.quality, again.quality,
                "{workload:?}: same input, other result"
            );
            assert!(
                plain.quality.succeeded > 0,
                "{workload:?}: nothing delivered"
            );
            assert!(plain.tracer.is_none() && traced.tracer.is_some());
            assert_eq!(plain.wire.is_some(), workload == Workload::TestbedFlash);
        }
    }
}
