//! The five workloads: what each is made of, how its inputs are built
//! (set-up) and how one pass's input is derived from the seed.
//!
//! # What the seed selects
//!
//! The paper evaluates on one crawled topology and one recorded trace.
//! Their stand-ins here are generated once, from [`POPULATION_SEED`],
//! and every run uses them: regenerating them per seed moves
//! `payments_per_s` on `sim-recurrent` sixfold, because one
//! sender/receiver pair carries about a sixth of a Ripple-style trace
//! and whether that pair's paths run dry decides the run. No run of
//! affordable length averages that out, so it is held fixed. `--seed`
//! selects what can vary without changing the workload's difficulty:
//! where in the (cyclic) trace a pass starts, the router's random path
//! order and the Poisson arrival plan. Each pass of a run draws all
//! three afresh from `(seed, pass index)`, so that the run's medians
//! average over them instead of inheriting one draw.

use crate::stats::{mix, Digest};
use flash_core::classify::threshold_for_mice_fraction;
use pcn_graph::{bfs, Path};
use pcn_proto::{wall_now, Cluster};
use pcn_sim::{DesConfig, LatencyModel, Network, ServiceModel, SimTime};
use pcn_types::{Amount, Payment};
use pcn_workload::arrivals::poisson_times;
use pcn_workload::topology::assign_paper_fees;
use pcn_workload::trace::{generate_trace, TraceConfig};
use pcn_workload::{lightning_topology, ripple_topology, testbed_topology};
use std::collections::BTreeMap;

/// Seed of the fixed topology and trace population (topology
/// `POPULATION_SEED`, fees `+3`, trace `+7`, as the repository's other
/// benches derive them).
pub const POPULATION_SEED: u64 = 11;

/// A workload, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `sim-recurrent`
    SimRecurrent,
    /// `sim-elephant`
    SimElephant,
    /// `des-flash`
    DesFlash,
    /// `des-engine`
    DesEngine,
    /// `testbed-flash`
    TestbedFlash,
}

/// The topology generator a workload uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Topology {
    /// `ripple_topology`: 1,870 nodes / 17,416 directed edges.
    Ripple,
    /// `lightning_topology` + `assign_paper_fees`: 2,511 nodes /
    /// 72,032 directed edges.
    LightningWithFees,
    /// `testbed_topology(nodes, lo, hi)`, optionally with paper fees.
    Testbed {
        /// Node count.
        nodes: usize,
        /// Lowest per-direction capacity.
        lo: u64,
        /// Capacity upper bound (exclusive).
        hi: u64,
        /// Whether `assign_paper_fees` runs on it.
        fees: bool,
    },
}

/// Which `TraceConfig` family generates the payments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// `TraceConfig::ripple` (USD sizes).
    Ripple,
    /// `TraceConfig::lightning` (satoshi sizes).
    Lightning,
}

/// The load and delay model of a DES workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DesLoad {
    /// Poisson arrival rate, payments per virtual second.
    pub rate_per_s: f64,
    /// Per-hop propagation latency, virtual ms.
    pub hop_ms: u64,
    /// Per-node service time, virtual ms.
    pub service_ms: u64,
}

impl DesLoad {
    /// The engine configuration for this load.
    pub fn config(&self) -> DesConfig {
        DesConfig {
            latency: LatencyModel::constant_ms(self.hop_ms),
            service: ServiceModel::constant_ms(self.service_ms),
            ..DesConfig::default()
        }
    }
}

/// The backend a workload drives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Driver {
    /// `pcn_sim::Network`, payments back to back.
    Sim,
    /// `pcn_sim::des::DesEngine` under Poisson arrivals.
    Des(DesLoad),
    /// `pcn_proto::Cluster` over loopback TCP.
    Testbed,
}

/// The router a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterKind {
    /// `FlashRouter` with the paper defaults (k = 20, m = 4, fee LP).
    Flash,
    /// The benchmark's precomputed-path replay router.
    Replay,
}

/// Everything that defines a workload. Payment counts are constants,
/// never adapted at run time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Topology generator.
    pub topology: Topology,
    /// Trace family.
    pub trace: TraceKind,
    /// Payments per pass.
    pub payments: usize,
    /// Share of payments classified as mice.
    pub mice_fraction: f64,
    /// Backend.
    pub driver: Driver,
    /// Router.
    pub router: RouterKind,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::SimRecurrent,
        Workload::SimElephant,
        Workload::DesFlash,
        Workload::DesEngine,
        Workload::TestbedFlash,
    ];

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL
            .into_iter()
            .find(|w| w.spec(false).name == name)
    }

    /// The workload's definition; `quick` is its 60-node / 200-payment
    /// version (same code paths and checks, seconds instead of minutes).
    pub fn spec(self, quick: bool) -> Spec {
        let quick_usd = Topology::Testbed {
            nodes: 60,
            lo: 1000,
            hi: 1500,
            fees: false,
        };
        let pick = |full: Topology, small: Topology| if quick { small } else { full };
        let count = |full: usize| if quick { 200 } else { full };
        match self {
            Workload::SimRecurrent => Spec {
                name: "sim-recurrent",
                topology: pick(Topology::Ripple, quick_usd),
                trace: TraceKind::Ripple,
                payments: count(500),
                mice_fraction: 0.9,
                driver: Driver::Sim,
                router: RouterKind::Flash,
            },
            Workload::SimElephant => Spec {
                name: "sim-elephant",
                topology: pick(
                    Topology::LightningWithFees,
                    Topology::Testbed {
                        nodes: 60,
                        lo: 2_000_000,
                        hi: 6_000_000,
                        fees: true,
                    },
                ),
                trace: TraceKind::Lightning,
                payments: count(600),
                mice_fraction: 0.0,
                driver: Driver::Sim,
                router: RouterKind::Flash,
            },
            Workload::DesFlash => Spec {
                name: "des-flash",
                topology: pick(Topology::Ripple, quick_usd),
                trace: TraceKind::Ripple,
                payments: count(600),
                mice_fraction: 0.9,
                driver: Driver::Des(DesLoad {
                    rate_per_s: 200.0,
                    hop_ms: 25,
                    service_ms: 1,
                }),
                router: RouterKind::Flash,
            },
            Workload::DesEngine => Spec {
                name: "des-engine",
                topology: pick(Topology::Ripple, quick_usd),
                trace: TraceKind::Ripple,
                payments: count(60_000),
                mice_fraction: 0.9,
                driver: Driver::Des(DesLoad {
                    rate_per_s: if quick { 500.0 } else { 5_000.0 },
                    hop_ms: 25,
                    service_ms: 1,
                }),
                router: RouterKind::Replay,
            },
            Workload::TestbedFlash => Spec {
                name: "testbed-flash",
                topology: pick(
                    Topology::Testbed {
                        nodes: 120,
                        lo: 1000,
                        hi: 1500,
                        fees: false,
                    },
                    quick_usd,
                ),
                trace: TraceKind::Ripple,
                payments: if quick { 60 } else { 100 },
                mice_fraction: 0.9,
                driver: Driver::Testbed,
                router: RouterKind::Flash,
            },
        }
    }
}

/// Host time the parts of one set-up took.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Topology and fee generation.
    pub topology_ms: f64,
    /// Trace generation.
    pub trace_ms: f64,
    /// The whole set-up.
    pub total_s: f64,
}

/// A workload's inputs, ready to run passes on.
pub struct Fixture {
    /// The definition they were built from.
    pub spec: Spec,
    /// The run's seed.
    pub seed: u64,
    /// The initial network; every pass runs on a copy.
    pub net: Network,
    /// The payment population, in generation order.
    pub trace: Vec<Payment>,
    /// Elephant threshold for `spec.mice_fraction`.
    pub threshold: Amount,
    /// BFS path per payment, indexed by `TxId` (replay router only).
    pub replay_paths: Vec<Option<Path>>,
    /// What this set-up cost.
    pub times: SetupTimes,
}

fn ms_since(wall_start: pcn_proto::WallInstant) -> f64 {
    wall_start.elapsed().as_secs_f64() * 1e3
}

/// Builds a workload's inputs. Everything a run does before its first
/// payment is in here, so that work a later change moves out of the
/// timed section shows up in `setup_s`.
pub fn setup(spec: Spec, seed: u64) -> Fixture {
    let wall_setup = wall_now();

    let wall_topology = wall_now();
    let net = match spec.topology {
        Topology::Ripple => ripple_topology(POPULATION_SEED),
        Topology::LightningWithFees => {
            let mut net = lightning_topology(POPULATION_SEED);
            assign_paper_fees(&mut net, POPULATION_SEED + 3);
            net
        }
        Topology::Testbed {
            nodes,
            lo,
            hi,
            fees,
        } => {
            let mut net = testbed_topology(nodes, lo, hi, POPULATION_SEED);
            if fees {
                assign_paper_fees(&mut net, POPULATION_SEED + 3);
            }
            net
        }
    };
    let topology_ms = ms_since(wall_topology);

    let wall_trace = wall_now();
    let config = match spec.trace {
        TraceKind::Ripple => TraceConfig::ripple(spec.payments, POPULATION_SEED + 7),
        TraceKind::Lightning => TraceConfig::lightning(spec.payments, POPULATION_SEED + 7),
    };
    let trace = generate_trace(net.graph(), &config);
    let trace_ms = ms_since(wall_trace);

    let amounts: Vec<Amount> = trace.iter().map(|p| p.amount).collect();
    let threshold = threshold_for_mice_fraction(&amounts, spec.mice_fraction);

    let replay_paths = match spec.router {
        RouterKind::Replay => precompute_paths(&net, &trace),
        RouterKind::Flash => Vec::new(),
    };

    Fixture {
        spec,
        seed,
        net,
        trace,
        threshold,
        replay_paths,
        times: SetupTimes {
            topology_ms,
            trace_ms,
            total_s: wall_setup.elapsed().as_secs_f64(),
        },
    }
}

/// One BFS per distinct pair; the replay router looks paths up by
/// payment id.
fn precompute_paths(net: &Network, trace: &[Payment]) -> Vec<Option<Path>> {
    let mut by_pair = BTreeMap::new();
    let mut out = vec![None; trace.len()];
    for p in trace {
        let path = by_pair
            .entry((p.sender, p.receiver))
            .or_insert_with(|| bfs::shortest_path(net.graph(), p.sender, p.receiver));
        out[p.id.0 as usize] = path.clone();
    }
    out
}

/// Launches a testbed cluster holding `net`'s topology and balances.
/// Every testbed pass launches its own, outside its timed section. The
/// launch is not part of `setup_s`: it is a few hundred `bind` and
/// `close` calls, 1.5 ms whose run-to-run drift (25% between two sets of
/// ten runs on the reference box) is the kernel's, not the program's.
/// It is the per-layer metric `proto.cluster.launch_ms` instead.
pub fn launch_cluster(net: &Network) -> Cluster {
    let graph = net.graph().clone();
    let balances: Vec<Amount> = graph.edges().map(|(e, _, _)| net.balance(e)).collect();
    Cluster::launch(graph, &balances).expect("loopback listeners bind")
}

/// The input of one pass: everything the seed selects.
pub struct PassInput {
    /// The population, read cyclically from the pass's offset.
    pub trace: Vec<Payment>,
    /// Seed of the router's random path order.
    pub router_seed: u64,
    /// Arrival instants (DES workloads; empty otherwise).
    pub arrivals: Vec<SimTime>,
}

impl Fixture {
    /// The input of pass `pass`, drawn from `(seed, pass)`.
    pub fn pass_input(&self, pass: u64) -> PassInput {
        let draw = mix(self.seed, pass);
        let mut trace = self.trace.clone();
        let offset = (draw % trace.len().max(1) as u64) as usize;
        trace.rotate_left(offset);
        // Router and arrivals share `draw + 31`, as the repository's
        // other benches derive both from `seed + 31`.
        let stream = draw.wrapping_add(31);
        let arrivals = match self.spec.driver {
            Driver::Des(load) => poisson_times(trace.len(), load.rate_per_s, stream),
            Driver::Sim | Driver::Testbed => Vec::new(),
        };
        PassInput {
            trace,
            router_seed: stream,
            arrivals,
        }
    }
}

/// Order-sensitive digest of a trace (ids, endpoints and amounts).
pub fn trace_digest(trace: &[Payment]) -> Digest {
    let mut d = Digest::default();
    for p in trace {
        d.push(p.id.0);
        d.push(u64::from(p.sender.0));
        d.push(u64::from(p.receiver.0));
        d.push(p.amount.micros());
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_match_the_catalog() {
        for (w, (name, _)) in Workload::ALL.into_iter().zip(crate::catalog::WORKLOADS) {
            assert_eq!(w.spec(false).name, *name);
            assert_eq!(w.spec(true).name, *name);
            assert_eq!(Workload::from_name(name), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let spec = Workload::DesFlash.spec(true);
        let a = setup(spec, 11);
        let b = setup(spec, 11);
        let c = setup(spec, 12);
        assert_eq!(a.trace.len(), 200);
        let digest = |f: &Fixture, pass| trace_digest(&f.pass_input(pass).trace);
        assert_eq!(digest(&a, 0), digest(&b, 0));
        assert_eq!(digest(&a, 3), digest(&b, 3));
        assert_eq!(a.pass_input(3).arrivals, b.pass_input(3).arrivals);
        assert_eq!(a.pass_input(3).router_seed, b.pass_input(3).router_seed);
        assert_ne!(digest(&a, 0), digest(&c, 0));
        assert_ne!(a.pass_input(0).arrivals, c.pass_input(0).arrivals);
        // Passes of one run differ too, and every pass is the same
        // multiset of payments.
        assert_ne!(digest(&a, 0), digest(&a, 1));
        assert_ne!(a.pass_input(0).arrivals, a.pass_input(1).arrivals);
        assert_eq!(a.pass_input(0).arrivals.len(), 200);
        let mut ids: Vec<u64> = a.pass_input(5).trace.iter().map(|p| p.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..200).collect::<Vec<u64>>());
    }

    #[test]
    fn replay_paths_cover_every_payment() {
        let fixture = setup(Workload::DesEngine.spec(true), 11);
        assert_eq!(fixture.replay_paths.len(), fixture.trace.len());
        for p in &fixture.trace {
            let path = fixture.replay_paths[p.id.0 as usize]
                .as_ref()
                .expect("connected pair");
            assert_eq!((path.source(), path.target()), (p.sender, p.receiver));
        }
    }
}
