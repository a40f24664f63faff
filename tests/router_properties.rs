//! Cross-scheme property tests: every router, on arbitrary topologies
//! and workloads, must (a) conserve funds, (b) be all-or-nothing per
//! payment, (c) never read balances except through metered probes
//! (checked indirectly: static schemes must report zero probes), and
//! (d) deliver exactly the demanded amount on success.

use flash_offchain::core::{
    FlashConfig, FlashRouter, ShortestPathRouter, SilentWhispersRouter, SpeedyMurmursRouter,
    SpiderRouter,
};
use flash_offchain::graph::bfs::SearchWork;
use flash_offchain::graph::{bfs, generators, DiGraph, Path};
use flash_offchain::sim::{Network, PaymentNetwork, ProbeReport, RouteOutcome, Router};
use flash_offchain::types::{Amount, NodeId, Payment, PaymentClass, TxId};
use flash_offchain::workload::{generate_trace, TraceConfig};
use proptest::prelude::*;

fn all_routers(seed: u64) -> Vec<Box<dyn Router>> {
    vec![
        Box::new(FlashRouter::new(FlashConfig {
            elephant_threshold: Amount::from_units(25),
            seed,
            ..Default::default()
        })),
        Box::new(SpiderRouter::new()),
        Box::new(SpeedyMurmursRouter::new()),
        Box::new(SilentWhispersRouter::new()),
        Box::new(ShortestPathRouter::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_router_conserves_and_is_atomic(
        seed in 0u64..300,
        amounts in proptest::collection::vec(1u64..80, 4..16),
    ) {
        let g = generators::watts_strogatz(14, 4, 0.3, seed);
        for mut router in all_routers(seed) {
            let mut net = Network::uniform(g.clone(), Amount::from_units(30));
            let before = net.total_funds();
            for (i, amt) in amounts.iter().enumerate() {
                let s = NodeId((i as u32 * 3 + 1) % 14);
                let t = NodeId((i as u32 * 5 + 8) % 14);
                if s == t { continue; }
                let p = Payment::new(TxId(i as u64), s, t, Amount::from_units(*amt));
                let class = p.classify(Amount::from_units(25));
                let out = router.route(&mut net, &p, class);
                prop_assert_eq!(
                    net.total_funds(), before,
                    "{} violated conservation on payment {}", router.name(), i
                );
                if let RouteOutcome::Success { volume, .. } = out {
                    prop_assert_eq!(volume, p.amount, "{} partial delivery", router.name());
                }
            }
        }
    }

    #[test]
    fn static_schemes_never_probe(seed in 0u64..200) {
        let g = generators::watts_strogatz(12, 4, 0.3, seed);
        for mut router in [
            Box::new(SpeedyMurmursRouter::new()) as Box<dyn Router>,
            Box::new(SilentWhispersRouter::new()),
            Box::new(ShortestPathRouter::new()),
        ] {
            let mut net = Network::uniform(g.clone(), Amount::from_units(30));
            for i in 0..10u64 {
                let p = Payment::new(
                    TxId(i),
                    NodeId((i % 12) as u32),
                    NodeId(((i * 5 + 3) % 12) as u32),
                    Amount::from_units(1 + i),
                );
                if p.sender == p.receiver { continue; }
                router.route(&mut net, &p, PaymentClass::Mice);
            }
            prop_assert_eq!(
                net.metrics().probe_messages, 0,
                "{} is a static scheme and must not probe", router.name()
            );
        }
    }

    /// Metrics bookkeeping: attempts = successes + failures, and the
    /// success volume equals the sum of delivered amounts.
    #[test]
    fn metrics_are_consistent(
        seed in 0u64..200,
        amounts in proptest::collection::vec(1u64..60, 4..12),
    ) {
        let g = generators::watts_strogatz(12, 4, 0.3, seed);
        let mut net = Network::uniform(g, Amount::from_units(25));
        let mut router = FlashRouter::new(FlashConfig {
            elephant_threshold: Amount::from_units(20),
            seed,
            ..Default::default()
        });
        let mut successes = 0u64;
        let mut volume = Amount::ZERO;
        let mut attempts = 0u64;
        for (i, amt) in amounts.iter().enumerate() {
            let s = NodeId((i as u32 * 7 + 2) % 12);
            let t = NodeId((i as u32 * 11 + 5) % 12);
            if s == t { continue; }
            attempts += 1;
            let p = Payment::new(TxId(i as u64), s, t, Amount::from_units(*amt));
            let class = p.classify(Amount::from_units(20));
            if router.route(&mut net, &p, class).is_success() {
                successes += 1;
                volume = volume.saturating_add(p.amount);
            }
        }
        let m = net.metrics();
        prop_assert_eq!(m.total().attempted, attempts);
        prop_assert_eq!(m.total().succeeded, successes);
        prop_assert_eq!(m.success_volume(), volume);
    }
}

/// A simulator that records the path of every single-path send, and
/// `None` for every rejected attempt.
struct Recording {
    net: Network,
    paths: Vec<Option<Path>>,
}

impl PaymentNetwork for Recording {
    type Session<'a> = <Network as PaymentNetwork>::Session<'a>;

    fn graph(&self) -> &DiGraph {
        self.net.graph()
    }

    fn probe_path(&mut self, path: &Path) -> Option<ProbeReport> {
        PaymentNetwork::probe_path(&mut self.net, path)
    }

    fn begin_payment(&mut self, payment: &Payment, class: PaymentClass) -> Self::Session<'_> {
        self.net.begin_payment(payment, class)
    }

    fn send_single_path(
        &mut self,
        payment: &Payment,
        class: PaymentClass,
        path: &Path,
    ) -> RouteOutcome {
        self.paths.push(Some(path.clone()));
        PaymentNetwork::send_single_path(&mut self.net, payment, class, path)
    }

    fn record_rejected_attempt(&mut self, payment: &Payment, class: PaymentClass) {
        self.paths.push(None);
        self.net.record_rejected_attempt(payment, class);
    }
}

/// A Watts–Strogatz core, a one-way tail out of it and isolated nodes,
/// with a 400-payment Ripple trace that includes pairs with no route.
fn core_with_tail() -> (DiGraph, Vec<Payment>) {
    let core = generators::watts_strogatz(30, 4, 0.2, 5);
    let mut g = DiGraph::new(40);
    for (_, u, v) in core.edges() {
        g.add_edge(u, v).unwrap();
    }
    g.add_edge(NodeId(5), NodeId(30)).unwrap();
    for i in 30..35 {
        g.add_edge(NodeId(i), NodeId(i + 1)).unwrap();
    }
    let config = TraceConfig {
        require_connectivity: false,
        ..TraceConfig::ripple(400, 3)
    };
    let trace = generate_trace(&g, &config);
    (g, trace)
}

/// Shortest Path searches on its own `PhaseScratch`: over a trace on a
/// graph where some pairs have no route, every payment takes the
/// forward loop's path, and the router's `SearchWork` counts one phase
/// per payment and one path per payment that found a route.
#[test]
fn shortest_path_routes_on_its_scratch_like_the_forward_loop() {
    let (g, trace) = core_with_tail();
    let mut net = Recording {
        net: Network::uniform(g.clone(), Amount::from_units(1_000_000)),
        paths: Vec::new(),
    };
    let mut router = ShortestPathRouter::new();
    for p in &trace {
        router.route(&mut net, p, PaymentClass::Mice);
    }
    assert_eq!(net.paths.len(), trace.len());
    for (p, got) in trace.iter().zip(&net.paths) {
        let want = bfs::shortest_path_filtered(&g, p.sender, p.receiver, |_| true);
        assert_eq!(
            got, &want,
            "payment {:?}: {:?} → {:?}",
            p.id, p.sender, p.receiver
        );
    }
    let routed = net.paths.iter().filter(|p| p.is_some()).count() as u64;
    assert!(
        0 < routed && routed < trace.len() as u64,
        "{routed} of {} routed",
        trace.len()
    );
    let work = router.work();
    assert_eq!(work.phases, trace.len() as u64, "one phase per payment");
    assert_eq!(work.paths, routed, "one path per routed payment");
}

/// Spider searches each payment's edge-disjoint paths as one sequence
/// on its own `PhaseScratch`. Over the same trace, its `SearchWork`
/// equals the recorded counts: a change to how the paths are searched —
/// a fresh phase for every path, say — moves them.
#[test]
fn spider_searches_on_its_scratch_with_recorded_work() {
    let (g, trace) = core_with_tail();
    let mut net = Network::uniform(g, Amount::from_units(1_000_000));
    let mut router = SpiderRouter::new();
    for p in &trace {
        router.route(&mut net, p, PaymentClass::Mice);
    }
    let want = SearchWork {
        scanned: 49_095,
        phases: 1_003,
        paths: 961,
    };
    assert_eq!(
        router.work(),
        want,
        "Spider's search work over {} payments",
        trace.len()
    );
}
