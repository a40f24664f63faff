//! Algorithm 1 against max-flow/min-cut: on random topologies, Flash's
//! k-bounded lazily-probing max-flow must (a) be a feasible flow over
//! the probed capacities, so it never exceeds the true max-flow, (b)
//! be certified maximum when k is unbounded, and (c) be monotone in k.
//! The oracle is the cut certificate (`elephant::certify`), not a
//! second max-flow kernel. Its plans, and the work behind them, are
//! pinned below.

use flash_offchain::core::flash::elephant::{
    certify, find_paths, find_paths_with, ElephantScratch,
};
use flash_offchain::core::flash::fees::{split_payment_with, SplitScratch};
use flash_offchain::core::{FlashConfig, FlashRouter};
use flash_offchain::graph::bfs::SearchWork;
use flash_offchain::graph::generators;
use flash_offchain::graph::maxflow::Certificate;
use flash_offchain::lp::LpWork;
use flash_offchain::sim::{FaultConfig, Network, Router};
use flash_offchain::types::{Amount, FeePolicy, NodeId, PaymentClass};
use flash_offchain::workload::topology::assign_paper_fees;
use flash_offchain::workload::{generate_trace, lightning_topology, TraceConfig};
use proptest::prelude::*;

/// 24 cases, or `PROPTEST_CASES` when it is set (CI runs 2,000 in the
/// release profile).
fn cases() -> ProptestConfig {
    let env = std::env::var("PROPTEST_CASES").ok();
    ProptestConfig::with_cases(env.and_then(|v| v.parse().ok()).unwrap_or(24))
}

/// A 12-node Watts–Strogatz network: every channel direction holds
/// `5 + seed % 20` units when `uniform`, else its own
/// `1 + (i·7919 + seed) % 10,000` micro-units. Uneven balances make the
/// search cross an earlier path backwards, which only the reverse
/// credit allows; uniform ones never need it.
fn network(seed: u64, uniform: bool) -> Network {
    let g = generators::watts_strogatz(12, 4, 0.4, seed);
    if uniform {
        return Network::uniform(g, Amount::from_units(5 + seed % 20));
    }
    let caps: Vec<Amount> = (0..g.edge_count() as u64)
        .map(|i| Amount::from_micros(1 + (i * 7919 + seed) % 10_000))
        .collect();
    let fees = vec![FeePolicy::FREE; caps.len()];
    Network::new(g, caps, fees).unwrap()
}

proptest! {
    #![proptest_config(cases())]

    /// A bounded plan is a feasible flow over what it probed, so every
    /// cut, the minimum one included, bounds it.
    #[test]
    fn bounded_flow_never_exceeds_oracle(
        seed in 0u64..200,
        k in 1usize..6,
        s in 0u32..12,
        t in 0u32..12,
        uniform: bool,
    ) {
        prop_assume!(s != t);
        let mut net = network(seed, uniform);
        let plan = find_paths(
            &mut net, NodeId(s), NodeId(t), Amount::from_units(1_000_000), k,
        );
        let proof = certify(net.graph(), &plan, NodeId(s), NodeId(t));
        prop_assert!(proof.is_ok(), "k = {k}: {proof:?}");
    }

    /// Run until the search finds no path, a plan is a maximum flow:
    /// every ordered pair of the graph, since a pair whose search needs
    /// a reverse credit is rare (with per-edge capacities, about one in
    /// 400, on one seed in five).
    #[test]
    fn unbounded_k_matches_oracle(seed in 0u64..100_000, uniform: bool) {
        let fresh = network(seed, uniform);
        for (s, t) in (0..12).flat_map(|s| (0..12).map(move |t| (NodeId(s), NodeId(t)))) {
            if s == t {
                continue;
            }
            let mut net = fresh.clone();
            let plan = find_paths(&mut net, s, t, Amount::from_units(1_000_000), 10_000);
            let cut = plan.max_flow.micros();
            let proof = certify(net.graph(), &plan, s, t);
            prop_assert!(
                proof == Ok(Certificate::Maximum { cut }),
                "{s} → {t} carries {cut}: {proof:?}"
            );
        }
    }

    #[test]
    fn flow_is_monotone_in_k(
        seed in 0u64..100,
        s in 0u32..12,
        t in 0u32..12,
    ) {
        prop_assume!(s != t);
        let g = generators::watts_strogatz(12, 4, 0.4, seed);
        let mut prev = Amount::ZERO;
        for k in [1usize, 2, 4, 8, 16] {
            let mut net = Network::uniform(g.clone(), Amount::from_units(9));
            let plan = find_paths(
                &mut net, NodeId(s), NodeId(t), Amount::from_units(1_000_000), k,
            );
            prop_assert!(plan.max_flow >= prev,
                "flow decreased from {prev} to {} at k={k}", plan.max_flow);
            prev = plan.max_flow;
        }
    }

    /// The demand-aware early exit stops probing once satisfied: the
    /// probe count with a small demand never exceeds the exhaustive
    /// probe count.
    #[test]
    fn early_exit_probes_no_more(
        seed in 0u64..100,
        s in 0u32..12,
        t in 0u32..12,
    ) {
        prop_assume!(s != t);
        let g = generators::watts_strogatz(12, 4, 0.4, seed);
        let mut net_small = Network::uniform(g.clone(), Amount::from_units(9));
        let small = find_paths(&mut net_small, NodeId(s), NodeId(t), Amount::from_units(1), 30);
        let mut net_big = Network::uniform(g, Amount::from_units(9));
        let big = find_paths(&mut net_big, NodeId(s), NodeId(t), Amount::from_units(1_000_000), 30);
        prop_assert!(small.probes <= big.probes);
        if !small.paths.is_empty() {
            prop_assert_eq!(small.paths.len(), 1, "demand 1 needs a single path");
        }
    }
}

/// FNV-1a over everything a plan decides: candidate paths, their edge
/// ids, the probe count, the max-flow value, and the executable parts of
/// the fee split with the LP on and off.
fn plan_fingerprint(
    net: &mut Network,
    scratch: &mut ElephantScratch,
    split: &mut SplitScratch,
    s: NodeId,
    t: NodeId,
    demand: Amount,
) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let plan = find_paths_with(net, scratch, s, t, demand, 20);
    for (path, edges) in plan.paths.iter().zip(&plan.path_edges) {
        eat(u64::MAX);
        path.nodes().iter().for_each(|n| eat(u64::from(n.0)));
        eat(u64::MAX - 1);
        edges.iter().for_each(|e| eat(u64::from(e.0)));
    }
    eat(plan.probes as u64);
    eat(plan.max_flow.micros());
    for optimize in [true, false] {
        eat(u64::MAX - 2);
        let Some(parts) = split_payment_with(net.graph(), split, &plan, demand, optimize) else {
            continue;
        };
        for (path, amount) in &parts {
            eat(u64::MAX);
            path.nodes().iter().for_each(|n| eat(u64::from(n.0)));
            eat(amount.micros());
        }
    }
    h
}

/// What one balance state records: a fingerprint per pair, the work
/// the pairs' path searches did on one scratch, and the work their LP
/// splits did on another.
type Stage = (Vec<u64>, SearchWork, LpWork);

/// One fingerprint per fixed pair on the fee-carrying Lightning-scale
/// network, with the work behind them. Demands step through five sizes
/// so the pairs cover single-path plans, multi-path splits and plans
/// that fall short.
fn plan_fingerprints(net: &mut Network) -> Stage {
    let n = net.graph().node_count() as u32;
    let mut scratch = ElephantScratch::default();
    let mut split = SplitScratch::default();
    let prints = (0u32..24)
        .map(|i| {
            let (s, t) = (NodeId((i * 97 + 3) % n), NodeId((i * 389 + 1201) % n));
            let demand = Amount::from_units(20_000 << (2 * (i % 5)));
            plan_fingerprint(net, &mut scratch, &mut split, s, t, demand)
        })
        .collect();
    (prints, scratch.work(), split.work())
}

/// The pinned pairs on three balance states of one Lightning-scale
/// network with paper fees: fresh, after 300 routed elephants have
/// depleted it, and fresh under probe loss and noise.
fn stages() -> [(&'static str, Stage); 3] {
    let mut net = lightning_topology(7);
    assign_paper_fees(&mut net, 10);
    let fresh = net.clone();
    let fresh_plans = plan_fingerprints(&mut net);

    let trace = generate_trace(net.graph(), &TraceConfig::lightning(300, 14));
    let mut router = FlashRouter::new(FlashConfig::default());
    let delivered = trace
        .iter()
        .filter(|p| {
            router
                .route(&mut net, p, PaymentClass::Elephant)
                .is_success()
        })
        .count();
    assert!(
        delivered > 100,
        "only {delivered} of 300 payments moved funds"
    );
    let depleted_plans = plan_fingerprints(&mut net);

    let mut net = fresh;
    net.set_faults(FaultConfig {
        probe_drop_prob: 0.3,
        probe_noise_ppm: 50_000,
        seed: 5,
    });
    [
        ("fresh", fresh_plans),
        ("depleted", depleted_plans),
        ("faulty", plan_fingerprints(&mut net)),
    ]
}

fn assert_fingerprints(stage: &str, got: &[u64], want: &[u64]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "{stage}, pair {i}: plan changed (got {g:#018x})");
    }
}

/// Algorithm 1's plans and the fee split on 24 fixed pairs, as recorded
/// from the hash-map implementation that preceded the dense scratch
/// (commit c02c040): on fresh balances, after 300 routed elephants have
/// depleted them, and under probe loss and noise. Which paths are
/// probed in which order, and how the demand is cut over them, is every
/// elephant's routing result, so it is pinned here.
#[test]
fn plans_match_recorded_fingerprints() {
    const FRESH: [u64; 24] = [
        0xce0284b88a798437,
        0xa7aabdd69c4472e2,
        0xc9d20afea8f2ea12,
        0x98449f6bbf68ff7d,
        0x95218a51e3744c3e,
        0x433838eda2e8bc68,
        0xe08f1802f000659a,
        0x08c2144a4d29d0b0,
        0x7813559d917728fa,
        0xfcd41ffd5c1c6fa1,
        0x1ab11659e8dd14f3,
        0x1690bd1c6f5350eb,
        0x62b2832cf4d06781,
        0x76a9dca700ceaa6a,
        0xbd28f6d855a843ea,
        0x1943690e694af7d8,
        0x5fc15e326a64ff7d,
        0x740e9cbf75c3efcb,
        0xff19e5e94b8d07a4,
        0x954724080cfe6a77,
        0xcbb53a356ea122f4,
        0x175411c90f61bf96,
        0x95d6908ab6c6adc3,
        0x67803f5cc178f664,
    ];
    const DEPLETED: [u64; 24] = [
        0xce0284b88a798437,
        0x4dde91e6b3a14f36,
        0xc9d20afea8f2ea12,
        0x36e7cdfcd76115c4,
        0x95218a51e3744c3e,
        0x433838eda2e8bc68,
        0xe2e4743850421c64,
        0xaeba976dbcce0e6b,
        0x7813559d917728fa,
        0x2a9b9b78df300bbd,
        0x1ab11659e8dd14f3,
        0x1690bd1c6f5350eb,
        0x62b2832cf4d06781,
        0x76a9dca700ceaa6a,
        0x5e9b30927697d8ca,
        0x1943690e694af7d8,
        0x5fc15e326a64ff7d,
        0x740e9cbf75c3efcb,
        0xd98a59d8b11648d1,
        0x4a1754b7d29da7a2,
        0xcbb53a356ea122f4,
        0x175411c90f61bf96,
        0x95d6908ab6c6adc3,
        0x67803f5cc178f664,
    ];
    const FAULTY: [u64; 24] = [
        0x8fe43cb501ec6a63,
        0x42a1ce281bdf3ab7,
        0x35a08e628374e8f1,
        0xe2923f632f1e3a60,
        0xc3399d849fa53e57,
        0x52ed5762fc3fc1ec,
        0x08d8a8a14fb6e3be,
        0x2849aaa1ce2521d4,
        0x3728d69105d7c5f7,
        0x50dcdbb224dccdd0,
        0x77c50136f8eb725a,
        0xf81ef00165be3b14,
        0x58fae30ab5ba3075,
        0xd3e768472eaec426,
        0x1a9f631826aa481a,
        0xc88240ad5cdd7bab,
        0x6443ab0f0049a18e,
        0xb54e541eb622f7d0,
        0xe660e95be041d06f,
        0xb88b92c93aed493a,
        0x221d9927dca4f63b,
        0x395c02484cee63e6,
        0x93357dec53e5d4f9,
        0x42cc3f593197830b,
    ];

    for ((stage, (got, _, _)), want) in stages().iter().zip([FRESH, DEPLETED, FAULTY]) {
        assert_fingerprints(stage, got, &want);
    }
}

/// The work of the searches behind those plans: adjacency entries
/// scanned, phases opened and paths returned, per balance state. Each
/// phase serves every probe of one s–t distance, so one search per
/// probe, or a walk that rescans, changes these and fails here.
#[test]
fn search_work_matches_recorded_counts() {
    const WANT: [SearchWork; 3] = [
        SearchWork {
            scanned: 27_348,
            phases: 32,
            paths: 152,
        },
        SearchWork {
            scanned: 27_569,
            phases: 32,
            paths: 152,
        },
        SearchWork {
            scanned: 31_815,
            phases: 37,
            paths: 218,
        },
    ];
    for ((stage, (_, got, _)), want) in stages().iter().zip(WANT) {
        assert_eq!(
            got.scanned, want.scanned,
            "{stage}: adjacency entries scanned changed"
        );
        assert_eq!(got.phases, want.phases, "{stage}: phases changed");
        assert_eq!(got.paths, want.paths, "{stage}: paths returned changed");
    }
}

/// The work of the fee splits behind those plans, one reused
/// `SplitScratch` per balance state: LP solves (one per pair, since
/// every pair finds a path) and pivots. The pivots were counted on the
/// same programs by the row-of-rows solver the flat tableau replaced,
/// so a solver that pivots differently, or a split that stops solving
/// on its LP, moves a count and fails here.
#[test]
fn lp_work_matches_recorded_counts() {
    const WANT: [LpWork; 3] = [
        LpWork {
            solves: 24,
            pivots: 187,
        },
        LpWork {
            solves: 24,
            pivots: 187,
        },
        LpWork {
            solves: 24,
            pivots: 175,
        },
    ];
    for ((stage, (_, _, got)), want) in stages().iter().zip(WANT) {
        assert_eq!(
            got.solves, want.solves,
            "{stage}: LP solves changed (got {}, want {})",
            got.solves, want.solves
        );
        assert_eq!(
            got.pivots, want.pivots,
            "{stage}: LP pivots changed (got {}, want {})",
            got.pivots, want.pivots
        );
    }
}

/// Every ordered pair of one per-edge-capacity network (the proptests'
/// `network(seed, false)`), planned and split on one scratch pair with
/// demands of 2,500 to 20,000 micro-units, folded into one FNV-1a value.
fn credit_fingerprint(seed: u64) -> u64 {
    let mut net = network(seed, false);
    let mut scratch = ElephantScratch::default();
    let mut split = SplitScratch::default();
    let pairs = (0..12).flat_map(|s| (0..12).map(move |t| (NodeId(s), NodeId(t))));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, (s, t)) in pairs.filter(|(s, t)| s != t).enumerate() {
        let demand = Amount::from_micros(2_500 << (i % 4));
        let print = plan_fingerprint(&mut net, &mut scratch, &mut split, s, t, demand);
        h = (h ^ print).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The plans of [`credit_fingerprint`] on seeds 0–23. Uneven per-edge
/// capacities make some searches cross an earlier path backwards, which
/// only the reverse credit of Algorithm 1's lines 23–24 allows: without
/// it, seeds 3, 15 and 17 plan differently. The fixed Lightning pairs
/// above never need the credit.
#[test]
fn credit_plans_match_recorded_fingerprints() {
    const GOLDEN: [u64; 24] = [
        0x4217_8906_c9e9_bd87,
        0x65c1_03e1_9e6a_ba27,
        0x566a_3720_759c_d833,
        0x585f_c1dc_8591_8f5c,
        0x7cd8_3c27_40ae_f467,
        0xa41e_95e6_7122_f2f6,
        0x6431_978b_fd89_3964,
        0x05a2_68a0_a614_512e,
        0xe0a2_7c5b_3828_a1f3,
        0x1e75_c783_c41b_7169,
        0x9719_2738_c021_df9f,
        0xd146_a100_3e28_bf14,
        0x1ea8_a63a_8caa_660e,
        0x2cff_5dcf_af3e_d1ba,
        0x75e5_a140_19ad_6190,
        0x0a8e_980e_c5fe_022d,
        0xd822_e846_d148_4ea0,
        0x95b2_64c1_7eca_55d3,
        0x861d_c5f7_241c_2fe4,
        0x5aa9_8b3c_1b78_0cae,
        0xb26c_1ecb_ae28_d754,
        0xfd72_4fba_825b_e926,
        0x74e3_d6ba_aae4_8346,
        0xa5cc_a5cc_dce2_4524,
    ];
    for (seed, want) in (0u64..).zip(GOLDEN) {
        let got = credit_fingerprint(seed);
        assert_eq!(got, want, "seed {seed}: plans changed (got {got:#018x})");
    }
}
