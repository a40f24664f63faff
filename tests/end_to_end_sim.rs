//! End-to-end simulation tests across crates: topology synthesis →
//! trace generation → all four routing schemes → metric sanity, on the
//! quick-scale configuration of the experiment harness.

use flash_offchain::core::Scheme;
use flash_offchain::experiments::harness::{run_scheme, Effort, Topo, DEFAULT_MICE_FRACTION};
use flash_offchain::types::Amount;

const SCHEMES: [Scheme; 4] = [
    Scheme::Flash,
    Scheme::Spider,
    Scheme::SpeedyMurmurs,
    Scheme::ShortestPath,
];

#[test]
fn funds_are_conserved_by_every_scheme() {
    let net = Topo::Ripple.build_network(Effort::Quick, 3);
    let trace = Topo::Ripple.build_trace(&net, 150, 4);
    let before = net.total_funds();
    for scheme in SCHEMES {
        // run_scheme clones the network internally; conservation is
        // checked against a fresh clone driven the same way.
        let mut clone = net.clone();
        let amounts: Vec<Amount> = trace.iter().map(|p| p.amount).collect();
        let threshold = flash_offchain::core::classify::threshold_for_mice_fraction(
            &amounts,
            DEFAULT_MICE_FRACTION,
        );
        let mut router = scheme.router(threshold, 5);
        for p in &trace {
            router.route(&mut clone, p, p.classify(threshold));
        }
        assert_eq!(
            clone.total_funds(),
            before,
            "{} violated conservation",
            scheme.label()
        );
    }
}

#[test]
fn dynamic_schemes_beat_static_on_success_volume() {
    let mut best_static = Amount::ZERO;
    let mut flash_vol = Amount::ZERO;
    // Average over a few seeds to avoid single-draw flakiness.
    for seed in [11, 23, 37] {
        let mut net = Topo::Ripple.build_network(Effort::Quick, seed);
        net.scale_balances(10);
        let trace = Topo::Ripple.build_trace(&net, 250, seed + 1);
        let f = run_scheme(&net, Scheme::Flash, &trace, DEFAULT_MICE_FRACTION, seed);
        let sp = run_scheme(
            &net,
            Scheme::ShortestPath,
            &trace,
            DEFAULT_MICE_FRACTION,
            seed,
        );
        let sm = run_scheme(
            &net,
            Scheme::SpeedyMurmurs,
            &trace,
            DEFAULT_MICE_FRACTION,
            seed,
        );
        flash_vol = flash_vol.saturating_add(f.success_volume());
        best_static = best_static.saturating_add(sp.success_volume().max(sm.success_volume()));
    }
    assert!(
        flash_vol > best_static,
        "Flash volume {flash_vol} should beat the best static scheme {best_static}"
    );
}

#[test]
fn flash_probes_fewer_messages_than_spider() {
    let mut net = Topo::Ripple.build_network(Effort::Quick, 7);
    net.scale_balances(10);
    let trace = Topo::Ripple.build_trace(&net, 300, 8);
    let flash = run_scheme(&net, Scheme::Flash, &trace, DEFAULT_MICE_FRACTION, 9);
    let spider = run_scheme(&net, Scheme::Spider, &trace, DEFAULT_MICE_FRACTION, 9);
    assert!(
        flash.probe_messages < spider.probe_messages,
        "Flash {} probes should be below Spider {}",
        flash.probe_messages,
        spider.probe_messages
    );
    // Static schemes never probe.
    let sp = run_scheme(&net, Scheme::ShortestPath, &trace, DEFAULT_MICE_FRACTION, 9);
    assert_eq!(sp.probe_messages, 0);
    let sm = run_scheme(
        &net,
        Scheme::SpeedyMurmurs,
        &trace,
        DEFAULT_MICE_FRACTION,
        9,
    );
    assert_eq!(sm.probe_messages, 0);
}

#[test]
fn success_ratio_dominated_by_mice() {
    let mut net = Topo::Ripple.build_network(Effort::Quick, 13);
    net.scale_balances(10);
    let trace = Topo::Ripple.build_trace(&net, 300, 14);
    let m = run_scheme(&net, Scheme::Flash, &trace, DEFAULT_MICE_FRACTION, 15);
    // Mice are ≤ the 90th percentile size with 10x capacity: the bulk
    // must go through ("Flash and Spider are both able to fulfill most
    // mice payments").
    assert!(
        m.mice.success_ratio() > 0.8,
        "mice success ratio {} too low",
        m.mice.success_ratio()
    );
    assert!(m.mice.success_ratio() >= m.elephant.success_ratio());
}

#[test]
fn capacity_scaling_monotonically_helps() {
    let seeds = [21, 22];
    let mut low_total = 0.0;
    let mut high_total = 0.0;
    for seed in seeds {
        let base = Topo::Ripple.build_network(Effort::Quick, seed);
        let trace = Topo::Ripple.build_trace(&base, 200, seed + 1);
        let mut low = base.clone();
        low.scale_balances(1);
        let mut high = base.clone();
        high.scale_balances(40);
        low_total +=
            run_scheme(&low, Scheme::Flash, &trace, DEFAULT_MICE_FRACTION, seed).success_ratio();
        high_total +=
            run_scheme(&high, Scheme::Flash, &trace, DEFAULT_MICE_FRACTION, seed).success_ratio();
    }
    assert!(
        high_total >= low_total,
        "success ratio should not degrade with 40x capacity ({high_total} < {low_total})"
    );
}
