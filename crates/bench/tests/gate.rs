//! Tests of the bench-regression gate itself — including the check
//! that it would have caught the PR-4 flat latency curve.

use flash_bench::gate::{gate, Severity};
use flash_bench::record::{ChurnRecord, E2eRecord, MaxflowRecord, TestbedRecord};

/// The `BENCH_e2e.json` that PR 4 committed: the propagation-only
/// engine reported **bit-identical** p50/p95/p99 completion latency at
/// 50 and 400 pps offered load for every scheme. A plain diff against
/// itself is clean; only the physical-suspicion check can object.
const PR4_FLAT: &str = include_str!("fixtures/pr4_flat_e2e.json");

fn e2e_record(
    scheme: &str,
    pps: f64,
    tput: f64,
    p50: f64,
    p95: f64,
    p99: f64,
    ratio: f64,
) -> String {
    format!(
        r#"{{"scheme":"{scheme}","nodes":60,"payments":200,"offered_pps":{pps},"hop_latency_ms":25,"service_time_ms":10,"success_ratio":{ratio},"throughput_pps":{tput},"p50_latency_ms":{p50},"p95_latency_ms":{p95},"p99_latency_ms":{p99},"p50_queue_delay_ms":1.0,"p95_queue_delay_ms":20.0,"peak_in_flight":10,"peak_backlog":50,"max_node_utilization":0.5,"events":1000,"virtual_makespan_ms":9000.0,"wall_ns":1}}"#
    )
}

fn array(records: &[String]) -> String {
    format!("[\n  {}\n]\n", records.join(",\n  "))
}

/// A healthy two-load sweep: latency rises with load.
fn healthy() -> String {
    array(&[
        e2e_record("Flash", 50.0, 16.0, 550.0, 2200.0, 4000.0, 0.77),
        e2e_record("Flash", 400.0, 15.8, 1100.0, 4400.0, 8000.0, 0.79),
    ])
}

#[test]
fn gate_fails_the_pr4_flat_latency_fixture() {
    // Diffing the PR-4 artifact against itself: every delta is zero,
    // yet the gate must reject it — identical latency percentiles
    // across an 8× offered-load spread are physically suspicious.
    let report = gate::<E2eRecord>(PR4_FLAT, PR4_FLAT).expect("fixture parses");
    assert!(!report.passed(), "the flat PR-4 curve must fail the gate");
    let flat_fails: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Fail)
        .filter(|f| f.message.contains("physically suspicious"))
        .collect();
    // Every one of the five schemes is flat in the fixture.
    assert_eq!(
        flat_fails.len(),
        5,
        "one flat-curve failure per scheme: {:#?}",
        report.findings
    );
}

#[test]
fn gate_passes_a_healthy_rising_curve_against_itself() {
    let h = healthy();
    let report = gate::<E2eRecord>(&h, &h).expect("parses");
    assert!(report.passed(), "{:#?}", report.findings);
    assert!(report.table.contains("Flash"));
}

#[test]
fn gate_fails_a_throughput_regression_over_25_percent() {
    let base = healthy();
    let cand = array(&[
        e2e_record("Flash", 50.0, 11.0, 550.0, 2200.0, 4000.0, 0.77), // -31%
        e2e_record("Flash", 400.0, 15.8, 1100.0, 4400.0, 8000.0, 0.79),
    ]);
    let report = gate::<E2eRecord>(&base, &cand).expect("parses");
    assert!(!report.passed());
    assert!(report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("throughput")));
}

#[test]
fn gate_fails_a_latency_regression_over_25_percent() {
    let base = healthy();
    let cand = array(&[
        e2e_record("Flash", 50.0, 16.0, 550.0, 2900.0, 4000.0, 0.77), // p95 +32%
        e2e_record("Flash", 400.0, 15.8, 1100.0, 4400.0, 8000.0, 0.79),
    ]);
    let report = gate::<E2eRecord>(&base, &cand).expect("parses");
    assert!(!report.passed());
    assert!(report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("p95")));
}

#[test]
fn gate_tolerates_regressions_under_the_threshold() {
    let base = healthy();
    let cand = array(&[
        e2e_record("Flash", 50.0, 13.0, 550.0, 2600.0, 4500.0, 0.70), // all < 25%
        e2e_record("Flash", 400.0, 15.8, 1100.0, 4400.0, 8000.0, 0.79),
    ]);
    let report = gate::<E2eRecord>(&base, &cand).expect("parses");
    assert!(report.passed(), "{:#?}", report.findings);
}

#[test]
fn gate_warns_but_never_fails_on_events_per_sec_drop() {
    // events/sec is wall-derived (the one metric `des_hot_loop` feeds
    // into BENCH_e2e.json): a >25% drop flags hot-loop churn, but CI
    // hardware varies, so it must stay warn-only.
    let with_eps = |eps: f64| {
        let mut r = e2e_record("Flash", 50.0, 16.0, 550.0, 2200.0, 4000.0, 0.77);
        r.truncate(r.len() - 1);
        format!("{r},\"events_per_sec\":{eps}}}")
    };
    let base = array(&[with_eps(1_400_000.0)]);
    let cand = array(&[with_eps(900_000.0)]); // -36%
    let report = gate::<E2eRecord>(&base, &cand).expect("parses");
    assert!(
        report.passed(),
        "wall-derived metrics must not fail the gate: {:#?}",
        report.findings
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.severity == Severity::Warn && f.message.contains("events/sec")),
        "{:#?}",
        report.findings
    );
    // A candidate without the field (pre-PR-7 artifact) stays silent:
    // 0.0-defaulted values are not comparable.
    let legacy = array(&[e2e_record("Flash", 50.0, 16.0, 550.0, 2200.0, 4000.0, 0.77)]);
    let report = gate::<E2eRecord>(&base, &legacy).expect("parses");
    assert!(report
        .findings
        .iter()
        .all(|f| !f.message.contains("events/sec")));
}

#[test]
fn gate_warns_on_unmatched_records_and_fails_on_total_mismatch() {
    let base = healthy();
    // One record matches nothing (different service time ⇒ new key).
    let one_new = array(&[
        e2e_record("Flash", 50.0, 16.0, 550.0, 2200.0, 4000.0, 0.77),
        e2e_record("Flash", 400.0, 15.8, 1100.0, 4400.0, 8000.0, 0.79)
            .replace("\"service_time_ms\":10", "\"service_time_ms\":99"),
    ]);
    let report = gate::<E2eRecord>(&base, &one_new).expect("parses");
    assert!(report.passed());
    assert!(report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Warn && f.message.contains("new configuration")));
    assert!(report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Warn && f.message.contains("lost coverage")));

    // Nothing matches at all: schema/config drift must fail loudly.
    let drifted = array(&[e2e_record("Flash", 75.0, 16.0, 550.0, 2200.0, 4000.0, 0.77)]);
    let report = gate::<E2eRecord>(&base, &drifted).expect("parses");
    assert!(!report.passed());
    assert!(report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("configuration drift")));
}

#[test]
fn gate_parses_pre_queue_artifacts_without_the_new_fields() {
    // The PR-4 fixture has no service_time_ms / queue-delay fields;
    // serde defaults must fill them so historical artifacts and the
    // committed smoke file stay comparable.
    let report = gate::<E2eRecord>(PR4_FLAT, &healthy()).expect("old schema parses");
    // Keys differ (service 0 vs 10) so nothing matches — but parsing
    // succeeded, which is what this test pins.
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("new configuration")));
}

/// A churn sweep where success does **not** degrade with churn — flat
/// for Spider, *rising* for Flash. A plain diff against itself is
/// clean; only the shape check can object. This is the churn analogue
/// of the PR-4 flat-latency fixture: the exact artifact a broken churn
/// wiring (events generated but never applied) would commit.
const NONMONO_CHURN: &str = include_str!("fixtures/nonmono_churn.json");

fn churn_record(scheme: &str, closes: f64, ratio: f64, closed: u64) -> String {
    format!(
        r#"{{"scheme":"{scheme}","nodes":60,"payments":200,"offered_pps":100.0,"closes_per_sec":{closes},"hop_latency_ms":25,"service_time_ms":10,"success_ratio":{ratio},"p95_latency_ms":1000.0,"closed_channels":{closed},"stale_probe_failures":{closed},"reprobes_triggered":1,"wall_ns":1}}"#
    )
}

/// A healthy three-rate sweep: success strictly falls with churn.
fn healthy_churn() -> String {
    array(&[
        churn_record("Flash", 0.0, 0.77, 0),
        churn_record("Flash", 10.0, 0.70, 17),
        churn_record("Flash", 40.0, 0.25, 58),
    ])
}

#[test]
fn churn_gate_fails_the_non_monotone_fixture() {
    // Diffing the fixture against itself: every delta is zero, yet the
    // gate must reject it — success not degrading under rising churn
    // means churn events are not reaching the engine.
    let report = gate::<ChurnRecord>(NONMONO_CHURN, NONMONO_CHURN).expect("fixture parses");
    assert!(
        !report.passed(),
        "the non-monotone curve must fail the gate"
    );
    let shape_fails: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Fail)
        .filter(|f| f.message.contains("physically suspicious"))
        .collect();
    // Flash is flat then rising (2 bad steps), Spider flat twice.
    assert_eq!(
        shape_fails.len(),
        4,
        "one failure per non-degrading step: {:#?}",
        report.findings
    );
}

#[test]
fn churn_gate_passes_a_healthy_degrading_sweep() {
    let h = healthy_churn();
    let report = gate::<ChurnRecord>(&h, &h).expect("parses");
    assert!(report.passed(), "{:#?}", report.findings);
    assert!(report.table.contains("Flash"));
}

#[test]
fn churn_gate_fails_a_success_regression_over_25_percent() {
    let base = healthy_churn();
    let cand = array(&[
        churn_record("Flash", 0.0, 0.77, 0),
        churn_record("Flash", 10.0, 0.50, 17), // -29% vs baseline 0.70
        churn_record("Flash", 40.0, 0.25, 58),
    ]);
    let report = gate::<ChurnRecord>(&base, &cand).expect("parses");
    assert!(!report.passed());
    assert!(report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("success ratio regressed")));
}

#[test]
fn churn_gate_requires_at_least_three_rates() {
    let two = array(&[
        churn_record("Flash", 0.0, 0.77, 0),
        churn_record("Flash", 40.0, 0.25, 58),
    ]);
    let report = gate::<ChurnRecord>(&two, &two).expect("parses");
    assert!(!report.passed());
    assert!(report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("at least 3")));
}

#[test]
fn churn_gate_fails_churn_activity_at_zero_rate() {
    // A zero-churn record reporting closed channels breaks the empty-
    // schedule exactness contract (and would silently poison the
    // zero-churn/e2e bit-identity check).
    let cand = array(&[
        churn_record("Flash", 0.0, 0.77, 3), // closed_channels = 3 at rate 0
        churn_record("Flash", 10.0, 0.70, 17),
        churn_record("Flash", 40.0, 0.25, 58),
    ]);
    let report = gate::<ChurnRecord>(&cand, &cand).expect("parses");
    assert!(!report.passed());
    assert!(report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("empty schedule")));
}

#[test]
fn churn_gate_parses_artifacts_without_counter_fields() {
    // Counter fields are serde-defaulted: a pared-down record (no
    // closed_channels / stale_probe_failures / reprobes_triggered /
    // wall_ns) must still parse and pass the shape check.
    let bare = |closes: f64, ratio: f64| {
        format!(
            r#"{{"scheme":"Flash","nodes":60,"payments":200,"offered_pps":100.0,"closes_per_sec":{closes},"hop_latency_ms":25,"service_time_ms":10,"success_ratio":{ratio},"p95_latency_ms":1000.0}}"#
        )
    };
    let old = array(&[bare(0.0, 0.77), bare(10.0, 0.70), bare(40.0, 0.25)]);
    let report = gate::<ChurnRecord>(&old, &old).expect("counterless artifact parses");
    assert!(report.passed(), "{:#?}", report.findings);
}

const MAXFLOW_BASE: &str = r#"[
  {"topology":"ws_100","nodes":100,"directed_edges":800,"kernel":"push-relabel","pairs":4,"iters_per_pair":1,"mean_ns_per_pair":1000,"total_flow":5000},
  {"topology":"ws_100","nodes":100,"directed_edges":800,"kernel":"edmonds-karp","pairs":4,"iters_per_pair":1,"mean_ns_per_pair":1500,"total_flow":5000}
]"#;

/// `oracle_fastest_maxflow.json`: push-relabel loses to the
/// Edmonds–Karp oracle at lightning scale — the state the trajectory
/// was actually in before the kernels moved onto the CSR arena.
const ORACLE_FASTEST: &str = include_str!("fixtures/oracle_fastest_maxflow.json");

#[test]
fn maxflow_gate_fails_on_flow_drift_but_only_warns_on_wall_time() {
    // Same flows, 40% slower (still beating the oracle): pass with a
    // warning (CI hardware noise).
    let slower = MAXFLOW_BASE.replace("\"mean_ns_per_pair\":1000", "\"mean_ns_per_pair\":1400");
    let report = gate::<MaxflowRecord>(MAXFLOW_BASE, &slower).expect("parses");
    assert!(report.passed(), "{:#?}", report.findings);
    assert!(report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Warn && f.message.contains("wall time")));

    // A drifted flow value is a correctness failure.
    let drifted = MAXFLOW_BASE.replace("\"total_flow\":5000", "\"total_flow\":4999");
    let report = gate::<MaxflowRecord>(MAXFLOW_BASE, &drifted).expect("parses");
    assert!(!report.passed());
    assert!(report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("total flow drifted")));
}

#[test]
fn maxflow_gate_rejects_oracle_beating_every_kernel() {
    // The shape check fails even against itself: a trajectory whose
    // fastest kernel loses to the oracle is rejected outright.
    let report = gate::<MaxflowRecord>(ORACLE_FASTEST, ORACLE_FASTEST).expect("parses");
    assert!(!report.passed());
    assert!(report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("does not beat")));
}

#[test]
fn maxflow_gate_enforces_two_x_at_lightning_scale() {
    // Beating the oracle but by less than 2× on a ≥1000-node lightning
    // topology regresses the ROADMAP win condition.
    let barely = ORACLE_FASTEST.replace(
        "\"kernel\":\"push-relabel\",\"pairs\":6,\"iters_per_pair\":3,\"mean_ns_per_pair\":1900000",
        "\"kernel\":\"push-relabel\",\"pairs\":6,\"iters_per_pair\":3,\"mean_ns_per_pair\":1000000",
    );
    let report = gate::<MaxflowRecord>(&barely, &barely).expect("parses");
    assert!(!report.passed());
    assert!(report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("less than 2×")));

    // At 2× and beyond the shape is healthy again.
    let won = ORACLE_FASTEST.replace(
        "\"kernel\":\"push-relabel\",\"pairs\":6,\"iters_per_pair\":3,\"mean_ns_per_pair\":1900000",
        "\"kernel\":\"push-relabel\",\"pairs\":6,\"iters_per_pair\":3,\"mean_ns_per_pair\":700000",
    );
    let report = gate::<MaxflowRecord>(&won, &won).expect("parses");
    assert!(report.passed(), "{:#?}", report.findings);
}

fn testbed_record(scheme: &str, nodes: usize, ratio: f64, wire_in: u64, wire_out: u64) -> String {
    format!(
        r#"{{"scheme":"{scheme}","nodes":{nodes},"payments":100,"success_ratio":{ratio},"success_volume_micros":1000,"fees_micros":0,"probe_messages":500,"commit_messages":300,"wire_in":{wire_in},"wire_out":{wire_out},"escrow_end":0,"queue_high_water":4,"events_per_sec":9000.0,"wall_ns":1}}"#
    )
}

/// A healthy two-scale testbed trajectory including the 200-node
/// single-process record.
fn healthy_testbed() -> String {
    array(&[
        testbed_record("Shortest Path", 60, 0.70, 2000, 2000),
        testbed_record("Shortest Path", 200, 0.65, 2600, 2600),
    ])
}

#[test]
fn testbed_gate_passes_a_healthy_trajectory() {
    let h = healthy_testbed();
    let report = gate::<TestbedRecord>(&h, &h).expect("parses");
    assert!(report.passed(), "{:#?}", report.findings);
    assert!(report.table.contains("Shortest Path"));
}

#[test]
fn testbed_gate_fails_a_success_regression_over_25_percent() {
    let base = healthy_testbed();
    let cand = array(&[
        testbed_record("Shortest Path", 60, 0.50, 2000, 2000), // -29% vs baseline 0.70
        testbed_record("Shortest Path", 200, 0.65, 2600, 2600),
    ]);
    let report = gate::<TestbedRecord>(&base, &cand).expect("parses");
    assert!(!report.passed());
    assert!(report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("success ratio regressed")));
}

#[test]
fn testbed_gate_fails_wire_frame_loss_even_against_itself() {
    // wire_out > wire_in means frames vanished inside a fault-free
    // cluster; a plain diff against an equally broken baseline is
    // clean, so this must fail as physically suspicious.
    let lossy = array(&[
        testbed_record("Shortest Path", 60, 0.70, 1990, 2000),
        testbed_record("Shortest Path", 200, 0.65, 2600, 2600),
    ]);
    let report = gate::<TestbedRecord>(&lossy, &lossy).expect("parses");
    assert!(!report.passed());
    assert!(report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("frames were lost")));
}

#[test]
fn testbed_gate_fails_unsettled_escrow() {
    let stuck = healthy_testbed().replace("\"escrow_end\":0", "\"escrow_end\":42");
    let report = gate::<TestbedRecord>(&stuck, &stuck).expect("parses");
    assert!(!report.passed());
    assert!(report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("still escrowed")));
}

#[test]
fn testbed_gate_requires_the_200_node_scale_record() {
    let small_only = array(&[testbed_record("Shortest Path", 60, 0.70, 2000, 2000)]);
    let report = gate::<TestbedRecord>(&small_only, &small_only).expect("parses");
    assert!(!report.passed());
    assert!(report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("200-node")));
}

#[test]
fn testbed_gate_warns_but_never_fails_on_events_per_sec_drop() {
    let base = healthy_testbed();
    let cand = healthy_testbed().replace("\"events_per_sec\":9000.0", "\"events_per_sec\":4000.0");
    let report = gate::<TestbedRecord>(&base, &cand).expect("parses");
    assert!(report.passed(), "{:#?}", report.findings);
    assert!(report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Warn && f.message.contains("events/sec down")));
}

#[test]
fn testbed_gate_fails_total_mismatch() {
    let base = healthy_testbed();
    let cand = array(&[
        testbed_record("Spider", 60, 0.70, 2000, 2000),
        testbed_record("Spider", 200, 0.65, 2600, 2600),
    ]);
    let report = gate::<TestbedRecord>(&base, &cand).expect("parses");
    assert!(!report.passed());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.severity == Severity::Fail
                && f.message.contains("no candidate record matches"))
    );
}

/// `BENCH_testbed.json` as the reactor that scanned every listener and
/// every inbound connection on every pass produced it: each routing
/// field healthy, hundreds of socket calls per frame.
const FULL_SCAN_TESTBED: &str = include_str!("fixtures/full_scan_testbed.json");

#[test]
fn testbed_gate_fails_the_full_scan_reactor_fixture() {
    // Against itself every delta is zero: only the shape rules can trip.
    let report = gate::<TestbedRecord>(FULL_SCAN_TESTBED, FULL_SCAN_TESTBED).expect("parses");
    assert!(!report.passed());
    let fails = |needle: &str| {
        report
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Fail && f.message.contains(needle))
            .count()
    };
    assert_eq!(
        fails("socket calls per wire frame (limit"),
        4,
        "every record"
    );
    assert_eq!(
        fails("grows with the cluster"),
        2,
        "both schemes' 200-node records"
    );
}

#[test]
fn testbed_gate_passes_a_flat_two_call_reactor() {
    let flat = FULL_SCAN_TESTBED
        .replace(":175.0}", ":2.10}")
        .replace(":335.0}", ":2.17}")
        .replace(":247.0}", ":2.04}")
        .replace(":437.0}", ":2.12}");
    let report = gate::<TestbedRecord>(FULL_SCAN_TESTBED, &flat).expect("parses");
    assert!(report.passed(), "{:#?}", report.findings);
}
