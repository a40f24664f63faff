//! Tests of the bench gate's rules themselves: each shape rule rejects
//! its fixture — including the PR-4 flat latency curve — and the
//! committed-file comparison names what moved.

use flash_bench::shape::{check_churn_degrades, check_flat_latency, check_testbed_conserves};
use flash_bench::{differences, RunRecord};

fn parse(json: &str) -> Vec<RunRecord> {
    serde_json::from_str(json).expect("records parse")
}

fn count(findings: &[String], needle: &str) -> usize {
    findings.iter().filter(|f| f.contains(needle)).count()
}

/// The `BENCH_e2e.json` that PR 4 committed: the propagation-only
/// engine reported **bit-identical** p50/p95/p99 completion latency at
/// 50 and 400 pps offered load for every scheme. It reproduces itself
/// exactly; only the physical-suspicion check can object.
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
        r#"{{"backend":"des","scheme":"{scheme}","nodes":60,"payments":200,"offered_pps":{pps},"hop_latency_ms":25,"service_time_ms":10,"success_ratio":{ratio},"throughput_pps":{tput},"p50_latency_ms":{p50},"p95_latency_ms":{p95},"p99_latency_ms":{p99},"p50_queue_delay_ms":1.0,"p95_queue_delay_ms":20.0,"peak_in_flight":10,"peak_backlog":50,"max_node_utilization":0.5,"events":1000,"virtual_makespan_ms":9000.0,"wall_ns":1}}"#
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
    // Identical latency percentiles across an 8× offered-load spread
    // are physically suspicious — for every one of the five schemes.
    let findings = check_flat_latency(&parse(PR4_FLAT));
    assert_eq!(
        count(&findings, "identical p50/p95/p99"),
        5,
        "one flat-curve finding per scheme: {findings:#?}"
    );
    assert_eq!(count(&findings, "not responding to load"), 5);
}

#[test]
fn gate_passes_a_healthy_rising_curve_against_itself() {
    let findings = check_flat_latency(&parse(&healthy()));
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn gate_parses_pre_queue_artifacts_without_the_new_fields() {
    // The PR-4 fixture has no service_time_ms / queue-delay fields;
    // they parse as absent, so historical artifacts still load.
    let old = parse(PR4_FLAT);
    assert!(old
        .iter()
        .all(|r| r.service_time_ms.is_none() && r.p95_queue_delay_ms.is_none()));
}

/// A churn sweep where success does **not** degrade with churn — flat
/// for Spider, *rising* for Flash. It reproduces itself exactly; only
/// the shape check can object. This is the churn analogue
/// of the PR-4 flat-latency fixture: the exact artifact a broken churn
/// wiring (events generated but never applied) would commit.
const NONMONO_CHURN: &str = include_str!("fixtures/nonmono_churn.json");

fn churn_record(scheme: &str, closes: f64, ratio: f64, closed: u64) -> String {
    format!(
        r#"{{"backend":"des","scheme":"{scheme}","nodes":60,"payments":200,"offered_pps":100.0,"closes_per_sec":{closes},"hop_latency_ms":25,"service_time_ms":10,"success_ratio":{ratio},"p95_latency_ms":1000.0,"closed_channels":{closed},"stale_probe_failures":{closed},"reprobes_triggered":1,"wall_ns":1}}"#
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
    // Success not degrading under rising churn means churn events are
    // not reaching the engine. Flash is flat then rising (2 bad
    // steps), Spider flat twice.
    let findings = check_churn_degrades(&parse(NONMONO_CHURN));
    assert_eq!(
        count(&findings, "does not strictly degrade"),
        4,
        "one finding per non-degrading step: {findings:#?}"
    );
}

#[test]
fn churn_gate_passes_a_healthy_degrading_sweep() {
    let findings = check_churn_degrades(&parse(&healthy_churn()));
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn churn_gate_requires_at_least_three_rates() {
    let two = array(&[
        churn_record("Flash", 0.0, 0.77, 0),
        churn_record("Flash", 40.0, 0.25, 58),
    ]);
    let findings = check_churn_degrades(&parse(&two));
    assert_eq!(count(&findings, "at least 3"), 1, "{findings:#?}");
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
    let findings = check_churn_degrades(&parse(&cand));
    assert_eq!(count(&findings, "empty schedule"), 1, "{findings:#?}");
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
    let findings = check_churn_degrades(&parse(&old));
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn a_perturbed_virtual_field_is_named_with_both_values() {
    // A drifted probe count is a routing change: the comparison names
    // the record, the field, and what it was and is.
    let base = healthy_testbed();
    let drifted = base.replacen("\"probe_messages\":500", "\"probe_messages\":499", 1);
    let found = differences(&parse(&base), &parse(&drifted));
    assert_eq!(
        found,
        ["Shortest Path @ 60 nodes: probe_messages is 499, committed 500"]
    );
}

#[test]
fn records_differing_only_in_wall_fields_compare_equal() {
    let slower = healthy().replace("\"wall_ns\":1", "\"wall_ns\":1400");
    let found = differences(&parse(&healthy()), &parse(&slower));
    assert!(found.is_empty(), "{found:#?}");

    let base = healthy_testbed();
    let noisy = base
        .replace("\"events_per_sec\":9000.0", "\"events_per_sec\":4000.0")
        .replace("\"wall_ns\":1", "\"wall_ns\":7");
    let found = differences(&parse(&base), &parse(&noisy));
    assert!(found.is_empty(), "{found:#?}");
}

#[test]
fn a_missing_and_an_extra_record_are_each_named() {
    // A record on one side only fails the comparison — a swept load
    // that changed is both at once.
    let moved = array(&[
        e2e_record("Flash", 50.0, 16.0, 550.0, 2200.0, 4000.0, 0.77),
        e2e_record("Flash", 75.0, 15.8, 1100.0, 4400.0, 8000.0, 0.79),
    ]);
    let found = differences(&parse(&healthy()), &parse(&moved));
    assert_eq!(
        found,
        [
            "Flash @ 60 nodes, 400 pps: committed but no longer produced",
            "Flash @ 60 nodes, 75 pps: produced but not committed"
        ]
    );
}

fn testbed_record(scheme: &str, nodes: usize, ratio: f64, wire_in: u64, wire_out: u64) -> String {
    format!(
        r#"{{"backend":"testbed","scheme":"{scheme}","nodes":{nodes},"payments":100,"success_ratio":{ratio},"success_volume_micros":1000,"fees_micros":0,"probe_messages":500,"commit_messages":300,"wire_in":{wire_in},"wire_out":{wire_out},"escrow_end":0,"queue_high_water":4,"events_per_sec":9000.0,"wall_ns":1}}"#
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
    let findings = check_testbed_conserves(&parse(&healthy_testbed()));
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn testbed_gate_fails_wire_frame_loss_even_against_itself() {
    // wire_out > wire_in means frames vanished inside a fault-free
    // cluster; an equally broken committed file would reproduce, so
    // this must fail as physically suspicious.
    let lossy = array(&[
        testbed_record("Shortest Path", 60, 0.70, 1990, 2000),
        testbed_record("Shortest Path", 200, 0.65, 2600, 2600),
    ]);
    let findings = check_testbed_conserves(&parse(&lossy));
    assert_eq!(count(&findings, "frames were lost"), 1, "{findings:#?}");
}

#[test]
fn testbed_gate_fails_unsettled_escrow() {
    let stuck = healthy_testbed().replace("\"escrow_end\":0", "\"escrow_end\":42");
    let findings = check_testbed_conserves(&parse(&stuck));
    assert_eq!(count(&findings, "still escrowed"), 2, "{findings:#?}");
}

#[test]
fn testbed_gate_requires_the_200_node_scale_record() {
    let small_only = array(&[testbed_record("Shortest Path", 60, 0.70, 2000, 2000)]);
    let findings = check_testbed_conserves(&parse(&small_only));
    assert_eq!(count(&findings, "200-node"), 1, "{findings:#?}");
}

/// `BENCH_testbed.json` as the reactor that scanned every listener and
/// every inbound connection on every pass produced it: each routing
/// field healthy, hundreds of socket calls per frame.
const FULL_SCAN_TESTBED: &str = include_str!("fixtures/full_scan_testbed.json");

#[test]
fn testbed_gate_fails_the_full_scan_reactor_fixture() {
    // Every routing field is healthy: only the reactor-cost rules trip.
    let findings = check_testbed_conserves(&parse(FULL_SCAN_TESTBED));
    assert_eq!(
        count(&findings, "socket calls per wire frame (limit"),
        4,
        "every record: {findings:#?}"
    );
    assert_eq!(
        count(&findings, "grows with the cluster"),
        2,
        "both schemes' 200-node records: {findings:#?}"
    );
    assert_eq!(findings.len(), 6, "{findings:#?}");
}

#[test]
fn testbed_gate_passes_a_flat_two_call_reactor() {
    let flat = FULL_SCAN_TESTBED
        .replace(":175.0}", ":2.10}")
        .replace(":335.0}", ":2.17}")
        .replace(":247.0}", ":2.04}")
        .replace(":437.0}", ":2.12}");
    let findings = check_testbed_conserves(&parse(&flat));
    assert!(findings.is_empty(), "{findings:#?}");
}
