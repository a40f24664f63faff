//! A run: set-up, passes until `--seconds` are spent, the metrics.
//!
//! The untraced run produces every end-to-end metric; the traced run
//! produces every per-layer metric. A run measures many passes and
//! reports medians over them: every pass draws its own input from the
//! seed, pass times differ by 4–20% from one to the next (more where a
//! busy pair's paths happen to run dry), and a median over passes is
//! steady where one pass is not.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::host::peak_rss_mb;
use crate::replay::{run_replays, Values};
use crate::report::RunResult;
use crate::run::{des_spans, run_pass, PassOutcome, Quality};
use crate::spans::{Span, Tracer};
use crate::stats::{median, percentile, percentile_us};
use crate::traced::names;
use crate::workload::{setup, trace_digest, Driver, Fixture, Spec};
use pcn_proto::wall_now;
use std::path::PathBuf;

/// The delivery metrics (`success_ratio`, `success_volume_ratio`) pool
/// the first this-many passes of a run: a fixed count, so that they are
/// the same for a seed however many passes the run's seconds fit. An
/// untraced run makes at least these and the closing pass.
const QUALITY_PASSES: u64 = 8;

/// Set-up is repeated at least `SETUP_MIN_REPS` times and, where one
/// set-up takes milliseconds, until `SETUP_MIN_SECONDS` of it (or a
/// tenth of `--seconds`, if that is less) have been timed, at most
/// `SETUP_MAX_REPS` times: a median over five 2 ms samples moves by
/// more than `setup_s` may. `setup_s` is the median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 1.0;
const SETUP_MAX_REPS: usize = 200;

/// Share of a traced run's seconds kept for the direct-call replays.
const REPLAY_SHARE: f64 = 0.3;

/// A `route` call this long counts as slow.
const SLOW_ROUTE_NS: u64 = 10_000_000;

/// What one invocation measures.
pub struct RunConfig {
    /// The workload.
    pub spec: Spec,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--spans FILE` (traced run only).
    pub spans_file: Option<PathBuf>,
}

fn setup_repeatedly(config: &RunConfig) -> (Fixture, Vec<f64>) {
    let mut fixture = setup(config.spec, config.seed);
    let mut times = vec![fixture.times.total_s];
    while times.len() < SETUP_MIN_REPS
        || (times.len() < SETUP_MAX_REPS
            && times.iter().sum::<f64>() < SETUP_MIN_SECONDS.min(config.seconds / 10.0))
    {
        fixture = setup(config.spec, config.seed);
        times.push(fixture.times.total_s);
    }
    (fixture, times)
}

fn describe(config: &RunConfig, fixture: &Fixture, mode: &str) -> String {
    format!(
        "flashbench {} ({mode}): seed {} (first input {:016x}), {} payments per pass on {} nodes / {} directed edges, {} s",
        config.spec.name,
        config.seed,
        trace_digest(&fixture.pass_input(0).trace).0,
        fixture.trace.len(),
        fixture.net.graph().node_count(),
        fixture.net.graph().edge_count(),
        config.seconds,
    )
}

fn note_violations(result: &mut RunResult, pass: &PassOutcome, label: &str) {
    for v in &pass.violations {
        result.violations.push(format!("{label}: {v}"));
    }
    result.attempted += pass.quality.attempted;
    if !pass.violations.is_empty() {
        result.failed += pass.quality.attempted;
    }
}

/// The untraced run: every end-to-end metric.
pub fn run_end_to_end(config: &RunConfig) -> RunResult {
    let mut result = RunResult::default();
    let (fixture, setup_times) = setup_repeatedly(config);
    result.notes.push(describe(config, &fixture, "end to end"));

    // A pass is reduced to its summary as soon as it ends, so that the
    // run's memory does not grow with the number of passes it fits.
    let mut walls = Vec::new();
    let mut percentiles: [Vec<f64>; 3] = Default::default();
    let mut summarize = |result: &mut RunResult, mut pass: PassOutcome| {
        note_violations(result, &pass, &format!("pass {}", walls.len()));
        walls.push(pass.wall_s);
        pass.route_ns.sort_unstable();
        for (out, q) in percentiles.iter_mut().zip([0.50, 0.90, 0.99]) {
            out.push(percentile(&pass.route_ns, q) as f64 / 1e3);
        }
        pass.quality
    };

    let wall_measure = wall_now();
    let mut longest_s = 0.0f64;
    let mut first = None;
    let mut pooled = Quality::default();
    let mut index = 0;
    // The closing pass still has to fit after each of these.
    while index < QUALITY_PASSES
        || wall_measure.elapsed().as_secs_f64() + 2.0 * longest_s <= config.seconds
    {
        let wall_pass = wall_now();
        let quality = summarize(&mut result, run_pass(&fixture, index, false));
        longest_s = longest_s.max(wall_pass.elapsed().as_secs_f64());
        if index < QUALITY_PASSES {
            pooled.absorb(&quality);
        }
        first.get_or_insert(quality);
        index += 1;
    }
    let first = first.expect("QUALITY_PASSES is not zero");
    // Same input, same result: the first input once more.
    if summarize(&mut result, run_pass(&fixture, 0, false)) != first {
        result
            .violations
            .push("the first input routed twice gave two different results".into());
    }
    let [p50, p90, p99] = percentiles;

    let payments = fixture.trace.len();
    let per_pass = format!("{} passes x {payments} payments", walls.len());
    let pooled_over = format!("first {QUALITY_PASSES} passes x {payments} payments");
    let throughput: Vec<f64> = walls.iter().map(|s| payments as f64 / s).collect();
    result.set("payments_per_s", median(&throughput), per_pass.clone());
    result.set("route_p90_us", median(&p90), per_pass.clone());
    result.set("success_ratio", pooled.success_ratio(), pooled_over.clone());
    result.set(
        "success_volume_ratio",
        pooled.success_volume_ratio(),
        pooled_over,
    );
    result.set(
        "setup_s",
        median(&setup_times),
        format!("{} set-ups", setup_times.len()),
    );
    match peak_rss_mb() {
        Some(mb) => result.set("peak_rss_mb", mb, "VmHWM at exit"),
        None => result
            .violations
            .push("/proc/self/status has no VmHWM".into()),
    }

    result.notes.push(format!(
        "pass times {:.3}..{:.3} s; route p50 {:.1} us, p99 {:.1} us (medians over passes)",
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        median(&p50),
        median(&p99),
    ));
    result.notes.push(format!(
        "first {QUALITY_PASSES} passes: {} of {} delivered, {:.2} probe messages per payment, fees {:.4}% of volume",
        pooled.succeeded,
        pooled.attempted,
        pooled.probe_msgs_per_payment(),
        pooled.fee_pct(),
    ));
    if let Some(des) = &first.des {
        result.notes.push(format!(
            "first pass, virtual time: latency p95 {:.1} ms, {} events, peak {} in flight, busiest node {:.2} utilised",
            des.latency_ms(0.95),
            des.events,
            des.peak_in_flight,
            des.max_node_utilization,
        ));
    }
    debug_assert!(END_TO_END
        .iter()
        .all(|m| result.values.contains_key(m.name)));
    result
}

fn spans_named<'a>(tracer: &'a Tracer, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    tracer.spans().iter().filter(move |s| s.name == name)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Per-layer values of one (untraced, traced) pair of passes over the
/// same input.
fn layer_values(fixture: &Fixture, plain: &PassOutcome, traced: &PassOutcome) -> Values {
    let tracer = traced.tracer.as_ref().expect("traced pass keeps its spans");
    let totals = tracer.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let own = tracer.self_ns();
    let payments = fixture.trace.len() as f64;
    let mut v = Values::new();

    let mice = total(names::ROUTE_MICE);
    let elephant = total(names::ROUTE_ELEPHANT);
    v.insert("core.route.mice_n", mice.spans as f64);
    v.insert("core.route.mice_ms", ms(mice.ns));
    v.insert("core.route.elephant_n", elephant.spans as f64);
    v.insert("core.route.elephant_ms", ms(elephant.ns));
    let is_route = |s: &Span| s.name == names::ROUTE_MICE || s.name == names::ROUTE_ELEPHANT;
    let mut route_ns: Vec<u64> = tracer
        .spans()
        .iter()
        .filter(|s| is_route(s))
        .map(Span::ns)
        .collect();
    v.insert("core.route.p50_us", percentile_us(&mut route_ns, 0.5));
    let route_self: u64 = tracer
        .spans()
        .iter()
        .zip(&own)
        .filter(|(s, _)| is_route(s))
        .map(|(_, own)| *own)
        .sum();
    v.insert("core.route.self_ms", ms(route_self));
    let slow: Vec<u64> = route_ns
        .iter()
        .copied()
        .filter(|ns| *ns >= SLOW_ROUTE_NS)
        .collect();
    v.insert("core.route.slow_n", slow.len() as f64);
    v.insert("core.route.slow_ms", ms(slow.iter().sum()));
    v.insert("core.mice.table_miss_n", traced.table_miss_n as f64);
    v.insert("core.mice.table_len_end", traced.table_len_end as f64);

    let probe = total(names::PROBE);
    let sent = total(names::SEND_PART);
    let refused = total(names::SEND_PART_FAILED);
    let commit = total(names::COMMIT);
    let abort = total(names::ABORT);
    let backend_ns = probe.ns + sent.ns + refused.ns + commit.ns + abort.ns;
    let phase1_calls = (sent.spans + refused.spans).max(1) as f64;
    if fixture.spec.driver == Driver::Testbed {
        let of = |name: &str| {
            spans_named(tracer, name)
                .map(Span::ns)
                .collect::<Vec<u64>>()
        };
        let mut probe_ns = of(names::PROBE);
        let mut send_ns = of(names::SEND_PART);
        send_ns.extend(of(names::SEND_PART_FAILED));
        let mut commit_ns = of(names::COMMIT);
        v.insert("proto.cluster.probe_n", probe.units as f64);
        v.insert(
            "proto.cluster.probe_us_p50",
            percentile_us(&mut probe_ns, 0.5),
        );
        v.insert(
            "proto.cluster.probe_us_p99",
            percentile_us(&mut probe_ns, 0.99),
        );
        v.insert(
            "proto.cluster.send_part_n",
            (sent.units + refused.units) as f64,
        );
        v.insert(
            "proto.cluster.send_part_us_p50",
            percentile_us(&mut send_ns, 0.5),
        );
        v.insert("proto.cluster.commit_n", commit.spans as f64);
        v.insert(
            "proto.cluster.commit_us_p50",
            percentile_us(&mut commit_ns, 0.5),
        );
    } else {
        v.insert("sim.backend.probe_n", probe.units as f64);
        v.insert("sim.backend.probe_ms", ms(probe.ns));
        v.insert(
            "sim.backend.send_part_n",
            (sent.units + refused.units) as f64,
        );
        v.insert("sim.backend.send_part_ms", ms(sent.ns + refused.ns));
        v.insert("sim.backend.commit_n", commit.spans as f64);
        v.insert("sim.backend.commit_ms", ms(commit.ns));
        v.insert("sim.backend.abort_n", abort.spans as f64);
        v.insert(
            "sim.backend.send_fail_ratio",
            refused.spans as f64 / phase1_calls,
        );
    }

    if let Some(des) = &traced.quality.des {
        let advance = total(des_spans::ADVANCE);
        let drain = total(des_spans::DRAIN);
        v.insert("des.advance_ms", ms(advance.ns));
        v.insert("des.route_ms", ms(mice.ns + elephant.ns));
        v.insert("des.drain_ms", ms(drain.ns));
        v.insert(
            "des.engine_share",
            (advance.ns + drain.ns + backend_ns) as f64 / 1e9 / traced.wall_s,
        );
        v.insert("des.events_n", des.events as f64);
        v.insert("des.events_per_payment", des.events as f64 / payments);
        v.insert("des.events_per_s", des.events as f64 / plain.wall_s);
        v.insert("des.peak_in_flight", des.peak_in_flight as f64);
        v.insert("des.peak_backlog", des.peak_backlog as f64);
        v.insert("des.max_node_utilization", des.max_node_utilization);
        v.insert("des.queue_delay_p95_ms", des.queue_delay_ms(0.95));
    }

    if let Some(wire) = &traced.wire {
        let frames = wire.frames_in.max(1) as f64;
        v.insert("proto.frames_n", wire.frames_in as f64);
        v.insert("proto.frames_per_payment", wire.frames_in as f64 / payments);
        v.insert(
            "proto.frames_per_s",
            plain.wire.map_or(0.0, |w| w.frames_in as f64) / plain.wall_s,
        );
        v.insert("proto.us_per_frame", backend_ns as f64 / 1e3 / frames);
        v.insert("proto.cluster.launch_ms", wire.launch_ms);
        v.insert("proto.queue_high_water", wire.queue_high_water as f64);
        v.insert("proto.escrow_end", wire.escrow_end as f64);
        v.insert("proto.dropped_n", wire.dropped as f64);
    }

    v.insert("host.cpu_user_s", plain.cpu.user_s);
    v.insert("host.cpu_sys_s", plain.cpu.sys_s);
    v.insert(
        "trace.overhead_pct",
        (traced.wall_s / plain.wall_s - 1.0) * 100.0,
    );
    v
}

/// The traced run: every per-layer metric.
pub fn run_per_layer(config: &RunConfig) -> std::io::Result<RunResult> {
    let mut result = RunResult::default();
    let fixture = setup(config.spec, config.seed);
    result.notes.push(describe(config, &fixture, "per layer"));
    let replay_budget = config.seconds * REPLAY_SHARE;

    let wall_measure = wall_now();
    let mut pairs: Vec<Values> = Vec::new();
    let mut first: Option<PassOutcome> = None;
    let mut last_tracer = None;
    let mut longest_s = 0.0f64;
    loop {
        let spent = wall_measure.elapsed().as_secs_f64();
        if pairs.len() >= 2 && spent + longest_s > config.seconds - replay_budget {
            break;
        }
        let wall_pair = wall_now();
        let index = pairs.len() as u64;
        let plain = run_pass(&fixture, index, false);
        let mut traced = run_pass(&fixture, index, true);
        longest_s = longest_s.max(wall_pair.elapsed().as_secs_f64());
        note_violations(&mut result, &plain, &format!("pass {index}"));
        note_violations(&mut result, &traced, &format!("traced pass {index}"));
        if plain.quality != traced.quality {
            result.violations.push(format!(
                "pass {index}: the traced pass delivered something else than the untraced one"
            ));
        }
        pairs.push(layer_values(&fixture, &plain, &traced));
        last_tracer = traced.tracer.take();
        first.get_or_insert(plain);
    }
    let first = first.expect("at least two pairs ran");

    let samples = format!(
        "{} pass pairs x {} payments",
        pairs.len(),
        fixture.trace.len()
    );
    // Every pair of one workload reports the same names.
    for name in pairs[0].keys() {
        let values: Vec<f64> = pairs.iter().filter_map(|v| v.get(name).copied()).collect();
        result.set(name, median(&values), samples.clone());
    }

    let mut replay_tracer = Tracer::new();
    let replayed = run_replays(
        &fixture,
        first.quality.des.as_ref(),
        replay_budget,
        &mut replay_tracer,
    );
    let replay_spans = replay_tracer.totals();
    for (name, value) in &replayed {
        result.set(name, *value, "direct-call replay");
    }
    for (name, total) in &replay_spans {
        if !name.starts_with("replay") {
            result.notes.push(format!(
                "replay {name}: {} calls, {:.1} ms",
                total.spans,
                ms(total.ns)
            ));
        }
    }
    if fixture.spec.driver == Driver::Testbed {
        let codec_and_handler_us = [
            "proto.wire.encode_ns",
            "proto.wire.decode_ns",
            "proto.node.handle_ns",
        ]
        .iter()
        .map(|n| replayed.get(n).copied().unwrap_or(0.0))
        .sum::<f64>()
            / 1e3;
        let per_frame = result
            .values
            .get("proto.us_per_frame")
            .copied()
            .unwrap_or(0.0);
        result.set(
            "proto.reactor_us_per_frame",
            per_frame - codec_and_handler_us,
            samples.clone(),
        );
    }

    result.set(
        "workload.topology_ms",
        fixture.times.topology_ms,
        "last set-up",
    );
    result.set("workload.trace_ms", fixture.times.trace_ms, "last set-up");
    let first_pass = format!("{} payments, first pass", fixture.trace.len());
    result.set(
        "quality.probe_msgs_per_payment",
        first.quality.probe_msgs_per_payment(),
        first_pass.clone(),
    );
    result.set(
        "quality.fee_pct",
        first.quality.fee_pct(),
        first_pass.clone(),
    );
    if let Some(des) = &first.quality.des {
        result.set("des.virt_latency_p95_ms", des.latency_ms(0.95), first_pass);
    }

    if let Some(path) = &config.spans_file {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        if let Some(tracer) = &last_tracer {
            tracer.write_jsonl(&mut file)?;
        }
        replay_tracer.write_jsonl(&mut file)?;
        std::io::Write::flush(&mut file)?;
        result.notes.push(format!(
            "spans of the last traced pass and of the replays written to {}",
            path.display()
        ));
    }
    debug_assert!(result
        .values
        .keys()
        .all(|k| PER_LAYER.iter().any(|m| m.name == *k)));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn quick(workload: Workload, seed: u64) -> RunConfig {
        RunConfig {
            spec: workload.spec(true),
            seed,
            seconds: 0.2,
            spans_file: None,
        }
    }

    #[test]
    fn every_workload_reports_every_end_to_end_metric_above_zero() {
        for workload in Workload::ALL {
            let result = run_end_to_end(&quick(workload, 11));
            assert!(result.correct(), "{workload:?}: {:?}", result.violations);
            assert_eq!(result.failed, 0);
            assert!(result.attempted >= (QUALITY_PASSES + 1) * 60);
            for def in END_TO_END {
                let value = result.values.get(def.name).copied();
                assert!(
                    value.is_some_and(|v| v > 0.0),
                    "{workload:?} {} = {value:?}",
                    def.name
                );
            }
        }
    }

    #[test]
    fn deterministic_metrics_repeat_exactly_for_a_seed() {
        let a = run_end_to_end(&quick(Workload::DesFlash, 12));
        let b = run_end_to_end(&quick(Workload::DesFlash, 12));
        for name in ["success_ratio", "success_volume_ratio"] {
            assert_eq!(a.values[name].to_bits(), b.values[name].to_bits(), "{name}");
        }
    }

    #[test]
    fn traced_run_reports_the_layers_each_workload_exercises() {
        for workload in Workload::ALL {
            let result = run_per_layer(&quick(workload, 11)).unwrap();
            assert!(result.correct(), "{workload:?}: {:?}", result.violations);
            for name in result.values.keys() {
                assert!(
                    PER_LAYER.iter().any(|m| m.name == *name),
                    "{name} is not in the catalog"
                );
            }
            let positive = |name: &str| result.values.get(name).is_some_and(|v| *v > 0.0);
            assert!(positive("core.route.p50_us"), "{workload:?}");
            assert!(
                result.values.contains_key("trace.overhead_pct"),
                "{workload:?}"
            );
            let spec = workload.spec(true);
            let des = matches!(spec.driver, Driver::Des(_));
            let testbed = spec.driver == Driver::Testbed;
            assert_eq!(positive("des.events_n"), des, "{workload:?}");
            assert_eq!(positive("des.virt_latency_p95_ms"), des, "{workload:?}");
            assert_eq!(positive("proto.frames_n"), testbed, "{workload:?}");
            assert_eq!(positive("proto.cluster.commit_n"), testbed, "{workload:?}");
            assert_eq!(positive("sim.backend.commit_n"), !testbed, "{workload:?}");
            assert_eq!(
                result
                    .values
                    .get("proto.escrow_end")
                    .copied()
                    .unwrap_or(0.0),
                0.0
            );
            assert_eq!(
                result.values.get("proto.dropped_n").copied().unwrap_or(0.0),
                0.0
            );
        }
    }

    #[test]
    fn spans_file_holds_the_last_traced_pass_and_the_replays() {
        let path =
            std::env::temp_dir().join(format!("flashbench-spans-{}.jsonl", std::process::id()));
        let mut config = quick(Workload::SimElephant, 11);
        config.spans_file = Some(path.clone());
        let result = run_per_layer(&config).unwrap();
        assert!(result.correct(), "{:?}", result.violations);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(text
            .lines()
            .any(|l| l.contains("\"name\":\"core.route.elephant\"")));
        assert!(text
            .lines()
            .any(|l| l.contains("\"name\":\"backend.probe\"")));
        assert!(text.lines().any(|l| l.contains("\"name\":\"replay\"")));
        assert!(text
            .lines()
            .any(|l| l.contains("\"name\":\"core.fees.split_lp\"")));
    }
}
