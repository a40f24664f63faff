//! End-to-end trace generation and (de)serialization.
//!
//! A trace is an ordered list of [`Payment`]s ("Payments arrive at
//! senders sequentially", §4.1) produced by combining a size model
//! (Figure 3) with the recurrence pair generator (Figure 4), restricted
//! to sender–receiver pairs that are actually connected in the topology
//! ("We ensure there exists at least one path from sender to receiver",
//! §5.2).

use crate::recurrence::{PairGenerator, RecurrenceConfig};
use crate::size::SizeModel;
use pcn_graph::DiGraph;
use pcn_sim::SimTime;
use pcn_types::{Amount, Payment, PcnError, Result, TxId};
use serde::{Deserialize, Serialize};

/// Trace-generation parameters.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Number of payments to generate.
    pub num_payments: usize,
    /// Payment-size distribution.
    pub size_model: SizeModel,
    /// Pair recurrence model.
    pub recurrence: RecurrenceConfig,
    /// RNG seed (sizes and pairs derive independent streams from it).
    pub seed: u64,
    /// Require a directed path sender → receiver in the topology.
    pub require_connectivity: bool,
}

impl TraceConfig {
    /// A Ripple-style trace of `n` payments.
    pub fn ripple(n: usize, seed: u64) -> Self {
        TraceConfig {
            num_payments: n,
            size_model: SizeModel::RippleUsd,
            recurrence: RecurrenceConfig::default(),
            seed,
            require_connectivity: true,
        }
    }

    /// A Lightning-style trace (Bitcoin sizes, Ripple-like pair
    /// structure, exactly as §4.1 constructs it: "we randomly sample the
    /// Bitcoin trace for transaction volumes, and sample a sender-
    /// receiver pair from the Ripple trace and map it to nodes in the
    /// Lightning topology").
    pub fn lightning(n: usize, seed: u64) -> Self {
        TraceConfig {
            num_payments: n,
            size_model: SizeModel::BitcoinSatoshi,
            recurrence: RecurrenceConfig::default(),
            seed,
            require_connectivity: true,
        }
    }
}

/// Generates a trace against a topology.
pub fn generate_trace(graph: &DiGraph, config: &TraceConfig) -> Vec<Payment> {
    let n = graph.node_count();
    let mut pairs = PairGenerator::new(n, config.recurrence.clone(), config.seed);
    let sizes = config
        .size_model
        .sample_many(config.num_payments, config.seed.wrapping_add(1));
    // Reachability cache: per-sender reachable set, computed lazily.
    let mut reach: Vec<Option<Vec<bool>>> = vec![None; n];
    let mut out = Vec::with_capacity(config.num_payments);
    let mut i = 0usize;
    let mut guard = 0usize;
    while out.len() < config.num_payments {
        guard += 1;
        assert!(
            guard < 100 * config.num_payments + 1000,
            "could not find enough connected pairs; topology too fragmented"
        );
        let (s, r) = pairs.next_pair();
        if config.require_connectivity {
            let rs = reach[s.index()].get_or_insert_with(|| graph.reachable_from(s));
            if !rs[r.index()] {
                continue;
            }
        }
        out.push(Payment::new(TxId(i as u64), s, r, sizes[out.len()]));
        i += 1;
    }
    out
}

/// One untimed JSON-lines record — the original wire format (sender,
/// receiver, volume), byte-identical to what this crate always wrote.
#[derive(Serialize)]
struct TraceRecord {
    id: u64,
    sender: u32,
    receiver: u32,
    amount_micros: u64,
}

/// One timed JSON-lines record (mirrors the open-sourced trace format
/// of the paper's artifact: sender, receiver, volume, time).
/// `time_micros` is the arrival timestamp in virtual microseconds;
/// parsing accepts untimed records too (the field defaults to absent).
#[derive(Serialize, Deserialize)]
struct TimedTraceRecord {
    id: u64,
    sender: u32,
    receiver: u32,
    amount_micros: u64,
    #[serde(default)]
    time_micros: Option<u64>,
}

impl TimedTraceRecord {
    fn payment(&self) -> Payment {
        Payment::new(
            TxId(self.id),
            pcn_types::NodeId(self.sender),
            pcn_types::NodeId(self.receiver),
            Amount::from_micros(self.amount_micros),
        )
    }
}

fn records_from_jsonl(text: &str) -> Result<Vec<TimedTraceRecord>> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: TimedTraceRecord = serde_json::from_str(line)
            .map_err(|e| PcnError::InvalidConfig(format!("trace line {}: {e}", lineno + 1)))?;
        out.push(rec);
    }
    Ok(out)
}

#[expect(
    clippy::expect_used,
    reason = "trace records are plain structs; serialization cannot fail"
)]
fn push_record(out: &mut String, rec: &impl Serialize) {
    out.push_str(&serde_json::to_string(rec).expect("record serializes"));
    out.push('\n');
}

/// Serializes an untimed trace as JSON lines (no `time_micros` field —
/// the pre-DES format, unchanged).
pub fn to_jsonl(trace: &[Payment]) -> String {
    let mut out = String::new();
    for p in trace {
        push_record(
            &mut out,
            &TraceRecord {
                id: p.id.0,
                sender: p.sender.0,
                receiver: p.receiver.0,
                amount_micros: p.amount.micros(),
            },
        );
    }
    out
}

/// Parses a JSON-lines trace (timed or untimed), ignoring any arrival
/// timestamps (use [`from_jsonl_timed`] to consume them).
pub fn from_jsonl(text: &str) -> Result<Vec<Payment>> {
    Ok(records_from_jsonl(text)?
        .iter()
        .map(TimedTraceRecord::payment)
        .collect())
}

/// Serializes a timed workload (the `pcn_sim::des` engine's shape) as
/// JSON lines with `time_micros` stamps.
pub fn to_jsonl_timed(workload: &[(SimTime, Payment)]) -> String {
    let mut out = String::new();
    for (t, p) in workload {
        push_record(
            &mut out,
            &TimedTraceRecord {
                id: p.id.0,
                sender: p.sender.0,
                receiver: p.receiver.0,
                amount_micros: p.amount.micros(),
                time_micros: Some(t.micros()),
            },
        );
    }
    out
}

/// Parses a JSON-lines trace into a timed workload, replaying each
/// record's `time_micros` stamp — the trace-driven arrival process.
/// Records without a stamp arrive at virtual time zero.
pub fn from_jsonl_timed(text: &str) -> Result<Vec<(SimTime, Payment)>> {
    Ok(records_from_jsonl(text)?
        .iter()
        .map(|rec| {
            (
                SimTime::from_micros(rec.time_micros.unwrap_or(0)),
                rec.payment(),
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_graph::generators;

    #[test]
    fn generates_requested_count_with_connectivity() {
        let g = generators::watts_strogatz(40, 4, 0.2, 3);
        let trace = generate_trace(&g, &TraceConfig::ripple(500, 7));
        assert_eq!(trace.len(), 500);
        for p in &trace {
            assert_ne!(p.sender, p.receiver);
            let reach = g.reachable_from(p.sender);
            assert!(reach[p.receiver.index()]);
        }
    }

    #[test]
    fn trace_is_deterministic() {
        let g = generators::watts_strogatz(40, 4, 0.2, 3);
        let a = generate_trace(&g, &TraceConfig::ripple(100, 5));
        let b = generate_trace(&g, &TraceConfig::ripple(100, 5));
        assert_eq!(a, b);
        let c = generate_trace(&g, &TraceConfig::ripple(100, 6));
        assert_ne!(a, c);
    }

    #[test]
    fn sizes_follow_the_model() {
        let g = generators::watts_strogatz(60, 4, 0.2, 3);
        let trace = generate_trace(&g, &TraceConfig::ripple(4000, 9));
        let mut sizes: Vec<f64> = trace.iter().map(|p| p.amount.as_units_f64()).collect();
        sizes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sizes[sizes.len() / 2];
        assert!((1.0..25.0).contains(&median), "median {median} ≈ $4.8");
    }

    #[test]
    fn jsonl_round_trip() {
        let g = generators::watts_strogatz(30, 4, 0.2, 3);
        let trace = generate_trace(&g, &TraceConfig::lightning(50, 11));
        let text = to_jsonl(&trace);
        let back = from_jsonl(&text).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn jsonl_rejects_garbage() {
        assert!(from_jsonl("not json\n").is_err());
        assert!(from_jsonl("{\"id\":0}\n").is_err());
        assert!(from_jsonl("").unwrap().is_empty());
    }

    #[test]
    fn timed_jsonl_round_trip() {
        let g = generators::watts_strogatz(30, 4, 0.2, 3);
        let trace = generate_trace(&g, &TraceConfig::ripple(40, 11));
        let times = crate::arrivals::poisson_times(40, 100.0, 5);
        let workload = crate::arrivals::stamp(&trace, &times);
        let text = to_jsonl_timed(&workload);
        assert!(text.contains("time_micros"));
        let back = from_jsonl_timed(&text).unwrap();
        assert_eq!(workload, back);
        // The untimed reader accepts the same file and drops the stamps.
        assert_eq!(from_jsonl(&text).unwrap(), trace);
        // The untimed writer keeps the original format: no time field.
        assert!(!to_jsonl(&trace).contains("time_micros"));
    }

    #[test]
    fn untimed_lines_replay_at_time_zero() {
        let line = "{\"id\":3,\"sender\":0,\"receiver\":1,\"amount_micros\":2000000}\n";
        let timed = from_jsonl_timed(line).unwrap();
        assert_eq!(timed.len(), 1);
        assert_eq!(timed[0].0, SimTime::ZERO);
        assert_eq!(timed[0].1.amount, Amount::from_units(2));
    }
}
