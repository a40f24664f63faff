//! Payment arrival processes.
//!
//! The discrete-event engine (`pcn_sim::des`) consumes *timed*
//! workloads: `(SimTime, Payment)` pairs. This module builds the two
//! arrival processes the evaluation needs:
//!
//! * [`poisson_times`] — a seeded Poisson process at a given offered
//!   load (payments per virtual second), the standard open-loop arrival
//!   model (Spider's evaluation and the Credit Network literature both
//!   drive load this way). Inter-arrival gaps are exponential,
//!   deterministic per seed.
//! * [`trace::from_jsonl_timed`](crate::trace::from_jsonl_timed) — the
//!   replay adapter: a trace's own `time_micros` stamps, finally
//!   consumed instead of parsed-and-dropped.
//! * [`uniform_times`] — a fixed-gap process for controlled
//!   experiments (exact offered load, no burstiness).
//!
//! [`stamp`] zips a generated trace with arrival times into the
//! workload shape the engine takes.

use pcn_sim::SimTime;
use pcn_types::Payment;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Exp};

/// Arrival times of a Poisson process with rate `rate_per_sec`
/// (payments per virtual second), starting at the first inter-arrival
/// gap after time zero. Deterministic per seed; times are
/// non-decreasing.
///
/// # Panics
/// Panics if `rate_per_sec` is not finite and positive.
pub fn poisson_times(n: usize, rate_per_sec: f64, seed: u64) -> Vec<SimTime> {
    #[expect(
        clippy::expect_used,
        reason = "documented contract: the offered load must be positive"
    )]
    let gap_us = Exp::new(rate_per_sec / 1_000_000.0).expect("rate must be finite and positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0u64;
    (0..n)
        .map(|_| {
            // Round each gap instead of flooring so the realized rate
            // is unbiased; saturate rather than wrap on absurd rates.
            let gap = gap_us.sample(&mut rng).round();
            let gap = if gap >= u64::MAX as f64 {
                u64::MAX
            } else {
                gap as u64
            };
            t = t.saturating_add(gap);
            SimTime::from_micros(t)
        })
        .collect()
}

/// Arrival times with a fixed gap between consecutive payments: the
/// `i`-th payment arrives at `(i + 1) × gap`.
pub fn uniform_times(n: usize, gap: SimTime) -> Vec<SimTime> {
    let mut t = SimTime::ZERO;
    (0..n)
        .map(|_| {
            t += gap;
            t
        })
        .collect()
}

/// Zips a trace with arrival times into the engine's workload shape.
///
/// # Panics
/// Panics if the lengths differ — a mismatch means the arrival plan was
/// built for a different trace.
pub fn stamp(trace: &[Payment], times: &[SimTime]) -> Vec<(SimTime, Payment)> {
    assert_eq!(
        trace.len(),
        times.len(),
        "arrival plan has {} times for {} payments",
        times.len(),
        trace.len()
    );
    times.iter().copied().zip(trace.iter().copied()).collect()
}

/// Convenience: a trace under Poisson arrivals at `rate_per_sec`.
pub fn poisson_workload(
    trace: &[Payment],
    rate_per_sec: f64,
    seed: u64,
) -> Vec<(SimTime, Payment)> {
    stamp(trace, &poisson_times(trace.len(), rate_per_sec, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_types::{Amount, NodeId, TxId};
    use proptest::prelude::*;

    #[test]
    fn poisson_times_are_sorted_and_positive() {
        let times = poisson_times(500, 100.0, 7);
        assert_eq!(times.len(), 500);
        for w in times.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(*times.last().unwrap() > SimTime::ZERO);
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        assert_eq!(poisson_times(200, 50.0, 3), poisson_times(200, 50.0, 3));
        assert_ne!(poisson_times(200, 50.0, 3), poisson_times(200, 50.0, 4));
    }

    #[test]
    fn uniform_times_have_exact_gaps() {
        let times = uniform_times(4, SimTime::from_millis(250));
        let expect: Vec<SimTime> = (1..=4).map(|i| SimTime::from_millis(250 * i)).collect();
        assert_eq!(times, expect);
    }

    #[test]
    fn stamp_pairs_in_order() {
        let trace: Vec<Payment> = (0..3)
            .map(|i| Payment::new(TxId(i), NodeId(0), NodeId(1), Amount::from_units(i + 1)))
            .collect();
        let times = uniform_times(3, SimTime::from_millis(10));
        let w = stamp(&trace, &times);
        assert_eq!(w.len(), 3);
        assert_eq!(w[1].0, SimTime::from_millis(20));
        assert_eq!(w[2].1.amount, Amount::from_units(3));
    }

    #[test]
    #[should_panic(expected = "arrival plan")]
    fn stamp_rejects_mismatched_lengths() {
        let trace = vec![Payment::new(TxId(0), NodeId(0), NodeId(1), Amount::UNIT)];
        stamp(&trace, &uniform_times(2, SimTime::from_millis(1)));
    }

    proptest! {
        /// Inter-arrival gaps of the Poisson process are exponential-ish:
        /// the sample mean lands near `1/rate` and the gaps are bursty
        /// (CoV near 1), both within loose tolerances.
        #[test]
        fn poisson_gaps_are_exponential_ish(
            seed in 0u64..64,
            rate_idx in 0usize..3,
        ) {
            let rate = [20.0f64, 100.0, 400.0][rate_idx];
            let n = 4000;
            let times = poisson_times(n, rate, seed);
            let mut prev = 0u64;
            let gaps: Vec<f64> = times
                .iter()
                .map(|t| {
                    let g = (t.micros() - prev) as f64 / 1e6;
                    prev = t.micros();
                    g
                })
                .collect();
            let mean = gaps.iter().sum::<f64>() / n as f64;
            let expect = 1.0 / rate;
            prop_assert!(
                (mean - expect).abs() / expect < 0.1,
                "mean gap {mean} vs expected {expect}"
            );
            // Exponential gaps have standard deviation ≈ mean.
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / n as f64;
            let cov = var.sqrt() / mean;
            prop_assert!((cov - 1.0).abs() < 0.15, "CoV {cov} not exponential-like");
        }

        /// The realized offered load matches the configured rate.
        #[test]
        fn poisson_realizes_the_offered_load(seed in 0u64..32) {
            let rate = 200.0;
            let n = 2000;
            let times = poisson_times(n, rate, seed);
            let span = times.last().unwrap().as_secs_f64();
            let realized = n as f64 / span;
            prop_assert!(
                (realized - rate).abs() / rate < 0.1,
                "realized {realized} pps vs configured {rate}"
            );
        }
    }
}
