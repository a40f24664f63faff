//! Evaluation metrics.
//!
//! "Similar to prior work, we use success ratio, success volume and
//! number of probing messages as the primary metrics" (§4.1). Fees and
//! commit-message counts are additionally tracked for Figures 9 and the
//! testbed delay analysis.

use pcn_types::{Amount, PaymentClass};
use serde::{Deserialize, Serialize};

/// Counters for one traffic class (elephant or mice).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassMetrics {
    /// Payments attempted.
    pub attempted: u64,
    /// Payments fully delivered.
    pub succeeded: u64,
    /// Volume attempted.
    pub attempted_volume: Amount,
    /// Volume of fully delivered payments.
    pub success_volume: Amount,
}

impl ClassMetrics {
    /// Success ratio in [0, 1]; zero when nothing was attempted.
    pub fn success_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.succeeded as f64 / self.attempted as f64
        }
    }
}

/// A deterministic log-bucketed histogram of completion latencies in
/// virtual microseconds.
///
/// Values below 16µs get exact buckets; larger values land in one of 8
/// sub-buckets per power of two, so quantile estimates carry at most
/// ~6% relative error while the histogram stays at most 496 counters,
/// 3,968 bytes, no matter how many observations it absorbs: one count
/// per bucket index, allocated at the first observation, so recording
/// one is one index operation. The discrete-event backend
/// ([`des`](crate::des)) records one observation per *successful*
/// payment (admission → final settlement); the simulator and the
/// testbed record nothing, so theirs stays empty and allocates nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// One count per bucket index: empty until the first observation,
    /// then [`LatencyHistogram::BUCKETS`] long.
    counts: Vec<u64>,
    count: u64,
    sum_us: u64,
    min_us: u64,
    max_us: u64,
}

impl LatencyHistogram {
    /// The number of bucket indices: `bucket_of(u64::MAX)` is 495.
    const BUCKETS: usize = 496;

    /// Records one latency observation, in microseconds.
    pub fn observe(&mut self, us: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; Self::BUCKETS];
        }
        self.counts[Self::bucket_of(us) as usize] += 1;
        if self.count == 0 {
            self.min_us = us;
            self.max_us = us;
        } else {
            self.min_us = self.min_us.min(us);
            self.max_us = self.max_us.max(us);
        }
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest observation, in microseconds (zero when empty).
    pub fn max_us(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max_us
        }
    }

    /// Mean observation, in microseconds (zero when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) in microseconds, estimated
    /// from the bucket containing the rank and clamped to the observed
    /// min/max. Zero when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in (0u32..).zip(&self.counts) {
            seen += c;
            if seen >= rank {
                return Self::representative(idx).clamp(self.min_us, self.max_us);
            }
        }
        self.max_us
    }

    /// Bucket index: exact below 16, then 8 sub-buckets per octave.
    fn bucket_of(us: u64) -> u32 {
        if us < 16 {
            return us as u32;
        }
        let k = 63 - us.leading_zeros(); // 4..=63
        let sub = ((us >> (k - 3)) & 7) as u32;
        16 + (k - 4) * 8 + sub
    }

    /// Midpoint of a bucket's value range.
    fn representative(idx: u32) -> u64 {
        if idx < 16 {
            return u64::from(idx);
        }
        let k = (idx - 16) / 8 + 4;
        let sub = u64::from((idx - 16) % 8);
        let width = 1u64 << (k - 3);
        (1u64 << k) + sub * width + width / 2
    }
}

/// Aggregated simulation metrics.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Elephant-class counters.
    pub elephant: ClassMetrics,
    /// Mice-class counters.
    pub mice: ClassMetrics,
    /// Probe messages sent (one per hop traversed by a probe, as in the
    /// paper: "The number of probing messages along a path is
    /// proportional to the number of hops of the path").
    pub probe_messages: u64,
    /// Commit-phase messages sent (hops traversed by COMMIT attempts).
    pub commit_messages: u64,
    /// Total transaction fees charged on successful payments.
    pub fees_paid: Amount,
    /// Number of distinct paths used by successful payments.
    pub paths_used: u64,
    /// Completion-latency histogram (virtual µs). Populated only by
    /// time-aware backends ([`des`](crate::des)); the instantaneous
    /// simulator leaves it empty.
    pub latency: LatencyHistogram,
    /// Per-message queueing-delay histogram (virtual µs): how long each
    /// delivered message waited behind a node's FIFO backlog before
    /// service began. Populated only by time-aware backends with a
    /// nonzero per-node service time ([`des::node`](crate::des));
    /// empty on the instantaneous simulator and under the zero-service
    /// default.
    #[serde(default)]
    pub queue_delay: LatencyHistogram,
}

impl Metrics {
    /// Records a payment attempt.
    pub fn record_attempt(&mut self, class: PaymentClass, volume: Amount) {
        let c = self.class_mut(class);
        c.attempted += 1;
        c.attempted_volume = c.attempted_volume.saturating_add(volume);
    }

    /// Records a fully delivered payment.
    pub fn record_success(
        &mut self,
        class: PaymentClass,
        volume: Amount,
        fees: Amount,
        paths: u64,
    ) {
        let c = self.class_mut(class);
        c.succeeded += 1;
        c.success_volume = c.success_volume.saturating_add(volume);
        self.fees_paid = self.fees_paid.saturating_add(fees);
        self.paths_used += paths;
    }

    /// Records one payment-completion latency, in virtual microseconds.
    /// Time-aware backends call this once per successful payment
    /// (admission to final settlement).
    pub fn observe_latency(&mut self, us: u64) {
        self.latency.observe(us);
    }

    /// Records one message's queueing delay behind a node's backlog, in
    /// virtual microseconds. Time-aware backends call this once per
    /// message serviced by a node with a nonzero service time (zero
    /// waits included — the histogram's mean is the true mean wait).
    pub fn observe_queue_delay(&mut self, us: u64) {
        self.queue_delay.observe(us);
    }

    fn class_mut(&mut self, class: PaymentClass) -> &mut ClassMetrics {
        match class {
            PaymentClass::Elephant => &mut self.elephant,
            PaymentClass::Mice => &mut self.mice,
        }
    }

    /// Combined counters over both classes.
    pub fn total(&self) -> ClassMetrics {
        ClassMetrics {
            attempted: self.elephant.attempted + self.mice.attempted,
            succeeded: self.elephant.succeeded + self.mice.succeeded,
            attempted_volume: self
                .elephant
                .attempted_volume
                .saturating_add(self.mice.attempted_volume),
            success_volume: self
                .elephant
                .success_volume
                .saturating_add(self.mice.success_volume),
        }
    }

    /// Overall success ratio in [0, 1].
    pub fn success_ratio(&self) -> f64 {
        self.total().success_ratio()
    }

    /// Overall success volume.
    pub fn success_volume(&self) -> Amount {
        self.total().success_volume
    }

    /// Fee-to-volume ratio in percent (Figure 9's y-axis), zero when no
    /// volume succeeded.
    pub fn fee_ratio_percent(&self) -> f64 {
        let v = self.success_volume();
        if v.is_zero() {
            0.0
        } else {
            100.0 * self.fees_paid.micros() as f64 / v.micros() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_types::PaymentClass::{Elephant, Mice};
    use proptest::prelude::*;

    /// `size_of::<Metrics>()` on 64-bit targets: each histogram is one
    /// `Vec` header of dense counts and four `u64` summaries.
    const METRICS_BYTES: usize = 208;

    #[test]
    fn attempt_and_success_accounting() {
        let mut m = Metrics::default();
        m.record_attempt(Mice, Amount::from_units(5));
        m.record_attempt(Elephant, Amount::from_units(100));
        m.record_success(Mice, Amount::from_units(5), Amount::from_units(1), 1);
        assert_eq!(m.total().attempted, 2);
        assert_eq!(m.total().succeeded, 1);
        assert_eq!(m.success_volume(), Amount::from_units(5));
        assert_eq!(m.mice.success_ratio(), 1.0);
        assert_eq!(m.elephant.success_ratio(), 0.0);
        assert_eq!(m.success_ratio(), 0.5);
    }

    #[test]
    fn empty_metrics_have_zero_ratios() {
        let m = Metrics::default();
        assert_eq!(m.success_ratio(), 0.0);
        assert_eq!(m.fee_ratio_percent(), 0.0);
    }

    #[test]
    fn latency_histogram_quantiles_are_close() {
        let mut h = LatencyHistogram::default();
        for us in 1..=1000u64 {
            h.observe(us * 1000); // 1ms..1000ms
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max_us(), 1_000_000);
        let p50 = h.quantile_us(0.5) as f64;
        let p95 = h.quantile_us(0.95) as f64;
        let p99 = h.quantile_us(0.99) as f64;
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.07, "p50 {p50}");
        assert!((p95 - 950_000.0).abs() / 950_000.0 < 0.07, "p95 {p95}");
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.07, "p99 {p99}");
        assert!((h.mean_us() - 500_500.0).abs() < 1.0);
    }

    #[test]
    fn latency_histogram_edge_cases() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.max_us(), 0);
        assert_eq!(h.mean_us(), 0.0);
        let mut h = LatencyHistogram::default();
        h.observe(0);
        h.observe(7);
        // Values below 16µs are bucketed exactly.
        assert_eq!(h.quantile_us(0.0), 0);
        assert_eq!(h.quantile_us(1.0), 7);
        let mut single = LatencyHistogram::default();
        single.observe(123_456);
        // Quantiles of a single observation clamp to it exactly.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(single.quantile_us(q), 123_456);
        }
    }

    /// The sparse histogram the dense counters replaced: `(bucket
    /// index, count)` pairs sorted by index, a binary search and a
    /// `Vec::insert` per new bucket. Kept as the reference for
    /// `dense_counts_equal_the_sparse_pairs`.
    #[derive(Debug, Default, PartialEq)]
    struct SparseHistogram {
        buckets: Vec<(u32, u64)>,
        count: u64,
        sum_us: u64,
        min_us: u64,
        max_us: u64,
    }

    impl SparseHistogram {
        fn observe(&mut self, us: u64) {
            let idx = LatencyHistogram::bucket_of(us);
            match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += 1,
                Err(pos) => self.buckets.insert(pos, (idx, 1)),
            }
            if self.count == 0 {
                self.min_us = us;
                self.max_us = us;
            } else {
                self.min_us = self.min_us.min(us);
                self.max_us = self.max_us.max(us);
            }
            self.count += 1;
            self.sum_us = self.sum_us.saturating_add(us);
        }

        fn max_us(&self) -> u64 {
            if self.count == 0 {
                0
            } else {
                self.max_us
            }
        }

        fn mean_us(&self) -> f64 {
            if self.count == 0 {
                0.0
            } else {
                self.sum_us as f64 / self.count as f64
            }
        }

        fn quantile_us(&self, q: f64) -> u64 {
            if self.count == 0 {
                return 0;
            }
            let q = q.clamp(0.0, 1.0);
            let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
            let mut seen = 0u64;
            for &(idx, c) in &self.buckets {
                seen += c;
                if seen >= rank {
                    return LatencyHistogram::representative(idx).clamp(self.min_us, self.max_us);
                }
            }
            self.max_us
        }
    }

    /// An observation of kind `kind % 5`: zero, an exact bucket (1–15),
    /// an octave edge (`2^k` and one either side), `u64::MAX`, or any
    /// value shifted down to a random octave.
    fn observation(kind: u8, raw: u64) -> u64 {
        match kind % 5 {
            0 => 0,
            1 => 1 + raw % 15,
            2 => (1u64 << (4 + raw % 60))
                .wrapping_add(raw / 64 % 3)
                .wrapping_sub(1),
            3 => u64::MAX,
            _ => raw >> (raw % 64),
        }
    }

    #[test]
    fn the_top_bucket_is_the_last_counter() {
        assert_eq!(
            LatencyHistogram::bucket_of(u64::MAX) as usize,
            LatencyHistogram::BUCKETS - 1
        );
        let mut h = LatencyHistogram::default();
        h.observe(u64::MAX);
        h.observe(0);
        assert_eq!(h.counts.len(), LatencyHistogram::BUCKETS);
        assert_eq!(h.max_us(), u64::MAX);
        assert_eq!(h.quantile_us(0.0), 0);
        // The top bucket's midpoint, 2^63 + 7.5 · 2^60.
        assert_eq!(h.quantile_us(1.0), (1 << 63) + 15 * (1 << 59));
    }

    proptest! {
        /// The dense counters report what the sparse pairs report, on
        /// multisets that mix zero, exact buckets, octave edges and
        /// `u64::MAX`: the same count, maximum, mean and quantiles. The
        /// same multiset observed in two orders gives equal histograms.
        #[test]
        fn dense_counts_equal_the_sparse_pairs(
            draws in proptest::collection::vec((0u8..5, proptest::prelude::any::<u64>()), 0..200),
            rotate in 0usize..200,
        ) {
            let values: Vec<u64> = draws.iter().map(|&(kind, raw)| observation(kind, raw)).collect();
            let (mut dense, mut sparse) = (LatencyHistogram::default(), SparseHistogram::default());
            for &us in &values {
                dense.observe(us);
                sparse.observe(us);
            }
            prop_assert_eq!(dense.count(), sparse.count);
            prop_assert_eq!(dense.max_us(), sparse.max_us());
            prop_assert_eq!(dense.mean_us().to_bits(), sparse.mean_us().to_bits());
            for q in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
                prop_assert_eq!(dense.quantile_us(q), sparse.quantile_us(q), "q {}", q);
            }
            let mut reordered = values.clone();
            reordered.reverse();
            reordered.rotate_left(rotate % values.len().max(1));
            let (mut dense_again, mut sparse_again) =
                (LatencyHistogram::default(), SparseHistogram::default());
            for &us in &reordered {
                dense_again.observe(us);
                sparse_again.observe(us);
            }
            prop_assert_eq!(&dense_again, &dense);
            prop_assert_eq!(&sparse_again, &sparse);
        }
    }

    #[test]
    fn metrics_stay_within_their_recorded_size() {
        // `Metrics::default()` runs in every backend's set-up; the
        // dense histogram is still one `Vec` header per histogram.
        assert!(
            std::mem::size_of::<Metrics>() <= METRICS_BYTES,
            "Metrics grew to {} bytes, recorded at {METRICS_BYTES}",
            std::mem::size_of::<Metrics>()
        );
    }

    #[test]
    fn observe_latency_flows_into_metrics() {
        let mut m = Metrics::default();
        assert_eq!(m.latency.count(), 0);
        m.observe_latency(5_000);
        m.observe_latency(9_000);
        assert_eq!(m.latency.count(), 2);
        assert_eq!(m.latency.max_us(), 9_000);
    }

    #[test]
    fn observe_queue_delay_is_a_separate_histogram() {
        let mut m = Metrics::default();
        m.observe_queue_delay(0);
        m.observe_queue_delay(2_000);
        assert_eq!(m.queue_delay.count(), 2);
        assert_eq!(m.queue_delay.max_us(), 2_000);
        assert_eq!(m.latency.count(), 0, "completion latency untouched");
        assert!((m.queue_delay.mean_us() - 1_000.0).abs() < 1.0);
    }

    #[test]
    fn fee_ratio_percent_matches_hand_math() {
        let mut m = Metrics::default();
        m.record_attempt(Elephant, Amount::from_units(1000));
        m.record_success(
            Elephant,
            Amount::from_units(1000),
            Amount::from_units(15),
            3,
        );
        assert!((m.fee_ratio_percent() - 1.5).abs() < 1e-9);
        assert_eq!(m.paths_used, 3);
    }
}
