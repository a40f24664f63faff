//! Order statistics, the spread rule the acceptance pipeline applies,
//! and the small deterministic mixers the workloads derive inputs with.

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`):
/// the smallest element with at least `q·n` elements at or below it.
/// Zero for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Sorts `samples` in place and returns its nearest-rank percentile.
pub fn percentile_of(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    percentile(samples, q)
}

/// Nearest-rank percentile of nanosecond samples, in microseconds.
pub fn percentile_us(samples_ns: &mut [u64], q: f64) -> f64 {
    percentile_of(samples_ns, q) as f64 / 1e3
}

/// Median of `values` (mean of the two middle elements for an even
/// count). Zero for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive method)
/// computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The spread the pipeline bounds: distance between the first and the
/// third quartile as a share of the median. Zero when undefined.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => ((q3 - q1) / med).abs(),
        _ => 0.0,
    }
}

/// SplitMix64 finalizer: decorrelates `(seed, index)` pairs into the
/// per-pass trace rotations.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words: the order-sensitive digest of a trace or
/// of a pass's per-payment outcomes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_on_known_inputs() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        let mut unsorted = vec![9, 1, 5, 3, 7];
        assert_eq!(percentile_of(&mut unsorted, 0.5), 5);
        assert_eq!(percentile_of(&mut unsorted, 0.8), 7);
        assert_eq!(percentile_us(&mut [3_000, 1_000, 2_000], 0.5), 2.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
        let (q1, q3) = quartiles(&[9.0, 4.0, 2.0, 5.0, 4.0]).unwrap();
        assert!((q1 - 3.0).abs() < 1e-12 && (q3 - 7.0).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
        assert_eq!(quartile_spread(&[1.0]), 0.0);
    }

    #[test]
    fn mix_and_digest_are_deterministic_and_order_sensitive() {
        assert_eq!(mix(11, 3), mix(11, 3));
        assert_ne!(mix(11, 3), mix(11, 4));
        assert_ne!(mix(11, 3), mix(12, 3));
        let fold = |words: &[u64]| {
            let mut d = Digest::default();
            words.iter().for_each(|w| d.push(*w));
            d
        };
        assert_eq!(fold(&[1, 2, 3]), fold(&[1, 2, 3]));
        assert_ne!(fold(&[1, 2, 3]), fold(&[3, 2, 1]));
    }
}
