//! Heavy-tailed payment-size models (Figure 3).
//!
//! Sizes are drawn from a piecewise log-linear CDF: anchor points
//! `(value, F(value))` connected by segments that are uniform in
//! `log(value)`. This matches how the paper presents the distributions
//! (CDFs on a log axis) and lets us pin the published statistics
//! exactly: the median and 90th percentile are anchors, and the anchor
//! masses above p90 are tuned so the top decile carries ≈94.5% (Ripple)
//! / ≈94.7% (Bitcoin) of total volume. The calibration tests in this
//! module verify all three properties by sampling.

use pcn_types::Amount;
use rand::prelude::*;
use rand::rngs::StdRng;

/// A payment-size distribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizeModel {
    /// Ripple-like sizes in USD (Figure 3a): median $4.8, p90 $1,740,
    /// top-10% ≈ 94.5% of volume.
    RippleUsd,
    /// Bitcoin-like sizes in satoshi (Figure 3b): median 1.293e6, p90
    /// 8.9e7, top-10% ≈ 94.7% of volume.
    BitcoinSatoshi,
}

/// CDF anchors for the Ripple USD model: `(value_in_usd, cumulative
/// probability)`. Between anchors the distribution is log-uniform.
const RIPPLE_ANCHORS: &[(f64, f64)] = &[
    (1e-6, 0.00),
    (1e-3, 0.02),
    (0.1, 0.15),
    (1.0, 0.33),
    (4.8, 0.50), // median ($4.8, §2.2)
    (50.0, 0.70),
    (300.0, 0.82),
    (1740.0, 0.90), // p90 ($1,740, §2.2)
    (10_000.0, 0.97),
    (50_000.0, 0.998),
    (1_000_000.0, 1.00),
];

/// CDF anchors for the Bitcoin satoshi model.
const BITCOIN_ANCHORS: &[(f64, f64)] = &[
    (1e2, 0.00),
    (1e4, 0.05),
    (1e5, 0.15),
    (1.293e6, 0.50), // median (1.293e6 satoshi, §2.2)
    (1e7, 0.75),
    (8.9e7, 0.90), // p90 (8.9e7 satoshi, §2.2)
    (5e8, 0.97),
    (5e9, 0.998),
    (2e10, 1.00),
];

impl SizeModel {
    fn anchors(self) -> &'static [(f64, f64)] {
        match self {
            SizeModel::RippleUsd => RIPPLE_ANCHORS,
            SizeModel::BitcoinSatoshi => BITCOIN_ANCHORS,
        }
    }

    /// Inverse-CDF lookup: the size at cumulative probability `q`.
    #[expect(clippy::unwrap_used, reason = "the anchor tables are non-empty consts")]
    pub fn quantile(self, q: f64) -> f64 {
        let anchors = self.anchors();
        let q = q.clamp(0.0, 1.0);
        for w in anchors.windows(2) {
            let (v0, f0) = w[0];
            let (v1, f1) = w[1];
            if q <= f1 {
                if (f1 - f0).abs() < f64::EPSILON {
                    return v0;
                }
                let t = (q - f0) / (f1 - f0);
                // Log-linear interpolation.
                return (v0.ln() + t * (v1.ln() - v0.ln())).exp();
            }
        }
        anchors.last().unwrap().0
    }

    /// Draws one size in native units (USD or satoshi).
    pub fn sample_units(self, rng: &mut StdRng) -> f64 {
        self.quantile(rng.random::<f64>())
    }

    /// Draws one size as an [`Amount`].
    pub fn sample(self, rng: &mut StdRng) -> Amount {
        Amount::from_units_f64(self.sample_units(rng))
    }

    /// Draws `n` sizes.
    pub fn sample_many(self, n: usize, seed: u64) -> Vec<Amount> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| self.sample(&mut rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_samples(model: SizeModel, n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(42);
        let mut v: Vec<f64> = (0..n).map(|_| model.sample_units(&mut rng)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    fn top_decile_volume_share(sorted: &[f64]) -> f64 {
        let total: f64 = sorted.iter().sum();
        let cut = sorted.len() * 9 / 10;
        let top: f64 = sorted[cut..].iter().sum();
        top / total
    }

    #[test]
    fn ripple_median_matches_paper() {
        let s = sorted_samples(SizeModel::RippleUsd, 40_000);
        let median = s[s.len() / 2];
        assert!(
            (median / 4.8 - 1.0).abs() < 0.15,
            "median {median} should be ≈ $4.8"
        );
    }

    #[test]
    fn ripple_p90_matches_paper() {
        let s = sorted_samples(SizeModel::RippleUsd, 40_000);
        let p90 = s[s.len() * 9 / 10];
        assert!(
            (p90 / 1740.0 - 1.0).abs() < 0.2,
            "p90 {p90} should be ≈ $1,740"
        );
    }

    #[test]
    fn ripple_top_decile_dominates_volume() {
        let s = sorted_samples(SizeModel::RippleUsd, 40_000);
        let share = top_decile_volume_share(&s);
        assert!(
            (0.90..=0.98).contains(&share),
            "top-10% share {share} should be ≈ 94.5%"
        );
    }

    #[test]
    fn bitcoin_median_matches_paper() {
        let s = sorted_samples(SizeModel::BitcoinSatoshi, 40_000);
        let median = s[s.len() / 2];
        assert!(
            (median / 1.293e6 - 1.0).abs() < 0.15,
            "median {median} should be ≈ 1.293e6 sat"
        );
    }

    #[test]
    fn bitcoin_p90_matches_paper() {
        let s = sorted_samples(SizeModel::BitcoinSatoshi, 40_000);
        let p90 = s[s.len() * 9 / 10];
        assert!(
            (p90 / 8.9e7 - 1.0).abs() < 0.2,
            "p90 {p90} should be ≈ 8.9e7 sat"
        );
    }

    #[test]
    fn bitcoin_top_decile_dominates_volume() {
        let s = sorted_samples(SizeModel::BitcoinSatoshi, 40_000);
        let share = top_decile_volume_share(&s);
        assert!(
            (0.90..=0.98).contains(&share),
            "top-10% share {share} should be ≈ 94.7%"
        );
    }

    #[test]
    fn quantile_is_monotone() {
        for model in [SizeModel::RippleUsd, SizeModel::BitcoinSatoshi] {
            let mut prev = 0.0;
            for i in 0..=100 {
                let q = i as f64 / 100.0;
                let v = model.quantile(q);
                assert!(v >= prev, "quantile not monotone at {q}");
                prev = v;
            }
        }
    }

    #[test]
    fn quantile_endpoints() {
        assert!((SizeModel::RippleUsd.quantile(0.0) / 1e-6 - 1.0).abs() < 1e-9);
        assert!((SizeModel::RippleUsd.quantile(1.0) / 1_000_000.0 - 1.0).abs() < 1e-9);
        assert!((SizeModel::RippleUsd.quantile(2.0) / 1_000_000.0 - 1.0).abs() < 1e-9);
        // clamped
    }

    #[test]
    fn median_anchor_is_exact() {
        assert!((SizeModel::RippleUsd.quantile(0.5) - 4.8).abs() < 1e-9);
        assert!((SizeModel::BitcoinSatoshi.quantile(0.5) - 1.293e6).abs() < 1e-3);
        assert!((SizeModel::RippleUsd.quantile(0.9) - 1740.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = SizeModel::RippleUsd.sample_many(100, 7);
        let b = SizeModel::RippleUsd.sample_many(100, 7);
        assert_eq!(a, b);
        let c = SizeModel::RippleUsd.sample_many(100, 8);
        assert_ne!(a, c);
    }
}
