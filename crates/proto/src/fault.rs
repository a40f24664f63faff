//! Transport fault injection for the testbed.
//!
//! The smoltcp guide's examples ship `--drop-chance`-style fault
//! injection to demonstrate behaviour under adverse conditions; the
//! prototype gets the same: a [`FaultPlan`] installed on a cluster
//! drops outbound protocol messages with a configured probability.
//!
//! Faults exercise the paths the paper's §5.1 design argues for: a lost
//! `COMMIT_ACK` makes the sender time out and issue `REVERSE`; a lost
//! `PROBE` simply times out the probe. Note that a lost `COMMIT` *can*
//! strand escrowed funds at upstream hops until the sender's `REVERSE`
//! pass restores them — the exact reason real deployments need
//! HTLC-style timelocks, which the paper (and this reproduction)
//! explicitly leave out of scope.

use pcn_sim::FaultConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A message-drop plan, owned by the event loop it is installed on.
pub struct FaultPlan {
    /// Probability of dropping any outbound message, in parts per
    /// million (0 = off, 1_000_000 = drop everything).
    drop_ppm: u64,
    rng: StdRng,
    dropped: u64,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        Self::with_drop_prob(0.0, 0)
    }

    /// Drops each outbound message with probability `p` (clamped to
    /// [0, 1]), deterministically per seed.
    pub fn with_drop_prob(p: f64, seed: u64) -> Self {
        FaultPlan {
            drop_ppm: (p.clamp(0.0, 1.0) * 1_000_000.0) as u64,
            rng: StdRng::seed_from_u64(seed),
            dropped: 0,
        }
    }

    /// Builds a wire-level plan from the simulator's fault surface
    /// ([`pcn_sim::FaultConfig`], which the DES backend inherits from
    /// the `Network` it wraps): `probe_drop_prob` becomes the outbound
    /// message-drop probability under the same seed. Probe *noise* has
    /// no transport equivalent — the wire carries real balances — so
    /// `probe_noise_ppm` is ignored here.
    pub fn from_fault_config(config: &FaultConfig) -> Self {
        Self::with_drop_prob(config.probe_drop_prob, config.seed)
    }

    /// Whether faults are active at all.
    pub fn enabled(&self) -> bool {
        self.drop_ppm > 0
    }

    /// Rolls the dice for one outbound message.
    pub fn should_drop(&mut self) -> bool {
        if self.drop_ppm == 0 {
            return false;
        }
        let roll: u64 = self.rng.random_range(0..1_000_000);
        if roll < self.drop_ppm {
            self.dropped += 1;
            true
        } else {
            false
        }
    }

    /// Messages dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_drops() {
        let mut f = FaultPlan::none();
        assert!(!f.enabled());
        for _ in 0..100 {
            assert!(!f.should_drop());
        }
        assert_eq!(f.dropped(), 0);
    }

    #[test]
    fn always_drop() {
        let mut f = FaultPlan::with_drop_prob(1.0, 3);
        for _ in 0..10 {
            assert!(f.should_drop());
        }
        assert_eq!(f.dropped(), 10);
    }

    #[test]
    fn rate_is_roughly_respected() {
        let mut f = FaultPlan::with_drop_prob(0.3, 7);
        let drops = (0..10_000).filter(|_| f.should_drop()).count();
        assert!((2_500..3_500).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn shares_the_sim_fault_surface() {
        assert!(!FaultPlan::from_fault_config(&FaultConfig::none()).enabled());
        let shared = FaultConfig {
            probe_drop_prob: 1.0,
            seed: 11,
            ..FaultConfig::none()
        };
        let mut f = FaultPlan::from_fault_config(&shared);
        assert!(f.enabled());
        assert!(f.should_drop());
    }

    #[test]
    fn clamps_out_of_range() {
        assert!(!FaultPlan::with_drop_prob(-1.0, 0).enabled());
        let mut f = FaultPlan::with_drop_prob(2.0, 0);
        assert!(f.should_drop());
    }
}
