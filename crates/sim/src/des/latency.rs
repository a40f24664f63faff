//! Per-hop *propagation* latency models.
//!
//! Every message the engine simulates (probe hops, phase-1 `COMMIT`
//! hops, `CONFIRM`/`REVERSE` settlement hops) is delayed by the model's
//! [`LatencyModel::delay`] while crossing the channel. The jittered
//! model is a *pure function* of the seed and a monotone message
//! counter — no RNG state is carried between calls — so a run's delays
//! are bit-reproducible and independent of how the model is shared or
//! cloned.
//!
//! Propagation is deliberately load-independent: a message's wire time
//! never depends on how busy the network is. The load-*dependent* half
//! of the delay model — per-node service times and FIFO queueing
//! behind a node's backlog — lives in [`node`](super::node), and is
//! what makes completion latency respond to offered load. With the
//! default zero-service model, propagation is the only delay and the
//! engine behaves exactly as it did before service queues existed.

use super::time::SimTime;

/// How long one message takes to traverse one channel hop.
#[derive(Clone, Debug)]
pub enum LatencyModel {
    /// The same delay on every hop (the testbed's homogeneous links).
    Constant(SimTime),
    /// A base delay plus deterministic uniform jitter in
    /// `[0, jitter_us]`, derived by hashing `(seed, message counter)`.
    UniformJitter {
        /// Minimum per-hop delay.
        base: SimTime,
        /// Jitter span added on top, in microseconds.
        jitter_us: u64,
        /// Seed for the jitter hash.
        seed: u64,
    },
}

impl LatencyModel {
    /// A constant per-hop delay in milliseconds — the common case (the
    /// paper's testbed measures per-hop processing in the tens of
    /// milliseconds).
    pub fn constant_ms(ms: u64) -> Self {
        LatencyModel::Constant(SimTime::from_millis(ms))
    }

    /// Zero delay on every hop: the DES engine degenerates to the
    /// instantaneous simulator (useful for parity tests).
    pub fn instant() -> Self {
        LatencyModel::Constant(SimTime::ZERO)
    }

    /// The delay of message number `tick` crossing one hop. `tick` is
    /// the engine's monotone message counter.
    pub fn delay(&self, tick: u64) -> SimTime {
        match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::UniformJitter {
                base,
                jitter_us,
                seed,
            } => {
                if *jitter_us == 0 {
                    return *base;
                }
                let h = splitmix64(seed ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                // jitter_us + 1 would overflow at u64::MAX, where any
                // h is already in range.
                let jitter = match jitter_us.checked_add(1) {
                    Some(m) => h % m,
                    None => h,
                };
                base.saturating_add(SimTime::from_micros(jitter))
            }
        }
    }
}

/// SplitMix64 finalizer — the same mixer the `rand` shim seeds with.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::constant_ms(10);
        for tick in 0..10 {
            assert_eq!(m.delay(tick), SimTime::from_millis(10));
        }
        assert_eq!(LatencyModel::instant().delay(3), SimTime::ZERO);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let m = LatencyModel::UniformJitter {
            base: SimTime::from_millis(5),
            jitter_us: 2_000,
            seed: 42,
        };
        let lo = SimTime::from_millis(5);
        let hi = SimTime::from_micros(7_000);
        let draws: Vec<SimTime> = (0..200).map(|t| m.delay(t)).collect();
        for d in &draws {
            assert!((lo..=hi).contains(d), "{d} out of [5ms, 7ms]");
        }
        // Pure function of (seed, tick): replay matches exactly.
        let replay: Vec<SimTime> = (0..200).map(|t| m.delay(t)).collect();
        assert_eq!(draws, replay);
        // Different seed, different sequence.
        let other = LatencyModel::UniformJitter {
            base: SimTime::from_millis(5),
            jitter_us: 2_000,
            seed: 43,
        };
        let others: Vec<SimTime> = (0..200).map(|t| other.delay(t)).collect();
        assert_ne!(draws, others);
    }

    #[test]
    fn full_range_jitter_does_not_overflow() {
        let m = LatencyModel::UniformJitter {
            base: SimTime::ZERO,
            jitter_us: u64::MAX,
            seed: 2,
        };
        for tick in 0..100 {
            let _ = m.delay(tick); // must not panic
        }
    }

    #[test]
    fn zero_jitter_is_the_base() {
        let m = LatencyModel::UniformJitter {
            base: SimTime::from_millis(3),
            jitter_us: 0,
            seed: 1,
        };
        assert_eq!(m.delay(9), SimTime::from_millis(3));
    }
}
