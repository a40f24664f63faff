//! The one registry of routing schemes: every harness — simulator
//! figures, the discrete-event engine, the TCP testbed and benches —
//! names a scheme with [`Scheme`] and builds its router with
//! [`Scheme::router`], generic over the backend.

use crate::{
    FlashConfig, FlashRouter, ShortestPathRouter, SilentWhispersRouter, SpeedyMurmursRouter,
    SpiderRouter,
};
use pcn_sim::{PaymentNetwork, Router};
use pcn_types::Amount;

/// The routing schemes the evaluation compares (§4.1 benchmarks), plus
/// the Flash variants the microbenchmarks sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Flash with the paper defaults (k = 20, m = 4, fee LP on).
    Flash,
    /// Flash with the fee-minimizing LP disabled (Figure 9 baseline).
    FlashNoFeeOpt,
    /// Flash with a custom number of mice paths per receiver
    /// (Figure 11; `0` routes mice with the elephant algorithm).
    FlashWithM(usize),
    /// Spider (4 edge-disjoint paths + waterfilling).
    Spider,
    /// SpeedyMurmurs (3 landmarks).
    SpeedyMurmurs,
    /// SilentWhispers (3 landmarks, landmark-centered; related-work
    /// extension, not in the paper's head-to-head figures).
    SilentWhispers,
    /// Fewest-hops single path.
    ShortestPath,
}

impl Scheme {
    /// The five head-to-head schemes (excludes the Flash ablation
    /// variants) — the set every backend comparison sweeps.
    pub const ALL: [Scheme; 5] = [
        Scheme::Flash,
        Scheme::Spider,
        Scheme::SpeedyMurmurs,
        Scheme::SilentWhispers,
        Scheme::ShortestPath,
    ];

    /// Legend label. For the five schemes of [`Scheme::ALL`] it equals
    /// the router's [`Router::name`]; the ablation variants append their
    /// setting.
    pub fn label(self) -> String {
        match self {
            Scheme::Flash => "Flash".into(),
            Scheme::FlashNoFeeOpt => "Flash (no fee opt)".into(),
            Scheme::FlashWithM(m) => format!("Flash (m={m})"),
            Scheme::Spider => "Spider".into(),
            Scheme::SpeedyMurmurs => "SpeedyMurmurs".into(),
            Scheme::SilentWhispers => "SilentWhispers".into(),
            Scheme::ShortestPath => "Shortest Path".into(),
        }
    }

    /// Instantiates the scheme's router against any [`PaymentNetwork`]
    /// backend — the same implementations drive the instantaneous
    /// simulator, the discrete-event engine and the TCP testbed
    /// unmodified. `elephant_threshold` and `seed` configure Flash; the
    /// other schemes are deterministic and classless.
    pub fn router<N: PaymentNetwork>(
        self,
        elephant_threshold: Amount,
        seed: u64,
    ) -> Box<dyn Router<N>> {
        let flash = |config: FlashConfig| -> Box<dyn Router<N>> {
            Box::new(FlashRouter::new(FlashConfig {
                elephant_threshold,
                seed,
                ..config
            }))
        };
        match self {
            Scheme::Flash => flash(FlashConfig::default()),
            Scheme::FlashNoFeeOpt => flash(FlashConfig {
                optimize_fees: false,
                ..Default::default()
            }),
            Scheme::FlashWithM(m) => flash(FlashConfig {
                mice_paths_per_receiver: m,
                ..Default::default()
            }),
            Scheme::Spider => Box::new(SpiderRouter::new()),
            Scheme::SpeedyMurmurs => Box::new(SpeedyMurmursRouter::new()),
            Scheme::SilentWhispers => Box::new(SilentWhispersRouter::new()),
            Scheme::ShortestPath => Box::new(ShortestPathRouter::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_sim::Network;

    #[test]
    fn head_to_head_labels_are_the_router_names() {
        for scheme in Scheme::ALL {
            let router = scheme.router::<Network>(Amount::MAX, 1);
            assert_eq!(scheme.label(), router.name());
        }
    }
}
