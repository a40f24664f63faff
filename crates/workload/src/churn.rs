//! Seeded churn-schedule generation.
//!
//! Turns a [`ChurnRate`] (Poisson intensities for channel closes, node
//! crashes, and balance drains) into a concrete
//! [`ChurnSchedule`] over a topology and a virtual horizon. Each
//! process draws exponential inter-event gaps exactly like
//! [`poisson_times`](crate::arrivals::poisson_times) draws payment
//! arrivals, from a single `StdRng::seed_from_u64(seed)` stream in a
//! fixed order (closes, then crashes, then drains) — so a schedule is
//! a pure function of `(graph shape, horizon, rate, seed)` and a zero
//! rate yields the *empty* schedule without touching the RNG, keeping
//! the zero-churn bit-identity invariant of
//! [`pcn_sim::des::churn`](pcn_sim::ChurnSchedule).

use pcn_graph::{DiGraph, EdgeId};
use pcn_sim::{ChurnAction, ChurnRate, ChurnSchedule, SimTime};
use pcn_types::{Amount, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rand_distr::{Distribution, Exp};

/// Generates a churn schedule over `[0, horizon]`.
///
/// * Every close (resp. crash) picks a uniformly random channel
///   direction (resp. node) and schedules the matching reopen (resp.
///   up) at `t + rate.downtime` — possibly past the horizon, which is
///   harmless: trailing events fire during the engine's final drain
///   without extending the makespan.
/// * Every drain picks a uniformly random channel direction and
///   depletes it completely (the drain amount clamps to the live
///   balance when applied).
/// * A [`ChurnRate::is_zero`] rate, an empty graph, or a zero horizon
///   yields the empty schedule.
pub fn churn_schedule(g: &DiGraph, horizon: SimTime, rate: &ChurnRate, seed: u64) -> ChurnSchedule {
    let mut schedule = ChurnSchedule::none();
    if rate.is_zero() || g.edge_count() == 0 || horizon == SimTime::ZERO {
        return schedule;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let edges = g.edge_count();
    let nodes = g.node_count();

    for t in poisson_until(rate.closes_per_sec, horizon, &mut rng) {
        let edge = EdgeId(rng.random_range(0..edges) as u32);
        schedule.push(t, ChurnAction::ChannelClose(edge));
        schedule.push(
            t.saturating_add(rate.downtime),
            ChurnAction::ChannelReopen(edge),
        );
    }
    if nodes > 0 {
        for t in poisson_until(rate.node_downs_per_sec, horizon, &mut rng) {
            let node = NodeId(rng.random_range(0..nodes) as u32);
            schedule.push(t, ChurnAction::NodeDown(node));
            schedule.push(t.saturating_add(rate.downtime), ChurnAction::NodeUp(node));
        }
    }
    for t in poisson_until(rate.drains_per_sec, horizon, &mut rng) {
        let edge = EdgeId(rng.random_range(0..edges) as u32);
        schedule.push(
            t,
            ChurnAction::BalanceDrain {
                edge,
                amount: Amount::MAX,
            },
        );
    }
    schedule
}

/// Event times of one Poisson process with intensity `rate_per_sec`,
/// truncated at `horizon`. Empty (and RNG-untouched) for non-positive
/// rates.
fn poisson_until(rate_per_sec: f64, horizon: SimTime, rng: &mut StdRng) -> Vec<SimTime> {
    let mut times = Vec::new();
    if rate_per_sec <= 0.0 {
        return times;
    }
    #[expect(
        clippy::expect_used,
        reason = "the rate was just checked finite-positive"
    )]
    let gap_us = Exp::new(rate_per_sec / 1_000_000.0).expect("rate must be finite and positive");
    let mut t = 0u64;
    loop {
        // Round like `arrivals::poisson_times` so the realized
        // intensity is unbiased; saturate on absurd draws.
        let gap = gap_us.sample(rng).round();
        let gap = if gap >= u64::MAX as f64 {
            u64::MAX
        } else {
            gap as u64
        };
        t = t.saturating_add(gap);
        if SimTime::from_micros(t) > horizon {
            return times;
        }
        times.push(SimTime::from_micros(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_graph::generators;

    fn testbed() -> DiGraph {
        generators::watts_strogatz(30, 4, 0.2, 11)
    }

    #[test]
    fn zero_rate_yields_the_empty_schedule() {
        let g = testbed();
        let s = churn_schedule(&g, SimTime::from_secs(100), &ChurnRate::zero(), 7);
        assert!(s.is_empty(), "zero rate must not generate any event");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = testbed();
        let rate = ChurnRate::closes(2.0, SimTime::from_secs(5));
        let a = churn_schedule(&g, SimTime::from_secs(60), &rate, 3);
        let b = churn_schedule(&g, SimTime::from_secs(60), &rate, 3);
        assert_eq!(a, b);
        let c = churn_schedule(&g, SimTime::from_secs(60), &rate, 4);
        assert_ne!(a, c, "different seeds must give different schedules");
    }

    #[test]
    fn closes_pair_with_reopens_after_downtime() {
        let g = testbed();
        let downtime = SimTime::from_secs(5);
        let rate = ChurnRate::closes(1.0, downtime);
        let s = churn_schedule(&g, SimTime::from_secs(120), &rate, 9);
        assert!(!s.is_empty());
        assert_eq!(s.len() % 2, 0, "every close has a matching reopen");
        for pair in s.events().chunks(2) {
            let (close, reopen) = (pair[0], pair[1]);
            match (close.action, reopen.action) {
                (ChurnAction::ChannelClose(a), ChurnAction::ChannelReopen(b)) => {
                    assert_eq!(a, b, "reopen targets the closed channel");
                }
                other => panic!("unexpected action pair {other:?}"),
            }
            assert_eq!(reopen.at, close.at.saturating_add(downtime));
            assert!(close.at <= SimTime::from_secs(120));
        }
    }

    #[test]
    fn realized_intensity_tracks_the_rate() {
        let g = testbed();
        let rate = ChurnRate::closes(4.0, SimTime::from_secs(1));
        let horizon = SimTime::from_secs(500);
        let s = churn_schedule(&g, horizon, &rate, 21);
        // Two events (close + reopen) per arrival of the close process.
        let arrivals = s.len() as f64 / 2.0;
        let expect = 4.0 * 500.0;
        assert!(
            (arrivals - expect).abs() / expect < 0.15,
            "{arrivals} arrivals vs ~{expect} expected"
        );
    }

    #[test]
    fn mixed_rates_generate_all_action_kinds() {
        let g = testbed();
        let rate = ChurnRate {
            closes_per_sec: 1.0,
            node_downs_per_sec: 1.0,
            drains_per_sec: 1.0,
            downtime: SimTime::from_secs(2),
        };
        let s = churn_schedule(&g, SimTime::from_secs(200), &rate, 5);
        let mut closes = 0;
        let mut downs = 0;
        let mut drains = 0;
        for ev in s.events() {
            match ev.action {
                ChurnAction::ChannelClose(_) => closes += 1,
                ChurnAction::NodeDown(_) => downs += 1,
                ChurnAction::BalanceDrain { amount, .. } => {
                    assert_eq!(amount, Amount::MAX, "drains deplete completely");
                    drains += 1;
                }
                _ => {}
            }
        }
        assert!(closes > 0 && downs > 0 && drains > 0);
    }
}
