//! Workload statistics — the quantities plotted in Figures 3 and 4.

use pcn_types::{NodeId, Payment};
use std::collections::BTreeMap;

/// Empirical CDF points `(value, F(value))` over a set of samples,
/// downsampled to at most `points` entries (enough to plot Figure 3).
pub fn empirical_cdf(samples: &[f64], points: usize) -> Vec<(f64, f64)> {
    if samples.is_empty() || points == 0 {
        return Vec::new();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let step = (n / points).max(1);
    let mut out = Vec::new();
    let mut i = step - 1;
    while i < n {
        out.push((sorted[i], (i + 1) as f64 / n as f64));
        i += step;
    }
    if out.last().map(|&(_, f)| f) != Some(1.0) {
        out.push((sorted[n - 1], 1.0));
    }
    out
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a sample set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of empty sample set");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((q.clamp(0.0, 1.0)) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx]
}

/// Fraction of total volume carried by the largest `top_fraction` of
/// samples (Figure 3's "10% of payments contribute 94.5% of volume").
pub fn top_fraction_volume_share(samples: &[f64], top_fraction: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let total: f64 = sorted.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    let cut = ((1.0 - top_fraction.clamp(0.0, 1.0)) * sorted.len() as f64).floor() as usize;
    sorted[cut.min(sorted.len() - 1)..].iter().sum::<f64>() / total
}

/// Per-day recurrence statistics (Figure 4).
#[derive(Clone, Debug, PartialEq)]
pub struct DayRecurrence {
    /// Fraction of the day's transactions whose (sender, receiver) pair
    /// already appeared earlier the same day (Figure 4a).
    pub recurring_fraction: f64,
    /// Among recurring transactions, the average per-sender share
    /// carried by that sender's top-5 receivers (Figure 4b).
    pub top5_share: f64,
}

/// Splits a trace into consecutive days of `per_day` payments and
/// computes the recurrence statistics of each day.
pub fn daily_recurrence(trace: &[Payment], per_day: usize) -> Vec<DayRecurrence> {
    assert!(per_day > 0, "per_day must be positive");
    trace
        .chunks(per_day)
        .filter(|day| day.len() >= 2)
        .map(one_day_recurrence)
        .collect()
}

fn one_day_recurrence(day: &[Payment]) -> DayRecurrence {
    // The paper "identif[ies] the recurring transactions as those with
    // the same sender-receiver pairs within a 24-hour period": a
    // transaction is recurring iff its pair occurs at least twice that
    // day (the first occurrence included).
    let mut pair_counts: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
    for p in day {
        *pair_counts.entry((p.sender, p.receiver)).or_insert(0) += 1;
    }
    let recurring: usize = pair_counts.values().filter(|&&c| c >= 2).sum();
    // Histogram over recurring transactions, per sender.
    let mut recur_hist: BTreeMap<NodeId, BTreeMap<NodeId, usize>> = BTreeMap::new();
    for ((s, r), c) in &pair_counts {
        if *c >= 2 {
            recur_hist.entry(*s).or_default().insert(*r, *c);
        }
    }
    let recurring_fraction = recurring as f64 / day.len() as f64;
    // f64 addition is non-associative; the map yields senders in key
    // order, so the mean below folds the shares in a fixed order.
    let shares: Vec<f64> = recur_hist
        .into_values()
        .filter_map(|recv| {
            let total: usize = recv.values().sum();
            (total > 0).then(|| {
                let mut counts: Vec<usize> = recv.values().copied().collect();
                counts.sort_unstable_by(|a, b| b.cmp(a));
                let top5: usize = counts.iter().take(5).sum();
                top5 as f64 / total as f64
            })
        })
        .collect();
    let top5_share = if shares.is_empty() {
        0.0
    } else {
        shares.iter().sum::<f64>() / shares.len() as f64
    };
    DayRecurrence {
        recurring_fraction,
        top5_share,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_types::{Amount, TxId};

    fn pay(id: u64, s: u32, r: u32) -> Payment {
        Payment::new(TxId(id), NodeId(s), NodeId(r), Amount::from_units(1))
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let cdf = empirical_cdf(&[3.0, 1.0, 2.0, 5.0, 4.0], 10);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    #[test]
    fn cdf_downsamples() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let cdf = empirical_cdf(&samples, 10);
        assert!(cdf.len() <= 11);
    }

    #[test]
    fn quantile_basics() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
    }

    #[test]
    fn volume_share_of_uniform_is_proportional() {
        let s = vec![1.0; 100];
        let share = top_fraction_volume_share(&s, 0.1);
        assert!((share - 0.1).abs() < 0.011);
    }

    #[test]
    fn volume_share_of_skewed_is_concentrated() {
        let mut s = vec![1.0; 90];
        s.extend(vec![1000.0; 10]);
        let share = top_fraction_volume_share(&s, 0.1);
        assert!(share > 0.99);
    }

    #[test]
    fn day_recurrence_counts_repeats() {
        // Day: (0→1) ×3, (0→2) ×1 → the pair (0,1) occurs ≥ 2 times, so
        // its 3 transactions are recurring: 3 of 4.
        let day = vec![pay(0, 0, 1), pay(1, 0, 1), pay(2, 0, 2), pay(3, 0, 1)];
        let r = one_day_recurrence(&day);
        assert!((r.recurring_fraction - 0.75).abs() < 1e-9);
        // All recurring go to receiver 1 → top-5 share = 1.
        assert_eq!(r.top5_share, 1.0);
    }

    #[test]
    fn daily_chunks() {
        let trace: Vec<Payment> = (0..10).map(|i| pay(i, 0, 1)).collect();
        let days = daily_recurrence(&trace, 4);
        assert_eq!(days.len(), 3); // 4 + 4 + 2
    }

    #[test]
    #[should_panic(expected = "per_day")]
    fn zero_day_size_rejected() {
        daily_recurrence(&[], 0);
    }
}
