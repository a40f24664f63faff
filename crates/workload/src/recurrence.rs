//! Sender–receiver pair generation with recurrence (Figure 4).
//!
//! The paper's two findings drive the model:
//!
//! 1. "the median percentage of recurring transactions among all
//!    transactions of the day stands at 86%" (Figure 4a) — so each
//!    payment reuses an existing sender→receiver pair with probability
//!    ≈ 0.86;
//! 2. "its top-5 most frequent recurring payments account for over 70%
//!    of the daily transactions" (Figure 4b) — so a sender's choice
//!    among its known contacts is Zipf-distributed, concentrating mass
//!    on the first few contacts.
//!
//! Senders themselves are Zipf-distributed over the node population
//! (financial activity is skewed too).
//!
//! A recurring draw reads cached weights: the generator keeps the rank
//! weights `1 / k^a` and their running sums in rank order, grown as the
//! longest contact list grows, and scans from rank 1 to the drawn rank,
//! with no allocation and no `powf`. Under Zipf(1.6) that is rank 1 for
//! 44 % of draws and 21 ranks on average over a 1,800-contact list. The
//! scan performs the floating-point operations of a weight list built
//! afresh for the draw (the test reference), so it picks the contact
//! that list picks.

use pcn_types::NodeId;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Configuration of the pair generator.
#[derive(Clone, Debug)]
pub struct RecurrenceConfig {
    /// Probability a payment goes to an already-known receiver.
    pub recur_prob: f64,
    /// Zipf exponent over a sender's contact ranks (≈1.2 reproduces the
    /// ≈70% top-5 share).
    pub contact_zipf: f64,
    /// Zipf exponent for sender activity (0 = uniform senders).
    pub sender_zipf: f64,
}

impl Default for RecurrenceConfig {
    fn default() -> Self {
        RecurrenceConfig {
            recur_prob: 0.92,
            contact_zipf: 1.6,
            // Strong sender skew: a handful of heavy senders dominate a
            // day's traffic, which is what makes most of a *day's*
            // transactions recurring (Figure 4a's 86% median) — real
            // cryptocurrency traffic is dominated by exchanges and
            // gateways.
            sender_zipf: 1.5,
        }
    }
}

/// Stateful generator of (sender, receiver) pairs over `n` nodes.
pub struct PairGenerator {
    config: RecurrenceConfig,
    n: usize,
    /// Per-sender ordered contact list (rank 0 = first/most-likely).
    contacts: Vec<Vec<NodeId>>,
    /// Sender sampling weights (precomputed Zipf CDF).
    sender_cdf: Vec<f64>,
    /// `rank_weight[k]` is contact rank `k + 1`'s Zipf weight.
    rank_weight: Vec<f64>,
    /// `rank_total[k]` is the sum of the first `k` weights, added in
    /// rank order; one entry longer than `rank_weight`.
    rank_total: Vec<f64>,
    rng: StdRng,
}

impl PairGenerator {
    /// Creates a generator over `n` nodes.
    ///
    /// # Panics
    /// Panics if `n < 2` (no distinct pair exists).
    pub fn new(n: usize, config: RecurrenceConfig, seed: u64) -> Self {
        assert!(n >= 2, "need at least two nodes to form pairs");
        let mut weights: Vec<f64> = (1..=n)
            .map(|k| 1.0 / (k as f64).powf(config.sender_zipf))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        PairGenerator {
            config,
            n,
            contacts: vec![Vec::new(); n],
            sender_cdf: weights,
            rank_weight: Vec::new(),
            rank_total: vec![0.0],
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn sample_sender(&mut self) -> NodeId {
        let u: f64 = self.rng.random();
        let idx = self.sender_cdf.partition_point(|&c| c < u).min(self.n - 1);
        // Node ids are assigned in hub-first order by the scale-free
        // generator's preferential attachment, so low indices being more
        // active matches reality (hubs transact more).
        NodeId::from_index(idx)
    }

    /// Zipf-ranked choice among the sender's existing contacts.
    fn sample_contact(&mut self, sender: NodeId) -> Option<NodeId> {
        let list = &self.contacts[sender.index()];
        if list.is_empty() {
            return None;
        }
        let mut u = self.rng.random::<f64>() * self.rank_total[list.len()];
        for (&contact, w) in list.iter().zip(&self.rank_weight) {
            if u < *w {
                return Some(contact);
            }
            u -= w;
        }
        list.last().copied()
    }

    /// Draws the next (sender, receiver) pair.
    pub fn next_pair(&mut self) -> (NodeId, NodeId) {
        let sender = self.sample_sender();
        let recur = self.rng.random::<f64>() < self.config.recur_prob;
        if recur {
            if let Some(receiver) = self.sample_contact(sender) {
                return (sender, receiver);
            }
        }
        (sender, self.new_receiver(sender))
    }

    /// New receiver: uniform over everyone but `sender`, appended to its
    /// contacts if it is not one yet.
    fn new_receiver(&mut self, sender: NodeId) -> NodeId {
        loop {
            let r = NodeId::from_index(self.rng.random_range(0..self.n));
            if r == sender {
                continue;
            }
            let list = &mut self.contacts[sender.index()];
            if !list.contains(&r) {
                list.push(r);
                let len = list.len();
                self.grow_ranks(len);
            }
            return r;
        }
    }

    /// Extends the rank caches to cover a contact list of `len`.
    fn grow_ranks(&mut self, len: usize) {
        while self.rank_weight.len() < len {
            let k = self.rank_weight.len() + 1;
            let w = 1.0 / (k as f64).powf(self.config.contact_zipf);
            let total = self.rank_total[k - 1] + w;
            self.rank_weight.push(w);
            self.rank_total.push(total);
        }
    }

    /// Draws `count` pairs.
    pub fn pairs(&mut self, count: usize) -> Vec<(NodeId, NodeId)> {
        (0..count).map(|_| self.next_pair()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn pairs_are_valid() {
        let mut g = PairGenerator::new(50, RecurrenceConfig::default(), 1);
        for (s, r) in g.pairs(1000) {
            assert_ne!(s, r);
            assert!(s.index() < 50 && r.index() < 50);
        }
    }

    #[test]
    fn recurrence_fraction_near_configured() {
        let mut g = PairGenerator::new(200, RecurrenceConfig::default(), 2);
        let pairs = g.pairs(20_000);
        let mut seen: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        let mut recurring = 0usize;
        for p in &pairs {
            if !seen.insert(*p) {
                recurring += 1;
            }
        }
        let frac = recurring as f64 / pairs.len() as f64;
        // Early payments can't recur (pulling the fraction down); the
        // uniform new-receiver draw occasionally lands on a known
        // contact (pulling it up) — so a band around recur_prob.
        assert!(
            (0.8..=0.97).contains(&frac),
            "recurring fraction {frac} should be ≈ recur_prob (0.92)"
        );
    }

    #[test]
    fn top5_contacts_dominate() {
        let mut g = PairGenerator::new(300, RecurrenceConfig::default(), 3);
        let pairs = g.pairs(30_000);
        // Per-sender receiver histogram.
        let mut hist: BTreeMap<NodeId, BTreeMap<NodeId, usize>> = BTreeMap::new();
        for (s, r) in &pairs {
            *hist.entry(*s).or_default().entry(*r).or_insert(0) += 1;
        }
        // Average top-5 share among senders with enough transactions,
        // folded in sender order.
        let mut shares = Vec::new();
        for recv in hist.into_values() {
            let total: usize = recv.values().sum();
            if total < 50 {
                continue;
            }
            let mut counts: Vec<usize> = recv.values().copied().collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let top5: usize = counts.iter().take(5).sum();
            shares.push(top5 as f64 / total as f64);
        }
        assert!(!shares.is_empty());
        let mean = shares.iter().sum::<f64>() / shares.len() as f64;
        assert!(
            (0.6..=0.95).contains(&mean),
            "mean top-5 share {mean} should be ≈ 0.7+"
        );
    }

    #[test]
    fn sender_activity_is_skewed() {
        let mut g = PairGenerator::new(100, RecurrenceConfig::default(), 4);
        let pairs = g.pairs(10_000);
        let mut counts = vec![0usize; 100];
        for (s, _) in pairs {
            counts[s.index()] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let avg = 10_000 / 100;
        assert!(max > 3 * avg, "most active sender should be ≫ average");
    }

    #[test]
    fn deterministic_with_seed() {
        let run = |seed| PairGenerator::new(40, RecurrenceConfig::default(), seed).pairs(500);
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn rejects_tiny_population() {
        PairGenerator::new(1, RecurrenceConfig::default(), 0);
    }

    /// The contact draw the rank caches replaced: a fresh weight list
    /// over the whole contact list on every recurring draw.
    fn reference_contact(g: &mut PairGenerator, sender: NodeId) -> Option<NodeId> {
        let list = &g.contacts[sender.index()];
        if list.is_empty() {
            return None;
        }
        let a = g.config.contact_zipf;
        let weights: Vec<f64> = (1..=list.len()).map(|k| 1.0 / (k as f64).powf(a)).collect();
        let total: f64 = weights.iter().sum();
        let mut u = g.rng.random::<f64>() * total;
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                return Some(list[i]);
            }
            u -= w;
        }
        list.last().copied()
    }

    /// [`PairGenerator::next_pair`] with the reference contact draw.
    fn reference_pair(g: &mut PairGenerator) -> (NodeId, NodeId) {
        let sender = g.sample_sender();
        if g.rng.random::<f64>() < g.config.recur_prob {
            if let Some(receiver) = reference_contact(g, sender) {
                return (sender, receiver);
            }
        }
        (sender, g.new_receiver(sender))
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The cached rank weights draw the pairs the per-draw weight
            /// list draws, bit for bit, over populations small enough for
            /// contact lists to fill and large enough for them to grow
            /// long, and exponents from flat to steep.
            #[test]
            fn cached_ranks_draw_like_per_draw_weights(
                n in 2usize..=300,
                contact_zipf in 0.5f64..3.0,
                seed in 0u64..1_000_000,
            ) {
                let config = RecurrenceConfig { contact_zipf, ..RecurrenceConfig::default() };
                let mut cached = PairGenerator::new(n, config.clone(), seed);
                let mut reference = PairGenerator::new(n, config, seed);
                for draw in 0..2000 {
                    prop_assert_eq!(
                        cached.next_pair(),
                        reference_pair(&mut reference),
                        "draw {} of n = {}, contact_zipf = {}",
                        draw,
                        n,
                        contact_zipf
                    );
                }
            }
        }
    }
}
