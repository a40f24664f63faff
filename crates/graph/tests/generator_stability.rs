//! Differential determinism tests for the topology generators: the
//! same seed must produce a byte-identical serialized topology across
//! two independent invocations. This is the property the PR-3
//! `barabasi_albert` HashSet bug violated (per-process topologies). The
//! generators now build their channel sets as `BTreeSet`s, and the
//! workspace `clippy.toml` bans `HashSet`/`HashMap` statically — these
//! tests are the dynamic side of that contract.

use pcn_graph::generators::{
    barabasi_albert, erdos_renyi, scale_free_with_channels, watts_strogatz,
};
use pcn_graph::io::to_edge_list;
use proptest::prelude::*;

proptest! {
    #[test]
    fn watts_strogatz_is_seed_deterministic(
        seed in 0u64..1_000_000,
        n in 8usize..40,
        k in 1usize..4,
    ) {
        let a = to_edge_list(&watts_strogatz(n, 2 * k, 0.3, seed));
        let b = to_edge_list(&watts_strogatz(n, 2 * k, 0.3, seed));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn barabasi_albert_is_seed_deterministic(
        seed in 0u64..1_000_000,
        n in 8usize..40,
        m in 1usize..4,
    ) {
        let a = to_edge_list(&barabasi_albert(n, m, seed));
        let b = to_edge_list(&barabasi_albert(n, m, seed));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn scale_free_with_channels_is_seed_deterministic(
        seed in 0u64..1_000_000,
        n in 8usize..40,
    ) {
        let target = 3 * n;
        let a = to_edge_list(&scale_free_with_channels(n, target, seed));
        let b = to_edge_list(&scale_free_with_channels(n, target, seed));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn erdos_renyi_is_seed_deterministic(
        seed in 0u64..1_000_000,
        n in 8usize..40,
    ) {
        let a = to_edge_list(&erdos_renyi(n, 0.2, seed));
        let b = to_edge_list(&erdos_renyi(n, 0.2, seed));
        prop_assert_eq!(a, b);
    }

}

/// Different seeds should give different graphs — guards against a
/// generator that ignores its seed, which would make the determinism
/// tests above pass vacuously.
#[test]
fn seeds_actually_matter() {
    let base = to_edge_list(&scale_free_with_channels(30, 90, 1));
    assert!((2u64..10).any(|s| to_edge_list(&scale_free_with_channels(30, 90, s)) != base));
}
