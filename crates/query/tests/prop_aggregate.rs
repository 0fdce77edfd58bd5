//! Algebraic laws of the aggregate lattice, property-checked.
//!
//! The SOMO gather folds child aggregates in whatever order partials
//! happen to arrive, over whatever intermediate grouping the tree shape
//! imposes. Correctness therefore rests on `merge` being a commutative,
//! associative monoid operation with `Aggregate::empty` as identity —
//! pinned down here over arbitrary sample populations.

use netsim::HostId;
use proptest::prelude::*;
use query::{Aggregate, HostSample, RegionBounds};
use simcore::SimTime;
use somo::Report;

/// Deterministic pseudo-random sample population. Frees are sorted
/// non-increasing per the pool invariant (`DegreeTable::available_at`
/// counts strictly-worse holders as preemptible, so availability can only
/// shrink as rank weakens).
fn gen_samples(seed: u64, n: usize) -> Vec<HostSample> {
    (0..n)
        .map(|i| {
            let r = |salt: u64| simcore::rng::derive_seed(seed, i as u64 * 16 + salt);
            let mut free = [
                (r(1) % 64) as u32,
                (r(2) % 64) as u32,
                (r(3) % 64) as u32,
                (r(4) % 64) as u32,
            ];
            free.sort_unstable_by(|a, b| b.cmp(a));
            HostSample {
                host: HostId((r(5) % 10_000) as u32),
                free,
                pos: [(r(6) % 1000) as f64 - 500.0, (r(7) % 1000) as f64 - 500.0],
                bw_class: (r(8) % 5) as u8,
                sampled_at: SimTime::from_millis(r(9) % 1_000_000),
                capacity: free[0] + (r(10) % 8) as u32,
                queued: (r(11) % 4) as u32,
                preempted: (r(12) % 3) as u32,
            }
        })
        .collect()
}

fn agg_of(samples: &[HostSample]) -> Aggregate {
    let bounds = RegionBounds::default();
    let mut a = Aggregate::empty();
    for s in samples {
        a.merge(&Aggregate::of_sample(s, &bounds));
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_commutative(seed: u64, nx in 0usize..20, ny in 0usize..20) {
        let (a, b) = (agg_of(&gen_samples(seed, nx)), agg_of(&gen_samples(!seed, ny)));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(
        seed: u64,
        nx in 0usize..15,
        ny in 0usize..15,
        nz in 0usize..15,
    ) {
        let a = agg_of(&gen_samples(seed, nx));
        let b = agg_of(&gen_samples(seed ^ 0xA5A5, ny));
        let c = agg_of(&gen_samples(seed ^ 0x5A5A, nz));
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn empty_is_identity(seed: u64, n in 0usize..20) {
        let a = agg_of(&gen_samples(seed, n));
        let mut le = Aggregate::empty();
        le.merge(&a);
        prop_assert_eq!(&le, &a);
        let mut re = a.clone();
        re.merge(&Aggregate::empty());
        prop_assert_eq!(&re, &a);
    }

    #[test]
    fn fold_order_and_grouping_are_irrelevant(
        seed: u64,
        n in 1usize..24,
        split in 0usize..24,
    ) {
        // Left-to-right fold == fold of two arbitrary halves == reversed fold.
        let xs = gen_samples(seed, n);
        let flat = agg_of(&xs);
        let cut = split.min(xs.len());
        let mut grouped = agg_of(&xs[..cut]);
        grouped.merge(&agg_of(&xs[cut..]));
        prop_assert_eq!(&grouped, &flat);
        let rev: Vec<HostSample> = xs.iter().rev().copied().collect();
        prop_assert_eq!(&agg_of(&rev), &flat);
        // Folding the samples straight in, with no per-sample aggregate in
        // between (what the index does with its leaves), is the same fold.
        let mut direct = Aggregate::empty();
        for s in &xs {
            direct.add_sample(s, &RegionBounds::default());
        }
        prop_assert_eq!(&direct, &flat);
    }

    #[test]
    fn aggregate_is_a_census(seed: u64, n in 0usize..30) {
        // Every histogram partitions the same population: bucket sums all
        // equal the host count, and min/max/sum are the scan values.
        let xs = gen_samples(seed, n);
        let a = agg_of(&xs);
        prop_assert_eq!(a.hosts, xs.len() as u64);
        prop_assert_eq!(a.degree_hist.iter().sum::<u64>(), xs.len() as u64);
        prop_assert_eq!(a.region_hist.iter().sum::<u64>(), xs.len() as u64);
        prop_assert_eq!(a.bw_hist.iter().sum::<u64>(), xs.len() as u64);
        for rank in 0..4 {
            let frees: Vec<u32> = xs.iter().map(|s| s.free[rank]).collect();
            prop_assert_eq!(a.free[rank].sum, frees.iter().map(|&f| f as u64).sum::<u64>());
            if !xs.is_empty() {
                prop_assert_eq!(a.free[rank].min, *frees.iter().min().unwrap());
                prop_assert_eq!(a.free[rank].max, *frees.iter().max().unwrap());
            }
        }
        if let Some(oldest) = xs.iter().map(|s| s.sampled_at).min() {
            prop_assert_eq!(a.oldest, oldest);
        }
        // The pressure fields are plain sums over the population too.
        prop_assert_eq!(a.capacity, xs.iter().map(|s| s.capacity as u64).sum::<u64>());
        prop_assert_eq!(a.queued, xs.iter().map(|s| s.queued as u64).sum::<u64>());
        prop_assert_eq!(a.preempted, xs.iter().map(|s| s.preempted as u64).sum::<u64>());
    }

    #[test]
    fn guaranteed_at_least_never_overcounts(
        seed: u64,
        n in 0usize..30,
        min_free in 0u32..70,
    ) {
        // The histogram lower bound must stay conservative at every rank —
        // that is what licenses its use for top-k subtree pruning.
        let xs = gen_samples(seed, n);
        let a = agg_of(&xs);
        for rank in 0..4 {
            let truth = xs.iter().filter(|s| s.free[rank] >= min_free).count() as u64;
            prop_assert!(
                a.guaranteed_at_least(min_free) <= truth,
                "guarantee {} exceeds truth {} at rank {} (min_free {})",
                a.guaranteed_at_least(min_free), truth, rank, min_free
            );
        }
    }
}
