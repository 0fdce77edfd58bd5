//! An unsynchronised gather folds a node's child partials in tree order.
//!
//! `Report::merge` is documented as associative and commutative, but a
//! report may sum floats ([`CensusReport::free_capacity`] does, and
//! `examples/monitor.rs` gathers it unsynchronised), and float addition is
//! only commutative: the order of a three-way fold shows in the last bits.
//! Until PR 17 a node kept its children's latest partials in a
//! `std::collections::HashMap` and folded them in iteration order — the
//! order of that map's `RandomState`, drawn per map and per process — so on
//! 291cf64 both assertions below fail or pass by the luck of the hash seed.
//! The partials now sit in one slot per child and are folded by walking
//! `children`, which makes the root view a function of the partials alone.

use dht::Ring;
use netsim::HostId;
use simcore::SimTime;
use somo::flow::{FlowMode, GatherSim, RootView};
use somo::report::{CensusReport, Report};
use somo::SomoTree;

const N: u32 = 96;

/// Non-dyadic, so that no partial sum is exact, and spread over many
/// binades: with `0.1 · (m + 1)` the tree-order fold and the reversed fold
/// happened to round to the same bits, so a reversed fold went unseen.
fn capacity(member: usize) -> f64 {
    1.0 / (member + 3) as f64
}

fn gather(ring: &Ring, tree: &SomoTree) -> Vec<RootView<CensusReport>> {
    let mut sim = GatherSim::new(
        tree,
        ring,
        FlowMode::Unsynchronized,
        SimTime::from_secs(5),
        |m, _now| CensusReport::of_member(capacity(m)),
        |a, b| {
            if a == b {
                SimTime::ZERO
            } else {
                SimTime::from_millis(150)
            }
        },
    );
    sim.run_until(SimTime::from_secs(400));
    sim.views().to_vec()
}

/// What `node` reports once every member below it has been heard from: its
/// own member (if it is a canonical leaf), then its children's reports in
/// `children` order — the fold `aggregate_unsync` is specified to make.
fn fold_in_tree_order(
    tree: &SomoTree,
    leaf_member: &[Option<usize>],
    node: u32,
) -> Option<CensusReport> {
    let mut acc = leaf_member[node as usize].map(|m| CensusReport::of_member(capacity(m)));
    for c in tree.nodes()[node as usize].children() {
        if let Some(r) = fold_in_tree_order(tree, leaf_member, c) {
            match &mut acc {
                Some(a) => a.merge(&r),
                None => acc = Some(r),
            }
        }
    }
    acc
}

#[test]
fn float_census_is_the_tree_order_fold_on_every_run() {
    let ring = Ring::with_random_ids((0..N).map(HostId), 13);
    let tree = SomoTree::build(&ring, 8);
    let mut leaf_member = vec![None; tree.len()];
    for m in 0..ring.len() {
        leaf_member[tree.canonical_leaf_of(ring.member(m).id) as usize] = Some(m);
    }
    let expected = fold_in_tree_order(&tree, &leaf_member, 0).expect("the ring has members");
    assert_eq!(expected.members, u64::from(N));

    let first = gather(&ring, &tree);
    let full: Vec<_> = first
        .iter()
        .filter(|v| v.view.members == u64::from(N))
        .collect();
    assert!(full.len() >= 10, "only {} full views", full.len());
    for v in full {
        assert_eq!(
            v.view.free_capacity.to_bits(),
            expected.free_capacity.to_bits(),
            "the root view at {} is not the tree-order fold: {} vs {}",
            v.at,
            v.view.free_capacity,
            expected.free_capacity
        );
    }

    // Same seed, same process, every view — the partial ones of the
    // warm-up included.
    let second = gather(&ring, &tree);
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(
            (a.at, a.view.members, a.view.free_capacity.to_bits()),
            (b.at, b.view.members, b.view.free_capacity.to_bits()),
            "two runs of one seed disagree on a root view"
        );
    }
}
