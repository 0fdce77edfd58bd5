//! The SOMO tree's footprint, as numbers a test holds: a logical node is 32
//! bytes, a tree is one flat vector of them, comparing two trees
//! allocates a pairing stack and nothing else, and a gather running over
//! a tree holds a few words a logical node (DESIGN.md §8.3).
//!
//! `testkit`'s counting allocator keeps its tallies per thread, so the
//! tests of this binary can run side by side.

use dht::Ring;
use netsim::HostId;
use simcore::{FaultPlan, SimTime};
use somo::flow::{FlowMode, FreshnessReport, GatherSim};
use somo::heal::remap_stats;
use somo::tree::LogicalNode;
use somo::SomoTree;
use testkit::{measured, tally};

#[global_allocator]
static ALLOC: testkit::Counting = testkit::Counting;

fn ring(n: u32) -> Ring {
    Ring::with_random_ids((0..n).map(HostId), 13)
}

/// At 557b295 a node was 96 bytes plus its own vector of children.
#[test]
fn a_logical_node_is_32_bytes() {
    assert!(std::mem::size_of::<LogicalNode>() <= 32);
}

/// Every shape `pins.rs` pins. At 557b295 a tree held one allocation per
/// internal node and one more: 1 936 at 4 096 members and fanout 8, for
/// 1 634 784 B where this holds 495 392 B.
#[test]
fn a_tree_is_one_flat_vector() {
    for n in [1, 2, 64, 700, 4096] {
        let ring = ring(n);
        for fanout in [2, 3, 8, 16] {
            let before = tally();
            let tree = SomoTree::build(&ring, fanout);
            let after = tally();
            let calls = after.live_calls - before.live_calls;
            assert!(
                calls <= 2,
                "n = {n}, fanout = {fanout}: {calls} allocations"
            );
            assert_eq!(
                after.live_bytes - before.live_bytes,
                tree.len() * std::mem::size_of::<LogicalNode>(),
                "n = {n}, fanout = {fanout}"
            );
        }
    }
}

/// The lockstep walk holds `(before, after)` pairs for the siblings it has
/// yet to visit: a few dozen entries, whatever the trees' size.
#[test]
fn comparing_two_trees_allocates_a_pairing_stack_only() {
    let before_ring = ring(4096);
    let mut after_ring = before_ring.clone();
    for k in 0..64 {
        after_ring.remove((k * 61 + 7) % after_ring.len());
    }
    let (before, after) = (
        SomoTree::build(&before_ring, 8),
        SomoTree::build(&after_ring, 8),
    );
    let t0 = tally();
    let stats = remap_stats(&before, &before_ring, &after, &after_ring);
    let t1 = tally();
    assert!(stats.remapped + stats.created + stats.dropped > 0);
    assert_eq!(t1.live_bytes, t0.live_bytes);
    let bytes = t1.allocated - t0.allocated;
    assert!(bytes <= 4096, "remap_stats allocated {bytes} B");
}

/// What a gather holds two simulated minutes into a fault-free run over a
/// 4 096-member tree (15 481 logical nodes, fanout 8, 20 ms a hop): its
/// event queue (32 B an event; unsynchronised, a timer per node), one slot
/// word per node, the reports in flight, and per mode the state of the
/// nodes that use it — open rounds at internal nodes, the latest partial
/// of each node that can send one. 51 B a node synchronised and 50 B
/// unsynchronised; with 56 B events, a round list, a latest-partial slot
/// and a reporting option for every node, 2eb2edf held 126 B and 99 B.
#[test]
fn a_running_gather_holds_under_56_bytes_a_logical_node() {
    let ring = ring(4096);
    let tree = SomoTree::build(&ring, 8);
    for mode in [FlowMode::Synchronized, FlowMode::Unsynchronized] {
        let (sim, cost) = measured(|| {
            let mut sim = GatherSim::with_faults(
                &tree,
                &ring,
                mode,
                SimTime::from_secs(5),
                |_m, now| FreshnessReport::of_member(now),
                |a, b| {
                    if a == b {
                        SimTime::ZERO
                    } else {
                        SimTime::from_millis(20)
                    }
                },
                FaultPlan::none(),
            );
            sim.run_until(SimTime::from_secs(120));
            sim
        });
        assert_eq!(
            sim.views().last().map(|v| v.view.members),
            Some(4096),
            "{mode:?}: the census is incomplete"
        );
        let per_node = cost.held / tree.len();
        assert!(
            per_node <= 56,
            "{mode:?}: a gather holds {per_node} B a logical node"
        );
    }
}
