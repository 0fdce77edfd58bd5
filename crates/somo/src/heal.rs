//! Self-healing and self-optimization.
//!
//! **Healing.** SOMO has no repair protocol: the tree is a pure function of
//! the ring membership, so when a node dies its zone — and every logical
//! node whose point falls in it — passes to the ring successor. This module
//! measures exactly how much of the tree is remapped by a membership change
//! (the paper's LiquidEye observation: "each time the global view is
//! regenerated after a short jitter").
//!
//! **Root swap (§3.2).** The root logical point (0.5 of the space) is hosted
//! by whatever node happens to own it. To put the most capable machine at
//! the top, SOMO identifies the strongest member by an upward merge-sort
//! (a [`crate::report::CapabilityReport`] gather) and then the two nodes
//! simply *exchange IDs* — a purely logical operation that moves the root
//! onto the capable machine without disturbing any other peer.

use dht::ring::Member;
use dht::Ring;
use netsim::HostId;

use crate::report::{CapabilityReport, Report};
use crate::tree::SomoTree;

/// How a membership change remapped the SOMO tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct RemapStats {
    /// Logical nodes in the new tree.
    pub total: usize,
    /// Logical nodes whose hosting member changed (matched by region).
    pub remapped: usize,
    /// Logical nodes that exist only in the new tree (finer subdivision).
    pub created: usize,
    /// Logical nodes of the old tree that no longer exist (regions merged
    /// away — e.g. the subdivision around a departed member's ID).
    pub dropped: usize,
}

impl RemapStats {
    /// Fraction of surviving logical nodes that moved hosts.
    pub fn remap_fraction(&self) -> f64 {
        let survived = self.total - self.created;
        if survived == 0 {
            0.0
        } else {
            self.remapped as f64 / survived as f64
        }
    }
}

/// Compare two tree snapshots (before/after a membership change); hosts are
/// matched by *member identity* (`HostId`), not ring index, because indices
/// shift on insert/remove.
///
/// Both trees subdivide the same circle by the same rule, so a region that
/// exists in both sits at the same place in both: the two are walked in
/// lockstep from their roots, pairing children by region, and whatever one
/// side subdivides further than the other is `created` or `dropped`. Trees
/// of different fanouts share no more than the regions their top-down
/// subdivisions happen to have in common along that walk.
pub fn remap_stats(
    before: &SomoTree,
    before_ring: &Ring,
    after: &SomoTree,
    after_ring: &Ring,
) -> RemapStats {
    let mut stats = RemapStats {
        total: after.len(),
        ..Default::default()
    };
    let mut survived = 0usize;
    // `(before, after)` positions of nodes covering the same region.
    let mut paired: Vec<(u32, u32)> = Vec::new();
    if before.root().region() == after.root().region() {
        paired.push((0, 0));
    }
    while let Some((b, a)) = paired.pop() {
        let (old, new) = (&before.nodes()[b as usize], &after.nodes()[a as usize]);
        survived += 1;
        if before_ring.member(old.host()).host != after_ring.member(new.host()).host {
            stats.remapped += 1;
        }
        // Children tile their parent's region in ascending order on both
        // sides: one merge pass finds the regions they share.
        let (mut olds, mut news) = (old.children(), new.children());
        while !olds.is_empty() && !news.is_empty() {
            let (cb, ca) = (olds.start, news.start);
            let rb = before.nodes()[cb as usize].region();
            let ra = after.nodes()[ca as usize].region();
            match rb.cmp(&ra) {
                std::cmp::Ordering::Equal => {
                    paired.push((cb, ca));
                    olds.start += 1;
                    news.start += 1;
                }
                std::cmp::Ordering::Less => olds.start += 1,
                std::cmp::Ordering::Greater => news.start += 1,
            }
        }
    }
    // Every node is paired at most once, so neither count can underflow.
    stats.created = after.len() - survived;
    stats.dropped = before.len() - survived;
    stats
}

/// Run the upward merge-sort for the most capable member and swap its ID
/// with the current root owner's. Returns the host now owning the root, or
/// `None` if the ring is empty.
///
/// `capability(host)` scores a member (e.g. CPU × uptime, or the degree
/// bound in the ALM setting).
pub fn optimize_root(ring: &mut Ring, capability: impl Fn(HostId) -> f64) -> Option<HostId> {
    if ring.is_empty() {
        return None;
    }
    // The upward merge-sort: fold every member's capability report — what
    // a synchronized `GatherSim` of `CapabilityReport`s computes at the
    // SOMO root, message by message.
    let mut best = CapabilityReport::default();
    for m in ring.members() {
        best.merge(&CapabilityReport::of_member(m.host, capability(m.host)));
    }
    let (best_host, _) = best.best.expect("non-empty ring");

    let root_point = crate::tree::root_point();
    let root_idx = ring.owner(root_point);
    let root_member = ring.member(root_idx);
    if root_member.host == best_host {
        return Some(best_host); // already optimal
    }
    let best_idx = ring
        .members()
        .iter()
        .position(|m| m.host == best_host)
        .expect("best host is a member");
    let best_member = ring.member(best_idx);

    // Exchange IDs: remove both, reinsert with swapped IDs.
    ring.remove_id(root_member.id);
    ring.remove_id(best_member.id);
    ring.insert(Member {
        id: root_member.id,
        host: best_member.host,
    });
    ring.insert(Member {
        id: best_member.id,
        host: root_member.host,
    });
    Some(best_host)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: u32, seed: u64) -> Ring {
        Ring::with_random_ids((0..n).map(HostId), seed)
    }

    #[test]
    fn failure_remaps_only_a_small_tree_fraction() {
        let mut r = ring(200, 21);
        let before = SomoTree::build(&r, 8);
        let before_ring = r.clone();
        // Kill one node.
        let victim = r.member(37).id;
        r.remove_id(victim).unwrap();
        let after = SomoTree::build(&r, 8);
        let stats = remap_stats(&before, &before_ring, &after, &r);
        assert!(stats.total > 0);
        // One zone out of 200 absorbs the victim's logical nodes; the
        // rest of the tree must be untouched.
        assert!(
            stats.remap_fraction() < 0.1,
            "remap fraction {} too high",
            stats.remap_fraction()
        );
        // Something local must have changed: the victim's zone region
        // either remapped, merged away, or got re-subdivided.
        assert!(
            stats.remapped + stats.dropped + stats.created > 0,
            "failure left the tree bit-identical"
        );
    }

    #[test]
    fn unrelated_join_touches_little() {
        let mut r = ring(200, 22);
        let before = SomoTree::build(&r, 8);
        let before_ring = r.clone();
        r.insert(Member {
            id: dht::NodeId::hash_of(0x1011),
            host: HostId(9999),
        });
        let after = SomoTree::build(&r, 8);
        let stats = remap_stats(&before, &before_ring, &after, &r);
        assert!(stats.remap_fraction() < 0.1);
    }

    #[test]
    fn lockstep_walk_matches_region_keyed_matching() {
        // The reference: every region of the old tree in a map, every node
        // of the new tree looked up in it — what `remap_stats` did before
        // it walked the trees in lockstep.
        fn by_region(b: &SomoTree, br: &Ring, a: &SomoTree, ar: &Ring) -> RemapStats {
            let old: std::collections::BTreeMap<(u128, u128), HostId> = b
                .nodes()
                .iter()
                .map(|n| (n.region(), br.member(n.host()).host))
                .collect();
            let mut stats = RemapStats {
                total: a.len(),
                ..Default::default()
            };
            let mut survived = 0;
            for n in a.nodes() {
                match old.get(&n.region()) {
                    None => stats.created += 1,
                    Some(&h) => {
                        survived += 1;
                        if h != ar.member(n.host()).host {
                            stats.remapped += 1;
                        }
                    }
                }
            }
            stats.dropped = b.len() - survived;
            stats
        }
        for (n, seed, fanout) in [(64, 31, 2), (200, 32, 4), (512, 33, 8), (300, 34, 16)] {
            let before_ring = ring(n, seed);
            let before = SomoTree::build(&before_ring, fanout);
            // Eight crashes, then five joins on top of them.
            let mut crashed_ring = before_ring.clone();
            for k in 0..8 {
                let victim = crashed_ring.member((k * 37 + 5) % crashed_ring.len()).id;
                crashed_ring.remove_id(victim).unwrap();
            }
            let mut churned_ring = crashed_ring.clone();
            for k in 0..5u64 {
                churned_ring.insert(Member {
                    id: dht::NodeId::hash_of(0x7000 + seed * 16 + k),
                    host: HostId(10_000 + k as u32),
                });
            }
            for after_ring in [&crashed_ring, &churned_ring] {
                let after = SomoTree::build(after_ring, fanout);
                let got = remap_stats(&before, &before_ring, &after, after_ring);
                let want = by_region(&before, &before_ring, &after, after_ring);
                assert_eq!(got, want, "n = {n}, fanout = {fanout}");
                assert!(got.remapped + got.created + got.dropped > 0);
                // And in the other direction (a join seen as a leave).
                assert_eq!(
                    remap_stats(&after, after_ring, &before, &before_ring),
                    by_region(&after, after_ring, &before, &before_ring),
                );
            }
        }
    }

    #[test]
    fn duplicate_regions_are_paired_once_and_dropped_cannot_wrap() {
        // Regression: `dropped` was once `before.len() - survived` with
        // `survived` counting *after*-side matches against a region-keyed
        // map, so new-tree nodes repeating one old region pushed survived
        // past before.len() and the subtraction underflowed (panic in
        // debug, absurd counts in release). The lockstep walk pairs each
        // node at most once: a repeat is a node the old tree did not have.
        let r = ring(2, 29);
        let full = (0u128, 1u128 << 64);
        // Before: a single root covering the whole space.
        let before = SomoTree::from_nodes(2, [(0, full, 0, None, 0..0)]);
        // After: the root plus two children that (degenerately) repeat the
        // root's region.
        let after = SomoTree::from_nodes(
            2,
            [
                (0, full, 0, None, 1..3),
                (1, full, 0, Some(0), 0..0),
                (1, full, 1, Some(0), 0..0),
            ],
        );
        let stats = remap_stats(&before, &r, &after, &r);
        assert_eq!(stats.total, 3);
        assert_eq!(stats.remapped, 0);
        assert_eq!(stats.created, 2, "the repeats exist only in the new tree");
        assert_eq!(stats.dropped, 0, "the old root is still there");
    }

    #[test]
    fn root_swap_moves_root_to_most_capable() {
        let mut r = ring(64, 23);
        // Host 42 is the beast.
        let cap = |h: HostId| if h == HostId(42) { 100.0 } else { 1.0 };
        let new_root = optimize_root(&mut r, cap).unwrap();
        assert_eq!(new_root, HostId(42));
        let tree = SomoTree::build(&r, 8);
        assert_eq!(r.member(tree.root().host()).host, HostId(42));
    }

    #[test]
    fn root_swap_is_idempotent() {
        let mut r = ring(64, 24);
        let cap = |h: HostId| if h == HostId(7) { 9.0 } else { 1.0 };
        optimize_root(&mut r, cap);
        let snapshot: Vec<_> = r.members().to_vec();
        optimize_root(&mut r, cap);
        assert_eq!(
            snapshot,
            r.members().to_vec(),
            "second swap changed the ring"
        );
    }

    #[test]
    fn root_swap_disturbs_no_other_peer() {
        let mut r = ring(64, 25);
        let before: Vec<_> = r.members().to_vec();
        let cap = |h: HostId| h.0 as f64; // host 63 wins
        optimize_root(&mut r, cap).unwrap();
        let after: Vec<_> = r.members().to_vec();
        // Same ID multiset.
        let ids_b: Vec<_> = before.iter().map(|m| m.id).collect();
        let ids_a: Vec<_> = after.iter().map(|m| m.id).collect();
        assert_eq!(ids_b, ids_a);
        // Exactly two members changed their binding.
        let moved = before
            .iter()
            .zip(&after)
            .filter(|(b, a)| b.host != a.host)
            .count();
        assert_eq!(moved, 2);
    }

    #[test]
    fn empty_ring_root_swap_is_none() {
        let mut r = Ring::default();
        assert_eq!(optimize_root(&mut r, |_| 1.0), None);
    }
}
