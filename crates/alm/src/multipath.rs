//! Multipath redundancy: k degree-disjoint trees per session.
//!
//! *Multipath Approach for Reliability in Query Network based Overlaid
//! Multicasting* motivates sending one stream down k trees at once: a
//! member keeps receiving as long as its root path survives in **any**
//! tree, and a session whose primary tree loses an interior node fails
//! over to the best surviving tree within one detection round instead of
//! waiting out a repair.
//!
//! The pool makes the redundancy cheap (helpers absorb the extra fan-out)
//! but the trees must be **degree-disjoint**: tree i may not consume the
//! same reserved degree units as tree j on any shared host. This module is
//! the pure-planning half of that story — residual-capacity views,
//! disjointness checking, surviving-tree selection, and per-round delivery
//! accounting — all over plain [`MulticastTree`]s so the `pool` crate can
//! layer the reservation/market mechanics on top.

use std::collections::HashMap;

use netsim::HostId;

use crate::tree::MulticastTree;

/// Total tree degree per host summed across `trees` — the denominator of
/// every disjointness and fan-out-cap argument. A host appearing in three
/// trees contributes its per-tree degree (children + parent link) three
/// times.
pub fn degree_totals<'a>(
    trees: impl IntoIterator<Item = &'a MulticastTree>,
) -> HashMap<HostId, u32> {
    let mut used: HashMap<HostId, u32> = HashMap::new();
    for t in trees {
        for &h in t.hosts() {
            *used.entry(h).or_default() += t.degree(h);
        }
    }
    used
}

/// Total **fan-out** per host summed across `trees`: children only, parent
/// links excluded. Fan-out is what a host's uplink pays for (each child is
/// one outgoing stream copy; the parent link is downlink), so this is the
/// quantity the access-bandwidth cap bounds.
pub fn fanout_totals<'a>(
    trees: impl IntoIterator<Item = &'a MulticastTree>,
) -> HashMap<HostId, u32> {
    let mut used: HashMap<HostId, u32> = HashMap::new();
    for t in trees {
        for &h in t.hosts() {
            *used.entry(h).or_default() += t.child_count(h) as u32;
        }
    }
    used
}

/// A kind of cross-tree capacity violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DisjointnessKind {
    /// The session's trees use more degree units on a host than the session
    /// has reserved there — some unit is double-counted across trees.
    ReservationOverrun,
    /// The host's total cross-tree **fan-out** (children summed across
    /// trees — the uplink's stream copies) exceeds its access-bandwidth
    /// cap.
    FanoutCapExceeded,
}

/// One cross-tree capacity violation on one host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DisjointnessViolation {
    /// The offending host.
    pub host: HostId,
    /// Units the session's trees use on it, summed across trees: degree
    /// units for a [`DisjointnessKind::ReservationOverrun`], children for a
    /// [`DisjointnessKind::FanoutCapExceeded`].
    pub used: u32,
    /// The limit that was exceeded (reserved units or the fan-out cap).
    pub limit: u32,
    /// Which limit was exceeded.
    pub kind: DisjointnessKind,
}

/// Check that a session's trees are degree-disjoint and within the
/// per-host fan-out cap: for every host, the summed tree **degree**
/// (children + parent links) must not exceed `reserved(h)` — the degree
/// units the session actually holds there; exceeding it means two trees
/// double-count a unit — and the summed tree **fan-out** (children only)
/// must not exceed `cap(h)`, the access-bandwidth estimate of how many
/// outgoing stream copies the uplink sustains. Returns every violation, in
/// host order; an empty vec is a clean plan.
pub fn check_disjointness(
    trees: &[MulticastTree],
    reserved: impl Fn(HostId) -> u32,
    cap: impl Fn(HostId) -> u32,
) -> Vec<DisjointnessViolation> {
    let used = degree_totals(trees);
    let fanout = fanout_totals(trees);
    let mut hosts: Vec<HostId> = used.keys().copied().collect();
    hosts.sort_unstable();
    let mut out = Vec::new();
    for h in hosts {
        let u = used[&h];
        let r = reserved(h);
        if u > r {
            out.push(DisjointnessViolation {
                host: h,
                used: u,
                limit: r,
                kind: DisjointnessKind::ReservationOverrun,
            });
        }
        let f = fanout[&h];
        let c = cap(h);
        if f > c {
            out.push(DisjointnessViolation {
                host: h,
                used: f,
                limit: c,
                kind: DisjointnessKind::FanoutCapExceeded,
            });
        }
    }
    out
}

/// Whether every host of `tree` is up — an intact tree delivers to all of
/// its members.
pub fn tree_intact(tree: &MulticastTree, alive: impl Fn(HostId) -> bool) -> bool {
    tree.hosts().iter().all(|&h| alive(h))
}

/// The best surviving tree: among the intact trees, the one of minimum
/// `(max_height, index)` — deterministic, and biased toward the earlier
/// (primary-first) tree on equal heights. `None` when every tree has lost
/// a host.
pub fn best_surviving(trees: &[MulticastTree], alive: impl Fn(HostId) -> bool) -> Option<usize> {
    trees
        .iter()
        .enumerate()
        .filter(|(_, t)| tree_intact(t, &alive))
        .min_by(|a, b| {
            a.1.max_height()
                .total_cmp(&b.1.max_height())
                .then(a.0.cmp(&b.0))
        })
        .map(|(i, _)| i)
}

/// The members `tree` delivers to this round: every member (root excluded
/// — the source doesn't deliver to itself) whose entire root path is up,
/// every host alive and every edge passing `edge_ok(parent, child)`.
/// Hosts outside `members` (helpers) relay but don't count. Under per-edge
/// message loss `edge_ok` samples one edge's fate and must be
/// deterministic within a round, so every tree sees the same losses;
/// without loss it is `|_, _| true`.
pub fn delivered_members(
    tree: &MulticastTree,
    members: &[HostId],
    alive: &impl Fn(HostId) -> bool,
    edge_ok: &impl Fn(HostId, HostId) -> bool,
) -> Vec<HostId> {
    let root = tree.root();
    if !alive(root) {
        return Vec::new();
    }
    // Walk down from the root, pruning at the first dead host or lost edge.
    let mut reachable: Vec<HostId> = Vec::with_capacity(tree.len());
    let mut stack = vec![root];
    while let Some(h) = stack.pop() {
        reachable.push(h);
        for c in tree.children_of(h) {
            if alive(c) && edge_ok(h, c) {
                stack.push(c);
            }
        }
    }
    let set: std::collections::HashSet<HostId> = reachable.into_iter().collect();
    members
        .iter()
        .copied()
        .filter(|&m| m != root && set.contains(&m))
        .collect()
}

/// Per-round delivery ratio of a session running `trees` redundantly: the
/// fraction of live non-root members receiving through **at least one**
/// tree, each tree walked as in [`delivered_members`]. Redundant trees
/// shine under loss — a member survives a lost edge in one tree if another
/// tree still reaches it. A session with no live non-root members (nothing
/// left to deliver to) counts as fully delivering; a dead root delivers to
/// nobody.
pub fn delivery_ratio(
    trees: &[MulticastTree],
    members: &[HostId],
    alive: impl Fn(HostId) -> bool,
    edge_ok: impl Fn(HostId, HostId) -> bool,
) -> f64 {
    let root = match trees.first() {
        Some(t) => t.root(),
        None => return 1.0,
    };
    let live: Vec<HostId> = members
        .iter()
        .copied()
        .filter(|&m| m != root && alive(m))
        .collect();
    if live.is_empty() {
        return 1.0;
    }
    let mut covered: std::collections::HashSet<HostId> = std::collections::HashSet::new();
    for t in trees {
        covered.extend(delivered_members(t, &live, &alive, &edge_ok));
    }
    covered.len() as f64 / live.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root 0 → {1, 2}, 2 → 3.
    fn chain() -> MulticastTree {
        let mut t = MulticastTree::new(HostId(0));
        t.attach(HostId(1), HostId(0), 10.0);
        t.attach(HostId(2), HostId(0), 10.0);
        t.attach(HostId(3), HostId(2), 10.0);
        t
    }

    /// root 0 → 4 (helper), 4 → {1, 2, 3}.
    fn via_helper() -> MulticastTree {
        let mut t = MulticastTree::new(HostId(0));
        t.attach(HostId(4), HostId(0), 5.0);
        t.attach(HostId(1), HostId(4), 5.0);
        t.attach(HostId(2), HostId(4), 5.0);
        t.attach(HostId(3), HostId(4), 5.0);
        t
    }

    fn members() -> Vec<HostId> {
        vec![HostId(0), HostId(1), HostId(2), HostId(3)]
    }

    #[test]
    fn degree_totals_sum_across_trees() {
        let used = degree_totals(&[chain(), via_helper()]);
        // Root: 2 children in the chain, 1 in the helper tree.
        assert_eq!(used[&HostId(0)], 3);
        // Host 2: parent+child in the chain, parent link in the helper tree.
        assert_eq!(used[&HostId(2)], 3);
        // The helper appears in one tree only: parent link + 3 children.
        assert_eq!(used[&HostId(4)], 4);
        // Fan-out counts children only: the parent links drop out.
        let fanout = fanout_totals(&[chain(), via_helper()]);
        assert_eq!(fanout[&HostId(0)], 3);
        assert_eq!(fanout[&HostId(2)], 1);
        assert_eq!(fanout[&HostId(4)], 3);
        assert_eq!(fanout[&HostId(1)], 0);
    }

    #[test]
    fn disjointness_flags_overruns_and_cap_breaches() {
        let trees = [chain(), via_helper()];
        // Generous reservations and caps: clean.
        assert!(check_disjointness(&trees, |_| 10, |_| 10).is_empty());
        // Root reserved only 2 units but uses 3 → overrun.
        let v = check_disjointness(&trees, |h| if h == HostId(0) { 2 } else { 10 }, |_| 10);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].host, HostId(0));
        assert_eq!(v[0].kind, DisjointnessKind::ReservationOverrun);
        assert_eq!((v[0].used, v[0].limit), (3, 2));
        // Fan-out cap of 2 everywhere: the root and the helper (3 children
        // each across trees) breach; pure parent links don't count, so the
        // cap-3 case is clean even though the helper's *degree* is 4.
        assert!(check_disjointness(&trees, |_| 10, |_| 3).is_empty());
        let v = check_disjointness(&trees, |_| 10, |_| 2);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].host, HostId(0));
        assert_eq!(v[0].kind, DisjointnessKind::FanoutCapExceeded);
        assert_eq!((v[0].used, v[0].limit), (3, 2));
        assert_eq!(v[1].host, HostId(4));
    }

    #[test]
    fn best_surviving_prefers_low_height_then_low_index() {
        let trees = [chain(), via_helper()]; // heights 20, 10
        assert_eq!(best_surviving(&trees, |_| true), Some(1));
        // Kill the helper: only the chain survives.
        assert_eq!(best_surviving(&trees, |h| h != HostId(4)), Some(0));
        // Kill host 2 as well: nothing survives.
        assert_eq!(
            best_surviving(&trees, |h| h != HostId(4) && h != HostId(2)),
            None
        );
    }

    #[test]
    fn delivery_prunes_dead_subtrees_and_unions_trees() {
        let m = members();
        let lossless = |_: HostId, _: HostId| true;
        // Chain alone, host 2 dead: member 3 is cut off along with 2.
        let dead2 = |h: HostId| h != HostId(2);
        // Only 1 of {1, 3} receives.
        assert_eq!(delivery_ratio(&[chain()], &m, dead2, lossless), 0.5);
        // Adding the helper tree restores 3 (and 1): full delivery among
        // the live members (2 itself is dead, so it leaves the denominator).
        let both = [chain(), via_helper()];
        assert_eq!(delivery_ratio(&both, &m, dead2, lossless), 1.0);
        // Dead helper kills the second tree entirely.
        let dead4 = |h: HostId| h != HostId(4);
        assert_eq!(delivery_ratio(&[via_helper()], &m, dead4, lossless), 0.0);
        // Dead root delivers nothing.
        let dead0 = |h: HostId| h != HostId(0);
        assert_eq!(delivery_ratio(&[chain()], &m, dead0, lossless), 0.0);
        // All members intact: 1.0.
        assert_eq!(delivery_ratio(&[chain()], &m, |_| true, lossless), 1.0);
    }

    #[test]
    fn lossy_delivery_prunes_dropped_edges_but_unions_trees() {
        let m = members();
        // Losing the chain's 0→2 edge cuts members 2 and 3 off.
        let drop02 = |a: HostId, b: HostId| (a, b) != (HostId(0), HostId(2));
        let r = delivery_ratio(&[chain()], &m, |_| true, drop02);
        assert!((r - 1.0 / 3.0).abs() < 1e-12); // only 1 of {1, 2, 3}
                                                // The helper tree routes around the lost edge: full delivery.
        let r2 = delivery_ratio(&[chain(), via_helper()], &m, |_| true, drop02);
        assert_eq!(r2, 1.0);
    }

    #[test]
    fn intactness_is_all_hosts_alive() {
        assert!(tree_intact(&via_helper(), |_| true));
        // A dead helper breaks the tree even though it is not a member.
        assert!(!tree_intact(&via_helper(), |h| h != HostId(4)));
    }
}
