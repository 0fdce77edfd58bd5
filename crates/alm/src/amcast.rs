//! The AMCast greedy heuristic (Figure 6 without the dashed box).
//!
//! Grow the tree from the root. Every pending member tracks its best
//! attachment point — the tree node with free capacity minimizing the
//! member's resulting height. Each iteration absorbs the pending member of
//! minimum tentative height, then relaxes the remaining members against the
//! newly added node (and recomputes any member whose chosen parent just ran
//! out of degree).
//!
//! Two engines implement that loop:
//!
//! * `try_greedy_engine` — the incremental engine used by [`amcast`] and
//!   [`critical`](crate::critical::critical): one pass over the pending
//!   members per iteration relaxes them, collects the ones whose parent
//!   just filled and finds the next member to absorb; the recompute step
//!   walks a height-ordered capacity index that terminates as soon as no
//!   later node can win. Its whole state is sized by the session — the
//!   pending members and the tree under construction — never by the pool.
//!   Bit-identical to the reference (see DESIGN.md §11 for the argument).
//! * `greedy_engine_reference` — the paper's naive O(N³) formulation,
//!   retained verbatim as the baseline of the equivalence proptests.
//!
//! The same engine drives the critical-node variant: a `HelperFinder`
//! hook fires when a chosen parent's free degree drops to one, and may
//! splice a pool helper in between (the dashed box).

use std::collections::{BTreeSet, HashMap};

use netsim::{HostId, LatencyModel};

use crate::metrics::add_relaxations;
use crate::problem::Problem;
use crate::tree::MulticastTree;

/// Hook invoked by the greedy engine at the *critical* moment: `parent` has
/// exactly one free child slot and `u` is about to take it.
pub(crate) trait HelperFinder<L: LatencyModel> {
    /// Return a helper to splice under `parent` (the helper then adopts
    /// `u`), or `None` to proceed normally. `siblings` are the pending
    /// members (u included) whose current best parent is `parent` — the
    /// helper's likely future children.
    fn find(
        &mut self,
        tree: &MulticastTree,
        parent: HostId,
        u: HostId,
        siblings: &[HostId],
        latency: &L,
    ) -> Option<HostId>;
}

/// The no-op finder: plain AMCast.
pub(crate) struct NoHelper;
impl<L: LatencyModel> HelperFinder<L> for NoHelper {
    fn find(
        &mut self,
        _tree: &MulticastTree,
        _parent: HostId,
        _u: HostId,
        _siblings: &[HostId],
        _latency: &L,
    ) -> Option<HostId> {
        None
    }
}

/// Plain AMCast: build the greedy degree-bounded tree over the member set.
///
/// # Panics
/// If the members' degree bounds cannot host a spanning tree (infeasible
/// only when every member has bound 1; the paper's distribution starts
/// at 2).
pub fn amcast<L: LatencyModel, D: Fn(HostId) -> u32>(p: &Problem<L, D>) -> MulticastTree {
    try_amcast(p).expect("tree out of capacity for remaining members")
}

/// [`amcast`], but returns `None` instead of panicking when the members'
/// degree bounds cannot host a spanning tree. This is the multipath
/// planner's entry point: standby trees are planned over *residual*
/// capacity (what the session's earlier trees left behind), where running
/// out of degrees is an expected outcome, not a caller bug.
pub fn try_amcast<L: LatencyModel, D: Fn(HostId) -> u32>(
    p: &Problem<L, D>,
) -> Option<MulticastTree> {
    try_greedy_engine(p, &mut NoHelper)
}

/// Plain AMCast via the retained reference engine. Produces trees
/// bit-identical to [`amcast`]; exists so the equivalence proptests can
/// exercise the naive path.
pub fn amcast_reference<L: LatencyModel, D: Fn(HostId) -> u32>(p: &Problem<L, D>) -> MulticastTree {
    greedy_engine_reference(p, &mut NoHelper)
}

/// Total order on tentative heights. `total_cmp` matches `partial_cmp` on
/// the non-NaN, non-negative heights the engines produce, and stays a valid
/// total order (instead of panicking) should a poisoned model leak a NaN.
#[derive(Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A member still outside the tree, with its best attachment so far.
struct Pending {
    host: HostId,
    /// Tentative height: `height(best_p) + latency(best_p, host)`.
    best_h: f64,
    /// Tentative parent, and its node index in the tree under construction
    /// (nodes are numbered in attachment order, the root is 0).
    best_p: HostId,
    best_pi: u32,
}

/// Selection key of a pending member — `(tentative height, id)` — and its
/// position in the pending vector (ids are unique, so the position never
/// decides an order).
type Key = (OrdF64, HostId, usize);

/// Fold `v`, at position `at`, into the running argmin over the pending
/// vector: the member the next iteration absorbs.
fn offer(next: &mut Option<Key>, v: &Pending, at: usize) {
    let key = (OrdF64(v.best_h), v.host, at);
    *next = Some(next.map_or(key, |best| best.min(key)));
}

/// The shared greedy engine — incremental formulation.
///
/// Produces exactly the tree the reference engine produces (same floats,
/// same attachment order, same helper calls); see DESIGN.md §11 for the
/// equivalence argument. The two result-neutral prunes are:
///
/// * relaxation against a new node `w` is skipped when
///   `height(w) >= best(v)` — with `latency >= 0` the candidate score can
///   never strictly beat the incumbent;
/// * the full recompute walks capacity nodes in ascending `(height, id)`
///   and stops once `height(w)` exceeds the best score found — every later
///   candidate scores strictly worse.
///
/// `None` when the tree runs out of child slots with members still pending.
pub(crate) fn try_greedy_engine<L: LatencyModel, D: Fn(HostId) -> u32>(
    p: &Problem<L, D>,
    finder: &mut impl HelperFinder<L>,
) -> Option<MulticastTree> {
    let mut relaxed: u64 = 0;
    let mut tree = MulticastTree::with_capacity(p.root, p.members.len());
    // Remaining child capacity of every tree node, by node index.
    let mut free: Vec<u32> = Vec::with_capacity(p.members.len());
    free.push(p.free_child_slots(&tree, p.root));

    // Height-ordered index of tree nodes with spare capacity (ids are
    // unique, so the node index never decides the order).
    let mut cap: BTreeSet<(OrdF64, HostId, u32)> = BTreeSet::new();
    if free[0] >= 1 {
        cap.insert((OrdF64(0.0), p.root, 0));
    }

    // In the reference's order: every `swap_remove` below is the
    // reference's, so sibling lists and recomputes come out in its order.
    let mut pending: Vec<Pending> = Vec::with_capacity(p.members.len());
    let mut next: Option<Key> = None;
    for &v in p.members.iter().filter(|&&m| m != p.root) {
        relaxed += 1;
        let v = Pending {
            host: v,
            best_h: p.latency.latency_ms(p.root, v),
            best_p: p.root,
            best_pi: 0,
        };
        offer(&mut next, &v, pending.len());
        pending.push(v);
    }
    // Scratch, reused by every iteration.
    let mut siblings: Vec<HostId> = Vec::new();
    let mut orphans: Vec<usize> = Vec::new();

    while let Some((_, _, at)) = next.take() {
        let Pending {
            host: u,
            best_p: pu,
            best_pi: pi,
            ..
        } = pending.swap_remove(at);
        let pi = pi as usize;

        debug_assert!(
            free[pi] >= 1,
            "chosen parent has no capacity — best-parent bookkeeping broken"
        );

        // Critical moment: the chosen parent is about to fill up.
        let mut spliced: Option<HostId> = None;
        if free[pi] == 1 {
            siblings.clear();
            siblings.push(u);
            siblings.extend(
                pending
                    .iter()
                    .filter(|v| v.best_pi as usize == pi)
                    .map(|v| v.host),
            );
            if let Some(h) = finder.find(&tree, pu, u, &siblings, p.latency) {
                debug_assert!(!tree.contains(h), "helper already in tree");
                tree.attach(h, pu, p.latency.latency_ms(pu, h));
                tree.attach(u, h, p.latency.latency_ms(h, u));
                spliced = Some(h);
            }
        }
        if spliced.is_none() {
            tree.attach(u, pu, p.latency.latency_ms(pu, u));
        }

        // File the new node(s). Heights are read back from the tree so both
        // engines share one source of arithmetic. A new node that can take
        // children is what the survivors are relaxed against.
        let mut news: [(HostId, u32, f64); 2] = [(HostId(0), 0, 0.0); 2];
        let mut nn = 0;
        for w in spliced.into_iter().chain([u]) {
            let wi = free.len() as u32;
            free.push(p.free_child_slots(&tree, w));
            if free[wi as usize] >= 1 {
                let hw = tree.height_of(w);
                cap.insert((OrdF64(hw), w, wi));
                news[nn] = (w, wi, hw);
                nn += 1;
            }
        }
        debug_assert_eq!(free.len(), tree.len());
        free[pi] -= 1;
        let pu_full = free[pi] == 0;
        if pu_full {
            cap.remove(&(OrdF64(tree.height_of(pu)), pu, pi as u32));
        }

        // One pass over the survivors: relax them against the new node(s),
        // set aside the members whose chosen parent just filled — only pu
        // lost capacity this iteration, so nobody else's parent can have
        // gone full — and find the next member to absorb.
        orphans.clear();
        for (at, v) in pending.iter_mut().enumerate() {
            if pu_full && v.best_pi as usize == pi {
                orphans.push(at);
                continue;
            }
            for &(w, wi, hw) in &news[..nn] {
                // latency >= 0: a node at or above the incumbent height
                // cannot strictly improve, so skip the evaluation.
                if hw < v.best_h {
                    relaxed += 1;
                    let cand = hw + p.latency.latency_ms(w, v.host);
                    if cand < v.best_h {
                        v.best_h = cand;
                        v.best_p = w;
                        v.best_pi = wi;
                    }
                }
            }
            offer(&mut next, v, at);
        }

        // Recompute the members orphaned by pu filling up: scan the
        // capacity index in ascending (height, id) until no later node can
        // win.
        for &at in &orphans {
            let v = &mut pending[at];
            let mut bs = f64::INFINITY;
            let mut bw: Option<(HostId, u32)> = None;
            for &(OrdF64(hw), w, wi) in cap.iter() {
                if hw > bs {
                    break;
                }
                relaxed += 1;
                let cand = hw + p.latency.latency_ms(w, v.host);
                if cand < bs || (cand == bs && bw.is_some_and(|(x, _)| w < x)) {
                    bs = cand;
                    bw = Some((w, wi));
                }
            }
            // Out of capacity.
            let (np, npi) = bw?;
            v.best_h = bs;
            v.best_p = np;
            v.best_pi = npi;
            offer(&mut next, v, at);
        }
    }
    add_relaxations(relaxed);
    Some(tree)
}

/// The reference greedy engine: the paper's relax-everything loop, O(N³)
/// worst case. Kept verbatim (plus the relaxation counter) as the baseline
/// the incremental engine is validated and benchmarked against.
pub(crate) fn greedy_engine_reference<L: LatencyModel, D: Fn(HostId) -> u32>(
    p: &Problem<L, D>,
    finder: &mut impl HelperFinder<L>,
) -> MulticastTree {
    let mut relaxed: u64 = 0;
    let mut tree = MulticastTree::new(p.root);
    let mut pending: Vec<HostId> = p.members.iter().copied().filter(|&m| m != p.root).collect();
    // Best attachment per pending member: (resulting height, parent).
    let mut best: HashMap<HostId, (f64, HostId)> = pending
        .iter()
        .map(|&v| {
            relaxed += 1;
            (v, (p.latency.latency_ms(p.root, v), p.root))
        })
        .collect();

    while !pending.is_empty() {
        // The pending member with minimum tentative height.
        let (pos, &u) = pending
            .iter()
            .enumerate()
            .min_by(|a, b| {
                let ha = best[a.1].0;
                let hb = best[b.1].0;
                ha.total_cmp(&hb).then(a.1.cmp(b.1))
            })
            .expect("pending non-empty");
        let (_, pu) = best[&u];
        pending.swap_remove(pos);
        best.remove(&u);

        debug_assert!(
            p.free_child_slots(&tree, pu) >= 1,
            "chosen parent has no capacity — best-parent bookkeeping broken"
        );

        // Critical moment: the chosen parent is about to fill up.
        let mut spliced: Option<HostId> = None;
        if p.free_child_slots(&tree, pu) == 1 {
            let siblings: Vec<HostId> = std::iter::once(u)
                .chain(pending.iter().copied().filter(|v| best[v].1 == pu))
                .collect();
            if let Some(h) = finder.find(&tree, pu, u, &siblings, p.latency) {
                debug_assert!(!tree.contains(h), "helper already in tree");
                tree.attach(h, pu, p.latency.latency_ms(pu, h));
                tree.attach(u, h, p.latency.latency_ms(h, u));
                spliced = Some(h);
            }
        }
        if spliced.is_none() {
            tree.attach(u, pu, p.latency.latency_ms(pu, u));
        }

        // Relax remaining members against the newly added node(s), and
        // recompute anyone whose chosen parent just became full.
        let newly_added: Vec<HostId> = spliced.into_iter().chain(std::iter::once(u)).collect();
        for v in pending.clone() {
            let (mut hv, mut pv) = best[&v];
            if p.free_child_slots(&tree, pv) == 0 {
                // Full recompute over tree nodes with capacity.
                let (nh, np) = best_attachment_counted(p, &tree, v, &mut relaxed)
                    .expect("tree out of capacity for remaining members");
                hv = nh;
                pv = np;
            } else {
                for &w in &newly_added {
                    if p.free_child_slots(&tree, w) >= 1 {
                        relaxed += 1;
                        let cand = tree.height_of(w) + p.latency.latency_ms(w, v);
                        if cand < hv {
                            hv = cand;
                            pv = w;
                        }
                    }
                }
            }
            best.insert(v, (hv, pv));
        }
    }
    add_relaxations(relaxed);
    tree
}

/// The best attachment point for `v`: min height over tree nodes with free
/// capacity.
pub(crate) fn best_attachment<L: LatencyModel, D: Fn(HostId) -> u32>(
    p: &Problem<L, D>,
    tree: &MulticastTree,
    v: HostId,
) -> Option<(f64, HostId)> {
    let mut scored = 0;
    best_attachment_counted(p, tree, v, &mut scored)
}

fn best_attachment_counted<L: LatencyModel, D: Fn(HostId) -> u32>(
    p: &Problem<L, D>,
    tree: &MulticastTree,
    v: HostId,
    scored: &mut u64,
) -> Option<(f64, HostId)> {
    tree.hosts()
        .iter()
        .filter(|&&w| p.free_child_slots(tree, w) >= 1)
        .map(|&w| {
            *scored += 1;
            (tree.height_of(w) + p.latency.latency_ms(w, v), w)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Network, NetworkConfig, TransitStubConfig};

    struct Uniform;
    impl LatencyModel for Uniform {
        fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
            if a == b {
                0.0
            } else {
                10.0
            }
        }
        fn num_hosts(&self) -> usize {
            1000
        }
    }

    fn net(n: usize, seed: u64) -> Network {
        Network::generate(
            &NetworkConfig {
                topology: TransitStubConfig {
                    transit_domains: 2,
                    transit_per_domain: 3,
                    stub_domains_per_transit: 2,
                    routers_per_stub: 3,
                    ..TransitStubConfig::default()
                },
                num_hosts: n,
                ..NetworkConfig::default()
            },
            seed,
        )
    }

    #[test]
    fn spans_all_members_and_respects_bounds() {
        let net = net(300, 1);
        let members: Vec<HostId> = (0..80).map(HostId).collect();
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let p = Problem::new(HostId(0), members.clone(), &net.latency, dbound);
        let t = amcast(&p);
        assert_eq!(t.len(), members.len());
        for &m in &members {
            assert!(t.contains(m));
        }
        t.validate(&net.latency, dbound).unwrap();
    }

    #[test]
    fn unbounded_uniform_case_is_a_star() {
        // With huge degree bounds and uniform latency, everyone attaches
        // straight to the root: height = one hop.
        let members: Vec<HostId> = (0..20).map(HostId).collect();
        let p = Problem::new(HostId(0), members, &Uniform, |_| 100);
        let t = amcast(&p);
        assert_eq!(t.max_height(), 10.0);
        assert_eq!(t.child_count(HostId(0)), 19);
    }

    #[test]
    fn degree_two_everywhere_forms_feasible_tree() {
        // Bound 2 on everyone forces a path-like tree; must stay feasible.
        let members: Vec<HostId> = (0..15).map(HostId).collect();
        let p = Problem::new(HostId(0), members, &Uniform, |_| 2);
        let t = amcast(&p);
        t.validate(&Uniform, |_| 2).unwrap();
        assert_eq!(t.len(), 15);
        // Bound 2: the root (no parent link) anchors two chains of 7,
        // everyone else is a link in a chain → height 7 hops.
        assert_eq!(t.max_height(), 70.0);
        assert_eq!(t.child_count(HostId(0)), 2);
    }

    #[test]
    fn greedy_height_is_no_worse_than_a_path() {
        let net = net(300, 2);
        let members: Vec<HostId> = (0..60).map(HostId).collect();
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let p = Problem::new(HostId(0), members.clone(), &net.latency, dbound);
        let t = amcast(&p);
        // Crude sanity: greedy must beat chaining members in id order.
        let mut path_height = 0.0;
        let mut worst: f64 = 0.0;
        for w in members.windows(2) {
            path_height += net.latency.latency_ms(w[0], w[1]);
            worst = worst.max(path_height);
        }
        assert!(t.max_height() < worst);
    }

    #[test]
    fn two_member_session() {
        let p = Problem::new(HostId(0), vec![HostId(1)], &Uniform, |_| 2);
        let t = amcast(&p);
        assert_eq!(t.len(), 2);
        assert_eq!(t.parent_of(HostId(1)), Some(HostId(0)));
    }

    #[test]
    fn deterministic() {
        let net = net(200, 3);
        let members: Vec<HostId> = (0..50).map(HostId).collect();
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let p = Problem::new(HostId(0), members, &net.latency, dbound);
        let a = amcast(&p);
        let b = amcast(&p);
        assert_eq!(a.hosts(), b.hosts());
        assert_eq!(a.max_height(), b.max_height());
    }

    /// Attachment order, parents, and heights must all agree — this is the
    /// unit-level cut of the proptest equivalence suite.
    fn assert_trees_identical(a: &MulticastTree, b: &MulticastTree) {
        assert_eq!(a.hosts(), b.hosts(), "attachment order differs");
        for &h in a.hosts() {
            assert_eq!(a.parent_of(h), b.parent_of(h), "parent of {h:?} differs");
            assert_eq!(
                a.height_of(h).to_bits(),
                b.height_of(h).to_bits(),
                "height of {h:?} differs"
            );
        }
    }

    #[test]
    fn incremental_matches_reference_on_oracle_latency() {
        for seed in 0..4 {
            let net = net(300, 10 + seed);
            let members: Vec<HostId> = (0..90).map(HostId).collect();
            let dbound = |h: HostId| net.hosts.degree_bound(h);
            let p = Problem::new(HostId(0), members, &net.latency, dbound);
            assert_trees_identical(&amcast(&p), &amcast_reference(&p));
        }
    }

    #[test]
    fn incremental_matches_reference_under_tight_bounds() {
        // Degree 2 everywhere maximizes recompute pressure (every parent
        // fills after one child).
        let net = net(300, 20);
        let members: Vec<HostId> = (0..70).map(HostId).collect();
        let p = Problem::new(HostId(0), members, &net.latency, |_| 2);
        assert_trees_identical(&amcast(&p), &amcast_reference(&p));
    }

    #[test]
    fn incremental_matches_reference_on_uniform_ties() {
        // Uniform latency makes every comparison a tie — the (height, id)
        // tie-break order must carry the whole decision.
        let members: Vec<HostId> = (0..40).map(HostId).collect();
        let p = Problem::new(HostId(0), members, &Uniform, |_| 3);
        assert_trees_identical(&amcast(&p), &amcast_reference(&p));
    }
}
