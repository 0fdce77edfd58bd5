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
//!   [`critical`](crate::critical::critical): a lazy-invalidation priority
//!   queue selects the next member in O(log N), dense arrays replace hash
//!   maps on the hot path, and the recompute step walks a height-ordered
//!   capacity index that terminates as soon as no later node can win.
//!   Bit-identical to the reference (see DESIGN.md §11 for the argument).
//! * `greedy_engine_reference` — the paper's naive O(N³) formulation,
//!   retained verbatim as the A/B baseline for the equivalence proptests
//!   and the `perf_planner` sweep.
//!
//! The same engine drives the critical-node variant: a `HelperFinder`
//! hook fires when a chosen parent's free degree drops to one, and may
//! splice a pool helper in between (the dashed box).

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

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
/// bit-identical to [`amcast`]; exists so the proptest equivalence suite and
/// the `perf_planner` A/B sweep can exercise the naive path.
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

/// Dense per-host engine state, grown on demand so helper ids are safe even
/// when a finder hands back an id at the edge of the model's range.
struct EngineState {
    /// Height of in-tree nodes (mirrors `MulticastTree` exactly).
    height: Vec<f64>,
    /// Remaining child capacity of in-tree nodes.
    free: Vec<u32>,
    /// Tentative height of pending members.
    best_h: Vec<f64>,
    /// Tentative parent of pending members.
    best_p: Vec<HostId>,
    /// Index into the pending vec, `usize::MAX` when absorbed.
    pos: Vec<usize>,
    /// Pending members filed under their tentative parent. Entries go stale
    /// when a member's parent changes (no eager removal) and may repeat;
    /// readers filter against `best_p`/`pos` and dedup.
    by_parent: Vec<Vec<HostId>>,
}

impl EngineState {
    fn new(n: usize) -> EngineState {
        EngineState {
            height: vec![0.0; n],
            free: vec![0; n],
            best_h: vec![f64::INFINITY; n],
            best_p: vec![HostId(u32::MAX); n],
            pos: vec![usize::MAX; n],
            by_parent: vec![Vec::new(); n],
        }
    }

    fn ensure(&mut self, i: usize) {
        if i >= self.pos.len() {
            let n = i + 1;
            self.height.resize(n, 0.0);
            self.free.resize(n, 0);
            self.best_h.resize(n, f64::INFINITY);
            self.best_p.resize(n, HostId(u32::MAX));
            self.pos.resize(n, usize::MAX);
            self.by_parent.resize(n, Vec::new());
        }
    }

    /// Pending members currently filed under `parent`, in pending-vec order
    /// (the order the reference engine's linear filter would produce).
    fn members_of(&mut self, parent: HostId) -> Vec<HostId> {
        let list = std::mem::take(&mut self.by_parent[parent.idx()]);
        let mut keep: Vec<(usize, HostId)> = list
            .into_iter()
            .filter(|&v| self.pos[v.idx()] != usize::MAX && self.best_p[v.idx()] == parent)
            .map(|v| (self.pos[v.idx()], v))
            .collect();
        keep.sort_unstable();
        keep.dedup();
        let out: Vec<HostId> = keep.into_iter().map(|(_, v)| v).collect();
        // Readers that only peek (the sibling list) put the survivors back.
        self.by_parent[parent.idx()] = out.clone();
        out
    }
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
    let mut tree = MulticastTree::new(p.root);
    let mut st = EngineState::new(p.latency.num_hosts());
    st.ensure(p.root.idx());
    for &m in &p.members {
        st.ensure(m.idx());
    }

    // Height-ordered index of tree nodes with spare capacity.
    let mut cap: BTreeSet<(OrdF64, HostId)> = BTreeSet::new();
    st.free[p.root.idx()] = p.free_child_slots(&tree, p.root);
    if st.free[p.root.idx()] >= 1 {
        cap.insert((OrdF64(0.0), p.root));
    }

    let mut pending: Vec<HostId> = p.members.iter().copied().filter(|&m| m != p.root).collect();
    // Lazy-invalidation selection queue: entries are (tentative height, id)
    // snapshots; stale ones are discarded at pop time.
    let mut heap: BinaryHeap<Reverse<(OrdF64, HostId)>> =
        BinaryHeap::with_capacity(pending.len() + 1);
    for (i, &v) in pending.iter().enumerate() {
        st.pos[v.idx()] = i;
        relaxed += 1;
        let h0 = p.latency.latency_ms(p.root, v);
        st.best_h[v.idx()] = h0;
        st.best_p[v.idx()] = p.root;
        st.by_parent[p.root.idx()].push(v);
        heap.push(Reverse((OrdF64(h0), v)));
    }

    while !pending.is_empty() {
        // The pending member with minimum (tentative height, id). A drained
        // heap with members still pending means an orphan recompute already
        // failed — out of capacity.
        let u = loop {
            let Reverse((OrdF64(h), v)) = heap.pop()?;
            if st.pos[v.idx()] != usize::MAX && st.best_h[v.idx()] == h {
                break v;
            }
        };
        let pu = st.best_p[u.idx()];

        // Remove u from pending, replicating the reference's swap_remove.
        let up = st.pos[u.idx()];
        pending.swap_remove(up);
        if up < pending.len() {
            st.pos[pending[up].idx()] = up;
        }
        st.pos[u.idx()] = usize::MAX;

        debug_assert!(
            st.free[pu.idx()] >= 1,
            "chosen parent has no capacity — best-parent bookkeeping broken"
        );

        // Critical moment: the chosen parent is about to fill up.
        let mut spliced: Option<HostId> = None;
        if st.free[pu.idx()] == 1 {
            let siblings: Vec<HostId> = std::iter::once(u).chain(st.members_of(pu)).collect();
            if let Some(h) = finder.find(&tree, pu, u, &siblings, p.latency) {
                debug_assert!(!tree.contains(h), "helper already in tree");
                st.ensure(h.idx());
                tree.attach(h, pu, p.latency.latency_ms(pu, h));
                tree.attach(u, h, p.latency.latency_ms(h, u));
                spliced = Some(h);
            }
        }
        if spliced.is_none() {
            tree.attach(u, pu, p.latency.latency_ms(pu, u));
        }

        // Mirror the attachment into the dense state. Heights are read back
        // from the tree so both engines share one source of arithmetic.
        if let Some(h) = spliced {
            st.height[h.idx()] = tree.height_of(h);
            st.free[h.idx()] = p.free_child_slots(&tree, h);
            if st.free[h.idx()] >= 1 {
                cap.insert((OrdF64(st.height[h.idx()]), h));
            }
        }
        st.height[u.idx()] = tree.height_of(u);
        st.free[u.idx()] = p.free_child_slots(&tree, u);
        if st.free[u.idx()] >= 1 {
            cap.insert((OrdF64(st.height[u.idx()]), u));
        }
        st.free[pu.idx()] -= 1;
        let pu_full = st.free[pu.idx()] == 0;
        if pu_full {
            cap.remove(&(OrdF64(st.height[pu.idx()]), pu));
        }

        // Relax survivors against the newly added node(s). Members whose
        // chosen parent just filled (== pu) are recomputed below instead —
        // only pu lost capacity this iteration, so nobody else's parent can
        // have gone full.
        let mut news: [(HostId, f64); 2] = [(HostId(0), 0.0); 2];
        let mut nn = 0;
        if let Some(h) = spliced {
            if st.free[h.idx()] >= 1 {
                news[nn] = (h, st.height[h.idx()]);
                nn += 1;
            }
        }
        if st.free[u.idx()] >= 1 {
            news[nn] = (u, st.height[u.idx()]);
            nn += 1;
        }
        if nn > 0 {
            for &v in &pending {
                if pu_full && st.best_p[v.idx()] == pu {
                    continue;
                }
                let mut hv = st.best_h[v.idx()];
                let mut pv = st.best_p[v.idx()];
                let mut touched = false;
                for &(w, hw) in &news[..nn] {
                    // latency >= 0: a node at or above the incumbent height
                    // cannot strictly improve, so skip the evaluation.
                    if hw < hv {
                        relaxed += 1;
                        let cand = hw + p.latency.latency_ms(w, v);
                        if cand < hv {
                            hv = cand;
                            pv = w;
                            touched = true;
                        }
                    }
                }
                if touched {
                    st.best_h[v.idx()] = hv;
                    st.best_p[v.idx()] = pv;
                    st.by_parent[pv.idx()].push(v);
                    heap.push(Reverse((OrdF64(hv), v)));
                }
            }
        }

        // Recompute members orphaned by pu filling up: scan the capacity
        // index in ascending (height, id) until no later node can win.
        if pu_full {
            let orphans = st.members_of(pu);
            st.by_parent[pu.idx()].clear();
            for v in orphans {
                let mut bs = f64::INFINITY;
                let mut bw: Option<HostId> = None;
                for &(OrdF64(hw), w) in cap.iter() {
                    if hw > bs {
                        break;
                    }
                    relaxed += 1;
                    let cand = hw + p.latency.latency_ms(w, v);
                    if cand < bs || (cand == bs && bw.is_some_and(|x| w < x)) {
                        bs = cand;
                        bw = Some(w);
                    }
                }
                let np = bw?;
                st.best_h[v.idx()] = bs;
                st.best_p[v.idx()] = np;
                st.by_parent[np.idx()].push(v);
                heap.push(Reverse((OrdF64(bs), v)));
            }
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
    use netsim::{Network, NetworkConfig};

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
                transit_domains: 2,
                transit_per_domain: 3,
                stub_domains_per_transit: 2,
                routers_per_stub: 3,
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
