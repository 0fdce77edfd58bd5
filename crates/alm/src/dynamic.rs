//! Dynamic session membership (the extension §5 flags: "the algorithm can
//! be extended to accommodate dynamic membership as well").
//!
//! Incremental operations on a live multicast tree:
//!
//! * [`add_member`] — a late joiner attaches to the best node with free
//!   capacity (the same relaxation rule the greedy builder uses);
//! * [`remove_member`] — a leaver's orphaned subtrees re-attach greedily,
//!   and helpers left without children are pruned back to the pool;
//! * [`prune_idle_helpers`] — reclaim helpers that no longer forward to
//!   anyone (returning their degrees to the pool is the caller's job).
//!
//! Leave, crash repair ([`reattach_orphans`]) and pruning share one
//! survivor walk and one residual-capacity rule.
//!
//! Incremental repair trades optimality for disruption: only the paths
//! through the leaver change. A session can always fall back to a full
//! replan (`critical` + `adjust`) on its periodic rescheduling tick.

use std::collections::{HashMap, HashSet, VecDeque};

use netsim::{HostId, LatencyModel};

use crate::amcast::best_attachment;
use crate::problem::Problem;
use crate::tree::MulticastTree;

/// A join or repair could not find any node with free capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoCapacity;

impl std::fmt::Display for NoCapacity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no tree node has a free child slot")
    }
}
impl std::error::Error for NoCapacity {}

/// Attach a late joiner to the best node with free capacity.
///
/// # Panics
/// If `v` is already in the tree.
pub fn add_member<L: LatencyModel, D: Fn(HostId) -> u32>(
    p: &Problem<L, D>,
    tree: &mut MulticastTree,
    v: HostId,
) -> Result<(), NoCapacity> {
    assert!(!tree.contains(v), "joiner already in tree");
    let (_, parent) = best_attachment(p, tree, v).ok_or(NoCapacity)?;
    tree.attach(v, parent, p.latency.latency_ms(parent, v));
    Ok(())
}

/// Remove `v` from the tree, greedily re-attaching its orphaned subtrees.
/// Returns the rebuilt tree (the original is consumed conceptually: pass a
/// clone if you need the old one).
///
/// # Panics
/// If `v` is the tree root (the session source cannot leave — the session
/// ends instead), or `v` is not in the tree.
pub fn remove_member<L: LatencyModel, D: Fn(HostId) -> u32>(
    p: &Problem<L, D>,
    tree: &MulticastTree,
    v: HostId,
) -> Result<MulticastTree, NoCapacity> {
    assert!(tree.contains(v), "leaver not in tree");
    assert!(v != tree.root(), "the session root cannot leave");

    // Every survivor outside v's subtree is in place before the first
    // orphan chooses, so each orphan sees all of them. Attaching one orphan
    // at a time against the growing `rebuilt` is cycle-safe: an orphan can
    // never pick a parent inside its own (not-yet-placed) subtree.
    let gone = HashSet::from([v]);
    let (mut rebuilt, orphans) = survivors(p, tree, &gone);
    let mut residual = residual(p, tree, &gone);
    for orphan in orphans {
        let (_, w) = rebuilt
            .hosts()
            .iter()
            .copied()
            .filter(|w| residual.get(w).copied().unwrap_or(0) > 0)
            .map(|w| (rebuilt.height_of(w) + p.latency.latency_ms(w, orphan), w))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .ok_or(NoCapacity)?;
        *residual.get_mut(&w).expect("candidate accounted") -= 1;
        rebuilt.attach(orphan, w, p.latency.latency_ms(w, orphan));
        copy_subtree(p, tree, &mut rebuilt, orphan, &gone);
    }
    Ok(rebuilt)
}

/// The tree without the hosts in `gone`, and the orphans that leaves: one
/// walk in BFS order, shared by leave, crash repair and pruning. A survivor
/// whose parent is gone is an orphan; one whose parent is already in the
/// rebuilt tree keeps its edge; one whose parent hangs under a gone
/// ancestor is left out — it travels with its orphan ancestor's subtree.
fn survivors<L: LatencyModel, D: Fn(HostId) -> u32>(
    p: &Problem<L, D>,
    tree: &MulticastTree,
    gone: &HashSet<HostId>,
) -> (MulticastTree, Vec<HostId>) {
    let mut rebuilt = MulticastTree::new(tree.root());
    let mut orphans = Vec::new();
    for u in tree.bfs_order() {
        if u == tree.root() || gone.contains(&u) {
            continue;
        }
        let parent = tree.parent_of(u).expect("non-root has a parent");
        if gone.contains(&parent) {
            orphans.push(u);
        } else if rebuilt.contains(parent) {
            rebuilt.attach(u, parent, p.latency.latency_ms(parent, u));
        }
    }
    (rebuilt, orphans)
}

/// Free child slots of every host outside `gone` once all its surviving
/// edges are back: its degree bound minus its surviving children minus its
/// parent link (an orphan keeps that unit for its new parent). Orphans may
/// only take these slots — checking against the partially rebuilt tree
/// alone would overcommit hosts whose children are not copied yet.
fn residual<L: LatencyModel, D: Fn(HostId) -> u32>(
    p: &Problem<L, D>,
    tree: &MulticastTree,
    gone: &HashSet<HostId>,
) -> HashMap<HostId, i64> {
    tree.hosts()
        .iter()
        .filter(|u| !gone.contains(u))
        .map(|&u| {
            let live_children = tree
                .children_of(u)
                .iter()
                .filter(|c| !gone.contains(c))
                .count() as i64;
            let has_parent = i64::from(u != tree.root());
            (u, (p.dbound)(u) as i64 - live_children - has_parent)
        })
        .collect()
}

/// All hosts in the subtree rooted at `v` (including `v` itself).
fn subtree_of(tree: &MulticastTree, v: HostId) -> HashSet<HostId> {
    let mut set = HashSet::new();
    let mut stack = vec![v];
    while let Some(u) = stack.pop() {
        if set.insert(u) {
            stack.extend(tree.children_of(u));
        }
    }
    set
}

/// Copy the descendants of `top` (already present in `rebuilt`) with their
/// old parent edges, parent-before-child. Hosts in `skip` are not copied
/// and not descended into (a crashed node's live children re-attach on
/// their own as orphans).
fn copy_subtree<L: LatencyModel, D: Fn(HostId) -> u32>(
    p: &Problem<L, D>,
    tree: &MulticastTree,
    rebuilt: &mut MulticastTree,
    top: HostId,
    skip: &HashSet<HostId>,
) {
    let mut queue = VecDeque::from(tree.children_of(top));
    while let Some(u) = queue.pop_front() {
        if skip.contains(&u) {
            continue;
        }
        let parent = tree.parent_of(u).expect("subtree node has a parent");
        rebuilt.attach(u, parent, p.latency.latency_ms(parent, u));
        queue.extend(tree.children_of(u));
    }
}

/// Tuning for [`reattach_orphans`].
#[derive(Clone, Copy, Debug)]
pub struct ReattachConfig {
    /// Delay before the first retry; doubles on each subsequent attempt
    /// (exponential backoff, step capped at `backoff · 2^6`).
    pub backoff: simcore::SimTime,
    /// Attempts per orphan before giving up (first try included).
    pub max_attempts: u32,
}

impl Default for ReattachConfig {
    fn default() -> Self {
        ReattachConfig {
            backoff: simcore::SimTime::from_millis(500),
            max_attempts: 12,
        }
    }
}

/// What [`reattach_orphans`] accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct ReattachReport {
    /// Orphan subtrees successfully re-attached.
    pub reattached: usize,
    /// Failed attempts across all orphans (dead or saturated picks).
    pub retries: u64,
    /// Orphans abandoned after `max_attempts` failures.
    pub gave_up: usize,
    /// Simulated wall time the repair took (dominated by backoff waits;
    /// orphans retry independently, so this is the *maximum* per-orphan
    /// duration, not the sum).
    pub duration: simcore::SimTime,
}

/// The roots of the subtrees that `dead` would orphan: live nodes whose
/// parent is dead (each drags its intact subtree along). Schedulers use
/// this to size a repair — or release the stranded helpers' reservations —
/// before committing to [`reattach_orphans`].
pub fn orphaned_subtree_roots(tree: &MulticastTree, dead: &[HostId]) -> Vec<HostId> {
    let dead_set: HashSet<HostId> = dead.iter().copied().collect();
    tree.bfs_order()
        .into_iter()
        .filter(|&u| {
            u != tree.root()
                && !dead_set.contains(&u)
                && dead_set.contains(&tree.parent_of(u).expect("non-root has a parent"))
        })
        .collect()
}

/// Crash repair for a live session: every host in `dead` vanishes at once
/// and each orphaned subtree re-attaches by itself, retrying with
/// exponential backoff.
///
/// Unlike [`remove_member`] (a graceful leave, where the leaver hands its
/// children a consistent view), crash orphans work from a **stale view**:
/// their candidate list still contains the dead hosts. An attempt that
/// picks a dead or degree-saturated parent fails and is retried after
/// `backoff · 2^k`, dropping that candidate. The repaired tree contains
/// every survivor whose orphan ancestor found a slot; subtrees whose orphan
/// gave up are left out (counted in [`ReattachReport::gave_up`]).
///
/// # Panics
/// If `dead` contains the root (the session ends instead).
pub fn reattach_orphans<L: LatencyModel, D: Fn(HostId) -> u32>(
    p: &Problem<L, D>,
    tree: &MulticastTree,
    dead: &[HostId],
    cfg: &ReattachConfig,
) -> (MulticastTree, ReattachReport) {
    let dead_set: HashSet<HostId> = dead.iter().copied().collect();
    assert!(
        !dead_set.contains(&tree.root()),
        "the session root cannot crash here"
    );

    // Survivors outside every dead subtree keep their edges; the roots of
    // the remaining fragments are the orphans. Residual capacity counts
    // the orphan subtrees' internal edges too: they land with them.
    let (mut rebuilt, orphans) = survivors(p, tree, &dead_set);
    let mut residual = residual(p, tree, &dead_set);

    // Per-orphan retry state. Exclusions are *learned refusals*: a dead
    // pick (no answer) or a saturated pick (explicit refusal) is never
    // retried. A pick that is merely still orphaned itself (its own subtree
    // has not landed yet) is NOT excluded — after the backoff it may have
    // re-attached, exactly as in a live system.
    struct Pending {
        orphan: HostId,
        excluded: HashSet<HostId>,
        attempts: u32,
        waited: simcore::SimTime,
    }
    let mut pending: Vec<Pending> = orphans
        .into_iter()
        .map(|orphan| Pending {
            excluded: subtree_of(tree, orphan),
            orphan,
            attempts: 0,
            waited: simcore::SimTime::ZERO,
        })
        .collect();

    let mut report = ReattachReport::default();
    // Rounds: every still-orphaned subtree scans its candidates once per
    // round. Within a round, a pick that is still detached itself is
    // soft-skipped (one attempt + backoff, then the next-nearest candidate);
    // the soft set clears between rounds, so once that subtree lands the
    // orphan may still choose it. Attempts are bounded by `max_attempts`.
    loop {
        let mut any_attempt = false;
        let mut still_pending = Vec::new();
        for mut st in pending {
            let mut soft: HashSet<HostId> = HashSet::new();
            let mut attached = false;
            while st.attempts < cfg.max_attempts {
                let pick = tree
                    .hosts()
                    .iter()
                    .copied()
                    .filter(|w| !st.excluded.contains(w) && !soft.contains(w))
                    .map(|w| (p.latency.latency_ms(w, st.orphan), w))
                    .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                    .map(|(_, w)| w);
                let Some(w) = pick else {
                    if soft.is_empty() {
                        st.attempts = cfg.max_attempts; // stale view exhausted
                    }
                    break; // otherwise: wait a round, detached picks may land
                };
                any_attempt = true;
                st.attempts += 1;
                if !dead_set.contains(&w)
                    && rebuilt.contains(w)
                    && residual.get(&w).copied().unwrap_or(0) > 0
                {
                    *residual.get_mut(&w).expect("live candidate") -= 1;
                    rebuilt.attach(st.orphan, w, p.latency.latency_ms(w, st.orphan));
                    copy_subtree(p, tree, &mut rebuilt, st.orphan, &dead_set);
                    report.reattached += 1;
                    report.duration = report.duration.max(st.waited);
                    attached = true;
                    break;
                }
                // Failed attempt: dead picks (no answer) and saturated picks
                // (explicit refusal) are dropped for good; a pick that is
                // merely detached right now is retried in a later round.
                report.retries += 1;
                if dead_set.contains(&w) || rebuilt.contains(w) {
                    st.excluded.insert(w);
                } else {
                    soft.insert(w);
                }
                st.waited += simcore::SimTime::from_micros(
                    cfg.backoff
                        .as_micros()
                        .saturating_mul(1u64 << (st.attempts - 1).min(6)),
                );
            }
            if !attached {
                still_pending.push(st);
            }
        }
        pending = still_pending;
        if !any_attempt {
            break;
        }
    }
    for st in pending {
        report.gave_up += 1;
        report.duration = report.duration.max(st.waited);
    }
    (rebuilt, report)
}

/// Remove helpers (tree nodes outside `members`) that have no children,
/// repeatedly, until none remain. Returns the pruned helpers.
pub fn prune_idle_helpers<L: LatencyModel, D: Fn(HostId) -> u32>(
    p: &Problem<L, D>,
    tree: &mut MulticastTree,
    members: &[HostId],
) -> Vec<HostId> {
    let mut pruned = Vec::new();
    loop {
        let idle: Vec<HostId> = tree
            .hosts()
            .iter()
            .copied()
            .filter(|h| !members.contains(h) && *h != tree.root() && tree.child_count(*h) == 0)
            .collect();
        if idle.is_empty() {
            return pruned;
        }
        // The idle helpers are leaves, so no survivor is orphaned.
        let (rebuilt, _) = survivors(p, tree, &idle.iter().copied().collect());
        pruned.extend(idle);
        *tree = rebuilt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amcast::amcast;
    use crate::critical::{critical, helpers_used, HelperPool};
    use netsim::{Network, NetworkConfig};
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn net() -> Network {
        Network::generate(
            &NetworkConfig {
                num_hosts: 400,
                ..NetworkConfig::default()
            },
            91,
        )
    }

    fn session(net: &Network, size: usize, seed: u64) -> Vec<HostId> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut all: Vec<u32> = (0..net.num_hosts() as u32).collect();
        all.shuffle(&mut rng);
        all[..size].iter().copied().map(HostId).collect()
    }

    #[test]
    fn join_keeps_tree_valid() {
        let net = net();
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let members = session(&net, 20, 1);
        let joiner = net
            .hosts
            .ids()
            .find(|h| !members.contains(h))
            .expect("some host outside the session");
        let p = Problem::new(members[0], members.clone(), &net.latency, dbound);
        let mut t = amcast(&p);
        add_member(&p, &mut t, joiner).unwrap();
        assert!(t.contains(joiner));
        t.validate(&net.latency, dbound).unwrap();
    }

    #[test]
    fn join_fails_cleanly_when_tree_is_saturated() {
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
                10
            }
        }
        // Root bound 2, everyone else bound 1 (no child slots): the tree
        // saturates at root + 2 children.
        let dbound = |h: HostId| if h == HostId(0) { 2 } else { 1 };
        let members: Vec<HostId> = (0..3).map(HostId).collect();
        let p = Problem::new(HostId(0), members, &Uniform, dbound);
        let mut t = amcast(&p);
        assert_eq!(t.len(), 3);
        assert_eq!(add_member(&p, &mut t, HostId(5)), Err(NoCapacity));
        t.validate(&Uniform, dbound).unwrap();
    }

    #[test]
    fn leave_reattaches_orphans_and_stays_valid() {
        let net = net();
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let members = session(&net, 30, 2);
        let p = Problem::new(members[0], members.clone(), &net.latency, dbound);
        let t = amcast(&p);
        // Remove an internal node (one with children) if any, else a leaf.
        let leaver = members
            .iter()
            .copied()
            .find(|&m| m != t.root() && t.child_count(m) > 0)
            .unwrap_or(members[1]);
        let orphans = t.children_of(leaver).len();
        let rebuilt = remove_member(&p, &t, leaver).unwrap();
        assert!(!rebuilt.contains(leaver));
        assert_eq!(rebuilt.len(), t.len() - 1);
        rebuilt.validate(&net.latency, dbound).unwrap();
        // All orphans still present.
        for c in t.children_of(leaver) {
            assert!(rebuilt.contains(c), "orphan lost");
        }
        let _ = orphans;
    }

    #[test]
    #[should_panic(expected = "root cannot leave")]
    fn root_cannot_leave() {
        let net = net();
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let members = session(&net, 10, 3);
        let p = Problem::new(members[0], members.clone(), &net.latency, dbound);
        let t = amcast(&p);
        let _ = remove_member(&p, &t, t.root());
    }

    #[test]
    fn pruning_reclaims_helpers_after_members_leave() {
        let net = net();
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let members = session(&net, 25, 4);
        let p = Problem::new(members[0], members.clone(), &net.latency, dbound);
        let pool = HelperPool::new(net.hosts.ids().collect());
        let mut t = critical(&p, &pool);
        let helpers_before = helpers_used(&t, &members).len();
        if helpers_before == 0 {
            return; // nothing to prune on this seed; other seeds cover it
        }
        // Remove every member that sits under a helper, then prune.
        let helper_set = helpers_used(&t, &members);
        let mut under_helpers: Vec<HostId> = members
            .iter()
            .copied()
            .filter(|&m| {
                m != t.root() && t.parent_of(m).map(|pp| helper_set.contains(&pp)) == Some(true)
            })
            .collect();
        // Leaves first so removals stay simple.
        under_helpers.sort_by_key(|&m| std::cmp::Reverse((t.height_of(m) * 1000.0) as u64));
        for m in under_helpers {
            t = remove_member(&p, &t, m).unwrap();
        }
        let pruned = prune_idle_helpers(&p, &mut t, &members);
        t.validate(&net.latency, dbound).unwrap();
        assert!(
            !pruned.is_empty(),
            "expected at least one idle helper to be reclaimed"
        );
        for h in &pruned {
            assert!(!t.contains(*h));
        }
    }

    #[test]
    fn crash_repair_reattaches_all_survivors() {
        let net = net();
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let members = session(&net, 40, 7);
        let p = Problem::new(members[0], members.clone(), &net.latency, dbound);
        let t = amcast(&p);
        // Crash three non-root members at once.
        let dead: Vec<HostId> = members
            .iter()
            .copied()
            .filter(|&m| m != t.root())
            .take(3)
            .collect();
        let (repaired, report) = reattach_orphans(&p, &t, &dead, &ReattachConfig::default());
        assert_eq!(report.gave_up, 0, "orphans gave up: {report:?}");
        repaired.validate(&net.latency, dbound).unwrap();
        for m in &members {
            if dead.contains(m) {
                assert!(!repaired.contains(*m), "dead host still in tree");
            } else {
                assert!(repaired.contains(*m), "survivor lost in repair");
            }
        }
    }

    #[test]
    fn orphaned_subtree_roots_are_the_live_children_of_the_dead() {
        let net = net();
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let members = session(&net, 40, 7);
        let p = Problem::new(members[0], members.clone(), &net.latency, dbound);
        let t = amcast(&p);
        let dead: Vec<HostId> = members
            .iter()
            .copied()
            .filter(|&m| m != t.root())
            .take(3)
            .collect();
        let mut expected: Vec<HostId> = dead
            .iter()
            .flat_map(|&d| t.children_of(d))
            .filter(|c| !dead.contains(c))
            .collect();
        expected.sort_unstable();
        expected.dedup();
        let mut got = orphaned_subtree_roots(&t, &dead);
        got.sort_unstable();
        assert_eq!(got, expected);
        // Consistency with the repair itself: it re-attaches exactly the
        // orphan roots that do not give up.
        let (_, report) = reattach_orphans(&p, &t, &dead, &ReattachConfig::default());
        assert_eq!(report.reattached + report.gave_up, got.len());
    }

    struct Table;
    impl LatencyModel for Table {
        fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
            let (a, b) = (a.0.min(b.0), a.0.max(b.0));
            match (a, b) {
                _ if a == b => 0.0,
                (1, 2) => 1.0, // the dead host is the orphan's closest pick
                (2, 3) => 2.0,
                (0, 2) => 3.0,
                _ => 10.0,
            }
        }
        fn num_hosts(&self) -> usize {
            4
        }
    }

    fn chain_tree() -> MulticastTree {
        // 0 → 1 → 2, plus 3 under 0.
        let mut t = MulticastTree::new(HostId(0));
        t.attach(HostId(1), HostId(0), Table.latency_ms(HostId(0), HostId(1)));
        t.attach(HostId(2), HostId(1), Table.latency_ms(HostId(1), HostId(2)));
        t.attach(HostId(3), HostId(0), Table.latency_ms(HostId(0), HostId(3)));
        t
    }

    #[test]
    fn crash_repair_retries_past_a_dead_first_choice() {
        // Orphan 2's stale view ranks the dead host 1 first: the first
        // attempt must fail, back off, and the second succeed.
        let dbound = |_h: HostId| 4u32;
        let members: Vec<HostId> = (0..4).map(HostId).collect();
        let p = Problem::new(HostId(0), members, &Table, dbound);
        let t = chain_tree();
        let cfg = ReattachConfig::default();
        let (repaired, report) = reattach_orphans(&p, &t, &[HostId(1)], &cfg);
        assert_eq!(report.reattached, 1);
        assert_eq!(report.retries, 1, "dead first choice must cost a retry");
        assert_eq!(report.gave_up, 0);
        assert_eq!(report.duration, cfg.backoff, "one backoff step expected");
        assert_eq!(repaired.parent_of(HostId(2)), Some(HostId(3)));
        repaired.validate(&Table, dbound).unwrap();
    }

    #[test]
    fn crash_repair_gives_up_when_attempts_run_out() {
        let dbound = |_h: HostId| 4u32;
        let members: Vec<HostId> = (0..4).map(HostId).collect();
        let p = Problem::new(HostId(0), members, &Table, dbound);
        let t = chain_tree();
        let cfg = ReattachConfig {
            max_attempts: 1,
            ..ReattachConfig::default()
        };
        let (repaired, report) = reattach_orphans(&p, &t, &[HostId(1)], &cfg);
        assert_eq!(report.gave_up, 1, "one attempt hits the dead host only");
        assert_eq!(report.reattached, 0);
        assert!(!repaired.contains(HostId(2)));
        repaired.validate(&Table, dbound).unwrap();
    }

    #[test]
    fn repeated_churn_preserves_validity() {
        let net = net();
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let members = session(&net, 20, 5);
        let p = Problem::new(members[0], members.clone(), &net.latency, dbound);
        let mut t = amcast(&p);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut present: Vec<HostId> = members.clone();
        let mut fresh: Vec<HostId> = net.hosts.ids().filter(|h| !members.contains(h)).collect();
        for _step in 0..40 {
            use rand::Rng;
            if rng.random::<bool>() || present.len() <= 3 {
                // join a fresh host
                let h = fresh.pop().expect("enough fresh hosts");
                if add_member(&p, &mut t, h).is_ok() {
                    present.push(h);
                }
            } else {
                let idx = rng.random_range(1..present.len());
                let leaver = present[idx];
                if leaver != t.root() {
                    t = remove_member(&p, &t, leaver).unwrap();
                    present.swap_remove(idx);
                }
            }
            t.validate(&net.latency, dbound).unwrap();
        }
    }
}
