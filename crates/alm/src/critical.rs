//! The critical-node algorithm (the dashed box in Figure 6).
//!
//! "Critical" is the last opportunity to improve on the greedy baseline for
//! a given node: the moment the chosen parent's free degree drops to one.
//! Instead of letting member `u` consume that final slot, the task manager
//! looks into the resource pool for a *helper* `h` and splices it in —
//! `h` becomes the child of the saturated parent, and `u` (and, later,
//! its would-be siblings) attach under `h`, whose degree is fresh.
//!
//! Helper selection (§5.2), given parent `p` and the pending members `v`
//! whose best parent is `p`:
//!
//! ```text
//! minimize  l(h, p) + max_v l(h, v)      (condition 1, MinMaxSibling)
//! subject to d_bound(h) ≥ 4              (condition 2)
//!            l(h, p) < R                 (condition 3)
//! ```
//!
//! The simpler variant the paper also tried ([`HelperStrategy::Closest`])
//! just minimizes `l(h, p)` under the same constraints. The radius R keeps
//! out "junk" nodes — far-away hosts whose big degree would come at the
//! price of long edges; for the paper's topology R ∈ [50, 150] ms works
//! best (their link latencies make 50–150 exclude other stub domains).

use std::collections::HashSet;

use netsim::{HostId, LatencyModel};

use crate::amcast::{greedy_engine_reference, try_greedy_engine, HelperFinder};
use crate::problem::Problem;
use crate::tree::MulticastTree;

/// How to score helper candidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HelperStrategy {
    /// Minimize `l(h, parent)` alone.
    Closest,
    /// Minimize `l(h, parent) + max_v l(h, v)` over the likely future
    /// children `v` — the paper's better heuristic.
    MinMaxSibling,
}

/// The pool of candidate helper nodes visible to one planning run.
///
/// Candidates are typically the SOMO-reported idle hosts, minus the
/// session's own members (enforced at planning time).
#[derive(Clone, Debug)]
pub struct HelperPool {
    candidates: Vec<HostId>,
    /// Condition 2: minimum degree bound a helper must offer.
    pub min_degree: u32,
    /// Condition 3: helpers must lie within this radius of the saturated
    /// parent, ms.
    pub radius_ms: f64,
    /// Scoring strategy.
    pub strategy: HelperStrategy,
}

impl HelperPool {
    /// A pool with the paper's default constraints (degree ≥ 4, R = 100 ms,
    /// min-max sibling scoring).
    pub fn new(candidates: Vec<HostId>) -> HelperPool {
        HelperPool {
            candidates,
            min_degree: 4,
            radius_ms: 100.0,
            strategy: HelperStrategy::MinMaxSibling,
        }
    }

    /// Replace the candidate list (constraints are kept).
    pub fn set_candidates(&mut self, candidates: Vec<HostId>) {
        self.candidates = candidates;
    }
}

struct PoolFinder<'a, D: Fn(HostId) -> u32> {
    pool: &'a HelperPool,
    dbound: &'a D,
    members: HashSet<HostId>,
    taken: HashSet<HostId>,
}

impl<'a, L: LatencyModel, D: Fn(HostId) -> u32> HelperFinder<L> for PoolFinder<'a, D> {
    fn find(
        &mut self,
        tree: &MulticastTree,
        parent: HostId,
        _u: HostId,
        siblings: &[HostId],
        latency: &L,
    ) -> Option<HostId> {
        let mut best: Option<(f64, HostId)> = None;
        for &h in &self.pool.candidates {
            if self.members.contains(&h)
                || self.taken.contains(&h)
                || tree.contains(h)
                || (self.dbound)(h) < self.pool.min_degree
            {
                continue;
            }
            let to_parent = latency.latency_ms(h, parent);
            if to_parent >= self.pool.radius_ms {
                continue;
            }
            let score = match self.pool.strategy {
                HelperStrategy::Closest => to_parent,
                HelperStrategy::MinMaxSibling => {
                    let worst_child = siblings
                        .iter()
                        .map(|&v| latency.latency_ms(h, v))
                        .fold(0.0, f64::max);
                    to_parent + worst_child
                }
            };
            if best.is_none_or(|(bs, bh)| score < bs || (score == bs && h < bh)) {
                best = Some((score, h));
            }
        }
        let h = best.map(|(_, h)| h)?;
        self.taken.insert(h);
        Some(h)
    }
}

/// Run the critical-node algorithm: AMCast's greedy loop with helper
/// recruitment from `pool`. The returned tree spans all members plus any
/// recruited helpers.
///
/// # Panics
/// If the degree bounds cannot host a spanning tree; [`try_critical`]
/// returns `None` instead.
pub fn critical<L: LatencyModel, D: Fn(HostId) -> u32>(
    p: &Problem<L, D>,
    pool: &HelperPool,
) -> MulticastTree {
    try_critical(p, pool).expect("tree out of capacity for remaining members")
}

/// [`critical`], but returns `None` instead of panicking when the residual
/// capacity cannot host a spanning tree — the multipath planner's entry
/// point for standby trees (see [`crate::amcast::try_amcast`]).
pub fn try_critical<L: LatencyModel, D: Fn(HostId) -> u32>(
    p: &Problem<L, D>,
    pool: &HelperPool,
) -> Option<MulticastTree> {
    let mut finder = PoolFinder {
        pool,
        dbound: &p.dbound,
        members: p.members.iter().copied().collect(),
        taken: HashSet::new(),
    };
    try_greedy_engine(p, &mut finder)
}

/// [`critical`] driven by the retained reference engine: same helper
/// recruitment, naive O(N³) greedy loop. Produces trees bit-identical to
/// [`critical`]; exists for the equivalence proptests.
pub fn critical_reference<L: LatencyModel, D: Fn(HostId) -> u32>(
    p: &Problem<L, D>,
    pool: &HelperPool,
) -> MulticastTree {
    let mut finder = PoolFinder {
        pool,
        dbound: &p.dbound,
        members: p.members.iter().copied().collect(),
        taken: HashSet::new(),
    };
    greedy_engine_reference(p, &mut finder)
}

/// The helpers a planning run actually recruited: tree nodes outside the
/// member set.
pub fn helpers_used(tree: &MulticastTree, members: &[HostId]) -> Vec<HostId> {
    let members: HashSet<HostId> = members.iter().copied().collect();
    tree.hosts()
        .iter()
        .copied()
        .filter(|h| !members.contains(h))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amcast::amcast;
    use crate::problem::improvement;
    use netsim::{Network, NetworkConfig};

    fn net(n: usize, seed: u64) -> Network {
        Network::generate(
            &NetworkConfig {
                num_hosts: n,
                ..NetworkConfig::default()
            },
            seed,
        )
    }

    fn session(net: &Network, size: usize, seed: u64) -> Vec<HostId> {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut all: Vec<u32> = (0..net.num_hosts() as u32).collect();
        all.shuffle(&mut rng);
        all[..size].iter().copied().map(HostId).collect()
    }

    #[test]
    fn critical_tree_is_valid_and_spans_members() {
        let net = net(600, 4);
        let members = session(&net, 40, 1);
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let p = Problem::new(members[0], members.clone(), &net.latency, dbound);
        let pool = HelperPool::new(net.hosts.ids().collect());
        let t = critical(&p, &pool);
        t.validate(&net.latency, dbound).unwrap();
        for &m in &p.members {
            assert!(t.contains(m), "member missing from tree");
        }
        // Helpers respect the min-degree condition.
        for h in helpers_used(&t, &p.members) {
            assert!(net.hosts.degree_bound(h) >= 4);
        }
    }

    #[test]
    fn helpers_lower_average_height() {
        // The paper's Figure 8 effect: averaged over sessions, critical
        // beats plain AMCast for small/medium groups.
        let net = net(600, 5);
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let pool = HelperPool::new(net.hosts.ids().collect());
        let mut total_impr = 0.0;
        let runs = 8;
        for s in 0..runs {
            let members = session(&net, 20, 100 + s);
            let p = Problem::new(members[0], members, &net.latency, dbound);
            let base = amcast(&p).max_height();
            let crit = critical(&p, &pool).max_height();
            total_impr += improvement(base, crit);
        }
        let avg = total_impr / runs as f64;
        assert!(
            avg > 0.05,
            "critical should improve on AMCast by >5% on average, got {avg}"
        );
    }

    #[test]
    fn empty_pool_degenerates_to_amcast() {
        let net = net(300, 6);
        let members = session(&net, 25, 2);
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let p = Problem::new(members[0], members, &net.latency, dbound);
        let pool = HelperPool::new(vec![]);
        let a = amcast(&p);
        let c = critical(&p, &pool);
        assert_eq!(a.max_height(), c.max_height());
        assert!(helpers_used(&c, &p.members).is_empty());
    }

    #[test]
    fn members_are_never_recruited_as_helpers() {
        let net = net(300, 7);
        let members = session(&net, 30, 3);
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let p = Problem::new(members[0], members.clone(), &net.latency, dbound);
        // Pool deliberately includes the members.
        let pool = HelperPool::new(net.hosts.ids().collect());
        let t = critical(&p, &pool);
        let helpers = helpers_used(&t, &p.members);
        for h in &helpers {
            assert!(!p.members.contains(h));
        }
        assert_eq!(t.len(), p.members.len() + helpers.len());
    }

    #[test]
    fn radius_zero_blocks_all_helpers() {
        let net = net(300, 8);
        let members = session(&net, 25, 4);
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let p = Problem::new(members[0], members, &net.latency, dbound);
        let mut pool = HelperPool::new(net.hosts.ids().collect());
        pool.radius_ms = 0.0;
        let t = critical(&p, &pool);
        assert!(helpers_used(&t, &p.members).is_empty());
    }

    #[test]
    fn closest_strategy_also_valid() {
        let net = net(300, 9);
        let members = session(&net, 25, 5);
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let p = Problem::new(members[0], members, &net.latency, dbound);
        let mut pool = HelperPool::new(net.hosts.ids().collect());
        pool.strategy = HelperStrategy::Closest;
        let t = critical(&p, &pool);
        t.validate(&net.latency, dbound).unwrap();
    }
}
