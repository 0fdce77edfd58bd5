//! Property tests over the whole planning pipeline: for arbitrary member
//! sets, degree configurations and latency structures, every algorithm must
//! produce a valid spanning tree — and the algebra between them must hold.

use alm::{
    adjust, amcast, critical, improvement_upper_bound, try_critical, try_staged_plan, HelperPool,
    HelperStrategy, Problem,
};
use netsim::{HostId, LatencyModel};
use proptest::prelude::*;

/// A deterministic synthetic latency model: hosts sit on a circle of
/// `clusters` clusters; intra-cluster pairs are near, inter-cluster pairs
/// pay a cluster-distance penalty. Cheap, metric, and structured enough to
/// exercise the greedy paths.
#[derive(Clone, Debug)]
struct ClusterLatency {
    n: usize,
    clusters: usize,
    near_ms: f64,
    far_ms: f64,
}

impl LatencyModel for ClusterLatency {
    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        if a == b {
            return 0.0;
        }
        let ca = a.idx() % self.clusters;
        let cb = b.idx() % self.clusters;
        if ca == cb {
            self.near_ms + (a.idx() / self.clusters + b.idx() / self.clusters) as f64 * 0.1
        } else {
            let d = (ca as i64 - cb as i64).unsigned_abs() as f64;
            self.far_ms * d.min(self.clusters as f64 - d)
        }
    }
    fn num_hosts(&self) -> usize {
        self.n
    }
}

fn degree_of(seed: u64, h: HostId) -> u32 {
    // Deterministic pseudo-random degree in 2..=9 (the paper's range).
    (simcore::rng::mix64(seed ^ h.0 as u64) % 8) as u32 + 2
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn amcast_always_produces_valid_spanning_tree(
        n_hosts in 10usize..80,
        member_count in 2usize..30,
        clusters in 2usize..8,
        dseed: u64,
    ) {
        let member_count = member_count.min(n_hosts);
        let lat = ClusterLatency { n: n_hosts, clusters, near_ms: 5.0, far_ms: 40.0 };
        let members: Vec<HostId> = (0..member_count as u32).map(HostId).collect();
        let dbound = |h: HostId| degree_of(dseed, h);
        let p = Problem::new(members[0], members.clone(), &lat, dbound);
        let t = amcast(&p);
        prop_assert_eq!(t.len(), member_count);
        for &m in &members {
            prop_assert!(t.contains(m));
        }
        prop_assert!(t.validate(&lat, dbound).is_ok());
    }

    #[test]
    fn adjust_never_hurts_or_invalidates(
        n_hosts in 12usize..60,
        member_count in 3usize..25,
        clusters in 2usize..6,
        dseed: u64,
    ) {
        let member_count = member_count.min(n_hosts);
        let lat = ClusterLatency { n: n_hosts, clusters, near_ms: 5.0, far_ms: 40.0 };
        let members: Vec<HostId> = (0..member_count as u32).map(HostId).collect();
        let dbound = |h: HostId| degree_of(dseed, h);
        let p = Problem::new(members[0], members, &lat, dbound);
        let mut t = amcast(&p);
        let before = t.max_height();
        adjust(&p, &mut t);
        prop_assert!(t.max_height() <= before + 1e-9);
        prop_assert!(t.validate(&lat, dbound).is_ok());
    }

    #[test]
    fn critical_tree_valid_and_helpers_constrained(
        n_hosts in 20usize..80,
        member_count in 3usize..20,
        clusters in 2usize..6,
        dseed: u64,
        radius in 20.0f64..200.0,
    ) {
        let member_count = member_count.min(n_hosts / 2);
        let lat = ClusterLatency { n: n_hosts, clusters, near_ms: 5.0, far_ms: 40.0 };
        let members: Vec<HostId> = (0..member_count as u32).map(HostId).collect();
        let dbound = |h: HostId| degree_of(dseed, h);
        let p = Problem::new(members[0], members.clone(), &lat, dbound);
        let mut pool = HelperPool::new((0..n_hosts as u32).map(HostId).collect());
        pool.radius_ms = radius;
        let t = critical(&p, &pool);
        prop_assert!(t.validate(&lat, dbound).is_ok());
        // Every recruited helper satisfies conditions 2 and 3 at its
        // insertion point: degree >= 4, parent within the radius.
        for h in alm::critical::helpers_used(&t, &members) {
            prop_assert!(dbound(h) >= pool.min_degree);
            let parent = t.parent_of(h).expect("helper is not the root");
            prop_assert!(lat.latency_ms(h, parent) < radius);
            // A helper with no children would be pointless: the algorithm
            // always gives it at least the node it displaced.
            prop_assert!(t.child_count(h) >= 1);
        }
    }

    // Candidate order never reaches a tree: the finder scores every
    // candidate and breaks score ties by host id, and the staged loop
    // shortlists from its draft tree. So a shuffled candidate list must
    // plan the same tree under both scoring strategies — which is why a
    // task manager may hand the planner its candidates in any order. A
    // tree's `Debug` renders every field, heights as round-trip floats, so
    // equal renderings are bit-identical trees.
    #[test]
    fn candidate_order_never_reaches_a_tree(
        n_hosts in 20usize..80,
        member_count in 3usize..20,
        clusters in 2usize..6,
        dseed: u64,
        radius in 20.0f64..200.0,
        order_seed: u64,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let member_count = member_count.min(n_hosts / 2);
        let lat = ClusterLatency { n: n_hosts, clusters, near_ms: 5.0, far_ms: 40.0 };
        // The staged loop's estimates: the same hosts on another geometry.
        let est = ClusterLatency { n: n_hosts, clusters: clusters + 1, near_ms: 3.0, far_ms: 25.0 };
        let members: Vec<HostId> = (0..member_count as u32).map(HostId).collect();
        let dbound = |h: HostId| degree_of(dseed, h);
        let p = Problem::new(members[0], members.clone(), &lat, dbound);
        let sorted: Vec<HostId> = (0..n_hosts as u32).map(HostId).collect();
        let mut shuffled = sorted.clone();
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(order_seed));
        for strategy in [HelperStrategy::MinMaxSibling, HelperStrategy::Closest] {
            let pools = [sorted.clone(), shuffled.clone()].map(|c| {
                let mut pool = HelperPool::new(c);
                pool.radius_ms = radius;
                pool.strategy = strategy;
                pool
            });
            let [a, b] = pools.each_ref().map(|pool| format!("{:?}", try_critical(&p, pool)));
            prop_assert_eq!(a, b, "critical, {:?}", strategy);
            let [a, b] = pools.each_ref().map(|pool| {
                let t = try_staged_plan(members[0], &members, &lat, &est, dbound, pool, true);
                format!("{t:?}")
            });
            prop_assert_eq!(a, b, "staged, {:?}", strategy);
        }
    }

    #[test]
    fn improvement_bound_dominates_all_algorithms(
        n_hosts in 20usize..60,
        member_count in 3usize..20,
        dseed: u64,
    ) {
        let member_count = member_count.min(n_hosts / 2);
        let lat = ClusterLatency { n: n_hosts, clusters: 4, near_ms: 5.0, far_ms: 40.0 };
        let members: Vec<HostId> = (0..member_count as u32).map(HostId).collect();
        let dbound = |h: HostId| degree_of(dseed, h);
        let p = Problem::new(members[0], members.clone(), &lat, dbound);
        let base = amcast(&p).max_height();
        let bound = improvement_upper_bound(&p, base);

        let pool = HelperPool::new((0..n_hosts as u32).map(HostId).collect());
        let mut best = critical(&p, &pool);
        adjust(&p, &mut best);
        let imp = alm::improvement(base, best.max_height());
        prop_assert!(
            imp <= bound + 1e-9,
            "algorithm beat the infinite-degree bound: {} > {}", imp, bound
        );
    }

    #[test]
    fn dynamic_churn_keeps_invariants(
        n_hosts in 20usize..60,
        member_count in 4usize..15,
        ops in proptest::collection::vec(any::<bool>(), 1..20),
        dseed: u64,
    ) {
        let member_count = member_count.min(n_hosts / 2);
        let lat = ClusterLatency { n: n_hosts, clusters: 4, near_ms: 5.0, far_ms: 40.0 };
        let members: Vec<HostId> = (0..member_count as u32).map(HostId).collect();
        let dbound = |h: HostId| degree_of(dseed, h);
        let p = Problem::new(members[0], members.clone(), &lat, dbound);
        let mut t = amcast(&p);
        let mut fresh: Vec<HostId> =
            (member_count as u32..n_hosts as u32).map(HostId).collect();
        for join in ops {
            if join {
                if let Some(h) = fresh.pop() {
                    let _ = alm::dynamic::add_member(&p, &mut t, h);
                }
            } else if t.len() > 2 {
                // Remove the most recently attached non-root node.
                let v = *t.hosts().last().unwrap();
                if v != t.root() {
                    if let Ok(rebuilt) = alm::dynamic::remove_member(&p, &t, v) {
                        t = rebuilt;
                    }
                }
            }
            prop_assert!(t.validate(&lat, dbound).is_ok());
        }
    }
}
