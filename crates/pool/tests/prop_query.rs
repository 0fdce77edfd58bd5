//! Property tests for the query-backed discovery surface: over a
//! fault-free pool, a global top-k answer must be *exactly* the
//! brute-force scan — same hosts, same order — because the aggregate
//! cache only ever prunes subtrees it can prove irrelevant.

use std::sync::OnceLock;

use netsim::{HostId, NetworkConfig};
use pool::task_manager::plan_and_reserve;
use pool::{PlanConfig, PlanModel, PoolConfig, ResourcePool, SessionId, SessionSpec};
use proptest::prelude::*;
use simcore::SimTime;

fn pristine() -> &'static ResourcePool {
    static POOL: OnceLock<ResourcePool> = OnceLock::new();
    POOL.get_or_init(|| {
        ResourcePool::build(
            &PoolConfig {
                net: NetworkConfig {
                    num_hosts: 150,
                    ..NetworkConfig::default()
                },
                coord_rounds: 3,
                ..PoolConfig::default()
            },
            1234,
        )
    })
}

/// The reference answer: scan every live host's sample, filter, sort by
/// the shared stable key (free at rank desc, host id asc), truncate.
fn brute_force(
    pool: &ResourcePool,
    now: SimTime,
    k: usize,
    rank: usize,
    min_free: u32,
    exclude: &[HostId],
) -> Vec<(HostId, u32)> {
    let mut out: Vec<(HostId, u32)> = pool
        .net
        .hosts
        .ids()
        .filter(|h| !exclude.contains(h))
        .filter_map(|h| pool.host_sample(h, now))
        .filter(|s| s.free[rank] >= min_free)
        .map(|s| (s.host, s.free[rank]))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out.truncate(k);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn top_k_matches_brute_force_scan(
        plans in proptest::collection::vec((0usize..4, 1u8..4), 0..5),
        k in 1usize..40,
        rank in 0usize..4,
        min_free in 1u32..4,
    ) {
        let mut pool = pristine().clone();
        let sets = pool.partition_members(4, 12, 7);
        let cfg = PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        // Load the pool with an arbitrary mix of sessions so free degrees
        // vary across hosts and ranks.
        for &(slot, priority) in &plans {
            let spec = SessionSpec {
                id: SessionId(slot as u32),
                priority,
                root: sets[slot][0],
                members: sets[slot].clone(),
            };
            plan_and_reserve(&mut pool, &spec, &cfg);
        }
        let now = SimTime::from_secs(100);
        let mut index = pool.build_query_index(SimTime::from_secs(60), now);
        let exclude = &sets[0][..4];

        let ans = index.top_k(k, rank, min_free, exclude, query::Scope::Global);
        let got: Vec<(HostId, u32)> = ans
            .hosts
            .iter()
            .map(|s| (s.host, s.free[rank]))
            .collect();
        let want = brute_force(&pool, now, k, rank, min_free, exclude);
        prop_assert_eq!(got, want, "top-k diverged from brute force");

        // The answer's freshness promise holds: every returned sample was
        // taken within the index's a-priori staleness bound.
        prop_assert!(ans.freshness.staleness(now) <= ans.freshness.bound);

        // `PlanConfig::query_k = 0` is a config someone can write: it asks
        // for nothing, so it gets the scan's (empty) answer and no bill.
        let billed = index.query_traffic();
        let none = index.top_k(0, rank, min_free, exclude, query::Scope::Global);
        let got: Vec<(HostId, u32)> = none.hosts.iter().map(|s| (s.host, s.free[rank])).collect();
        prop_assert_eq!(got, brute_force(&pool, now, 0, rank, min_free, exclude));
        prop_assert_eq!(none.stats, query::QueryStats::default());
        prop_assert_eq!(index.query_traffic(), billed);
    }

    #[test]
    fn nearest_scope_is_a_subset_of_global(
        k in 1usize..20,
        min_free in 1u32..4,
        member in 0u32..150,
    ) {
        let pool = pristine().clone();
        let now = SimTime::from_secs(10);
        let mut index = pool.build_query_index(SimTime::from_secs(60), now);
        let near = index.top_k(k, 3, min_free, &[], query::Scope::Nearest { member });
        let global = index.top_k(usize::MAX, 3, min_free, &[], query::Scope::Global);
        let all: Vec<HostId> = global.hosts.iter().map(|s| s.host).collect();
        for s in &near.hosts {
            prop_assert!(
                all.contains(&s.host),
                "nearest-scope answer returned a host the global scan rejects"
            );
        }
        // A scoped descent never costs more wire than the global one plus
        // the ascent to its scope node.
        prop_assert!(near.hosts.len() <= k);
    }
}
