//! Scoped helper discovery and standing queries over the aggregate index.
//!
//! A task manager does not need the whole pool — it needs "the best k idle
//! hosts I can reach", and it wants to hear *when that answer changes*
//! rather than re-scanning every cycle. This example walks both halves of
//! `crates/query` on a live resource pool:
//!
//! 1. top-k discovery: descend the SOMO tree from the session's nearest
//!    ancestor, pruning subtrees whose cached aggregates cannot qualify,
//!    and plan a session from the answer;
//! 2. a threshold subscription: an alarm that fires only when the count of
//!    idle hosts near the session crosses a threshold — silence is free.
//!
//! Run with: `cargo run --release --example query`

use p2p_resource_pool::prelude::*;

fn main() {
    let seed = 77;
    let pool_cfg = PoolConfig {
        net: NetworkConfig {
            num_hosts: 300,
            ..NetworkConfig::default()
        },
        coord_rounds: 5,
        ..PoolConfig::default()
    };
    println!("building a 300-host pool...");
    let mut pool = ResourcePool::build(&pool_cfg, seed);

    // One gather round seeds the index; from here each period costs one
    // constant-size aggregate per inter-host tree edge.
    let t0 = SimTime::from_secs(10);
    let mut index = pool.build_query_index(SimTime::from_secs(60), t0);
    println!(
        "index built: staleness bound {:?} (gather period 60s over {} hosts)\n",
        index.freshness_bound(),
        pool.num_hosts()
    );

    // --- Part 1: top-k discovery -----------------------------------------
    let members = pool.sample_members(12, 3);
    let root = members[0];
    let now = t0 + SimTime::from_secs(5);

    let scope = index
        .member_of(root)
        .map(|m| Scope::Nearest { member: m as u32 })
        .unwrap_or(Scope::Global);
    let ans = index.top_k(8, 3, 4, &members, scope);
    println!("top-8 idle helpers near the session root (rank 3, ≥4 degrees):");
    for s in &ans.hosts {
        println!(
            "  host {:>4}  free {:?}  pos [{:>6.1}, {:>6.1}]",
            s.host.0, s.free, s.pos[0], s.pos[1]
        );
    }
    println!(
        "answer cost: {} messages / {} bytes, {} subtrees pruned; staleness {:?} ≤ bound {:?}\n",
        ans.stats.messages,
        ans.stats.bytes,
        ans.stats.subtrees_pruned,
        ans.freshness.staleness(now),
        ans.freshness.bound,
    );

    // Plan straight from the index — no pool-wide snapshot anywhere.
    let spec = SessionSpec {
        id: SessionId(1),
        priority: 2,
        root,
        members,
    };
    let cfg = PlanConfig::default();
    let shape = PlanShape::priority(spec.priority, cfg.k_trees);
    let source = Candidates::Query(&mut index);
    let out = plan_and_reserve_with(&mut pool, &spec, &cfg, source, shape, None);
    println!(
        "planned session: {} helpers recruited, {:.1}% height improvement over members-only\n",
        out.helpers.len(),
        out.improvement * 100.0
    );

    // --- Part 2: a standing threshold query ------------------------------
    let center = pool.host_sample(root, now).expect("root is alive").pos;
    let mut subs = SubscriptionSet::new();
    let baseline = index.range(center, 150.0, 3, 4).hosts.len() as u64;
    let threshold = baseline / 2;
    let sub = subs.subscribe(
        index.member_of(root).unwrap_or(0) as u32,
        center,
        150.0,
        3,
        4,
        threshold,
    );
    println!(
        "subscription {sub}: alarm if idle hosts within 150ms of the root drop below {threshold} (now: {baseline})"
    );
    let deltas = subs.evaluate(&mut index, now);
    println!(
        "first evaluation: {} deltas (healthy pool starts silent)",
        deltas.len()
    );

    // A failure wave knocks out half the neighbourhood...
    let victims: Vec<HostId> = index
        .range(center, 150.0, 3, 4)
        .hosts
        .iter()
        .map(|s| s.host)
        .take((baseline as usize).div_ceil(2) + 1)
        .collect();
    for &v in &victims {
        pool.kill_host(v);
    }
    let t1 = t0 + SimTime::from_secs(60);
    pool.refresh_query_index(&mut index, t1);
    for d in subs.evaluate(&mut index, t1) {
        println!(
            "  [{:?}] subscription {} fired: count {} {} threshold {threshold}",
            d.at,
            d.sub,
            d.count,
            if d.below {
                "dropped below"
            } else {
                "recovered to ≥"
            },
        );
    }

    // ...and the all-clear fires exactly once when they come back.
    for &v in &victims {
        pool.revive_host(v);
    }
    let t2 = t1 + SimTime::from_secs(60);
    pool.refresh_query_index(&mut index, t2);
    for d in subs.evaluate(&mut index, t2) {
        println!(
            "  [{:?}] subscription {} fired: count {} {} threshold {threshold}",
            d.at,
            d.sub,
            d.count,
            if d.below {
                "dropped below"
            } else {
                "recovered to ≥"
            },
        );
    }
    println!(
        "\ndelta dissemination cost so far: {} bytes (piggybacked on the newscast)",
        subs.traffic().bytes
    );
}
