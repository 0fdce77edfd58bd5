//! The tiered latency oracle wired through the whole stack: source
//! selection on [`PoolConfig`], planning through the task manager,
//! per-tier accounting, and `LatencySource::Exact` behaving exactly like
//! the historical dense-matrix planner on the factored kernel. The tiered
//! markets' replay, tier counters and trace events are pinned in
//! `tests/determinism.rs`.

use p2p_resource_pool::prelude::*;
use pool::PlanOutcome;

/// A 300-host pool, built once per test binary and cloned.
fn build(source: LatencySource, seed: u64) -> ResourcePool {
    bench::cells::pool(
        &PoolConfig {
            net: NetworkConfig {
                num_hosts: 300,
                ..NetworkConfig::default()
            },
            coord_rounds: 4,
            latency_source: source,
            ..PoolConfig::default()
        },
        seed,
    )
}

fn tiered() -> LatencySource {
    LatencySource::Tiered(TieredConfig::default())
}

fn plan(pool: &mut ResourcePool) -> PlanOutcome {
    let members = pool.sample_members(14, 9);
    let spec = SessionSpec {
        id: SessionId(1),
        priority: 2,
        root: members[0],
        members,
    };
    plan_and_reserve(
        pool,
        &spec,
        &PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        },
    )
}

/// Routers with at least one host attached, ascending: the kernel's slots.
fn attached_routers(pool: &ResourcePool) -> Vec<u32> {
    let mut routers: Vec<u32> = pool.net.hosts.iter().map(|(_, h)| h.router.0).collect();
    routers.sort_unstable();
    routers.dedup();
    routers
}

/// The exact kernel reports its real bytes, `A(A+1)/2·4 + N·16 + A·4` for
/// `A` host-attached routers: each router distance once, a 16-byte entry
/// per host, a router id per slot. With `A ≤ N` that is at most
/// `2N² + 22N` bytes, so from N = 11 up it never exceeds the `N²·4` pair
/// table it replaced (this pool: 300 hosts on 237 routers, 118 560 B
/// against 360 000 B), and at any N the triangle stays at or below
/// 0.66 MB on the paper's underlay (576 stub routers).
#[test]
fn exact_source_reports_no_tier_stats_and_factored_footprint() {
    let pool = build(LatencySource::Exact, 42);
    assert!(pool.oracle_stats().is_none());
    let attached = attached_routers(&pool);
    let (n, a) = (pool.num_hosts(), attached.len());
    assert_eq!(
        pool.oracle_resident_bytes(),
        a * (a + 1) / 2 * 4 + n * 16 + a * 4
    );
    // The kernel's router rows are the router graph's on every attached
    // column: the default underlay's integral distances are the same from
    // either end.
    let graph = &pool.net.routers.graph;
    for (id, h) in pool.net.hosts.iter() {
        let (row, reference) = (pool.net.latency.router_row(id), graph.dijkstra(h.router.0));
        for &r in &attached {
            assert_eq!(row[r as usize].to_bits(), reference[r as usize].to_bits());
        }
    }
}

/// The kernel's footprint is linear in N: 4096 hosts — the size whose
/// pair table cost `recovery_churn` 2 × 67 MB — stay under 2 MB.
#[test]
fn network_kernel_at_4096_hosts_stays_under_2mb() {
    let net = Network::generate(
        &NetworkConfig {
            num_hosts: 4096,
            ..NetworkConfig::default()
        },
        7,
    );
    let bytes = net.latency.resident_bytes();
    assert!(bytes < 2_000_000, "kernel is {bytes} B at N = 4096");
}

#[test]
fn tiered_source_answers_planner_from_tiers_under_dense_footprint() {
    let mut pool = build(tiered(), 42);
    let out = plan(&mut pool);
    assert!(out.oracle_height.is_finite() && out.oracle_height > 0.0);
    let stats = pool.oracle_stats().expect("tiered pool exposes stats");
    assert!(stats.total() > 0, "planner never consulted the oracle");
    assert!(stats.promotions > 0, "planner touch promoted no rows");
    let n = pool.num_hosts();
    assert!(
        pool.oracle_resident_bytes() < n * n * 4,
        "tiered oracle is not smaller than the dense matrix"
    );
}

/// The promotion policy makes small sessions exact: members and candidate
/// helpers are promoted before any lookup, a 300-host pool's router
/// spread fits the 128-row default hot tier, and quality is evaluated
/// under the exact matrix either way — so the tiered plan must be
/// *bit-identical* to the Exact-source plan, not merely close.
#[test]
fn tiered_plan_is_bit_identical_to_exact_plan_when_hot_tier_covers() {
    let mut exact = build(LatencySource::Exact, 42);
    let mut tier = build(tiered(), 42);
    let a = plan(&mut exact);
    let b = plan(&mut tier);
    assert_eq!(a.tree.hosts(), b.tree.hosts());
    for &h in a.tree.hosts() {
        assert_eq!(a.tree.parent_of(h), b.tree.parent_of(h));
        assert_eq!(a.tree.height_of(h).to_bits(), b.tree.height_of(h).to_bits());
    }
    assert_eq!(a.helpers, b.helpers);
    assert_eq!(a.oracle_height.to_bits(), b.oracle_height.to_bits());
    // All answers came from the exact hot tier (or the same-router
    // shortcut), none from estimates.
    let stats = tier.oracle_stats().unwrap();
    assert_eq!(
        stats.sketch + stats.base,
        0,
        "estimate tiers leaked into a covered session"
    );
}

/// A plan promotes its candidates first and its members last, in one
/// batch, so the members' rows are the newest the hot tier holds: even
/// when the candidates span more routers than the tier has rows, every
/// pair with a member at one end answers exactly from what the plan's own
/// promotion left resident — no answer falls through to an estimate.
#[test]
fn plan_promotion_keeps_every_member_row_hot() {
    const HOT_ROWS: usize = 16;
    let mut pool = build(
        LatencySource::Tiered(TieredConfig {
            hot_rows: HOT_ROWS,
            ..TieredConfig::default()
        }),
        42,
    );
    let members = pool.sample_members(14, 9);
    let candidates = pool.candidates(
        Rank::helper(2),
        &members,
        PlanConfig::default().helper_min_degree,
    );
    let routers_of = |hosts: &[HostId]| {
        let mut rs: Vec<u32> = hosts
            .iter()
            .map(|&h| pool.net.hosts.get(h).router.0)
            .collect();
        rs.sort_unstable();
        rs.dedup();
        rs.len()
    };
    assert!(routers_of(&members) <= HOT_ROWS);
    assert!(
        routers_of(&candidates) > HOT_ROWS,
        "the candidates must overflow the hot tier"
    );
    plan(&mut pool);
    let before = pool.oracle_stats().unwrap();
    let oracle = pool.planning_oracle();
    let mut lookups = 0;
    for &m in &members {
        for &x in members.iter().chain(&candidates) {
            if m != x {
                oracle.latency_ms(m, x);
                lookups += 1;
            }
        }
    }
    let after = pool.oracle_stats().unwrap();
    assert_eq!(after.hot - before.hot, lookups);
    assert_eq!(
        (after.sketch - before.sketch, after.base - before.base),
        (0, 0),
        "a member pair fell through to an estimate tier"
    );
}

/// The fair-share planner is the priority planner with another shape: with
/// an open fair shape — no budget, no clamp, nothing excluded — a fair plan
/// books at the fair rank, which is the priority-3 helper rank, so it must
/// plan the priority-3 tree and do the same oracle work, lookup for lookup.
#[test]
fn fair_plan_with_open_caps_is_the_rank_3_priority_plan() {
    let base = build(tiered(), 31);
    let members = base.sample_members(14, 9);
    let spec = SessionSpec {
        id: SessionId(1),
        priority: 3,
        root: members[0],
        members,
    };
    for model in [PlanModel::Oracle, PlanModel::Coords] {
        let cfg = PlanConfig {
            model,
            ..PlanConfig::default()
        };
        let (mut priority, mut fair) = (base.clone(), base.clone());
        let a = plan_and_reserve(&mut priority, &spec, &cfg);
        let live = pool::Candidates::Live(None);
        let open = pool::PlanShape::fair(u64::MAX, None);
        let b = pool::plan_and_reserve_with(&mut fair, &spec, &cfg, live, open, None);
        let height = |p: &PlanOutcome| p.oracle_height.to_bits();
        assert_eq!(a.tree.hosts(), b.tree.hosts(), "{model:?}");
        assert_eq!(height(&a), height(&b), "{model:?}");
        assert_eq!(priority.oracle_stats(), fair.oracle_stats(), "{model:?}");
    }
}
