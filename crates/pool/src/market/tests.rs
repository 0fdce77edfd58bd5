//! The market's unit tests.

use super::*;
use crate::{PlanModel, PoolConfig, Rank};
use netsim::NetworkConfig;

fn small_market(sessions: usize, seed: u64) -> MarketSim {
    let pool = ResourcePool::build(
        &PoolConfig {
            net: NetworkConfig {
                num_hosts: 300,
                ..NetworkConfig::default()
            },
            coord_rounds: 5,
            ..PoolConfig::default()
        },
        seed,
    );
    let cfg = MarketConfig {
        sessions,
        member_size: 12,
        horizon: SimTime::from_secs(1800),
        warmup: SimTime::from_secs(300),
        plan: PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        },
        ..MarketConfig::default()
    };
    MarketSim::new(pool, cfg, seed)
}

#[test]
fn zero_count_reservation_leaves_no_holdings_entry() {
    // A session shrunk to its root alone re-syncs a degree-0 claim
    // (the degenerate crash-repair tree). It books nothing, so the
    // session holds nothing on the host.
    let mut pool = ResourcePool::build(
        &PoolConfig {
            net: NetworkConfig {
                num_hosts: 8,
                ..NetworkConfig::default()
            },
            coord_rounds: 2,
            ..PoolConfig::default()
        },
        7,
    );
    let s = SessionId(1);
    let h = HostId(0);
    let lease = Some(SimTime::from_secs(300));
    assert!(pool.reserve_leased(h, s, Rank::MEMBER, 0, lease).is_ok());
    assert!(
        pool.tables().holdings_of(s).is_empty(),
        "zero-count reservation created a holdings entry"
    );
    // A real claim is held, and releasing it cleans up fully.
    assert!(pool.reserve_leased(h, s, Rank::MEMBER, 2, lease).is_ok());
    assert_eq!(pool.tables().holdings_of(s), vec![h]);
    pool.release_on_host(s, h);
    assert_eq!(pool.tables().total_used(), 0);
}

#[test]
fn market_runs_and_collects_stats_for_all_classes() {
    let out = small_market(9, 1).run();
    assert!(out.plans > 9);
    for p in 1..=3u8 {
        assert!(
            out.class(p).improvement.count() > 0,
            "no samples for priority {p}"
        );
    }
}

#[test]
fn improvements_stay_within_theoretical_range() {
    let out = small_market(9, 2).run();
    for p in 1..=3u8 {
        let c = out.class(p);
        assert!(
            c.improvement.mean() >= -0.05,
            "class {p} mean below lower bound"
        );
        assert!(
            c.improvement.mean() < 0.6,
            "class {p} mean above any upper bound"
        );
    }
}

#[test]
fn high_priority_holds_at_least_as_many_helpers_under_contention() {
    // With heavy contention (many sessions on a small pool), priority 1
    // must not end up with fewer helpers than priority 3.
    let out = small_market(15, 3).run();
    let h1 = out.class(1).helpers.mean();
    let h3 = out.class(3).helpers.mean();
    assert!(
        h1 + 0.5 >= h3,
        "priority 1 holds {h1} helpers vs priority 3's {h3}"
    );
}

#[test]
fn preemptions_hit_lower_classes_harder() {
    let out = small_market(15, 4).run();
    let p1 = out.class(1).preemptions;
    let p3 = out.class(3).preemptions;
    assert!(
        p3 >= p1,
        "priority 3 preempted {p3} times vs priority 1's {p1}"
    );
}

#[test]
fn somo_view_mode_runs_and_absorbs_staleness() {
    let pool = ResourcePool::build(
        &PoolConfig {
            net: NetworkConfig {
                num_hosts: 300,
                ..NetworkConfig::default()
            },
            coord_rounds: 5,
            ..PoolConfig::default()
        },
        11,
    );
    let cfg = MarketConfig {
        sessions: 12,
        member_size: 12,
        horizon: SimTime::from_secs(1800),
        warmup: SimTime::from_secs(300),
        // Task managers see a snapshot refreshed only every 5 minutes
        // — plenty of room for it to go stale between plans.
        view_refresh: Some(SimTime::from_secs(300)),
        plan: PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        },
        ..MarketConfig::default()
    };
    let out = MarketSim::new(pool, cfg, 13).run();
    assert!(out.plans > 12);
    for p in 1..=3u8 {
        let c = out.class(p);
        assert!(c.improvement.count() > 0);
        // Stale views cost improvement but never break a session.
        assert!(c.improvement.mean() > -0.15, "class {p} collapsed");
    }
    let total_failures: u64 = (1..=3).map(|p| out.class(p).helper_failures).sum();
    // With a 5-minute-old view under churn, at least some helper
    // reservations must have been refused.
    assert!(total_failures > 0, "suspiciously zero stale failures");
}

#[test]
fn query_discovery_mode_runs_and_absorbs_staleness() {
    let pool = ResourcePool::build(
        &PoolConfig {
            net: NetworkConfig {
                num_hosts: 300,
                ..NetworkConfig::default()
            },
            coord_rounds: 5,
            ..PoolConfig::default()
        },
        11,
    );
    let cfg = MarketConfig {
        sessions: 12,
        member_size: 12,
        horizon: SimTime::from_secs(1800),
        warmup: SimTime::from_secs(300),
        // Same 5-minute refresh as the snapshot view, but discovery
        // runs scoped top-k queries against the aggregate index.
        view_refresh: Some(SimTime::from_secs(300)),
        discovery: DiscoveryMode::Query,
        plan: PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        },
        ..MarketConfig::default()
    };
    let out = MarketSim::new(pool, cfg, 13).run();
    assert!(out.plans > 12);
    for p in 1..=3u8 {
        let c = out.class(p);
        assert!(c.improvement.count() > 0);
        assert!(c.improvement.mean() > -0.15, "class {p} collapsed");
    }
    // A stale index is refused exactly like a stale snapshot.
    let total_failures: u64 = (1..=3).map(|p| out.class(p).helper_failures).sum();
    assert!(total_failures > 0, "suspiciously zero stale failures");
    // Both ledgers were exercised: plans descended the tree and the
    // periodic gathers pushed aggregates up it.
    assert!(out.query_traffic.messages > 0, "no query descents charged");
    assert!(
        out.query_maintenance.messages > 0,
        "no gather rounds charged"
    );
}

#[test]
fn deterministic_given_seed() {
    let a = small_market(6, 5).run();
    let b = small_market(6, 5).run();
    assert_eq!(a.plans, b.plans);
    for p in 1..=3u8 {
        assert_eq!(
            a.class(p).improvement.count(),
            b.class(p).improvement.count()
        );
        assert_eq!(a.class(p).improvement.mean(), b.class(p).improvement.mean());
    }
}

fn small_pool(seed: u64) -> ResourcePool {
    ResourcePool::build(
        &PoolConfig {
            net: NetworkConfig {
                num_hosts: 300,
                ..NetworkConfig::default()
            },
            coord_rounds: 5,
            ..PoolConfig::default()
        },
        seed,
    )
}

fn faulty_cfg(sessions: usize) -> MarketConfig {
    MarketConfig {
        sessions,
        member_size: 12,
        horizon: SimTime::from_secs(1800),
        warmup: SimTime::from_secs(300),
        plan: PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        },
        ..MarketConfig::default()
    }
}

/// Crash every fourth host outside the member sets of `sessions`
/// 12-member sessions, from 700 s on: only *helpers* can die — the
/// pure mid-session helper-crash path.
fn helper_crash_plan(pool: &ResourcePool, sessions: usize, seed: u64) -> FaultPlan {
    let members: HashSet<HostId> = pool
        .partition_members(sessions, 12, seed)
        .into_iter()
        .flatten()
        .collect();
    let mut faults = FaultPlan::none();
    for h in pool.net.hosts.ids() {
        if !members.contains(&h) && h.0 % 4 == 0 {
            faults = faults.crash_forever(h.0 as u64, SimTime::from_secs(700 + h.0 as u64));
        }
    }
    faults
}

/// No dead host still carries booked degrees once the dust settles:
/// detection released them or their leases lapsed.
fn assert_no_ghost_claims(pool: &ResourcePool) {
    for h in pool.net.hosts.ids() {
        if !pool.is_alive(h) {
            let booked = pool.table(h).allocations();
            assert!(booked.is_empty(), "ghost claims on dead {h:?}: {booked:?}");
        }
    }
}

#[test]
fn helper_crashes_are_detected_repaired_and_leak_free() {
    let pool = small_pool(21);
    let faults = helper_crash_plan(&pool, 9, 21);
    assert!(
        faults.crashes.len() > 20,
        "fault plan too small to be interesting"
    );
    let cfg = MarketConfig {
        faults,
        ..faulty_cfg(9)
    };
    let (out, pool) = MarketSim::new(pool, cfg, 21).run_full();
    let helper_crashes: u64 = (1..=3).map(|p| out.class(p).helper_crashes).sum();
    assert!(
        helper_crashes > 0,
        "no held helper ever crashed — test workload too thin"
    );
    assert!(out.crash_repairs > 0, "detections never ran the repair");
    assert_eq!(out.failovers(), 0, "no root crashed, yet a failover ran");
    // The contract: nothing stranded at the horizon.
    assert_eq!(
        out.leaked_degrees, 0,
        "inactive sessions still hold degrees"
    );
    assert!(out.audit.is_clean(), "audit: {:?}", out.audit.violations);
    assert!(out.audit.samples > 0);
    assert_no_ghost_claims(&pool);
}

#[test]
fn multipath_sessions_fail_over_and_stay_leak_free() {
    // Same helper-crash workload as above, but every session plans one
    // degree-disjoint standby tree. Broken primaries must be replaced
    // by intact standbys within a detection round, lost trees must be
    // lazily rebuilt, and the books must still balance — including the
    // new cross-tree disjointness invariant sampled all run long.
    let pool = small_pool(21);
    let cfg = MarketConfig {
        faults: helper_crash_plan(&pool, 9, 21),
        plan: PlanConfig {
            model: PlanModel::Oracle,
            k_trees: 2,
            ..PlanConfig::default()
        },
        ..faulty_cfg(9)
    };
    let (out, pool) = MarketSim::new(pool, cfg, 21).run_full();
    assert!(
        out.tree_failovers > 0,
        "no standby tree was ever promoted — workload too thin"
    );
    assert!(out.trees_rebuilt > 0, "no lost tree was ever rebuilt");
    assert!(out.delivery.count() > 0, "delivery was never sampled");
    assert!(
        out.delivery.mean() > 0.9,
        "multipath delivery collapsed: {}",
        out.delivery.mean()
    );
    assert!(out.restore_rounds.count() > 0, "no outage was ever closed");
    assert_eq!(out.leaked_degrees, 0, "sessions leaked degrees");
    assert!(out.audit.is_clean(), "audit: {:?}", out.audit.violations);
    assert!(out.audit.samples > 0);
    assert_no_ghost_claims(&pool);
}

#[test]
fn incremental_resync_handles_crashes_without_full_replans() {
    // Same workload as the helper-crash test above: the repairs must
    // be absorbed by holdings re-syncs, and the books must still
    // balance at the horizon.
    let pool = small_pool(21);
    let cfg = MarketConfig {
        faults: helper_crash_plan(&pool, 9, 21),
        ..faulty_cfg(9)
    };
    let (out, _) = MarketSim::new(pool, cfg, 21).run_full();
    assert!(out.crash_repairs > 0, "detections never ran the repair");
    assert!(
        out.incremental_replans > 0,
        "no repair was absorbed incrementally"
    );
    assert_eq!(
        out.incremental_replans + out.resync_fallbacks,
        out.crash_repairs,
        "every repair must either re-sync or fall back"
    );
    assert_eq!(out.leaked_degrees, 0);
    assert!(out.audit.is_clean(), "audit: {:?}", out.audit.violations);
}

#[test]
fn root_crash_fails_over_to_a_surviving_member() {
    let pool = small_pool(22);
    let seed = 22;
    let sessions = 9;
    let sets = pool.partition_members(sessions, 12, seed);
    // Kill three session roots mid-run, well after warm-up.
    let mut faults = simcore::FaultPlan::none();
    for set in sets.iter().take(3) {
        faults = faults.crash_forever(set[0].0 as u64, SimTime::from_secs(900));
    }
    let cfg = MarketConfig {
        faults,
        ..faulty_cfg(sessions)
    };
    let (out, _) = MarketSim::new(pool, cfg, seed).run_full();
    assert!(
        out.failovers() >= 1,
        "no deputy ever took over a crashed root"
    );
    assert_eq!(
        out.sessions_lost(),
        0,
        "members survived, yet a session died"
    );
    assert_eq!(out.leaked_degrees, 0);
    assert!(out.audit.is_clean(), "audit: {:?}", out.audit.violations);
}

#[test]
fn lost_sessions_lapse_their_leases_and_nothing_leaks() {
    // Every member of three member sets crashes at once: failover
    // finds no deputy, so those sessions are lost with their claims
    // still booked.
    let pool = small_pool(23);
    let seed = 23;
    let sessions = 9;
    let sets = pool.partition_members(sessions, 12, seed);
    let mut faults = simcore::FaultPlan::none();
    for &m in sets.iter().take(3).flatten() {
        faults = faults.crash_forever(m.0 as u64, SimTime::from_secs(700));
    }
    let cfg = MarketConfig {
        faults,
        ..faulty_cfg(sessions)
    };
    let (out, _) = MarketSim::new(pool, cfg, seed).run_full();
    assert!(out.sessions_lost() > 0, "no session was ever lost");
    // Nobody released the dead managers' claims — the leases did.
    assert!(
        out.lapsed_lease_degrees > 0,
        "dead sessions never lapsed a lease"
    );
    assert_eq!(
        out.leaked_degrees, 0,
        "leases failed to reclaim a dead session"
    );
    assert!(out.audit.is_clean(), "audit: {:?}", out.audit.violations);
}

#[test]
fn stale_view_refusals_are_counted_and_leave_no_ghost_claims() {
    // The `view_refresh` regime: task managers plan from a snapshot up
    // to 10 minutes old, so helper reservations get refused — and every
    // refused attempt must roll back completely.
    let pool = small_pool(24);
    let cfg = MarketConfig {
        view_refresh: Some(SimTime::from_secs(600)),
        ..faulty_cfg(12)
    };
    let (out, mut pool) = MarketSim::new(pool, cfg, 24).run_full();
    let refusals: u64 = (1..=3).map(|p| out.class(p).helper_failures).sum();
    assert!(
        refusals > 0,
        "a 10-minute-stale view never caused a refusal"
    );
    assert!(out.audit.is_clean(), "audit: {:?}", out.audit.violations);
    // Releasing every slot must drain the pool to zero: refused
    // reservations may not leave partial claims behind.
    for i in 0..12u32 {
        pool.release_session(SessionId(i));
    }
    assert_eq!(
        pool.tables().total_used(),
        0,
        "ghost claims survive a full release"
    );
}

#[test]
fn a_crash_after_the_horizon_changes_nothing() {
    // One market under every fault plan: a crash scheduled past the
    // horizon only adds the read-only delivery rounds, so the plans, the
    // class stats and the final tables (lease deadlines included) are the
    // crash-free market's.
    let run = |faults: FaultPlan| {
        let cfg = MarketConfig {
            faults,
            audit_period: Some(SimTime::from_secs(30)),
            ..faulty_cfg(6)
        };
        MarketSim::new(small_pool(31), cfg, 31).run_full()
    };
    let (a, pool_a) = run(FaultPlan::none());
    let (b, pool_b) = run(FaultPlan::none().crash_forever(0, SimTime::from_secs(1801)));
    assert!(a.plans > 0);
    assert_eq!(a.plans, b.plans);
    assert_eq!(format!("{:?}", a.per_class), format!("{:?}", b.per_class));
    assert_eq!(a.utilization.mean(), b.utilization.mean());
    for h in pool_a.net.hosts.ids() {
        assert_eq!(
            pool_a.table(h).allocations(),
            pool_b.table(h).allocations(),
            "final table of {h:?}"
        );
    }
    assert_eq!((a.crash_repairs, b.crash_repairs), (0, 0));
    assert_eq!((a.lapsed_lease_degrees, b.lapsed_lease_degrees), (0, 0));
    assert!(a.audit.is_clean() && b.audit.is_clean());
}

/// A 3-session market over a small pool with `shape` applied to its
/// config — the degenerate-config rejections below.
fn degenerate(shape: impl FnOnce(&mut MarketConfig)) -> MarketSim {
    let mut cfg = faulty_cfg(3);
    shape(&mut cfg);
    MarketSim::new(small_pool(51), cfg, 51)
}

#[test]
#[should_panic(expected = "member_size must be at least 1")]
fn zero_member_size_is_rejected() {
    degenerate(|c| c.member_size = 0);
}

#[test]
#[should_panic(expected = "audit_period must be positive")]
fn zero_audit_period_is_rejected() {
    degenerate(|c| c.audit_period = Some(SimTime::ZERO));
}

#[test]
#[should_panic(expected = "view_refresh must be positive")]
fn zero_view_refresh_is_rejected() {
    degenerate(|c| c.view_refresh = Some(SimTime::ZERO));
}

#[test]
#[should_panic(expected = "snapshot_period must be positive")]
fn zero_liveops_snapshot_period_is_rejected() {
    let lo = LiveOps::new(crate::liveops::LiveOpsConfig {
        snapshot_period: SimTime::ZERO,
        ..Default::default()
    });
    degenerate(|_| {}).attach_liveops(lo);
}

#[test]
#[should_panic(expected = "subscription 1: member 300 out of range for a ring of 300 members")]
fn liveops_subscription_from_a_stranger_is_rejected_at_attach() {
    let mut lo = LiveOps::new(crate::liveops::LiveOpsConfig::default());
    lo.subscribe(299, [0.0, 0.0], 1e9, 3, 1, 5);
    lo.subscribe(300, [0.0, 0.0], 1e9, 3, 1, 5);
    degenerate(|_| {}).attach_liveops(lo);
}

#[test]
fn pareto_mode_spreads_shares_across_all_classes() {
    let cfg = MarketConfig {
        allocation: AllocationMode::Pareto,
        ..faulty_cfg(9)
    };
    let out = MarketSim::new(small_pool(41), cfg, 41).run();
    assert!(out.plans > 9);
    for p in 1..=3u8 {
        assert!(
            out.class(p).improvement.count() > 0,
            "no samples for priority {p}"
        );
    }
    let jain = out.jain_fairness();
    assert!(
        jain > 0.0 && jain <= 1.0 + 1e-9,
        "jain out of range: {jain}"
    );
    assert!(out.audit.is_clean(), "audit: {:?}", out.audit.violations);
}

#[test]
fn admission_mode_degrades_under_pressure_without_preempting() {
    // Thresholds above any attainable free fraction: every arrival is
    // forced down the degraded path, exercising the trimmed-budget
    // planner while the no-preemption invariant watches.
    let cfg = MarketConfig {
        allocation: AllocationMode::Admission,
        admission: AdmissionConfig {
            scarce_free_frac: 1.5,
            degrade_free_frac: 0.5,
            ..AdmissionConfig::default()
        },
        ..faulty_cfg(9)
    };
    let out = MarketSim::new(small_pool(42), cfg, 42).run();
    assert!(out.admission.arrivals > 0);
    assert_eq!(out.admission.admitted, 0);
    assert!(out.admission.degraded > 0, "nothing took the degraded path");
    assert!(
        out.class(DEGRADED_CLASS).improvement.count() > 0,
        "degraded admissions left no stats in their class"
    );
    // Graceful degradation instead of eviction: zero preemptions in
    // any class, and the conservation books balance.
    for (_, p) in out.per_class.iter() {
        assert_eq!(p.preemptions, 0);
    }
    assert_eq!(
        out.admission.arrivals,
        out.admission.admitted
            + out.admission.degraded
            + out.admission.rejected
            + out.admission.queued_final
    );
    assert!(out.audit.is_clean(), "audit: {:?}", out.audit.violations);
}

#[test]
fn admission_queue_bounds_and_timeouts_reject_cleanly() {
    // Both thresholds unattainable: every arrival queues (or bounces
    // off the tiny FIFO), retries with capped backoff, and times out.
    let cfg = MarketConfig {
        allocation: AllocationMode::Admission,
        admission: AdmissionConfig {
            scarce_free_frac: 2.0,
            degrade_free_frac: 1.5,
            queue_cap: 1,
            backoff: SimTime::from_secs(10),
            max_attempts: 3,
        },
        ..faulty_cfg(9)
    };
    let (out, pool) = MarketSim::new(small_pool(43), cfg, 43).run_full();
    assert_eq!(out.plans, 0, "an inadmissible arrival planned anyway");
    assert!(out.admission.rejected > 0);
    assert!(out.admission.timeouts > 0, "no retry ever timed out");
    assert!(out.admission.max_queue_depth >= 1);
    assert_eq!(
        out.admission.arrivals,
        out.admission.rejected + out.admission.queued_final
    );
    assert!(out.audit.is_clean(), "audit: {:?}", out.audit.violations);
    assert_eq!(
        pool.tables().total_used(),
        0,
        "queued sessions hold no degrees"
    );
}
