//! Whole-stack determinism: every layer must be bit-reproducible from the
//! master seed — the property that makes the figure binaries regenerable
//! and failures debuggable.

use p2p_resource_pool::prelude::*;
use testkit::fnv1a64;

/// The run-vs-run checks below cannot see a change that moves both runs
/// together; this compares one market trajectory's `Debug` rendering —
/// stats, counters and the final degree table of every host — against
/// `(length, FNV-1a-64)` recorded at commit 21d0a1b. `crates/testkit/src/lib.rs`
/// says how to re-pin after an intended behaviour change.
fn assert_pinned(what: &str, trajectory: &impl std::fmt::Debug, pin: (usize, u64)) {
    let rendered = format!("{trajectory:?}");
    assert_eq!(
        (rendered.len(), fnv1a64(&rendered)),
        pin,
        "{what} trajectory moved off its pinned (length, digest)"
    );
}

/// `(Debug length, FNV-1a-64)` of each market trajectory below, recorded
/// at commit 21d0a1b.
const PIN_MARKET_K1: (usize, u64) = (10230, 11209060999262227419);
const PIN_MARKET_K2: (usize, u64) = (11073, 12784749161043698556);
/// The two phase-locked tiered markets, re-recorded when the hot tier began
/// taking one batch per plan: every plan and answer stayed, only the
/// oracle's `promotions` / `evictions` moved (k = 1: 1079 / 951 → 918 / 790;
/// k = 2: 980 / 852 → 824 / 696).
const PIN_PHASE_LOCKED_K1: (usize, u64) = (12765, 14341148051035017026);
const PIN_PHASE_LOCKED_K2: (usize, u64) = (14152, 11112515578880771551);
const PIN_ADMISSION: (usize, u64) = (5982, 9244087032938961521);
/// The faulted Pareto market, recorded at commit 6c05027, before the
/// market's slot state became one `Phase`.
const PIN_PARETO: (usize, u64) = (10230, 6216587220097139693);
/// The faulted query trajectory (answers, stats and both ledgers), recorded
/// at commit 6877b76, before the index's layout was rebuilt.
const PIN_QUERY: (usize, u64) = (20961, 15631252681519849854);

fn build(seed: u64) -> ResourcePool {
    ResourcePool::build(
        &PoolConfig {
            net: NetworkConfig {
                num_hosts: 200,
                ..NetworkConfig::default()
            },
            coord_rounds: 4,
            ..PoolConfig::default()
        },
        seed,
    )
}

#[test]
fn pool_builds_identically_from_the_same_seed() {
    let a = build(42);
    let b = build(42);
    // Underlay.
    for h in a.net.hosts.ids() {
        assert_eq!(
            a.net.hosts.get(h).degree_bound,
            b.net.hosts.get(h).degree_bound
        );
        assert_eq!(
            a.net.hosts.get(h).bandwidth.up_kbps,
            b.net.hosts.get(h).bandwidth.up_kbps
        );
    }
    // Ring.
    assert_eq!(a.ring.members(), b.ring.members());
    // Metrics.
    for h in a.net.hosts.ids() {
        assert_eq!(a.coords.get(h), b.coords.get(h));
        assert_eq!(a.bw.up(h), b.bw.up(h));
    }
    // Latency oracle.
    for i in (0..200u32).step_by(17) {
        for j in (0..200u32).step_by(13) {
            assert_eq!(
                a.net.latency_ms(HostId(i), HostId(j)),
                b.net.latency_ms(HostId(i), HostId(j))
            );
        }
    }
}

#[test]
fn different_seeds_give_different_pools() {
    let a = build(1);
    let b = build(2);
    assert_ne!(a.ring.members(), b.ring.members());
}

#[test]
fn plans_are_identical_across_identical_pools() {
    let mut a = build(7);
    let mut b = build(7);
    let members = a.sample_members(15, 9);
    let spec = SessionSpec {
        id: SessionId(1),
        priority: 2,
        root: members[0],
        members,
    };
    let cfg = PlanConfig::default(); // the staged Leafset pipeline
    let out_a = plan_and_reserve(&mut a, &spec, &cfg);
    let out_b = plan_and_reserve(&mut b, &spec, &cfg);
    assert_eq!(out_a.tree.hosts(), out_b.tree.hosts());
    assert_eq!(out_a.oracle_height, out_b.oracle_height);
    assert_eq!(out_a.helpers, out_b.helpers);
    assert_eq!(out_a.improvement, out_b.improvement);
}

/// One faulty DHT trajectory: run heartbeats under loss + jitter + an
/// outage window, with a mid-run crash, and capture everything observable.
fn faulty_dht_trajectory(seed: u64) -> (u64, u64, Vec<Vec<NodeId>>) {
    use p2p_resource_pool::dht::proto::{DhtSim, ProtoConfig};
    let ring = Ring::with_random_ids((0..96).map(HostId), seed);
    let plan = simcore::FaultPlan::with_loss(seed ^ 0xFA17, 0.04)
        .jitter(SimTime::from_millis(25))
        .outage(
            ring.member(3).host.0 as u64,
            ring.member(4).host.0 as u64,
            SimTime::from_secs(10),
            SimTime::from_secs(40),
        );
    let mut sim = DhtSim::with_faults(
        &ring,
        ProtoConfig::default(),
        |a, b| {
            if a == b {
                SimTime::ZERO
            } else {
                SimTime::from_millis(40)
            }
        },
        plan,
    );
    sim.run_until(SimTime::from_secs(30));
    sim.kill(7);
    sim.run_until(SimTime::from_secs(120));
    let views = (0..sim.len()).map(|i| sim.believed_leafset(i)).collect();
    (sim.messages_sent(), sim.messages_dropped(), views)
}

#[test]
fn faulty_dht_trajectory_is_bit_identical_across_runs() {
    assert_eq!(faulty_dht_trajectory(21), faulty_dht_trajectory(21));
}

/// One faulty SOMO gather: unsynchronized census over a lossy network.
fn faulty_gather_trajectory(seed: u64) -> (u64, u64, Vec<(SimTime, u64)>) {
    use p2p_resource_pool::somo::flow::{FlowMode, FreshnessReport, GatherSim};
    let ring = Ring::with_random_ids((0..96).map(HostId), seed);
    let tree = SomoTree::build(&ring, 8);
    let plan = simcore::FaultPlan::with_loss(seed ^ 0x50, 0.05).jitter(SimTime::from_millis(15));
    let mut sim = GatherSim::with_faults(
        &tree,
        &ring,
        FlowMode::Unsynchronized,
        SimTime::from_secs(5),
        |_m, now| FreshnessReport::of_member(now),
        |a, b| {
            if a == b {
                SimTime::ZERO
            } else {
                SimTime::from_millis(150)
            }
        },
        plan,
    );
    sim.run_until(SimTime::from_secs(90));
    let views = sim.views().iter().map(|v| (v.at, v.view.members)).collect();
    (sim.messages_sent(), sim.messages_dropped(), views)
}

#[test]
fn faulty_gather_trajectory_is_bit_identical_across_runs() {
    assert_eq!(faulty_gather_trajectory(33), faulty_gather_trajectory(33));
}

#[test]
fn recovery_pipeline_is_bit_identical_across_runs() {
    use p2p_resource_pool::pool::recovery::{run_pipeline, RecoveryConfig};
    let run = || {
        let plan = simcore::FaultPlan::with_loss(17, 0.03).jitter(SimTime::from_millis(10));
        run_pipeline(&RecoveryConfig {
            n: 48,
            crashes: 3,
            plan,
            session_size: 16,
            ..RecoveryConfig::default()
        })
    };
    let a = run();
    let b = run();
    // The whole outcome — per-phase timeline, census numbers, message and
    // drop counts, ALM repair report — must match field for field.
    assert_eq!(a, b);
    assert!(a.timeline.reattached_at.is_some());
}

/// `(Debug length, FNV-1a-64)` of the whole `RecoveryOutcome` — timeline,
/// remap statistics, census and delivery fractions, ALM report, message
/// and drop counts, audit — of the two pipelines below, recorded at commit
/// 291cf64, before the pipeline's phases and the simulators under them
/// were rebuilt.
const PIN_RECOVERY_CLEAN: (usize, u64) = (650, 9692808420647947783);
const PIN_RECOVERY_LOSSY: (usize, u64) = (633, 14245325224024450806);

#[test]
fn recovery_pipeline_outcomes_match_their_pins() {
    use p2p_resource_pool::pool::recovery::{run_pipeline, RecoveryConfig};
    let clean = run_pipeline(&RecoveryConfig {
        n: 512,
        crashes: 4,
        ..RecoveryConfig::default()
    });
    assert_pinned("fault-free recovery", &clean, PIN_RECOVERY_CLEAN);
    let lossy = run_pipeline(&RecoveryConfig {
        n: 512,
        crashes: 8,
        plan: simcore::FaultPlan::with_loss(17, 0.05).jitter(SimTime::from_millis(20)),
        ..RecoveryConfig::default()
    });
    assert!(lossy.dht_dropped > 0 && lossy.gather_dropped > 0);
    assert_pinned("5 % loss recovery", &lossy, PIN_RECOVERY_LOSSY);
}

/// One faulted market trajectory: a crash plan killing helpers and session
/// roots mid-run, with leases, failover, and the invariant auditor live.
/// Captures the aggregate outcome AND the final degree table of every
/// host — the books themselves must be bit-reproducible, not just the
/// stats.
#[derive(Debug, PartialEq)]
struct MarketTrace {
    plans: u64,
    per_class: Vec<(u64, u64, u64, u64)>,
    crash_repairs: u64,
    lapsed: u64,
    leaked: u32,
    /// Multipath machinery: tree failovers, trees rebuilt, delivery-ratio
    /// (count, mean), restore-rounds (count, mean). All zero at k = 1.
    multipath: (u64, u64, u64, f64, u64, f64),
    tables: Vec<Vec<pool::degree_table::Allocation>>,
}

impl MarketTrace {
    fn of(out: &pool::MarketOutcome, pool: &ResourcePool) -> MarketTrace {
        MarketTrace {
            plans: out.plans,
            per_class: (1..=3)
                .map(|p| {
                    let c = out.class(p);
                    (
                        c.helper_crashes,
                        c.failovers,
                        c.sessions_lost,
                        c.preemptions,
                    )
                })
                .collect(),
            crash_repairs: out.crash_repairs,
            lapsed: out.lapsed_lease_degrees,
            leaked: out.leaked_degrees,
            multipath: (
                out.tree_failovers,
                out.trees_rebuilt,
                out.delivery.count(),
                out.delivery.mean(),
                out.restore_rounds.count(),
                out.restore_rounds.mean(),
            ),
            tables: pool
                .net
                .hosts
                .ids()
                .map(|h| pool.table(h).allocations().to_vec())
                .collect(),
        }
    }
}

fn faulted_market_trajectory(seed: u64) -> MarketTrace {
    faulted_market_trajectory_k(seed, 1)
}

fn faulted_market_trajectory_k(seed: u64, k_trees: usize) -> MarketTrace {
    faulted_market_trajectory_in(seed, k_trees, AllocationMode::Priority)
}

/// The faulted 9-session market behind the helpers above, with `k_trees`
/// trees per session and the given allocation mode.
fn faulted_market_trajectory_in(
    seed: u64,
    k_trees: usize,
    allocation: AllocationMode,
) -> MarketTrace {
    let pool = ResourcePool::build(
        &PoolConfig {
            net: NetworkConfig {
                num_hosts: 300,
                ..NetworkConfig::default()
            },
            coord_rounds: 4,
            ..PoolConfig::default()
        },
        seed,
    );
    let mut faults = simcore::FaultPlan::none();
    for h in (0..300u64).step_by(7) {
        faults = faults.crash_forever(h, SimTime::from_secs(600 + h));
    }
    let cfg = MarketConfig {
        sessions: 9,
        member_size: 12,
        horizon: SimTime::from_secs(1800),
        warmup: SimTime::from_secs(300),
        faults,
        plan: PlanConfig {
            k_trees,
            ..PlanConfig::default()
        },
        allocation,
        ..MarketConfig::default()
    };
    let (out, pool) = MarketSim::new(pool, cfg, seed).run_full();
    MarketTrace::of(&out, &pool)
}

#[test]
fn faulted_market_trajectory_is_bit_identical_across_runs() {
    let a = faulted_market_trajectory(29);
    assert_pinned("faulted market", &a, PIN_MARKET_K1);
    let b = faulted_market_trajectory(29);
    // Aggregate stats AND the final books must match field for field.
    assert_eq!(a, b);
    // And the plan actually produced fault activity worth pinning.
    let activity: u64 = a.per_class.iter().map(|c| c.0 + c.1 + c.2).sum();
    assert!(activity > 0, "fault plan never touched a session");
}

#[test]
fn faulted_multipath_market_trajectory_is_bit_identical_across_runs() {
    // Same crash plan, but every session also plans a degree-disjoint
    // standby tree: failovers, lazy rebuilds, delivery sampling and the
    // final books must all replay bit-for-bit.
    let a = faulted_market_trajectory_k(29, 2);
    assert_pinned("faulted multipath market", &a, PIN_MARKET_K2);
    let b = faulted_market_trajectory_k(29, 2);
    assert_eq!(a, b);
    assert!(a.multipath.2 > 0, "delivery ratio was never sampled");
    assert_eq!(a.leaked, 0, "multipath run leaked degrees");
}

#[test]
fn faulted_pareto_market_trajectory_is_bit_identical_across_runs() {
    // Same crash plan, Pareto allocation: water-filled shares, one fair
    // rank, and the over-share trim (`reclaim_overshare`) that reads the
    // active set and every slot's pending-replan flag.
    let a = faulted_market_trajectory_in(29, 1, AllocationMode::Pareto);
    assert_pinned("faulted pareto market", &a, PIN_PARETO);
    let b = faulted_market_trajectory_in(29, 1, AllocationMode::Pareto);
    assert_eq!(a, b);
    let activity: u64 = a.per_class.iter().map(|c| c.0 + c.1 + c.2).sum();
    assert!(activity > 0, "fault plan never touched a session");
    assert_eq!(a.leaked, 0, "pareto run leaked degrees");
}

/// One phase-locked trajectory: a microsecond arrival gap collapses every
/// first start onto `t = 0` and keeps the surviving sessions' replans
/// phase-locked, so the market handles same-timestamp waves all run long;
/// sessions plan from the snapshot view through the tiered oracle, and the
/// staggered crash plan keeps the fault paths interleaved with the waves.
/// Captures everything [`MarketTrace`] pins plus the exact planner-work
/// counters and the oracle's own per-tier hits.
fn phase_locked_market_trajectory(
    seed: u64,
    k_trees: usize,
) -> (MarketTrace, u64, u64, Option<TierStats>) {
    let pool = ResourcePool::build(
        &PoolConfig {
            net: NetworkConfig {
                num_hosts: 300,
                ..NetworkConfig::default()
            },
            coord_rounds: 4,
            latency_source: LatencySource::Tiered(TieredConfig::default()),
            ..PoolConfig::default()
        },
        seed,
    );
    let mut faults = simcore::FaultPlan::none();
    for h in (0..300u64).step_by(13) {
        faults = faults.crash_forever(h, SimTime::from_secs(600 + h));
    }
    let cfg = MarketConfig {
        sessions: 12,
        member_size: 10,
        mean_gap: SimTime::from_micros(1),
        horizon: SimTime::from_secs(1500),
        warmup: SimTime::from_secs(300),
        view_refresh: Some(SimTime::from_secs(60)),
        faults,
        plan: PlanConfig {
            k_trees,
            ..PlanConfig::default()
        },
        ..MarketConfig::default()
    };
    let (out, pool) = MarketSim::new(pool, cfg, seed).run_full();
    (
        MarketTrace::of(&out, &pool),
        out.planner_relaxations,
        out.planner_latency_calls,
        out.oracle_tiers,
    )
}

#[test]
fn phase_locked_market_trajectory_matches_its_pin() {
    // The outcome, the exact planner-work counters, the oracle's per-tier
    // hits and the final books of every host, on the one market input
    // where every start and replan wave shares an instant.
    let t = phase_locked_market_trajectory(29, 1);
    assert_pinned(
        "phase-locked tiered snapshot-view market",
        &(&t.0, t.1, t.2, &t.3),
        PIN_PHASE_LOCKED_K1,
    );
    assert!(t.1 > 0, "run did no planner work at all");
}

#[test]
fn phase_locked_multipath_market_trajectory_matches_its_pin() {
    // k = 2: standby rounds scan live candidates behind every primary.
    let t = phase_locked_market_trajectory(29, 2);
    assert_pinned(
        "phase-locked tiered snapshot-view multipath market",
        &(&t.0, t.1, t.2, &t.3),
        PIN_PHASE_LOCKED_K2,
    );
    assert!(t.0.multipath.2 > 0, "delivery ratio was never sampled");
    assert_eq!(t.0.leaked, 0, "multipath run leaked degrees");
}

/// One faulted Admission-mode trajectory: the same staggered crash plan
/// as the market tests, but the sessions pass through the admission
/// controller under starvation-level thresholds, so the queue, the
/// degraded class and the rejection path all engage. Captures the full
/// admission ledger, every class's counters (including the degraded
/// class) and the final books.
#[allow(clippy::type_complexity)]
fn faulted_admission_trajectory(
    seed: u64,
) -> (
    u64,
    (u64, u64, u64, u64, u64, u64, u64, u64),
    Vec<(u8, u64, u64, u64, u64)>,
    u32,
    Vec<Vec<pool::degree_table::Allocation>>,
) {
    let pool = ResourcePool::build(
        &PoolConfig {
            net: NetworkConfig {
                num_hosts: 300,
                ..NetworkConfig::default()
            },
            coord_rounds: 4,
            ..PoolConfig::default()
        },
        seed,
    );
    let mut faults = simcore::FaultPlan::none();
    for h in (0..300u64).step_by(7) {
        faults = faults.crash_forever(h, SimTime::from_secs(600 + h));
    }
    let cfg = MarketConfig {
        sessions: 24,
        member_size: 4,
        horizon: SimTime::from_secs(1800),
        warmup: SimTime::from_secs(300),
        faults,
        allocation: AllocationMode::Admission,
        admission: AdmissionConfig {
            scarce_free_frac: 0.995,
            degrade_free_frac: 0.9,
            backoff: SimTime::from_secs(20),
            max_attempts: 4,
            ..AdmissionConfig::default()
        },
        ..MarketConfig::default()
    };
    let (out, pool) = MarketSim::new(pool, cfg, seed).run_full();
    let a = &out.admission;
    let ledger = (
        a.arrivals,
        a.admitted,
        a.degraded,
        a.rejected,
        a.timeouts,
        a.queued_final,
        a.max_queue_depth,
        a.wait.count(),
    );
    let per_class: Vec<(u8, u64, u64, u64, u64)> = out
        .per_class
        .iter()
        .map(|(n, c)| {
            (
                n,
                c.helper_crashes,
                c.failovers,
                c.sessions_lost,
                c.preemptions,
            )
        })
        .collect();
    let tables: Vec<Vec<pool::degree_table::Allocation>> = pool
        .net
        .hosts
        .ids()
        .map(|h| pool.table(h).allocations().to_vec())
        .collect();
    (out.plans, ledger, per_class, out.leaked_degrees, tables)
}

#[test]
fn faulted_admission_trajectory_is_bit_identical_across_runs() {
    let a = faulted_admission_trajectory(31);
    assert_pinned("faulted admission market", &a, PIN_ADMISSION);
    let b = faulted_admission_trajectory(31);
    assert_eq!(a, b);
    // The controller actually engaged: sessions were degraded AND turned
    // away, nothing was preempted, and the books balance.
    let (_, ledger, per_class, leaked, _) = a;
    assert!(ledger.2 > 0, "no session was degraded");
    assert!(ledger.3 > 0, "no session was rejected");
    assert_eq!(
        ledger.0,
        ledger.1 + ledger.2 + ledger.3 + ledger.5,
        "admission ledger does not balance"
    );
    let preempted: u64 = per_class.iter().map(|c| c.4).sum();
    assert_eq!(preempted, 0, "admission mode preempted");
    assert_eq!(leaked, 0, "admission run leaked degrees");
}

/// One faulted query trajectory: kill hosts mid-stream, refresh the
/// aggregate index, and interleave scoped queries. Captures the complete
/// answers — hosts, summaries, freshness, traffic stats — plus both
/// ledgers; every byte must be reproducible.
fn faulted_query_trajectory(seed: u64) -> (Vec<QueryAnswer>, u64, u64) {
    let mut pool = build(seed);
    let t0 = SimTime::from_secs(10);
    let mut index = pool.build_query_index(SimTime::from_secs(60), t0);
    let mut answers = Vec::new();
    answers.push(index.top_k(12, 3, 2, &[], Scope::Global));
    answers.push(index.top_k(6, 1, 1, &[HostId(5)], Scope::Nearest { member: 17 }));
    // A crash wave: every 13th host dies, then the next gather round
    // notices (dead hosts stop publishing samples).
    for h in (0..200u32).step_by(13) {
        pool.kill_host(HostId(h));
    }
    let t1 = SimTime::from_secs(70);
    pool.refresh_query_index(&mut index, t1);
    answers.push(index.top_k(12, 3, 2, &[], Scope::Global));
    answers.push(index.range([0.0, 0.0], 120.0, 2, 1));
    answers.push(index.point(HostId(13))); // a dead host: empty answer
                                           // Partial recovery, another gather, more queries.
    pool.revive_host(HostId(13));
    pool.revive_host(HostId(26));
    let t2 = SimTime::from_secs(130);
    pool.refresh_query_index(&mut index, t2);
    answers.push(index.top_k(20, 2, 1, &[], Scope::Nearest { member: 3 }));
    answers.push(index.point(HostId(13)));
    let q = index.query_traffic();
    let m = index.maintenance_traffic();
    (answers, q.bytes, m.bytes)
}

#[test]
fn faulted_query_trajectory_is_bit_identical_across_runs() {
    let a = faulted_query_trajectory(51);
    let b = faulted_query_trajectory(51);
    assert_eq!(a, b);
    assert_pinned("faulted query", &a, PIN_QUERY);
    // The crash wave actually changed the answers: the post-kill global
    // top-k must not contain any dead host.
    let post_kill = &a.0[2];
    assert!(
        !post_kill.hosts.is_empty(),
        "post-kill answer came up empty"
    );
    for s in &post_kill.hosts {
        assert!(
            s.host.0 % 13 != 0,
            "dead host {:?} survived in a refreshed answer",
            s.host
        );
    }
    assert!(a.1 > 0, "queries charged no traffic");
    assert!(a.2 > 0, "gathers charged no traffic");
}

#[test]
fn somo_tree_is_a_pure_function_of_the_ring() {
    let a = build(11);
    let t1 = SomoTree::build(&a.ring, 8);
    let t2 = SomoTree::build(&a.ring, 8);
    assert_eq!(t1.len(), t2.len());
    for (x, y) in t1.nodes().iter().zip(t2.nodes()) {
        assert_eq!(x.region(), y.region());
        assert_eq!(x.host(), y.host());
        assert_eq!(x.parent(), y.parent());
    }
}
