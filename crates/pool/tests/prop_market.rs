//! Property tests for the pool's accounting under arbitrary plan/release
//! interleavings: degree tables must never oversubscribe, holdings must
//! match trees exactly, and a full release must drain the pool. And for
//! whole markets over scarce degrees: auditor clean, nothing leaked, and
//! two same-seed runs equal down to every host's allocations.

use std::collections::HashMap;
use std::sync::OnceLock;

use alm::multipath::check_disjointness;
use netsim::{HostId, NetworkConfig};
use pool::degree_table::Allocation;
use pool::market::{MarketConfig, MarketSim};
use pool::task_manager::{fanout_cap, plan_and_reserve, plan_standby_trees};
use pool::{
    CandidateEntry, PlanConfig, PlanModel, PoolConfig, Rank, ResourcePool, ResourceReport,
    SessionId, SessionSpec,
};
use proptest::prelude::*;
use simcore::SimTime;
use somo::Report as _;

/// One shared pristine pool (building coordinates is the expensive part);
/// every case clones it.
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

/// A pool wider than a report's default cap of 512 entries (the metric
/// protocols are not what its test looks at, so they barely run).
fn wide() -> &'static ResourcePool {
    static POOL: OnceLock<ResourcePool> = OnceLock::new();
    POOL.get_or_init(|| {
        ResourcePool::build(
            &PoolConfig {
                net: NetworkConfig {
                    num_hosts: 700,
                    ..NetworkConfig::default()
                },
                coord_rounds: 0,
                leafset_size: 4,
                ..PoolConfig::default()
            },
            4321,
        )
    })
}

/// `snapshot_report` as it was until PR 21 — the definition of the report:
/// every live host's single-entry report merged into one, in host order.
fn merged_report(pool: &ResourcePool, cap: usize) -> ResourceReport {
    let mut r = ResourceReport {
        entries: Vec::new(),
        cap,
    };
    for h in pool.net.hosts.ids().filter(|&h| pool.is_alive(h)) {
        r.merge(&ResourceReport::of_member(CandidateEntry {
            host: h,
            avail: pool.table(h).available_by_rank(),
        }));
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn plans_and_releases_conserve_degrees(
        ops in proptest::collection::vec((0usize..6, any::<bool>(), 1u8..4), 1..15),
    ) {
        let mut pool = pristine().clone();
        // Six disjoint slots of 12 members each.
        let sets = pool.partition_members(6, 12, 99);
        let cfg = PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        let mut active = [false; 6];
        for (slot, do_plan, priority) in ops {
            let spec = SessionSpec {
                id: SessionId(slot as u32),
                priority,
                root: sets[slot][0],
                members: sets[slot].clone(),
            };
            if do_plan {
                let out = plan_and_reserve(&mut pool, &spec, &cfg);
                active[slot] = true;
                // Holdings equal the tree degrees exactly.
                for &h in out.tree.hosts() {
                    prop_assert_eq!(
                        pool.table(h).held_by(spec.id),
                        out.tree.degree(h)
                    );
                }
            } else {
                pool.release_session(spec.id);
                active[slot] = false;
            }
            // Global invariants after every operation.
            for h in pool.net.hosts.ids() {
                let t = pool.table(h);
                prop_assert!(t.used() <= t.dbound());
                for s in 0..6u32 {
                    if !active[s as usize] {
                        prop_assert_eq!(t.held_by(SessionId(s)), 0,
                            "released session still holds degrees");
                    }
                }
            }
        }
        // Draining everything restores an empty pool.
        for s in 0..6u32 {
            pool.release_session(SessionId(s));
        }
        prop_assert_eq!(pool.tables().total_used(), 0);
    }

    #[test]
    fn multipath_plans_are_degree_disjoint(
        ks in proptest::collection::vec(2usize..4, 4..5),
        prios in proptest::collection::vec(1u8..4, 4..5),
        seed in 0u64..4,
    ) {
        // Random multipath plans: four sessions, each planning a primary
        // plus k−1 standby trees. After each plan, no standby tree may
        // consume a reserved degree unit twice (holdings are exactly the
        // sum of per-tree degrees), and the per-host fan-out cap holds
        // across all of the session's trees.
        let mut pool = pristine().clone();
        let sets = pool.partition_members(4, 12, 50 + seed);
        let mut got_standby = false;
        for slot in 0..4usize {
            let cfg = PlanConfig {
                model: PlanModel::Oracle,
                k_trees: ks[slot],
                ..PlanConfig::default()
            };
            let members = sets[slot].clone();
            // Root the session at its best-uplink member so the fan-out
            // budget leaves genuine room for standby trees.
            let root = members
                .iter()
                .copied()
                .max_by(|a, b| pool.bw.up(*a).total_cmp(&pool.bw.up(*b)).then(b.cmp(a)))
                .unwrap();
            let spec = SessionSpec {
                id: SessionId(slot as u32),
                priority: prios[slot],
                root,
                members,
            };
            let out = plan_and_reserve(&mut pool, &spec, &cfg);
            let standby = plan_standby_trees(&mut pool, &spec, &cfg, &out.tree, &[], None);
            got_standby |= !standby.trees.is_empty();

            let mut trees = vec![out.tree.clone()];
            trees.extend(standby.trees.iter().cloned());
            let violations = check_disjointness(
                &trees,
                |h| pool.table(h).held_by(spec.id),
                |h| fanout_cap(&pool, &out.tree, h),
            );
            prop_assert!(violations.is_empty(), "disjointness: {violations:?}");

            // Holdings are exactly the per-tree degree sums — nothing
            // shared, nothing leaked.
            let mut want: HashMap<HostId, u32> = HashMap::new();
            for t in &trees {
                for &h in t.hosts() {
                    *want.entry(h).or_insert(0) += t.degree(h);
                }
            }
            for (&h, &w) in &want {
                prop_assert_eq!(pool.table(h).held_by(spec.id), w);
            }
        }
        // Across four high-uplink-rooted sessions at k ≥ 2, at least one
        // standby tree must have fit — otherwise the property is vacuous.
        prop_assert!(got_standby, "no session planned any standby tree");
        // Draining everything restores an empty pool, standby claims too.
        for s in 0..4u32 {
            pool.release_session(SessionId(s));
        }
        prop_assert_eq!(pool.tables().total_used(), 0);
    }

    #[test]
    fn snapshot_report_is_consistent_with_tables(
        plans in proptest::collection::vec((0usize..4, 1u8..4), 0..5),
    ) {
        let mut pool = pristine().clone();
        let sets = pool.partition_members(4, 12, 7);
        let cfg = PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        for (slot, priority) in plans {
            let spec = SessionSpec {
                id: SessionId(slot as u32),
                priority,
                root: sets[slot][0],
                members: sets[slot].clone(),
            };
            plan_and_reserve(&mut pool, &spec, &cfg);
        }
        let report = pool.snapshot_report(usize::MAX);
        prop_assert_eq!(report.entries.len(), pool.num_hosts());
        for e in &report.entries {
            let t = pool.table(e.host);
            // Rank-monotone availability, consistent with the table.
            prop_assert!(e.avail[0] >= e.avail[1]);
            prop_assert!(e.avail[1] >= e.avail[2]);
            prop_assert!(e.avail[2] >= e.avail[3]);
            prop_assert_eq!(e.avail[3], t.free());
            // Member rank preempts every helper claim, but not other
            // member claims (which only the host's own session may hold).
            let member_held: u32 = t
                .allocations()
                .iter()
                .filter(|a| a.rank == pool::Rank::MEMBER)
                .map(|a| a.count)
                .sum();
            prop_assert_eq!(e.avail[0], t.dbound() - member_held);
        }
    }

    #[test]
    fn snapshot_report_is_the_merge_of_every_live_hosts_report(
        claims in proptest::collection::vec((0u32..700, 0u8..4, 1u32..3), 0..300),
        // 0 kills nobody, 1 everybody, k every k-th host.
        kill_every in 0usize..5,
        cap in 0usize..8,
    ) {
        let cap = [0, 1, 7, 511, 512, 513, 2000, usize::MAX][cap];
        // A fresh pool ties in every rank (degree bounds take few values);
        // claims at every rank break some of the ties, rank by rank.
        let mut pool = wide().clone();
        for (i, (host, rank, count)) in claims.into_iter().enumerate() {
            let _ = pool.reserve_leased(HostId(host), SessionId(i as u32 % 8), Rank(rank), count, None);
        }
        if kill_every > 0 {
            for h in (0..700).step_by(kill_every) {
                pool.kill_host(HostId(h));
            }
        }
        let report = pool.snapshot_report(cap);
        prop_assert_eq!(&report, &merged_report(&pool, cap));
        prop_assert!(report.entries.len() <= 512, "usize::MAX has always meant 512");
    }
}

/// Everything a market run exposes: plans, per-class stats, planner work,
/// the auditor's verdict, the leak and lapse censuses and the final books
/// of every host.
#[derive(Debug, PartialEq)]
struct MarketDigest {
    audit_clean: bool,
    plans: u64,
    preemptions: Vec<u64>,
    improvement: Vec<(u64, f64)>,
    planner_work: (u64, u64),
    leaked: u32,
    lapsed: u64,
    tables: Vec<Vec<Allocation>>,
}

fn run_market(cfg: &MarketConfig, seed: u64) -> MarketDigest {
    let (out, pool) = MarketSim::new(pristine().clone(), cfg.clone(), seed).run_full();
    MarketDigest {
        audit_clean: out.audit.is_clean(),
        plans: out.plans,
        preemptions: (1..=3).map(|p| out.class(p).preemptions).collect(),
        improvement: (1..=3)
            .map(|p| {
                let s = &out.class(p).improvement;
                (s.count(), s.mean())
            })
            .collect(),
        planner_work: (out.planner_relaxations, out.planner_latency_calls),
        leaked: out.leaked_degrees,
        lapsed: out.lapsed_lease_degrees,
        tables: pool
            .net
            .hosts
            .ids()
            .map(|h| pool.table(h).allocations().to_vec())
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn scarce_markets_replay_bit_for_bit_with_clean_books(
        seed in 0u64..1000,
        sessions in 6usize..13,
        member_size in 8usize..12,
        gap_idx in 0usize..3,
        view in any::<bool>(),
        faulted in any::<bool>(),
    ) {
        // Disjoint member sets over 150 hosts cap the helper supply, so
        // competing sessions genuinely fight over the same scarce degrees
        // (preemptions fire). The gap draws the arrival shape: 1 µs
        // phase-locks every start and replan wave onto shared instants,
        // 1 ms mixes waves with stragglers, 60 s spreads them out.
        prop_assume!(sessions * member_size <= 150);
        let gap_us = [1u64, 1000, 60_000_000][gap_idx];
        let mut faults = simcore::FaultPlan::none();
        if faulted {
            for h in (0..150u64).step_by(17) {
                faults = faults.crash_forever(h, SimTime::from_secs(400 + h));
            }
        }
        let cfg = MarketConfig {
            sessions,
            member_size,
            mean_gap: SimTime::from_micros(gap_us),
            horizon: SimTime::from_secs(900),
            warmup: SimTime::from_secs(200),
            view_refresh: view.then(|| SimTime::from_secs(60)),
            audit_period: Some(SimTime::from_secs(120)),
            faults,
            ..MarketConfig::default()
        };
        let a = run_market(&cfg, seed);
        prop_assert!(a.audit_clean, "auditor found violations");
        prop_assert_eq!(&a, &run_market(&cfg, seed), "same-seed runs diverged");
        prop_assert_eq!(a.leaked, 0, "degrees leaked");
    }
}
