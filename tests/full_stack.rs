//! Full-stack integration tests: underlay → DHT → metrics → SOMO → ALM
//! scheduling, exercised together the way a deployment would.

use p2p_resource_pool::prelude::*;
use pool::task_manager::members_only_baseline;
use somo::flow::{FlowMode, GatherSim};

fn small_pool(seed: u64) -> ResourcePool {
    ResourcePool::build(
        &PoolConfig {
            net: NetworkConfig {
                num_hosts: 300,
                ..NetworkConfig::default()
            },
            coord_rounds: 6,
            ..PoolConfig::default()
        },
        seed,
    )
}

#[test]
fn pool_build_produces_consistent_state() {
    let pool = small_pool(1);
    assert_eq!(pool.num_hosts(), 300);
    assert_eq!(pool.ring.len(), 300);
    // Coordinates predict latency with sane error on average.
    let pairs = coords::eval::random_pairs(pool.num_hosts(), 500, 9);
    let cdf = coords::relative_error_cdf(&pool.net.latency, &pool.coords, &pairs);
    let median = cdf.quantile(0.5).unwrap();
    assert!(median < 0.5, "coordinate median relative error {median}");
    // Bandwidth estimates are positive for every ring member and bounded
    // by capacity.
    for (h, host) in pool.net.hosts.iter() {
        assert!(pool.bw.up(h) > 0.0);
        assert!(pool.bw.up(h) <= host.bandwidth.up_kbps * 1.001);
    }
}

#[test]
fn somo_gathers_the_same_candidates_the_pool_reports() {
    // The facade's snapshot_report must equal what actually flows through
    // a full SOMO gather over the ring.
    let pool = small_pool(2);
    let tree = SomoTree::build(&pool.ring, pool::SOMO_FANOUT);
    let snapshot = pool.snapshot_report(usize::MAX);

    let mut sim = GatherSim::new(
        &tree,
        &pool.ring,
        FlowMode::Synchronized,
        SimTime::from_secs(5),
        |member, _now| {
            let h = pool.ring.member(member).host;
            let t = pool.table(h);
            pool::ResourceReport::of_member(pool::CandidateEntry {
                host: h,
                avail: [
                    t.available_at(Rank::MEMBER),
                    t.available_at(Rank::helper(1)),
                    t.available_at(Rank::helper(2)),
                    t.available_at(Rank::helper(3)),
                ],
            })
        },
        |a, b| {
            if a == b {
                SimTime::ZERO
            } else {
                SimTime::from_millis(40)
            }
        },
    );
    sim.run_until(SimTime::from_secs(30));
    let view = &sim.views().last().expect("no root view").view;
    // Same candidate set (the snapshot is uncapped; the default report cap
    // keeps the best 512, which here is everything).
    assert_eq!(view.entries.len(), pool.num_hosts());
    let mut a: Vec<_> = view.entries.clone();
    let mut b: Vec<_> = snapshot.entries.clone();
    a.sort_by_key(|e| e.host);
    b.sort_by_key(|e| e.host);
    assert_eq!(a, b, "SOMO root view disagrees with the pool snapshot");
}

#[test]
fn task_manager_plans_from_a_newscast_delivered_view() {
    // The complete deployment story: every host publishes its degree table
    // through SOMO; the full newscast cycle (gather + disseminate) delivers
    // the aggregated view to every member; a session root plans from *its
    // own delivered copy* of the view — never touching global state.
    use somo::newscast::disseminate;

    let mut pool = small_pool(7);
    let tree = SomoTree::build(&pool.ring, pool::SOMO_FANOUT);
    let delay = |a: usize, b: usize| {
        if a == b {
            SimTime::ZERO
        } else {
            SimTime::from_millis(40)
        }
    };
    let mut sim = GatherSim::new(
        &tree,
        &pool.ring,
        FlowMode::Synchronized,
        SimTime::from_secs(5),
        |member, _now| {
            let h = pool.ring.member(member).host;
            let t = pool.table(h);
            pool::ResourceReport::of_member(pool::CandidateEntry {
                host: h,
                avail: [
                    t.available_at(Rank::MEMBER),
                    t.available_at(Rank::helper(1)),
                    t.available_at(Rank::helper(2)),
                    t.available_at(Rank::helper(3)),
                ],
            })
        },
        delay,
    );
    sim.run_until(SimTime::from_secs(20));
    let deliveries = disseminate(&tree, &pool.ring, sim.views(), delay);

    // Pick a session whose root actually received a delivery.
    let members = pool.sample_members(15, 3);
    let root = members[0];
    let root_member_idx = pool
        .ring
        .members()
        .iter()
        .position(|m| m.host == root)
        .expect("root is in the ring");
    let view = deliveries
        .iter()
        .rev()
        .find(|d| d.member == root_member_idx)
        .expect("root never received the newscast")
        .view
        .clone();
    assert!(!view.entries.is_empty());

    let spec = SessionSpec {
        id: SessionId(1),
        priority: 1,
        root,
        members,
    };
    let cfg = PlanConfig {
        model: PlanModel::Oracle,
        ..PlanConfig::default()
    };
    let shape = pool::PlanShape::priority(spec.priority, cfg.k_trees);
    let source = pool::Candidates::View(&view);
    let out = pool::plan_and_reserve_with(&mut pool, &spec, &cfg, source, shape, None);
    assert_eq!(out.helper_failures, 0, "view was fresh; nothing may fail");
    out.tree
        .validate(&pool.net.latency, |h| pool.net.hosts.degree_bound(h))
        .unwrap();
    assert!(out.improvement > -0.05, "improvement {}", out.improvement);
}

#[test]
fn end_to_end_session_beats_baseline_with_oracle_planning() {
    let mut pool = small_pool(3);
    let mut improvements = Vec::new();
    for i in 0..5 {
        let members = pool.sample_members(20, 100 + i);
        let spec = SessionSpec {
            id: SessionId(i as u32),
            priority: 1,
            root: members[0],
            members,
        };
        let out = plan_and_reserve(
            &mut pool,
            &spec,
            &PlanConfig {
                model: PlanModel::Oracle,
                ..PlanConfig::default()
            },
        );
        out.tree
            .validate(&pool.net.latency, |h| pool.net.hosts.degree_bound(h))
            .unwrap();
        improvements.push(out.improvement);
        pool.release_session(spec.id);
    }
    let avg = improvements.iter().sum::<f64>() / improvements.len() as f64;
    assert!(
        avg > 0.1,
        "oracle Critical+adjust average improvement {avg}"
    );
}

#[test]
fn multi_session_improvements_sit_between_paper_bounds() {
    // Figure 10's frame: per-session results must fall between the
    // members-only lower bound (improvement 0 by definition of the
    // baseline) and the single-session upper bound.
    let mut pool = small_pool(4);
    let sets = pool.partition_members(6, 15, 50);

    // Upper bounds: each set scheduled alone.
    let mut upper = Vec::new();
    for (i, members) in sets.iter().enumerate() {
        let spec = SessionSpec {
            id: SessionId(100 + i as u32),
            priority: 1,
            root: members[0],
            members: members.clone(),
        };
        let out = plan_and_reserve(
            &mut pool,
            &spec,
            &PlanConfig {
                model: PlanModel::Oracle,
                ..PlanConfig::default()
            },
        );
        upper.push(out.improvement);
        pool.release_session(spec.id);
    }

    // Now all six compete.
    let mut competing = Vec::new();
    for (i, members) in sets.iter().enumerate() {
        let spec = SessionSpec {
            id: SessionId(i as u32),
            priority: (i % 3) as u8 + 1,
            root: members[0],
            members: members.clone(),
        };
        let out = plan_and_reserve(
            &mut pool,
            &spec,
            &PlanConfig {
                model: PlanModel::Oracle,
                ..PlanConfig::default()
            },
        );
        competing.push(out.improvement);
    }
    for (i, &c) in competing.iter().enumerate() {
        // Allow small slack: preemption between plans can nudge results.
        assert!(
            c <= upper[i] + 0.10,
            "session {i}: competing improvement {c} above single-session bound {}",
            upper[i]
        );
    }
}

#[test]
fn session_survives_total_helper_loss() {
    // A session whose helpers are all stolen must still realize its
    // members-only plan on replan.
    let mut pool = small_pool(5);
    // Disjoint member sets, as the paper assumes (§5.3).
    let sets = pool.partition_members(5, 20, 60);
    let low = SessionSpec {
        id: SessionId(1),
        priority: 3,
        root: sets[0][0],
        members: sets[0].clone(),
    };
    let cfg = PlanConfig {
        model: PlanModel::Oracle,
        ..PlanConfig::default()
    };
    plan_and_reserve(&mut pool, &low, &cfg);

    // A swarm of priority-1 sessions grabs every helper it can.
    for k in 0..4u32 {
        let members = sets[k as usize + 1].clone();
        let spec = SessionSpec {
            id: SessionId(10 + k),
            priority: 1,
            root: members[0],
            members,
        };
        plan_and_reserve(&mut pool, &spec, &cfg);
        // Keep reservations in place (no release) to maximize contention.
    }

    // The low-priority session replans; members-only feasibility is
    // guaranteed by member-rank preemption.
    let out = plan_and_reserve(&mut pool, &low, &cfg);
    assert!(out.oracle_height.is_finite());
    let baseline = members_only_baseline(&pool, &low);
    assert!(
        out.oracle_height <= baseline * 1.001,
        "replanned height {} worse than members-only baseline {}",
        out.oracle_height,
        baseline
    );
}

#[test]
fn degree_tables_stay_conserved_through_market_churn() {
    let pool = small_pool(6);
    let cfg = MarketConfig {
        sessions: 9,
        member_size: 10,
        horizon: SimTime::from_secs(900),
        warmup: SimTime::from_secs(100),
        plan: PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        },
        ..MarketConfig::default()
    };
    let out = MarketSim::new(pool, cfg, 7).run();
    assert!(out.plans > 0);
    // The market consumed and released degrees thousands of times; the
    // per-table invariants are enforced by debug_asserts inside; reaching
    // here without panic is the assertion.
}
