//! Property tests for the live-operations store's snapshot layout and
//! replay (DESIGN.md §17.3): a frozen snapshot thaws to exactly the dense
//! capture, and thawing any stored snapshot and folding the later deltas
//! lands on the live pool's tables — over real pools driven through every
//! mutating call, and over degenerate ones (no hosts, zero-degree hosts,
//! down hosts holding stranded claims) a generated pool never contains.
//! The surface's standing queries are checked on a whole market run in
//! the root `tests/liveops_pins.rs`.

use std::sync::OnceLock;

use netsim::{HostId, NetworkConfig};
use pool::liveops::reconstruct_at;
use pool::{
    DegreeTable, FrozenSnapshot, HostTables, LiveOps, LiveOpsConfig, MarketDelta, MarketSnapshot,
    PoolConfig, PoolOp, Rank, ResourcePool, SessionId, SlotSnap,
};
use proptest::prelude::*;
use runstore::Stamped;
use simcore::SimTime;

const HOSTS: usize = 150;
const SEED: u64 = 29;

/// One shared pristine pool (building coordinates is the expensive part);
/// every case clones it. The pool of `crates/bench/src/cells.rs`' `Gate`
/// cell.
fn pristine() -> &'static ResourcePool {
    static POOL: OnceLock<ResourcePool> = OnceLock::new();
    POOL.get_or_init(|| {
        ResourcePool::build(
            &PoolConfig {
                net: NetworkConfig {
                    num_hosts: HOSTS,
                    ..NetworkConfig::default()
                },
                coord_rounds: 4,
                ..PoolConfig::default()
            },
            SEED,
        )
    })
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn idle_slot(session: u32) -> SlotSnap {
    SlotSnap {
        session,
        active: false,
        replan_pending: false,
        cycle: 0,
        degraded: false,
        defers: 0,
        queued_since_us: None,
        broken_since_us: None,
    }
}

/// A claim's lease, by kind: permanent, long, or short enough to lapse.
fn lease(kind: u8, now: SimTime) -> Option<SimTime> {
    match kind {
        0 => None,
        1 => Some(now + secs(40)),
        _ => Some(now + secs(3)),
    }
}

/// The dense snapshot of `pool` with these mirrors.
fn capture(pool: &ResourcePool, slots: &[SlotSnap], queues: &[Vec<u32>; 3]) -> MarketSnapshot {
    MarketSnapshot {
        tables: pool.tables().clone(),
        slots: slots.to_vec(),
        admission_queues: queues.clone(),
    }
}

/// `dense` frozen, as the surface freezes the live pool.
fn freeze(dense: &MarketSnapshot, previous: Option<&FrozenSnapshot>) -> FrozenSnapshot {
    FrozenSnapshot::new(
        &dense.tables,
        &dense.slots,
        &dense.admission_queues,
        previous,
    )
}

#[test]
fn a_stamped_delta_is_at_most_56_bytes() {
    assert!(std::mem::size_of::<Stamped<MarketDelta>>() <= 56);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // A real pool driven through every mutating call, with the surface
    // attached the way the market attaches it (`sync` after each step,
    // `snapshot_round` now and then).
    #[test]
    fn frozen_snapshots_thaw_to_the_dense_capture_and_replay_to_the_live_pool(
        steps in proptest::collection::vec(
            // ((op, host, session), (rank, count, lease kind), snapshot after?)
            ((0u8..12, 0u32..HOSTS as u32, 0u32..5), (0u8..4, 1u32..4, 0u8..3), 0u8..5),
            1..70,
        ),
    ) {
        let mut pool = pristine().clone();
        pool.enable_op_log();
        let mut lo = LiveOps::new(LiveOpsConfig::default());
        let handle = lo.handle();
        let mut slots: Vec<SlotSnap> = (0..3).map(idle_slot).collect();
        let mut queues: [Vec<u32>; 3] = [Vec::new(), Vec::new(), Vec::new()];

        // Every run has a host that is down and still holds stranded
        // claims, one permanent and one leased.
        let stranded = HostId(7);
        pool.reserve_leased(stranded, SessionId(0), Rank::MEMBER, 1, None).unwrap();
        pool.reserve_leased(stranded, SessionId(1), Rank::helper(2), 1, Some(secs(500)))
            .unwrap();
        pool.kill_host(stranded);
        lo.sync(SimTime::ZERO, pool.drain_op_log(), &slots, &queues);
        lo.snapshot_round(SimTime::ZERO, &pool, &slots, &queues);

        for (i, step) in steps.into_iter().enumerate() {
            let ((op, host, session), (rank, count, lease_kind), snap) = step;
            let now = secs(1 + i as u64);
            let (h, s, r) = (HostId(host), SessionId(session), Rank(rank));
            match op {
                0..=2 => {
                    let _ = pool.reserve_leased(h, s, r, count, lease(lease_kind, now));
                }
                3 => {
                    pool.release_session(s);
                }
                4 => {
                    pool.release_on_host(s, h);
                }
                5 => {
                    pool.release_degrees(h, s, r, count);
                }
                6 => {
                    pool.renew_session(s, now + secs(40));
                }
                7 => {
                    pool.expire_leases(now);
                }
                8 => pool.kill_host(h),
                9 => pool.revive_host(h),
                10 => {
                    let slot = &mut slots[session as usize % 3];
                    slot.active = !slot.active;
                    slot.cycle += u64::from(count);
                    slot.queued_since_us = lease(lease_kind, now).map(|t| t.as_micros());
                }
                _ => {
                    let q = &mut queues[rank as usize % 3];
                    if q.len() > 2 {
                        q.remove(0);
                    } else {
                        q.push(session);
                    }
                }
            }
            lo.sync(now, pool.drain_op_log(), &slots, &queues);
            if snap == 0 {
                lo.snapshot_round(now, &pool, &slots, &queues);
                let store = handle.lock().unwrap();
                let frozen = &store.latest_snapshot().unwrap().state;
                prop_assert_eq!(frozen.thaw(), capture(&pool, &slots, &queues));
            }
        }

        let live = capture(&pool, &slots, &queues);
        let store = handle.lock().unwrap();
        for idx in 0..store.snapshots().len() {
            let replayed = reconstruct_at(&store, idx).unwrap();
            prop_assert_eq!(&replayed, &live, "from snapshot {}", idx);
        }
    }

    // Pools no generator builds, as dense snapshots: freeze → thaw is the
    // identity, and folding ops into the thawed snapshot is the same calls
    // on the plain tables.
    #[test]
    fn degenerate_pools_freeze_thaw_and_fold_like_a_sweep_of_every_table(
        hosts in proptest::collection::vec(
            // (degree bound, alive, claims: (session, rank, count, lease kind))
            (
                0u32..5,
                any::<bool>(),
                proptest::collection::vec((0u32..4, 0u8..4, 1u32..3, 0u8..3), 0..3),
            ),
            0..10,
        ),
        ops in proptest::collection::vec(
            // (op, host, session, rank, count, lease kind)
            (0u8..8, 0usize..64, 0u32..4, 0u8..4, 1u32..3, 0u8..3),
            0..40,
        ),
    ) {
        let mut tables: Vec<DegreeTable> = Vec::new();
        let mut alive: Vec<bool> = Vec::new();
        for (dbound, up, claims) in hosts {
            let mut t = DegreeTable::new(dbound);
            for (session, rank, count, lease_kind) in claims {
                let _ = t.reserve_until(
                    SessionId(session),
                    Rank(rank),
                    count,
                    lease(lease_kind, SimTime::ZERO),
                );
            }
            tables.push(t);
            alive.push(up);
        }
        let dense = |tables: &[DegreeTable], alive: &[bool]| MarketSnapshot {
            tables: HostTables::new(alive.to_vec(), tables.to_vec()),
            slots: vec![idle_slot(3)],
            admission_queues: [vec![0], Vec::new(), vec![2, 1]],
        };

        let start = dense(&tables, &alive);
        let frozen = freeze(&start, None);
        prop_assert_eq!(&frozen.thaw(), &start);
        // A second snapshot of unchanged bounds shares them and is equal.
        prop_assert_eq!(&freeze(&start, Some(&frozen)), &frozen);

        // Fold the ops into the thawed snapshot and, as every-table
        // sweeps, into the plain tables.
        let mut replay = frozen.thaw();
        let n = tables.len();
        for (i, (op, host, session, rank, count, lease_kind)) in ops.into_iter().enumerate() {
            let now = secs(1 + i as u64);
            let (s, r) = (SessionId(session), Rank(rank));
            let pool_op = match op {
                6 => {
                    let expires_at = now + secs(40);
                    for t in &mut tables {
                        t.renew(s, expires_at);
                    }
                    PoolOp::Renew { session: s, expires_at }
                }
                7 => {
                    for t in &mut tables {
                        t.expire(now);
                    }
                    PoolOp::ExpireLeases { now }
                }
                _ if n == 0 => continue,
                0..=2 => {
                    let expires_at = lease(lease_kind, now);
                    // A down host refuses every claim.
                    let ok = alive[host % n]
                        && tables[host % n].reserve_until(s, r, count, expires_at).is_ok();
                    PoolOp::Reserve {
                        host: HostId((host % n) as u32),
                        session: s,
                        rank: r,
                        count,
                        expires_at,
                        ok,
                    }
                }
                3 => {
                    let on: Vec<HostId> = (0..n)
                        .filter(|&h| tables[h].held_by(s) > 0)
                        .map(|h| HostId(h as u32))
                        .collect();
                    for h in &on {
                        tables[h.idx()].release(s);
                    }
                    PoolOp::ReleaseSession { session: s, hosts: on }
                }
                4 => {
                    tables[host % n].release_count(s, r, count);
                    PoolOp::ReleaseDegrees {
                        host: HostId((host % n) as u32),
                        session: s,
                        rank: r,
                        count,
                    }
                }
                _ => {
                    alive[host % n] = !alive[host % n];
                    PoolOp::SetAlive {
                        host: HostId((host % n) as u32),
                        alive: alive[host % n],
                    }
                }
            };
            replay.apply(&MarketDelta::Pool(pool_op));
        }
        prop_assert_eq!(replay, dense(&tables, &alive));
    }
}
