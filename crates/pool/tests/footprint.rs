//! What the pool and the live-operations store retain, as numbers a test
//! holds: a clone of a pool copies its mutable tables but not its
//! coordinates (DESIGN.md §11.5); a stored snapshot costs what the market
//! *holds* — the same bytes in a 4 096-host and a 32 768-host pool — and a
//! surface with no standing query keeps no query index (DESIGN.md §17.3,
//! "the snapshot layout").
//!
//! `testkit`'s counting allocator keeps its tallies per thread, so the
//! tests of this binary can run side by side.

use netsim::{HostId, NetworkConfig};
use oracle::{LatencySource, TieredConfig};
use pool::{FrozenSnapshot, LiveOps, LiveOpsConfig, PoolConfig, Rank, ResourcePool, SessionId};
use simcore::SimTime;
use testkit::measured;

#[global_allocator]
static ALLOC: testkit::Counting = testkit::Counting;

const HELD_TABLES: u32 = 64;
const NO_QUEUES: [Vec<u32>; 3] = [Vec::new(), Vec::new(), Vec::new()];

/// An `n`-host pool on which four sessions hold degrees on 64 hosts —
/// leased helper claims, permanent member claims on every other one — and
/// eight further hosts are down, two of them with stranded claims.
fn pool_holding_64_tables(n: usize) -> ResourcePool {
    let mut pool = ResourcePool::build(
        &PoolConfig {
            net: NetworkConfig {
                num_hosts: n,
                ..NetworkConfig::default()
            },
            // The metric protocols are not what is measured.
            coord_rounds: 0,
            leafset_size: 4,
            ..PoolConfig::default()
        },
        7,
    );
    let lease = Some(SimTime::from_secs(90));
    for i in 0..HELD_TABLES {
        let h = HostId(i * 50);
        pool.reserve_leased(
            h,
            SessionId(i % 4),
            Rank::helper(1 + (i % 3) as u8),
            1,
            lease,
        )
        .expect("an idle host has a degree to lease");
        if i % 2 == 0 {
            pool.reserve(h, SessionId(9), Rank::MEMBER, 1)
                .expect("and one for a member claim");
        }
    }
    for h in [0, 50, 7, 8, 9, 10, 11, 12] {
        pool.kill_host(HostId(h));
    }
    pool
}

#[test]
fn a_pool_clone_shares_its_coordinates() {
    let n = 32_768;
    let pool = ResourcePool::build(
        &PoolConfig {
            net: NetworkConfig {
                num_hosts: n,
                ..NetworkConfig::default()
            },
            coord_rounds: 0,
            leafset_size: 4,
            latency_source: LatencySource::Tiered(TieredConfig::default()),
        },
        7,
    );
    let coord_buffer = pool.coords.resident_bytes();
    assert_eq!(coord_buffer, n * 5 * 8);
    let (copy, cost) = measured(|| pool.clone());
    // What a clone must copy: the network's host and router tables, the
    // ring, the bandwidth estimates, the degree tables and the liveness
    // flags (the kernel, the sketch and the coordinates are shared).
    let (parts, parts_cost) = measured(|| {
        let tables: Vec<_> = (0..n as u32)
            .map(|h| pool.table(HostId(h)).clone())
            .collect();
        let alive = vec![true; n];
        (
            pool.net.clone(),
            pool.ring.clone(),
            pool.bw.clone(),
            tables,
            alive,
        )
    });
    let beyond = cost.held.saturating_sub(parts_cost.held);
    assert!(
        beyond < coord_buffer,
        "a {n}-host pool clone retained {beyond} B beyond its tables, \
         a coordinate buffer is {coord_buffer} B"
    );
    drop((copy, parts));
}

#[test]
fn a_frozen_snapshot_costs_what_the_market_holds_not_the_pool() {
    let mut costs = Vec::new();
    for n in [4096usize, 32_768] {
        let pool = pool_holding_64_tables(n);
        let (first, first_cost) =
            measured(|| FrozenSnapshot::capture(&pool, &[], &NO_QUEUES, None));
        assert!(
            first_cost.held >= 4 * n,
            "a run's first snapshot allocates the shared degree-bound vector"
        );
        let (second, cost) =
            measured(|| FrozenSnapshot::capture(&pool, &[], &NO_QUEUES, Some(&first)));
        let held = cost.held;
        assert!(
            held < 16 * 1024,
            "{n} hosts: a further snapshot retained {held} B for {HELD_TABLES} held tables"
        );
        // Sparse is not lossy: both thaw to the dense capture.
        let dense = pool::MarketSnapshot::capture(&pool, &[], &NO_QUEUES);
        assert_eq!(first.thaw(), dense);
        assert_eq!(second.thaw(), dense);
        costs.push(held);
    }
    assert_eq!(
        costs[0], costs[1],
        "the same holdings must cost the same bytes at 4 096 and 32 768 hosts"
    );
}

#[test]
fn a_surface_with_no_standing_query_retains_no_index() {
    let n = 32_768;
    let pool = pool_holding_64_tables(n);
    let mut lo = LiveOps::new(LiveOpsConfig::default());
    // The first round allocates what is per-run: the shared degree bounds
    // and the per-host side of the utilization threshold.
    lo.snapshot_round(SimTime::ZERO, &pool, &[], &NO_QUEUES);
    let ((), cost) = measured(|| lo.snapshot_round(SimTime::from_secs(60), &pool, &[], &NO_QUEUES));
    let held = cost.held;
    // A query index is ≈ 350 B per host (11 MB here); the round's snapshot
    // and notes are all that may stay.
    assert!(
        held < 16 * 1024,
        "a round with no standing query retained {held} B at {n} hosts"
    );
    let store = lo.handle();
    assert_eq!(store.lock().expect("store lock").stats().snapshots, 2);
}
