//! What the pool and the live-operations store retain, as numbers a test
//! holds: a clone of a pool copies its mutable tables and shares its
//! network, ring, bandwidth estimates and coordinates (DESIGN.md §11.5);
//! a stored snapshot costs what the market
//! *holds* — the same bytes in a 4 096-host and a 32 768-host pool — and a
//! surface with no standing query keeps no query index (DESIGN.md §17.3,
//! "the snapshot layout").
//!
//! `testkit`'s counting allocator keeps its tallies per thread, so the
//! tests of this binary can run side by side.

use std::sync::Arc;

use alm::dynamic::ReattachConfig;
use netsim::{HostId, NetworkConfig};
use oracle::{LatencySource, TieredConfig};
use pool::recovery::{run_pipeline, RecoveryConfig};
use pool::{FrozenSnapshot, LiveOps, LiveOpsConfig, PoolConfig, Rank, ResourcePool, SessionId};
use simcore::{FaultPlan, SimTime};
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
            pool.reserve_leased(h, SessionId(9), Rank::MEMBER, 1, None)
                .expect("and one for a member claim");
        }
    }
    for h in [0, 50, 7, 8, 9, 10, 11, 12] {
        pool.kill_host(HostId(h));
    }
    pool
}

#[test]
fn a_pool_clone_copies_only_its_mutable_tables() {
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
    let (copy, cost) = measured(|| pool.clone());
    // The network, the ring and the bandwidth estimates are read-only
    // handles the clone shares, as are the coordinates, the kernel and
    // the sketch.
    assert!(Arc::ptr_eq(&copy.net, &pool.net), "the network was copied");
    assert!(Arc::ptr_eq(&copy.ring, &pool.ring), "the ring was copied");
    assert!(
        Arc::ptr_eq(&copy.bw, &pool.bw),
        "the bandwidths were copied"
    );
    // What a clone must copy: the degree tables, the liveness flags and
    // the tiered oracle's hot-tier state (a slot index and a batch mark per
    // router, and the tier's counters), which what-if clones must not share.
    let (parts, parts_cost) = measured(|| {
        let tables: Vec<_> = (0..n as u32)
            .map(|h| pool.table(HostId(h)).clone())
            .collect();
        (tables, vec![true; n])
    });
    let hot_tier = 8 * pool.net.routers.graph.len() + 256;
    let beyond = cost.held.saturating_sub(parts_cost.held);
    assert!(
        beyond <= hot_tier,
        "a {n}-host pool clone retained {beyond} B beyond its degree tables \
         and liveness flags; the hot tier's state is at most {hot_tier} B"
    );
    drop((copy, parts));
}

#[test]
fn a_frozen_snapshot_costs_what_the_market_holds_not_the_pool() {
    let mut costs = Vec::new();
    for n in [4096usize, 32_768] {
        let pool = pool_holding_64_tables(n);
        let (first, first_cost) =
            measured(|| FrozenSnapshot::new(pool.tables(), &[], &NO_QUEUES, None));
        assert!(
            first_cost.held >= 4 * n,
            "a run's first snapshot allocates the shared degree-bound vector"
        );
        let (second, cost) =
            measured(|| FrozenSnapshot::new(pool.tables(), &[], &NO_QUEUES, Some(&first)));
        let held = cost.held;
        assert!(
            held < 16 * 1024,
            "{n} hosts: a further snapshot retained {held} B for {HELD_TABLES} held tables"
        );
        // Sparse is not lossy: both thaw to the pool's tables.
        assert_eq!(first.thaw().tables, *pool.tables());
        assert_eq!(second.thaw().tables, *pool.tables());
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

/// The benchmark's `recovery_churn` scenario: 4 096 nodes, 64 of them
/// crashing at 30 s, 5 % loss on every protocol message, a 256-member
/// session and 80 reattach attempts per orphan.
fn recovery_churn() -> RecoveryConfig {
    RecoveryConfig {
        n: 4096,
        crashes: 64,
        plan: FaultPlan::with_loss(2, 0.05),
        session_size: 256,
        reattach: ReattachConfig {
            max_attempts: 80,
            ..ReattachConfig::default()
        },
        ..RecoveryConfig::default()
    }
}

/// The pipeline's live heap peaks in its heartbeat phase, where every
/// node's view, the event queue and the gossip in flight are resident at
/// once (DESIGN.md §8.3). With 16-byte `(NodeId, SimTime)` entries, `Rc`
/// gossip payloads and per-node gather state, 2eb2edf peaked at
/// 4 423 296 B here, counting a growing vector's old and new buffers as
/// both live while it moved; bd119f8 read 2 853 520 B that way. Counting a
/// `realloc` by its size change, a8b1267 peaked at 2 349 792 B; once
/// gossip adopted only peers that enter the receiver's leafset (views of
/// 8, no certificate for a live peer), b2e61ee peaked at 1 547 712 B.
/// Without death certificates, with one size of gossip run and each
/// node's ID in its node state, this tree peaks at 1 514 496 B.
#[test]
fn the_recovery_pipeline_peaks_within_its_budget() {
    let (out, cost) = measured(|| run_pipeline(&recovery_churn()));
    assert!(
        out.dht_dropped > 0 && out.gather_dropped > 0,
        "the loss plan never fired"
    );
    assert!(
        out.audit.is_clean(),
        "violations: {:?}",
        out.audit.violations
    );
    let budget = 1_540_000;
    assert!(
        cost.peak <= budget,
        "the recovery pipeline peaked at {} B of live heap; the budget is {budget} B",
        cost.peak
    );
}
