//! The live-operations surface's correctness contract, end to end on a
//! faulted market run:
//!
//! * attaching a [`LiveOps`] store is **trajectory-neutral** — the traced
//!   run is byte-identical to a plain ring-traced run, and the store's
//!   streamed copy of the trace is byte-identical to both;
//! * **replay determinism** — reconstructing from *every* retained
//!   snapshot (snapshot + delta fold) lands on the same final state,
//!   byte for byte, as the snapshot the run took at the horizon;
//! * a **bounded** store keeps the newest records, counts exactly what it
//!   evicted, and refuses (typed [`ReplayGap`]) every answer the evicted
//!   range would have fed — never a silent partial one;
//! * store-served operator queries carry the honest [`Freshness`]
//!   contract: an empty window reports the a-priori bound, not zero.

use std::sync::OnceLock;

use p2p_resource_pool::pool::liveops::{hosts_crossed_up, hosts_over_threshold, reconstruct_at};
use p2p_resource_pool::prelude::*;
use p2p_resource_pool::simcore::trace::to_json_lines;

const SEED: u64 = 29;
const HOSTS: usize = 150;

/// One pristine pool shared across tests (cloned per run; building the
/// coordinate space is the expensive part).
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

/// A fig10-style faulted market: helper and root crashes, leases,
/// failover — every market event family fires.
fn market() -> MarketSim {
    let mut faults = simcore::FaultPlan::none();
    for h in (0..HOSTS as u64).step_by(7) {
        faults = faults.crash_forever(h, SimTime::from_secs(600 + h));
    }
    let cfg = MarketConfig {
        sessions: 6,
        member_size: 12,
        horizon: SimTime::from_secs(1200),
        warmup: SimTime::from_secs(300),
        faults,
        ..MarketConfig::default()
    };
    MarketSim::new(pristine().clone(), cfg, SEED)
}

#[test]
fn liveops_store_is_trajectory_neutral_and_replays_byte_identically() {
    // Reference: the plain ring-traced run.
    let mut sim = market();
    sim.set_tracer(Tracer::ring(1 << 16));
    let (ring_out, ring_pool) = sim.run_full();
    let ring_trace = to_json_lines(&ring_out.trace);
    assert!(
        !ring_out.trace.is_empty(),
        "faulted market must emit events"
    );

    // The same run with the live-operations surface attached.
    let mut sim = market();
    let lo = LiveOps::new(LiveOpsConfig {
        snapshot_period: SimTime::from_secs(60),
        ..LiveOpsConfig::default()
    });
    let handle = sim.attach_liveops(lo);
    let (store_out, store_pool) = sim.run_full();
    let store = handle.lock().expect("store lock");

    // Trajectory neutrality: same trace through the store, same outcome,
    // same final degree tables.
    assert_eq!(
        ring_trace,
        store.trace_json_lines().expect("nothing evicted"),
        "attaching the store changed (or lost part of) the trace"
    );
    assert!(store_out.trace.is_empty(), "store owns the records");
    assert_eq!(ring_out.plans, store_out.plans);
    assert_eq!(ring_out.leaked_degrees, store_out.leaked_degrees);
    for h in (0..HOSTS as u32).map(HostId) {
        assert_eq!(ring_pool.table(h), store_pool.table(h));
        assert_eq!(ring_pool.is_alive(h), store_pool.is_alive(h));
    }

    // Exact accounting: every record appended, nothing evicted or silent.
    let stats = store.stats();
    assert_eq!(stats.trace_appended, ring_out.trace.len() as u64);
    assert_eq!(stats.trace_evicted, 0);
    assert_eq!(stats.delta_evicted, 0);
    assert!(stats.snapshots >= 2, "periodic snapshots must have fired");

    // Replay determinism: every snapshot + delta fold reconstructs the
    // final state byte-identically, and that state is the live pool's.
    let final_state = store
        .latest_snapshot()
        .expect("final snapshot")
        .state
        .thaw();
    let final_json = serde_json::to_string(&final_state).expect("serializes");
    for idx in 0..store.snapshots().len() {
        let replayed = reconstruct_at(&store, idx).expect("nothing evicted");
        assert_eq!(
            serde_json::to_string(&replayed).expect("serializes"),
            final_json,
            "replay from snapshot {idx} diverged"
        );
    }
    for (i, hs) in final_state.hosts.iter().enumerate() {
        assert_eq!(&hs.table, store_pool.table(HostId(i as u32)));
    }

    // Store-served operator queries carry the Freshness contract.
    let bound = SimTime::from_secs(60);
    let over = hosts_over_threshold(&store, 0.9, bound).expect("nothing evicted");
    assert!(!over.freshness.empty_scope());
    let horizon = SimTime::from_secs(1200);
    let empty =
        hosts_crossed_up(&store, horizon + SimTime::from_secs(1), bound).expect("nothing evicted");
    assert!(empty.hosts.is_empty());
    assert!(empty.freshness.empty_scope());
    assert_eq!(
        empty.freshness.staleness(horizon),
        bound,
        "an empty window must admit the a-priori bound, not claim freshness"
    );
}

/// A bounded store keeps the newest records and counts the rest: the run
/// is the ring run's, the evicted head is counted exactly, the full trace
/// is refused rather than handed back partial, and an operator window
/// that reaches into the evicted range is refused, not answered.
#[test]
fn bounded_store_counts_its_evictions_and_refuses_what_they_cover() {
    let mut sim = market();
    sim.set_tracer(Tracer::ring(1 << 16));
    let (ring_out, ring_pool) = sim.run_full();
    let emitted = ring_out.trace.len() as u64;

    const SEGMENT: usize = 16;
    const SEGMENTS: usize = 4;
    let mut sim = market();
    let handle = sim.attach_liveops(LiveOps::new(LiveOpsConfig {
        store: StoreConfig::bounded(SEGMENT, SEGMENTS),
        ..LiveOpsConfig::default()
    }));
    let (store_out, store_pool) = sim.run_full();
    let store = handle.lock().expect("store lock");

    // Retention never moves the run.
    assert_eq!(ring_out.plans, store_out.plans);
    for h in (0..HOSTS as u32).map(HostId) {
        assert_eq!(ring_pool.table(h), store_pool.table(h));
        assert_eq!(ring_pool.is_alive(h), store_pool.is_alive(h));
    }

    // What a full last-but-one segment chain plus the open one holds.
    let retained = |appended: u64| {
        let cap = SEGMENT as u64;
        (SEGMENTS as u64 - 1) * cap + (appended - 1) % cap + 1
    };
    let stats = store.stats();
    let held = (SEGMENT * SEGMENTS) as u64;
    assert!(
        emitted > held && stats.delta_appended > held,
        "workload must overflow both logs"
    );
    assert_eq!(stats.trace_appended, emitted);
    assert_eq!(stats.trace_evicted, emitted - retained(emitted));
    // The full trace no longer exists; the retained tail starts at the
    // first unevicted seq, so it is the newest records.
    assert_eq!(
        store.trace_json_lines(),
        Err(ReplayGap {
            requested: 0,
            earliest: stats.trace_evicted,
        })
    );
    let seqs: Vec<u64> = store.deltas_stored().map(|d| d.seq).collect();
    assert_eq!(
        seqs,
        (stats.delta_evicted..stats.delta_appended).collect::<Vec<_>>()
    );
    assert_eq!(
        stats.delta_evicted,
        stats.delta_appended - retained(stats.delta_appended)
    );

    // Replaying the first snapshot would cross the evicted head: refused.
    let gap = ReplayGap {
        requested: store.snapshots()[0].delta_seq,
        earliest: stats.delta_evicted,
    };
    assert_eq!(reconstruct_at(&store, 0), Err(gap));
    // So is any crossing window that reaches into it.
    let bound = SimTime::from_secs(60);
    let refused = ReplayGap {
        requested: stats.delta_evicted - 1,
        earliest: stats.delta_evicted,
    };
    assert_eq!(hosts_crossed_up(&store, SimTime::ZERO, bound), Err(refused));
    // The closing snapshot needs no delta, so "over threshold now" is
    // still answered, and it is the live pool's answer.
    let queues = [Vec::new(), Vec::new(), Vec::new()];
    let live = MarketSnapshot::capture(&ring_pool, &[], &queues).hosts_over_utilization(0.9);
    let over = hosts_over_threshold(&store, 0.9, bound).expect("closing snapshot is consistent");
    assert!(!live.is_empty(), "the workload must load some host");
    assert_eq!(over.hosts, live);
}
