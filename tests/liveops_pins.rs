//! The live-operations surface's correctness contract, end to end on the
//! faulted markets of `bench::cells` (helper and root crashes, leases,
//! failover — every market event family fires):
//!
//! * attaching a [`LiveOps`] store is **trajectory-neutral** — the run is
//!   the plain ring-traced run, and the store's streamed copy of the trace
//!   is byte-identical to the ring's;
//! * **replay determinism** — reconstructing from *every* retained
//!   snapshot (snapshot + delta fold) lands on the same final state,
//!   byte for byte, as the snapshot the run took at the horizon;
//! * a **bounded** store keeps the newest records, counts exactly what it
//!   evicted, and refuses (typed [`ReplayGap`]) every answer the evicted
//!   range would have fed — never a silent partial one;
//! * store-served operator queries carry the honest `Freshness`
//!   contract: an empty window reports the a-priori bound, not zero;
//! * what the store **exports and replays to is pinned** byte for byte:
//!   the checks above compare a run against itself, so they cannot see a
//!   change that moves the store's exported bytes and every replay
//!   together. Each pin renders one store-attached market three ways —
//!   `snapshots_json_lines()`, `deltas_json_lines()`, and the JSON of
//!   `reconstruct_at(store, i)` for every snapshot `i`, one per line — and
//!   compares `(bytes, FNV-1a-64)` of each against constants recorded at
//!   commit 4b33679, before the store's snapshot and delta layouts were
//!   rebuilt. The delta exports were re-pinned once since, when
//!   `ReleaseSession` began listing its hosts in ascending order rather
//!   than booking order (same bytes, same replays).
//!   `crates/testkit/src/lib.rs` says how to re-pin after an intended
//!   behaviour change; a change to how the store *holds* a run never
//!   re-pins.

use std::sync::OnceLock;

use bench::cells::Cell;
use p2p_resource_pool::pool::liveops::{
    hosts_crossed_up, hosts_over_threshold, reconstruct_at, MarketStoreHandle,
};
use p2p_resource_pool::pool::MarketOutcome;
use p2p_resource_pool::prelude::*;
use p2p_resource_pool::simcore::trace::to_json_lines;
use testkit::fnv1a64;

/// `(bytes, FNV-1a-64)` of the snapshot export, the delta export and the
/// replays of one cell.
type Pins = [(usize, u64); 3];

/// A run's outcome and final pool.
type Ended = (MarketOutcome, ResourcePool);

/// A store-attached run: its outcome, final pool and store.
struct StoreRun {
    out: MarketOutcome,
    pool: ResourcePool,
    store: MarketStoreHandle,
}

/// Run `cell` with `lo` attached.
fn store_run(cell: Cell, lo: LiveOps) -> StoreRun {
    let mut sim = cell.sim();
    let store = sim.attach_liveops(lo);
    let (out, pool) = sim.run_full();
    StoreRun { out, pool, store }
}

/// The operator surface of one pinned run: its thresholds and, pool-wide,
/// the `(member, rank, min_free, threshold)` of each standing query.
fn surface(
    util_threshold: f64,
    pressure_threshold: f64,
    queries: &[(u32, u8, u32, u64)],
) -> LiveOps {
    let mut lo = LiveOps::new(LiveOpsConfig {
        util_threshold,
        pressure_threshold,
        ..LiveOpsConfig::default()
    });
    for &(member, rank, min_free, threshold) in queries {
        lo.subscribe(member, [0.0, 0.0], 1e9, rank, min_free, threshold);
    }
    lo
}

/// The [`Cell::Gate`] market, ring-traced, made once.
fn ring_run() -> &'static Ended {
    static RUN: OnceLock<Ended> = OnceLock::new();
    RUN.get_or_init(|| {
        let mut sim = Cell::Gate.sim();
        sim.set_tracer(Tracer::ring(1 << 16));
        sim.run_full()
    })
}

/// The [`Cell::Gate`] market under the default surface (a 60 s snapshot
/// period, no standing query, only utilization notes fire), made once:
/// the neutrality check and the pins read the same run.
fn default_store_run() -> &'static StoreRun {
    static RUN: OnceLock<StoreRun> = OnceLock::new();
    RUN.get_or_init(|| store_run(Cell::Gate, LiveOps::new(LiveOpsConfig::default())))
}

/// Digest what `run`'s store exports and what it replays to.
fn digests(run: &StoreRun) -> Pins {
    let store = run.store.lock().expect("store lock");
    assert_eq!(store.stats().delta_evicted, 0, "pins digest the whole log");
    let mut replays = String::new();
    for idx in 0..store.snapshots().len() {
        let replayed = reconstruct_at(&store, idx).expect("nothing evicted");
        replays.push_str(&serde_json::to_string(&replayed).expect("serializes"));
        replays.push('\n');
    }
    let deltas = store.deltas_json_lines();
    [store.snapshots_json_lines(), deltas, replays].map(|s| (s.len(), fnv1a64(&s)))
}

fn assert_pinned(run: &StoreRun, pins: Pins) {
    let got = digests(run);
    for (part, (g, p)) in ["snapshot export", "delta export", "replays"]
        .iter()
        .zip(got.iter().zip(&pins))
    {
        assert_eq!(g, p, "{part} moved off its pinned (bytes, digest)");
    }
}

/// Retention never moves the run: the final books and liveness of every
/// host are the ring run's.
fn assert_same_pool(ring: &ResourcePool, store: &ResourcePool) {
    for h in ring.net.hosts.ids() {
        assert_eq!(ring.table(h), store.table(h));
        assert_eq!(ring.is_alive(h), store.is_alive(h));
    }
}

#[test]
fn liveops_store_is_trajectory_neutral_and_replays_byte_identically() {
    // Reference: the plain ring-traced run.
    let (ring_out, ring_pool) = ring_run();
    let ring_trace = to_json_lines(&ring_out.trace);
    assert!(
        !ring_out.trace.is_empty(),
        "faulted market must emit events"
    );

    // The same run with the live-operations surface attached.
    let run = default_store_run();
    let store = run.store.lock().expect("store lock");

    // Trajectory neutrality: same trace through the store, same outcome,
    // same final degree tables.
    assert_eq!(
        ring_trace,
        store.trace_json_lines().expect("nothing evicted"),
        "attaching the store changed (or lost part of) the trace"
    );
    assert!(run.out.trace.is_empty(), "store owns the records");
    assert_eq!(ring_out.plans, run.out.plans);
    assert_eq!(ring_out.leaked_degrees, run.out.leaked_degrees);
    assert_same_pool(ring_pool, &run.pool);

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
    assert!(
        final_state.tables == *run.pool.tables(),
        "the final snapshot's tables are not the live pool's"
    );

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
    let (ring_out, ring_pool) = ring_run();
    let emitted = ring_out.trace.len() as u64;

    const SEGMENT: usize = 16;
    const SEGMENTS: usize = 4;
    let run = store_run(
        Cell::Gate,
        LiveOps::new(LiveOpsConfig {
            store: StoreConfig::bounded(SEGMENT, SEGMENTS),
            ..LiveOpsConfig::default()
        }),
    );
    let store = run.store.lock().expect("store lock");
    assert_eq!(ring_out.plans, run.out.plans);
    assert_same_pool(ring_pool, &run.pool);

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
    let live = ring_pool.tables().hosts_over_utilization(0.9);
    let over = hosts_over_threshold(&store, 0.9, bound).expect("closing snapshot is consistent");
    assert!(!live.is_empty(), "the workload must load some host");
    assert_eq!(over.hosts, live);
}

/// The gate market exactly as the neutrality check attaches it: no
/// standing query, default thresholds — only utilization notes fire.
#[test]
fn gate_market_without_a_standing_query_matches_its_pins() {
    assert_pinned(
        default_store_run(),
        [
            (294604, 6187311596818817858),
            (164053, 7801535562262397236),
            (298650, 3724144832456006707),
        ],
    );
}

/// The same market under thresholds the run does cross: four standing
/// queries whose counts move through their thresholds as hosts crash and
/// sessions come and go (20 `Threshold` notes), a pressure watch that
/// flips 11 times, utilization alarms at 50 %.
#[test]
fn gate_market_with_firing_standing_queries_matches_its_pins() {
    let queries = [(0, 3, 1, 116), (0, 3, 1, 130), (3, 3, 4, 20), (3, 1, 4, 25)];
    assert_pinned(
        &store_run(Cell::Gate, surface(0.5, 0.7, &queries)),
        [
            (294606, 10459742157197572490),
            (177131, 4631156042728506019),
            (298650, 3724144832456006707),
        ],
    );
}

/// The same market in Admission mode, so the admission FIFOs change and
/// `Queues` deltas are logged; one standing query.
#[test]
fn gate_admission_market_matches_its_pins() {
    assert_pinned(
        &store_run(Cell::GateAdmission, surface(0.9, 0.7, &[(0, 3, 1, 130)])),
        [
            (249861, 9451446308213077921),
            (113096, 10916724823234261303),
            (240196, 14383605186438256709),
        ],
    );
}

/// The 200-host workload with the one standing query `ext_liveops`
/// registers.
#[test]
fn smoke_market_with_its_standing_query_matches_its_pins() {
    assert_pinned(
        &store_run(Cell::Smoke, surface(0.9, 0.15, &[(0, 3, 1, 5)])),
        [
            (347378, 13774784677875290154),
            (159479, 8398496198077657587),
            (348876, 8882974644916446117),
        ],
    );
}

/// The 200-host workload with no standing query, under a pressure threshold
/// the run crosses seven times: the pressure watch with no query to serve.
#[test]
fn smoke_market_without_a_standing_query_matches_its_pins() {
    assert_pinned(
        &store_run(Cell::Smoke, surface(0.9, 0.8, &[])),
        [
            (347378, 2693020685318820226),
            (160021, 17184556239819342160),
            (348876, 8882974644916446117),
        ],
    );
}
