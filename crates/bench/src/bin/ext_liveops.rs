//! Extension: the live operations surface — the queryable run store,
//! audited for correctness on a faulted fig10-style market.
//!
//! Two same-seed runs of one crash-laden market workload, each observed
//! through a different surface, held to byte-identity and exact-count
//! gates:
//!
//! * **ring** — the legacy post-hoc ring tracer: the reference trace and
//!   final degree tables;
//! * **store** — a [`pool::LiveOps`] surface attached: trace streams into
//!   the run store, every pool op / slot / queue change lands in the
//!   delta log, periodic [`pool::MarketSnapshot`]s are taken. Gates: the
//!   store's trace is byte-identical to the ring run's; the final degree
//!   tables match host for host; **replaying from every snapshot**
//!   reconstructs the final state byte-identically (JSON of the replayed
//!   state vs the final snapshot's); nothing was evicted.
//!
//! The operator queries ride the same store: "which hosts are over 90%
//! degree utilization", "which hosts crossed up in the last N rounds" —
//! answers carry the [`query`] crate's `Freshness` contract (an empty
//! window reports the a-priori bound, not false freshness).
//!
//! Pass `--store-out` to dump the live and store traces plus the
//! delta/snapshot logs as JSON lines for the byte-comparison step in CI.
//!
//! Run with: `cargo run --release -p bench --bin ext_liveops`

use bench::{dump_json, dump_jsonl, store_out_requested};
use netsim::NetworkConfig;
use pool::liveops::{hosts_crossed_up, hosts_over_threshold, reconstruct_at};
use pool::{LiveOps, LiveOpsConfig, MarketConfig, MarketSim, PlanConfig, PoolConfig, ResourcePool};
use serde_json::json;
use simcore::trace::to_json_lines;
use simcore::{FaultPlan, SimTime, Tracer};

const SEED: u64 = 3001;
const UTIL_THRESHOLD: f64 = 0.9;

/// The one workload: a 300-host pool, nine 12-member sessions over
/// 1800 s, every seventh host crashing from 600 s on.
const HOSTS: usize = 300;
const SESSIONS: usize = 9;
const MEMBER_SIZE: usize = 12;
const HORIZON: SimTime = SimTime::from_secs(1800);
const WARMUP: SimTime = SimTime::from_secs(300);
const CRASH_STEP: usize = 7;

fn main() {
    println!("building the {HOSTS}-host pool (faulted fig10-style market, {SESSIONS} sessions)...");
    let pristine = ResourcePool::build(
        &PoolConfig {
            net: NetworkConfig {
                num_hosts: HOSTS,
                ..NetworkConfig::default()
            },
            coord_rounds: 4,
            ..PoolConfig::default()
        },
        SEED,
    );

    // --- run 1: the reference ring trace -------------------------------
    println!("run 1/2: ring tracer (reference trace + final tables)...");
    let mut sim = market(&pristine);
    sim.set_tracer(Tracer::ring(1 << 16));
    let (ring_out, ring_pool) = sim.run_full();
    let ring_trace = to_json_lines(&ring_out.trace);
    let emitted = ring_out.trace.len() as u64;
    assert!(emitted > 0, "the faulted market must emit trace records");
    assert!(
        (emitted as usize) < (1 << 16),
        "ring capacity too small for a byte-identity reference"
    );

    // --- run 2: the live-operations store ------------------------------
    println!("run 2/2: live-operations store (trace + deltas + snapshots)...");
    let mut sim = market(&pristine);
    let mut lo = LiveOps::new(LiveOpsConfig {
        snapshot_period: SimTime::from_secs(60),
        util_threshold: UTIL_THRESHOLD,
        ..LiveOpsConfig::default()
    });
    // A standing operator query: alarm when fewer than 5 hosts near the
    // origin still offer free rank-3 degrees.
    lo.subscribe(0, [0.0, 0.0], 1e9, 3, 1, 5);
    let handle = sim.attach_liveops(lo);
    let (store_out, store_pool) = sim.run_full();
    assert!(
        store_out.trace.is_empty(),
        "the store owns the records; the outcome's inline trace is empty"
    );
    let store = handle.lock().expect("store lock");

    // Gate: byte-identical trace through the store path.
    let store_trace = store
        .trace_json_lines()
        .expect("nothing evicted at this capacity");
    assert_eq!(
        ring_trace, store_trace,
        "store-streamed trace diverged from the ring trace"
    );
    // Gate: attaching the surface did not move the trajectory.
    assert_eq!(ring_out.plans, store_out.plans, "plan count diverged");
    assert_eq!(
        ring_out.leaked_degrees, store_out.leaked_degrees,
        "leak census diverged"
    );
    let mut tables_checked = 0u64;
    for h in (0..HOSTS as u32).map(netsim::HostId) {
        assert_eq!(
            ring_pool.table(h),
            store_pool.table(h),
            "final degree table diverged on host {h:?}"
        );
        assert_eq!(ring_pool.is_alive(h), store_pool.is_alive(h));
        tables_checked += 1;
    }

    // Gate: counted-nothing-dropped store accounting.
    let stats = store.stats();
    assert_eq!(stats.trace_appended, emitted, "store missed trace records");
    assert_eq!(stats.trace_evicted, 0, "store evicted trace records");
    assert_eq!(stats.delta_evicted, 0, "store evicted deltas");
    assert!(stats.snapshots >= 2, "need snapshots to replay from");

    // Gate: replay from EVERY snapshot reconstructs the final state
    // byte-identically (JSON of the replayed state vs the final
    // snapshot's state, which run_full captured at the horizon).
    let final_state = store
        .latest_snapshot()
        .expect("final snapshot exists")
        .state
        .thaw();
    let final_json = serde_json::to_string(&final_state).expect("snapshot serializes");
    let mut replays = 0u64;
    for idx in 0..store.snapshots().len() {
        let replayed = reconstruct_at(&store, idx).expect("nothing evicted");
        let got = serde_json::to_string(&replayed).expect("replayed state serializes");
        assert_eq!(
            got, final_json,
            "replay from snapshot {idx} diverged from the final state"
        );
        replays += 1;
    }
    // And the reconstructed tables are the live run's final tables.
    assert!(
        final_state.tables == *store_pool.tables(),
        "snapshot tables diverged from the live pool's"
    );

    // Operator queries against the store, with the Freshness contract.
    let bound = SimTime::from_secs(60);
    let over = hosts_over_threshold(&store, UTIL_THRESHOLD, bound).expect("nothing evicted");
    assert!(!over.freshness.empty_scope(), "populated store has a scope");
    let crossed = hosts_crossed_up(&store, SimTime::ZERO, bound).expect("nothing evicted");
    let empty =
        hosts_crossed_up(&store, HORIZON + SimTime::from_secs(1), bound).expect("nothing evicted");
    assert!(empty.hosts.is_empty());
    assert!(
        empty.freshness.empty_scope() && empty.freshness.staleness(HORIZON) == bound,
        "an empty window must report the a-priori bound"
    );

    println!(
        "\nall gates passed: trace byte-identity (ring == store), \
         {replays} snapshot replays byte-identical to the final state, \
         {tables_checked} final tables matched"
    );

    if store_out_requested() {
        dump_jsonl("ext_liveops_trace_live", &ring_trace);
        dump_jsonl("ext_liveops_trace_store", &store_trace);
        dump_jsonl("ext_liveops_deltas", &store.deltas_json_lines());
        dump_jsonl("ext_liveops_snapshots", &store.snapshots_json_lines());
    }

    dump_json(
        "ext_liveops",
        &json!({
            "extension": "liveops",
            "workload": {
                "hosts": HOSTS,
                "sessions": SESSIONS,
                "member_size": MEMBER_SIZE,
                "horizon_s": HORIZON.as_secs_f64(),
                "crash_step": CRASH_STEP,
            },
            "trace": {
                "emitted": emitted,
                "ring_equals_store": true,
            },
            "store": {
                "trace_appended": stats.trace_appended,
                "trace_evicted": stats.trace_evicted,
                "delta_appended": stats.delta_appended,
                "delta_evicted": stats.delta_evicted,
                "snapshots": stats.snapshots,
                "replays_byte_identical": replays,
                "final_tables_checked": tables_checked,
            },
            "queries": {
                "util_threshold": UTIL_THRESHOLD,
                "hosts_over_threshold_final": over.hosts.len(),
                "hosts_crossed_up_total": crossed.hosts.len(),
                "freshness_bound_s": bound.as_secs_f64(),
                "empty_window_reports_bound": true,
            },
        }),
    );
}

fn market(pristine: &ResourcePool) -> MarketSim {
    let mut faults = FaultPlan::none();
    for h in (0..HOSTS as u64).step_by(CRASH_STEP) {
        faults = faults.crash_forever(h, SimTime::from_secs(600 + h));
    }
    let cfg = MarketConfig {
        sessions: SESSIONS,
        member_size: MEMBER_SIZE,
        horizon: HORIZON,
        warmup: WARMUP,
        faults,
        plan: PlanConfig::default(),
        ..MarketConfig::default()
    };
    MarketSim::new(pristine.clone(), cfg, SEED)
}
