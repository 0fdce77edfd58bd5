//! The live-operations surface's correctness contract, end to end on the
//! faulted markets of `bench::cells` (helper and root crashes, leases,
//! failover — every market event family fires):
//!
//! * [`gate`] on the `Gate` cell: attaching a [`LiveOps`] store is
//!   **trajectory-neutral** (the store's streamed trace is the ring run's,
//!   byte for byte), and **replay** from *every* retained snapshot lands
//!   on the final state, byte for byte; store-served operator queries
//!   carry the honest `Freshness` contract (an empty window reports the
//!   a-priori bound, not zero). `ext_liveops` runs the same gate on its
//!   own cell;
//! * a **bounded** store keeps the newest records, counts exactly what it
//!   evicted, and refuses (typed [`ReplayGap`]) every answer the evicted
//!   range would have fed — never a silent partial one;
//! * the surface's **standing queries**, replayed along the Gate run: the
//!   pressure signal it folds without an index is the index root's, and a
//!   query registered mid-run is served from the next round on;
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

use bench::cells::{
    assert_same_pool, gate, store_run, surface, Cell, Gated, StoreRun, QUERY_BOUND,
};
use p2p_resource_pool::pool::liveops::{hosts_crossed_up, hosts_over_threshold, reconstruct_at};
use p2p_resource_pool::pool::{MarketDelta, OpsNote, PoolOp};
use p2p_resource_pool::prelude::*;
use testkit::fnv1a64;

/// `(bytes, FNV-1a-64)` of the snapshot export, the delta export and the
/// replays of one cell.
type Pins = [(usize, u64); 3];

/// The [`Cell::Gate`] market through [`gate`] under the default surface
/// (a 60 s snapshot period, no standing query, only utilization notes
/// fire), made once: every test here that reads the Gate market reads
/// these two runs.
fn gated() -> &'static Gated {
    static RUN: OnceLock<Gated> = OnceLock::new();
    RUN.get_or_init(|| gate(Cell::Gate, LiveOps::new(LiveOpsConfig::default())))
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

/// The store on the Gate market passes [`gate`]: trajectory-neutral
/// against the ring-traced run, exact counts, replay from every snapshot,
/// the `Freshness` contract.
#[test]
fn liveops_store_is_trajectory_neutral_and_replays_byte_identically() {
    gated();
}

/// A bounded store keeps the newest records and counts the rest: the run
/// is the ring run's, the evicted head is counted exactly, the full trace
/// is refused rather than handed back partial, and an operator window
/// that reaches into the evicted range is refused, not answered.
#[test]
fn bounded_store_counts_its_evictions_and_refuses_what_they_cover() {
    let (ring_out, ring_pool) = &gated().ring;
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
    let bound = QUERY_BOUND;
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
        &gated().run,
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
/// registers on [`Cell::Operator`].
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

/// Re-execute one logged pool op through the pool's own calls.
fn redo(pool: &mut ResourcePool, op: &PoolOp) {
    match op {
        PoolOp::Reserve {
            host,
            session,
            rank,
            count,
            expires_at,
            ok,
        } => {
            let got = pool.reserve_leased(*host, *session, *rank, *count, *expires_at);
            assert_eq!(
                got.is_ok(),
                *ok,
                "a logged reserve must replay to its verdict"
            );
        }
        PoolOp::ReleaseSession { session, .. } => {
            pool.release_session(*session);
        }
        PoolOp::ReleaseDegrees {
            host,
            session,
            rank,
            count,
        } => {
            pool.release_degrees(*host, *session, *rank, *count);
        }
        PoolOp::ReleaseOnHost { session, host } => {
            pool.release_on_host(*session, *host);
        }
        PoolOp::Renew {
            session,
            expires_at,
        } => {
            pool.renew_session(*session, *expires_at);
        }
        PoolOp::ExpireLeases { now } => {
            pool.expire_leases(*now);
        }
        PoolOp::SetAlive { host, alive: true } => pool.revive_host(*host),
        PoolOp::SetAlive { host, alive: false } => pool.kill_host(*host),
    }
}

/// The notes of one kind a surface logged, as `(time, note)`.
fn notes(lo: &LiveOps, keep: impl Fn(&OpsNote) -> bool) -> Vec<(u64, OpsNote)> {
    let handle = lo.handle();
    let store = handle.lock().expect("store lock");
    store
        .deltas_stored()
        .filter_map(|d| match &d.delta {
            MarketDelta::Note(n) if keep(n) => Some((d.at_us, *n)),
            _ => None,
        })
        .collect()
}

#[test]
fn folded_pressure_is_the_index_roots_and_a_late_query_is_served_from_the_next_round() {
    // The Gate run's snapshot rounds, as `(time, delta watermark)`, and
    // the pool ops it logged: a trajectory to drive a pool along again,
    // round by round, with surfaces of this test's own.
    let store = gated().run.store.lock().expect("store lock");
    let rounds: Vec<(SimTime, u64)> = store
        .snapshots()
        .iter()
        .map(|s| (SimTime::from_micros(s.at_us), s.delta_seq))
        .collect();
    let deltas: Vec<_> = store.deltas_stored().cloned().collect();
    drop(store);
    assert!(rounds.len() >= 20, "a snapshot round a minute for 1200 s");
    // Thresholds this run crosses (the firing-queries pin holds the notes).
    let cfg = LiveOpsConfig {
        pressure_threshold: 0.7,
        ..LiveOpsConfig::default()
    };
    let subscribe = |lo: &mut LiveOps| {
        lo.subscribe(0, [0.0, 0.0], 1e9, 3, 1, 116);
        lo.subscribe(0, [0.0, 0.0], 1e9, 3, 1, 130);
    };
    let mut early = LiveOps::new(cfg);
    subscribe(&mut early);
    let mut late = LiveOps::new(cfg);
    // `late` registers the same queries after this round.
    let late_joins_after = 6;

    let mut pool = Cell::Gate.pool();
    let mut index = None;
    let mut next = deltas.iter().peekable();
    let no_queues = [Vec::new(), Vec::new(), Vec::new()];
    for (round, &(now, watermark)) in rounds.iter().enumerate() {
        while let Some(d) = next.next_if(|d| d.seq < watermark) {
            if let MarketDelta::Pool(op) = &d.delta {
                redo(&mut pool, op);
            }
        }
        // An index kept refreshed from round 0, as a surface with a
        // standing query keeps its own.
        let index = match &mut index {
            Some(idx) => {
                pool.refresh_query_index(idx, now);
                idx
            }
            None => index.insert(pool.build_query_index(cfg.snapshot_period, now)),
        };
        let folded = pool.aggregate(now);
        assert_eq!(&folded, index.root_aggregate(), "round {round}");
        assert_eq!(folded.pressure(), index.root_aggregate().pressure());

        early.snapshot_round(now, &pool, &[], &no_queues);
        late.snapshot_round(now, &pool, &[], &no_queues);
        if round == late_joins_after {
            subscribe(&mut late);
        }
    }
    assert!(next.next().is_none(), "the last round is past every delta");

    // The pressure watch never needed the index: the surface that had none
    // for its first rounds logged the same crossings.
    let pressure = |n: &OpsNote| matches!(n, OpsNote::Pressure { .. });
    assert!(
        notes(&early, pressure).len() >= 5,
        "the run crosses 0.7 often"
    );
    assert_eq!(notes(&late, pressure), notes(&early, pressure));

    // Standing queries: `late` first evaluates its queries at the round
    // after it registered them. That first evaluation alarms exactly when
    // the count is below the threshold (what `early` last reported); from
    // the round after, both surfaces log the same crossings.
    let threshold = |n: &OpsNote| matches!(n, OpsNote::Threshold(_));
    let (early_notes, late_notes) = (notes(&early, threshold), notes(&late, threshold));
    let first_eval = rounds[late_joins_after + 1].0.as_micros();
    assert!(late_notes.iter().all(|(at, _)| *at >= first_eval));
    let after = |ns: &[(u64, OpsNote)]| -> Vec<(u64, OpsNote)> {
        ns.iter()
            .filter(|(at, _)| *at > first_eval)
            .copied()
            .collect()
    };
    assert!(after(&early_notes).len() >= 4, "crossings after the join");
    assert_eq!(after(&late_notes), after(&early_notes));
    for sub in 0..2 {
        let of_sub = |ns: &[(u64, OpsNote)], upto: u64| -> Option<(bool, u64)> {
            ns.iter()
                .filter_map(|(at, n)| match n {
                    OpsNote::Threshold(d) if d.sub == sub && *at <= upto => {
                        Some((d.below, d.count))
                    }
                    _ => None,
                })
                .next_back()
        };
        let below_at_join = of_sub(&early_notes, first_eval).is_some_and(|(below, _)| below);
        let alarm = of_sub(&late_notes, first_eval);
        assert_eq!(
            alarm.is_some(),
            below_at_join,
            "query {sub}'s first evaluation"
        );
        assert!(
            alarm.is_none_or(|(below, _)| below),
            "a first evaluation only alarms"
        );
    }
}
