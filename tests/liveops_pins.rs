//! What the live-operations store exports and what every replay lands on,
//! pinned byte for byte: `tests/liveops.rs` compares a run against itself
//! (ring vs store, replay vs the final snapshot), so it cannot see a change
//! that moves the store's exported bytes and every replay together. Each
//! cell here renders one store-attached faulted market three ways —
//! `snapshots_json_lines()`, `deltas_json_lines()`, and the JSON of
//! `reconstruct_at(store, i)` for every snapshot `i`, one per line — and
//! compares `(bytes, FNV-1a-64)` of each against constants recorded at
//! commit 4b33679, before the store's snapshot and delta layouts were
//! rebuilt. The delta exports were re-pinned once since, when
//! `ReleaseSession` began listing its hosts in ascending order rather than
//! booking order (same bytes, same replays). `crates/testkit/src/lib.rs`
//! says how to re-pin after an intended behaviour change; a change to how
//! the store *holds* a run never re-pins.

use std::sync::OnceLock;

use p2p_resource_pool::pool::liveops::reconstruct_at;
use p2p_resource_pool::prelude::*;
use testkit::fnv1a64;

/// `(bytes, FNV-1a-64)` of the snapshot export, the delta export and the
/// replays of one cell.
type Pins = [(usize, u64); 3];

struct Workload {
    seed: u64,
    hosts: usize,
    sessions: usize,
    member_size: usize,
    crash_step: usize,
}

/// The faulted market of `tests/liveops.rs`.
const GATE: Workload = Workload {
    seed: 29,
    hosts: 150,
    sessions: 6,
    member_size: 12,
    crash_step: 7,
};

/// The 200-host slice `ext_liveops` ran in CI until it kept one size: the
/// pins below are what still covers that workload.
const SMOKE: Workload = Workload {
    seed: 3001,
    hosts: 200,
    sessions: 6,
    member_size: 10,
    crash_step: 9,
};

/// One pinned run: a workload, how the market allocates, the surface's
/// thresholds and its standing queries.
struct Cell {
    workload: &'static Workload,
    /// Run the sessions through the admission controller under
    /// starvation-level thresholds (the settings of `tests/determinism.rs`'
    /// admission trajectory), so `Queues` deltas are part of the log.
    admission: bool,
    util_threshold: f64,
    pressure_threshold: f64,
    /// `(member, rank, min_free, threshold)` of each standing query, all
    /// pool-wide.
    queries: &'static [(u32, u8, u32, u64)],
}

fn pristine(w: &'static Workload) -> &'static ResourcePool {
    static GATE_POOL: OnceLock<ResourcePool> = OnceLock::new();
    static SMOKE_POOL: OnceLock<ResourcePool> = OnceLock::new();
    let slot = if std::ptr::eq(w, &GATE) {
        &GATE_POOL
    } else {
        &SMOKE_POOL
    };
    slot.get_or_init(|| {
        ResourcePool::build(
            &PoolConfig {
                net: NetworkConfig {
                    num_hosts: w.hosts,
                    ..NetworkConfig::default()
                },
                coord_rounds: 4,
                ..PoolConfig::default()
            },
            w.seed,
        )
    })
}

/// Run the cell's faulted market (helper and root crashes, leases,
/// failover) with a store attached and digest what the store exports and
/// what it replays to.
fn digests(cell: &Cell) -> Pins {
    let w = cell.workload;
    let mut faults = simcore::FaultPlan::none();
    for h in (0..w.hosts as u64).step_by(w.crash_step) {
        faults = faults.crash_forever(h, SimTime::from_secs(600 + h));
    }
    let mut cfg = MarketConfig {
        sessions: w.sessions,
        member_size: w.member_size,
        horizon: SimTime::from_secs(1200),
        warmup: SimTime::from_secs(300),
        faults,
        ..MarketConfig::default()
    };
    if cell.admission {
        cfg.allocation = AllocationMode::Admission;
        cfg.admission = AdmissionConfig {
            scarce_free_frac: 0.995,
            degrade_free_frac: 0.9,
            backoff: SimTime::from_secs(20),
            max_attempts: 4,
            ..AdmissionConfig::default()
        };
    }
    let mut sim = MarketSim::new(pristine(w).clone(), cfg, w.seed);
    let mut lo = LiveOps::new(LiveOpsConfig {
        snapshot_period: SimTime::from_secs(60),
        util_threshold: cell.util_threshold,
        pressure_threshold: cell.pressure_threshold,
        ..LiveOpsConfig::default()
    });
    for &(member, rank, min_free, threshold) in cell.queries {
        lo.subscribe(member, [0.0, 0.0], 1e9, rank, min_free, threshold);
    }
    let handle = sim.attach_liveops(lo);
    let _ = sim.run_full();
    let store = handle.lock().expect("store lock");
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

fn assert_pinned(cell: &Cell, pins: Pins) {
    let got = digests(cell);
    for (part, (g, p)) in ["snapshot export", "delta export", "replays"]
        .iter()
        .zip(got.iter().zip(&pins))
    {
        assert_eq!(g, p, "{part} moved off its pinned (bytes, digest)");
    }
}

/// The `tests/liveops.rs` market exactly as that gate attaches it: no
/// standing query, default thresholds — only utilization notes fire.
#[test]
fn gate_market_without_a_standing_query_matches_its_pins() {
    assert_pinned(
        &Cell {
            workload: &GATE,
            admission: false,
            util_threshold: 0.9,
            pressure_threshold: 0.15,
            queries: &[],
        },
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
    assert_pinned(
        &Cell {
            workload: &GATE,
            admission: false,
            util_threshold: 0.5,
            pressure_threshold: 0.7,
            queries: &[(0, 3, 1, 116), (0, 3, 1, 130), (3, 3, 4, 20), (3, 1, 4, 25)],
        },
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
        &Cell {
            workload: &GATE,
            admission: true,
            util_threshold: 0.9,
            pressure_threshold: 0.7,
            queries: &[(0, 3, 1, 130)],
        },
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
        &Cell {
            workload: &SMOKE,
            admission: false,
            util_threshold: 0.9,
            pressure_threshold: 0.15,
            queries: &[(0, 3, 1, 5)],
        },
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
        &Cell {
            workload: &SMOKE,
            admission: false,
            util_threshold: 0.9,
            pressure_threshold: 0.8,
            queries: &[],
        },
        [
            (347378, 2693020685318820226),
            (160021, 17184556239819342160),
            (348876, 8882974644916446117),
        ],
    );
}
