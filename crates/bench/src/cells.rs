//! The pinned market cells: every market whose trajectory the root tests
//! pin or replay-check, and the one `ext_liveops` gates, in one table, so
//! the tests and the binaries run the same markets and render the same
//! bytes.
//!
//! Each cell's pool comes from [`pool()`], which builds each distinct pool
//! once per process and hands out clones: a market (or a test's plan, or
//! its `promote_hot`) works on its own copy of the degree tables and of a
//! tiered oracle's hot tier, and the pristine pool is never touched.
//!
//! The live-operations cells run with a [`LiveOps`] store attached
//! ([`store_run`], under a [`surface`]); [`gate`] holds one such run to
//! the store's contract against the same market ring-traced. The root
//! tests and the `ext_liveops` binary both run it.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use netsim::NetworkConfig;
use oracle::{LatencySource, TieredConfig};
use pool::degree_table::Allocation;
use pool::liveops::{hosts_crossed_up, hosts_over_threshold, reconstruct_at};
use pool::{
    AdmissionConfig, AllocationMode, DiscoveryMode, LiveOps, LiveOpsConfig, MarketConfig,
    MarketOutcome, MarketSim, MarketStoreHandle, PoolConfig, ResourcePool,
};
use simcore::trace::to_json_lines;
use simcore::{FaultPlan, SimTime, TraceRecord, Tracer};

/// Records a traced run's ring buffer holds: more than any cell emits, so
/// a ring trace is the whole trace.
const RING: usize = 1 << 16;

/// A pristine pool for `(cfg, seed)`, cloned. The first caller for a
/// config and seed builds it; later callers wait for that build and clone
/// it, while pools of other configs build alongside.
pub fn pool(cfg: &PoolConfig, seed: u64) -> ResourcePool {
    type Slot = Arc<OnceLock<ResourcePool>>;
    static POOLS: Mutex<BTreeMap<(String, u64), Slot>> = Mutex::new(BTreeMap::new());
    // The `Debug` rendering names every field, floats exactly.
    let slot = POOLS
        .lock()
        .expect("pool cache lock poisoned")
        .entry((format!("{cfg:?}"), seed))
        .or_default()
        .clone();
    slot.get_or_init(|| ResourcePool::build(cfg, seed)).clone()
}

/// Starvation-level admission thresholds: the queue, the degraded class
/// and the rejection path all engage.
const STARVATION: AdmissionConfig = AdmissionConfig {
    queue_cap: 64,
    backoff: SimTime::from_secs(20),
    max_attempts: 4,
    scarce_free_frac: 0.995,
    degrade_free_frac: 0.9,
};

/// One pinned cell of the faulted market (§5.3, the Figure 10 workload):
/// 300 hosts, every 7th of them crashing for good at `600 + h` s, so
/// helpers and session roots die mid-run, with leases, failover, crash
/// repair and the invariant auditor live, 9 sessions of 12 members over
/// 1800 s. [`Cell::sim`] says how each cell departs from that market.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell {
    /// Priority allocation, one tree per session.
    K1,
    /// Priority allocation, a degree-disjoint standby tree per session.
    K2,
    /// Pareto allocation: water-filled shares and the over-share trim.
    Pareto,
    /// The admission controller under starvation-level thresholds.
    Admission,
    /// Phase-locked arrivals, snapshot views and the tiered oracle, k = 1.
    PhaseLockedK1,
    /// [`Cell::PhaseLockedK1`] at k = 2.
    PhaseLockedK2,
    /// Top-k query discovery over a refreshed index, tiered oracle.
    Query,
    /// A tiered oracle whose 16-row hot tier the market churns.
    HotTier16,
    /// The 150-host market the live-operations store is checked on.
    Gate,
    /// [`Cell::Gate`] through the admission controller, so the admission
    /// FIFOs change.
    GateAdmission,
    /// A 200-host live-operations market (six 10-member sessions, every
    /// 9th host crashing), the store pins' second pool and seed.
    Smoke,
    /// The default market at seed 3001: the live-operations market
    /// `ext_liveops` gates and reports.
    Operator,
}

impl Cell {
    /// Every cell, in table order.
    pub const ALL: [Cell; 12] = [
        Cell::K1,
        Cell::K2,
        Cell::Pareto,
        Cell::Admission,
        Cell::PhaseLockedK1,
        Cell::PhaseLockedK2,
        Cell::Query,
        Cell::HotTier16,
        Cell::Gate,
        Cell::GateAdmission,
        Cell::Smoke,
        Cell::Operator,
    ];

    /// The master seed of the pool and of the market.
    fn seed(self) -> u64 {
        match self {
            Cell::Admission => 31,
            Cell::Smoke | Cell::Operator => 3001,
            _ => 29,
        }
    }

    /// Hosts in the cell's pool.
    fn num_hosts(self) -> usize {
        match self {
            Cell::Gate | Cell::GateAdmission => 150,
            Cell::Smoke => 200,
            _ => 300,
        }
    }

    /// Every how many hosts one crashes for good: host `h` at `600 + h` s.
    pub fn crash_step(self) -> usize {
        match self {
            Cell::PhaseLockedK1 | Cell::PhaseLockedK2 => 13,
            Cell::HotTier16 => 11,
            Cell::Smoke => 9,
            _ => 7,
        }
    }

    /// The cell's pristine pool (a clone; see [`pool()`]).
    pub fn pool(self) -> ResourcePool {
        let latency_source = match self {
            Cell::PhaseLockedK1 | Cell::PhaseLockedK2 | Cell::Query => {
                LatencySource::Tiered(TieredConfig::default())
            }
            Cell::HotTier16 => LatencySource::Tiered(TieredConfig {
                hot_rows: 16,
                ..TieredConfig::default()
            }),
            _ => LatencySource::Exact,
        };
        let cfg = PoolConfig {
            net: NetworkConfig {
                num_hosts: self.num_hosts(),
                ..NetworkConfig::default()
            },
            coord_rounds: 4,
            latency_source,
            ..PoolConfig::default()
        };
        pool(&cfg, self.seed())
    }

    /// The cell's market, ready to run.
    pub fn sim(self) -> MarketSim {
        MarketSim::new(self.pool(), self.config(), self.seed())
    }

    /// The cell's market configuration.
    pub fn config(self) -> MarketConfig {
        let mut faults = FaultPlan::none();
        for h in (0..self.num_hosts() as u64).step_by(self.crash_step()) {
            faults = faults.crash_forever(h, SimTime::from_secs(600 + h));
        }
        let mut cfg = MarketConfig {
            sessions: 9,
            member_size: 12,
            horizon: SimTime::from_secs(1800),
            warmup: SimTime::from_secs(300),
            faults,
            ..MarketConfig::default()
        };
        match self {
            Cell::K1 | Cell::Operator => {}
            Cell::K2 => cfg.plan.k_trees = 2,
            Cell::Pareto => cfg.allocation = AllocationMode::Pareto,
            Cell::Admission => {
                cfg.sessions = 24;
                cfg.member_size = 4;
                cfg.allocation = AllocationMode::Admission;
                cfg.admission = STARVATION;
            }
            Cell::PhaseLockedK1 | Cell::PhaseLockedK2 => {
                // A microsecond arrival gap collapses every first start onto
                // `t = 0` and keeps the surviving sessions' replans
                // phase-locked, so the market handles same-timestamp waves all
                // run long; sessions plan from the snapshot view, and the
                // staggered crash plan keeps the fault paths interleaved with
                // the waves.
                cfg.sessions = 12;
                cfg.member_size = 10;
                cfg.mean_gap = SimTime::from_micros(1);
                cfg.horizon = SimTime::from_secs(1500);
                cfg.view_refresh = Some(SimTime::from_secs(60));
                if self == Cell::PhaseLockedK2 {
                    cfg.plan.k_trees = 2;
                }
            }
            Cell::Query => {
                cfg.view_refresh = Some(SimTime::from_secs(120));
                cfg.discovery = DiscoveryMode::Query;
            }
            Cell::HotTier16 => {
                cfg.sessions = 8;
                cfg.member_size = 10;
                cfg.horizon = SimTime::from_secs(1500);
            }
            Cell::Gate | Cell::GateAdmission | Cell::Smoke => {
                cfg.sessions = 6;
                cfg.member_size = if self == Cell::Smoke { 10 } else { 12 };
                cfg.horizon = SimTime::from_secs(1200);
                if self == Cell::GateAdmission {
                    cfg.allocation = AllocationMode::Admission;
                    cfg.admission = STARVATION;
                }
            }
        }
        cfg
    }

    /// Run the cell's market, traced into a ring buffer or not.
    pub fn run(self, traced: bool) -> (Run, Vec<TraceRecord>) {
        let mut sim = self.sim();
        if traced {
            sim.set_tracer(Tracer::ring(RING));
        }
        let (mut out, pool) = sim.run_full();
        let trace = std::mem::take(&mut out.trace);
        let tables = pool
            .net
            .hosts
            .ids()
            .map(|h| pool.table(h).allocations().to_vec())
            .collect();
        (Run { out, tables }, trace)
    }

    /// The rendering (`Debug`) of `run` that the cell's outcome pin
    /// digests, or `None` for the live-operations cells, whose pins digest
    /// what the store exports.
    pub fn projection(self, run: &Run) -> Option<String> {
        let out = &run.out;
        Some(match self {
            Cell::K1 | Cell::K2 | Cell::Pareto => format!("{:?}", MarketTrace::of(run)),
            // Plus the exact planner-work counters and the oracle's own
            // per-tier hits.
            Cell::PhaseLockedK1 | Cell::PhaseLockedK2 | Cell::Query => format!(
                "{:?}",
                (
                    MarketTrace::of(run),
                    out.planner_relaxations,
                    out.planner_latency_calls,
                    &out.oracle_tiers,
                )
            ),
            // The full admission ledger, every class's counters (the
            // degraded class included) and the books.
            Cell::Admission => {
                let a = &out.admission;
                let ledger = (
                    a.arrivals,
                    a.admitted,
                    a.degraded,
                    a.rejected,
                    a.timeouts,
                    a.queued_final,
                    a.max_queue_depth,
                    a.wait.count(),
                );
                let per_class: Vec<(u8, u64, u64, u64, u64)> = out
                    .per_class
                    .iter()
                    .map(|(n, c)| {
                        (
                            n,
                            c.helper_crashes,
                            c.failovers,
                            c.sessions_lost,
                            c.preemptions,
                        )
                    })
                    .collect();
                format!(
                    "{:?}",
                    (
                        out.plans,
                        ledger,
                        &per_class,
                        out.leaked_degrees,
                        &run.tables
                    )
                )
            }
            // What the 16-row cell's pinned literals hold.
            Cell::HotTier16 => format!(
                "{:?}",
                (
                    out.plans,
                    out.crash_repairs,
                    &out.oracle_tiers,
                    out.oracle_resident_bytes,
                )
            ),
            Cell::Gate | Cell::GateAdmission | Cell::Smoke | Cell::Operator => return None,
        })
    }
}

/// What one run of a cell leaves: its outcome, with the trace taken out,
/// and the final degree table of every host — the books themselves must
/// be bit-reproducible, not just the stats.
pub struct Run {
    /// The outcome; its `trace` is empty.
    pub out: MarketOutcome,
    /// Every host's allocations, in host order.
    pub tables: Vec<Vec<Allocation>>,
}

/// The pinned projection of a market run (named before the event trace
/// existed; the name is part of the pinned rendering): per-class fault
/// counters, repairs, leases, the multipath machinery and the books.
#[derive(Debug)]
#[expect(dead_code, reason = "the pins read the fields through `Debug`")]
struct MarketTrace<'a> {
    plans: u64,
    per_class: Vec<(u64, u64, u64, u64)>,
    crash_repairs: u64,
    lapsed: u64,
    leaked: u32,
    /// Multipath machinery: tree failovers, trees rebuilt, delivery-ratio
    /// (count, mean), restore-rounds (count, mean). All zero at k = 1.
    multipath: (u64, u64, u64, f64, u64, f64),
    tables: &'a [Vec<Allocation>],
}

impl MarketTrace<'_> {
    fn of(run: &Run) -> MarketTrace<'_> {
        let out = &run.out;
        MarketTrace {
            plans: out.plans,
            per_class: (1..=3)
                .map(|p| {
                    let c = out.class(p);
                    (
                        c.helper_crashes,
                        c.failovers,
                        c.sessions_lost,
                        c.preemptions,
                    )
                })
                .collect(),
            crash_repairs: out.crash_repairs,
            lapsed: out.lapsed_lease_degrees,
            leaked: out.leaked_degrees,
            multipath: (
                out.tree_failovers,
                out.trees_rebuilt,
                out.delivery.count(),
                out.delivery.mean(),
                out.restore_rounds.count(),
                out.restore_rounds.mean(),
            ),
            tables: &run.tables,
        }
    }
}

/// A store-attached run: its outcome, final pool and store.
pub struct StoreRun {
    /// The outcome; its `trace` is empty (the store owns the records).
    pub out: MarketOutcome,
    /// The final pool.
    pub pool: ResourcePool,
    /// The run store the surface filled.
    pub store: MarketStoreHandle,
}

/// Run `cell` with `lo` attached.
pub fn store_run(cell: Cell, lo: LiveOps) -> StoreRun {
    let mut sim = cell.sim();
    let store = sim.attach_liveops(lo);
    let (out, pool) = sim.run_full();
    StoreRun { out, pool, store }
}

/// An operator surface on the default snapshot period: its thresholds
/// and, pool-wide, the `(member, rank, min_free, threshold)` of each
/// standing query.
pub fn surface(
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

/// The staleness bound the store-served operator queries are asked under.
pub const QUERY_BOUND: SimTime = SimTime::from_secs(60);

/// The two runs [`gate`] checked against each other.
pub struct Gated {
    /// The ring-traced run: its outcome, trace kept, and final pool.
    pub ring: (MarketOutcome, ResourcePool),
    /// The same market with the surface attached.
    pub run: StoreRun,
}

/// Every host's final degree table and liveness in `store` are `ring`'s.
///
/// # Panics
/// On the first host that differs.
pub fn assert_same_pool(ring: &ResourcePool, store: &ResourcePool) {
    for h in ring.net.hosts.ids() {
        assert_eq!(ring.table(h), store.table(h), "final table of {h:?}");
        assert_eq!(ring.is_alive(h), store.is_alive(h), "liveness of {h:?}");
    }
}

/// Run `cell` ring-traced and again with `lo` attached, and hold the store
/// to its contract:
///
/// * attaching it is **trajectory-neutral**: the store's trace is the
///   ring's, byte for byte (and the ring did not overflow), the plan count
///   and leak census are equal, and so is every host's final table and
///   liveness;
/// * its accounting is **exact**: every record appended, nothing evicted,
///   at least two snapshots;
/// * **replay from every snapshot** (snapshot + delta fold) lands on the
///   final snapshot's state, JSON for JSON, and that state's tables are
///   the live pool's;
/// * store-served queries carry the `Freshness` contract: the populated
///   store has a scope, and an empty crossing window (after the horizon)
///   reports `staleness == bound`, not freshness.
///
/// # Panics
/// On the first broken clause.
pub fn gate(cell: Cell, lo: LiveOps) -> Gated {
    let mut sim = cell.sim();
    sim.set_tracer(Tracer::ring(RING));
    let (ring_out, ring_pool) = sim.run_full();
    let emitted = ring_out.trace.len();
    assert!(emitted > 0, "the faulted market must emit trace records");
    assert!(
        emitted < RING,
        "the ring overflowed: no byte-identity reference"
    );

    let run = store_run(cell, lo);
    let store = run.store.lock().expect("store lock");
    assert!(run.out.trace.is_empty(), "the store owns the records");
    assert_eq!(
        to_json_lines(&ring_out.trace),
        store.trace_json_lines().expect("nothing evicted"),
        "attaching the store changed (or lost part of) the trace"
    );
    assert_eq!(ring_out.plans, run.out.plans, "plan count diverged");
    assert_eq!(
        ring_out.leaked_degrees, run.out.leaked_degrees,
        "leak census diverged"
    );
    assert_same_pool(&ring_pool, &run.pool);

    let stats = store.stats();
    assert_eq!(stats.trace_appended, emitted as u64, "store missed records");
    assert_eq!(stats.trace_evicted, 0, "store evicted trace records");
    assert_eq!(stats.delta_evicted, 0, "store evicted deltas");
    assert!(stats.snapshots >= 2, "need snapshots to replay from");

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
            "replay from snapshot {idx} diverged from the final state"
        );
    }
    assert!(
        final_state.tables == *run.pool.tables(),
        "the final snapshot's tables are not the live pool's"
    );

    let util = LiveOpsConfig::default().util_threshold;
    let over = hosts_over_threshold(&store, util, QUERY_BOUND).expect("nothing evicted");
    assert!(
        !over.freshness.empty_scope(),
        "a populated store has a scope"
    );
    let horizon = cell.config().horizon;
    let after = horizon + SimTime::from_secs(1);
    let empty = hosts_crossed_up(&store, after, QUERY_BOUND).expect("nothing evicted");
    assert!(empty.hosts.is_empty() && empty.freshness.empty_scope());
    assert_eq!(
        empty.freshness.staleness(horizon),
        QUERY_BOUND,
        "an empty window must report the a-priori bound, not claim freshness"
    );
    drop(store);
    Gated {
        ring: (ring_out, ring_pool),
        run,
    }
}
