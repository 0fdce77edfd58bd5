//! The pinned market cells: every market whose trajectory the root tests
//! pin or replay-check, in one table, so the tests and the `cells` binary
//! run the same markets and render the same bytes.
//!
//! Each cell's pool comes from [`pool()`], which builds each distinct pool
//! once per process and hands out clones: a market (or a test's plan, or
//! its `promote_hot`) works on its own copy of the degree tables and of a
//! tiered oracle's hot tier, and the pristine pool is never touched.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use netsim::NetworkConfig;
use oracle::{LatencySource, TieredConfig};
use pool::degree_table::Allocation;
use pool::{
    AdmissionConfig, AllocationMode, DiscoveryMode, MarketConfig, MarketOutcome, MarketSim,
    PoolConfig, ResourcePool,
};
use simcore::{FaultPlan, SimTime, TraceRecord, Tracer};

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
    /// The 200-host slice `ext_liveops` ran in CI until it kept one size.
    Smoke,
}

impl Cell {
    /// Every cell, in table order.
    pub const ALL: [Cell; 11] = [
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
    ];

    /// The master seed of the pool and of the market.
    fn seed(self) -> u64 {
        match self {
            Cell::Admission => 31,
            Cell::Smoke => 3001,
            _ => 29,
        }
    }

    /// The cell's pristine pool (a clone; see [`pool()`]).
    pub fn pool(self) -> ResourcePool {
        let num_hosts = match self {
            Cell::Gate | Cell::GateAdmission => 150,
            Cell::Smoke => 200,
            _ => 300,
        };
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
                num_hosts,
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
        let pool = self.pool();
        let crash_step = match self {
            Cell::PhaseLockedK1 | Cell::PhaseLockedK2 => 13,
            Cell::HotTier16 => 11,
            Cell::Smoke => 9,
            _ => 7,
        };
        let mut faults = FaultPlan::none();
        for h in (0..pool.num_hosts() as u64).step_by(crash_step) {
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
            Cell::K1 => {}
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
        MarketSim::new(pool, cfg, self.seed())
    }

    /// Run the cell's market, traced into a ring buffer or not.
    pub fn run(self, traced: bool) -> (Run, Vec<TraceRecord>) {
        let mut sim = self.sim();
        if traced {
            sim.set_tracer(Tracer::ring(1 << 16));
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
            Cell::Gate | Cell::GateAdmission | Cell::Smoke => return None,
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
