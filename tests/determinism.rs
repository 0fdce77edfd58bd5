//! Whole-stack determinism: every layer must be bit-reproducible from the
//! master seed — the property that makes the figure binaries regenerable
//! and failures debuggable.
//!
//! The seven pinned market cells run twice each per test binary, once
//! untraced and once traced: the untraced run's outcome and the traced
//! run's JSON lines are pinned, and the two runs' outcomes and books must
//! be equal (tracing observes, it never perturbs).

use std::sync::OnceLock;

use p2p_resource_pool::prelude::*;
use p2p_resource_pool::simcore::trace::to_json_lines;
use testkit::fnv1a64;

/// The run-vs-run checks below cannot see a change that moves both runs
/// together; this compares one market trajectory's `Debug` rendering —
/// stats, counters and the final degree table of every host — against
/// `(length, FNV-1a-64)` recorded at commit 21d0a1b. `crates/testkit/src/lib.rs`
/// says how to re-pin after an intended behaviour change.
fn assert_pinned(what: &str, trajectory: &impl std::fmt::Debug, pin: (usize, u64)) {
    let rendered = format!("{trajectory:?}");
    assert_eq!(
        (rendered.len(), fnv1a64(&rendered)),
        pin,
        "{what} trajectory moved off its pinned (length, digest)"
    );
}

/// `(Debug length, FNV-1a-64)` of each market trajectory below, recorded
/// at commit 21d0a1b.
const PIN_MARKET_K1: (usize, u64) = (10230, 11209060999262227419);
const PIN_MARKET_K2: (usize, u64) = (11073, 12784749161043698556);
/// The two phase-locked tiered markets, re-recorded when the hot tier began
/// taking one batch per plan: every plan and answer stayed, only the
/// oracle's `promotions` / `evictions` moved (k = 1: 1079 / 951 → 918 / 790;
/// k = 2: 980 / 852 → 824 / 696).
const PIN_PHASE_LOCKED_K1: (usize, u64) = (12765, 14341148051035017026);
const PIN_PHASE_LOCKED_K2: (usize, u64) = (14152, 11112515578880771551);
const PIN_ADMISSION: (usize, u64) = (5982, 9244087032938961521);
/// The faulted Pareto market, recorded at commit 6c05027, before the
/// market's slot state became one `Phase`.
const PIN_PARETO: (usize, u64) = (10230, 6216587220097139693);
/// The faulted query trajectory (answers, stats and both ledgers), recorded
/// at commit 6877b76, before the index's layout was rebuilt.
const PIN_QUERY: (usize, u64) = (20961, 15631252681519849854);
/// The tiered query-discovery market's projection, recorded at commit
/// 44dee80.
const PIN_QUERY_MARKET: (usize, u64) = (10337, 14821219680930885749);

fn build(seed: u64) -> ResourcePool {
    ResourcePool::build(
        &PoolConfig {
            net: NetworkConfig {
                num_hosts: 200,
                ..NetworkConfig::default()
            },
            coord_rounds: 4,
            ..PoolConfig::default()
        },
        seed,
    )
}

#[test]
fn pool_builds_identically_from_the_same_seed() {
    let a = build(42);
    let b = build(42);
    // Underlay.
    for h in a.net.hosts.ids() {
        assert_eq!(
            a.net.hosts.get(h).degree_bound,
            b.net.hosts.get(h).degree_bound
        );
        assert_eq!(
            a.net.hosts.get(h).bandwidth.up_kbps,
            b.net.hosts.get(h).bandwidth.up_kbps
        );
    }
    // Ring.
    assert_eq!(a.ring.members(), b.ring.members());
    // Metrics.
    for h in a.net.hosts.ids() {
        assert_eq!(a.coords.get(h), b.coords.get(h));
        assert_eq!(a.bw.up(h), b.bw.up(h));
    }
    // Latency oracle.
    for i in (0..200u32).step_by(17) {
        for j in (0..200u32).step_by(13) {
            assert_eq!(
                a.net.latency_ms(HostId(i), HostId(j)),
                b.net.latency_ms(HostId(i), HostId(j))
            );
        }
    }
}

#[test]
fn different_seeds_give_different_pools() {
    let a = build(1);
    let b = build(2);
    assert_ne!(a.ring.members(), b.ring.members());
}

#[test]
fn plans_are_identical_across_identical_pools() {
    let mut a = build(7);
    let mut b = build(7);
    let members = a.sample_members(15, 9);
    let spec = SessionSpec {
        id: SessionId(1),
        priority: 2,
        root: members[0],
        members,
    };
    let cfg = PlanConfig::default(); // the staged Leafset pipeline
    let out_a = plan_and_reserve(&mut a, &spec, &cfg);
    let out_b = plan_and_reserve(&mut b, &spec, &cfg);
    assert_eq!(out_a.tree.hosts(), out_b.tree.hosts());
    assert_eq!(out_a.oracle_height, out_b.oracle_height);
    assert_eq!(out_a.helpers, out_b.helpers);
    assert_eq!(out_a.improvement, out_b.improvement);
}

/// One faulty DHT trajectory: run heartbeats under loss + jitter + an
/// outage window, with a mid-run crash, and capture everything observable.
fn faulty_dht_trajectory(seed: u64) -> (u64, u64, Vec<Vec<NodeId>>) {
    use p2p_resource_pool::dht::proto::{DhtSim, ProtoConfig};
    let ring = Ring::with_random_ids((0..96).map(HostId), seed);
    let plan = simcore::FaultPlan::with_loss(seed ^ 0xFA17, 0.04)
        .jitter(SimTime::from_millis(25))
        .outage(
            ring.member(3).host.0 as u64,
            ring.member(4).host.0 as u64,
            SimTime::from_secs(10),
            SimTime::from_secs(40),
        );
    let mut sim = DhtSim::with_faults(
        &ring,
        ProtoConfig::default(),
        |a, b| {
            if a == b {
                SimTime::ZERO
            } else {
                SimTime::from_millis(40)
            }
        },
        plan,
    );
    sim.run_until(SimTime::from_secs(30));
    sim.kill(7);
    sim.run_until(SimTime::from_secs(120));
    let views = (0..sim.len()).map(|i| sim.believed_leafset(i)).collect();
    (sim.messages_sent(), sim.messages_dropped(), views)
}

#[test]
fn faulty_dht_trajectory_is_bit_identical_across_runs() {
    assert_eq!(faulty_dht_trajectory(21), faulty_dht_trajectory(21));
}

/// One faulty SOMO gather: unsynchronized census over a lossy network.
fn faulty_gather_trajectory(seed: u64) -> (u64, u64, Vec<(SimTime, u64)>) {
    use p2p_resource_pool::somo::flow::{FlowMode, FreshnessReport, GatherSim};
    let ring = Ring::with_random_ids((0..96).map(HostId), seed);
    let tree = SomoTree::build(&ring, 8);
    let plan = simcore::FaultPlan::with_loss(seed ^ 0x50, 0.05).jitter(SimTime::from_millis(15));
    let mut sim = GatherSim::with_faults(
        &tree,
        &ring,
        FlowMode::Unsynchronized,
        SimTime::from_secs(5),
        |_m, now| FreshnessReport::of_member(now),
        |a, b| {
            if a == b {
                SimTime::ZERO
            } else {
                SimTime::from_millis(150)
            }
        },
        plan,
    );
    sim.run_until(SimTime::from_secs(90));
    let views = sim.views().iter().map(|v| (v.at, v.view.members)).collect();
    (sim.messages_sent(), sim.messages_dropped(), views)
}

#[test]
fn faulty_gather_trajectory_is_bit_identical_across_runs() {
    assert_eq!(faulty_gather_trajectory(33), faulty_gather_trajectory(33));
}

#[test]
fn recovery_pipeline_is_bit_identical_across_runs() {
    use p2p_resource_pool::pool::recovery::{run_pipeline, RecoveryConfig};
    let run = || {
        let plan = simcore::FaultPlan::with_loss(17, 0.03).jitter(SimTime::from_millis(10));
        run_pipeline(&RecoveryConfig {
            n: 48,
            crashes: 3,
            plan,
            session_size: 16,
            ..RecoveryConfig::default()
        })
    };
    let a = run();
    let b = run();
    // The whole outcome — per-phase timeline, census numbers, message and
    // drop counts, ALM repair report — must match field for field.
    assert_eq!(a, b);
    assert!(a.timeline.reattached_at.is_some());
}

/// `(Debug length, FNV-1a-64)` of the whole `RecoveryOutcome` — timeline,
/// remap statistics, census and delivery fractions, ALM report, message
/// and drop counts, audit — of the two pipelines below, recorded at commit
/// 291cf64, before the pipeline's phases and the simulators under them
/// were rebuilt.
const PIN_RECOVERY_CLEAN: (usize, u64) = (650, 9692808420647947783);
const PIN_RECOVERY_LOSSY: (usize, u64) = (633, 14245325224024450806);

#[test]
fn recovery_pipeline_outcomes_match_their_pins() {
    use p2p_resource_pool::pool::recovery::{run_pipeline, RecoveryConfig};
    let clean = run_pipeline(&RecoveryConfig {
        n: 512,
        crashes: 4,
        ..RecoveryConfig::default()
    });
    assert_pinned("fault-free recovery", &clean, PIN_RECOVERY_CLEAN);
    let lossy = run_pipeline(&RecoveryConfig {
        n: 512,
        crashes: 8,
        plan: simcore::FaultPlan::with_loss(17, 0.05).jitter(SimTime::from_millis(20)),
        ..RecoveryConfig::default()
    });
    assert!(lossy.dht_dropped > 0 && lossy.gather_dropped > 0);
    assert_pinned("5 % loss recovery", &lossy, PIN_RECOVERY_LOSSY);
}

/// One pinned cell of the faulted market (§5.3, the Figure 10 workload):
/// 300 hosts, every 7th of them crashing for good at `600 + h` s, so
/// helpers and session roots die mid-run, with leases, failover, crash
/// repair and the invariant auditor live. [`run_cell`] says how each cell
/// departs from that market.
#[derive(Clone, Copy, PartialEq)]
enum Cell {
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
}

const CELLS: [Cell; 7] = [
    Cell::K1,
    Cell::K2,
    Cell::Pareto,
    Cell::Admission,
    Cell::PhaseLockedK1,
    Cell::PhaseLockedK2,
    Cell::Query,
];

/// What one run of a cell leaves: its outcome, with the trace taken out,
/// and the final degree table of every host — the books themselves must
/// be bit-reproducible, not just the stats.
struct Run {
    out: pool::MarketOutcome,
    tables: Vec<Vec<pool::degree_table::Allocation>>,
}

/// A cell run once untraced and once traced.
struct CellRuns {
    plain: Run,
    traced: Run,
    /// The traced run's records as JSON lines, and how many there are.
    trace: String,
    records: u64,
}

impl CellRuns {
    /// The zero-cost tracing contract: the traced run's whole outcome and
    /// books are the untraced run's (the records are observation, never
    /// perturbation).
    fn assert_tracing_neutral(&self, what: &str) {
        assert_eq!(
            format!("{:?}", self.plain.out),
            format!("{:?}", self.traced.out),
            "{what}: tracing moved the outcome"
        );
        assert!(
            self.plain.tables == self.traced.tables,
            "{what}: tracing moved the books"
        );
    }
}

/// Run one cell's market, traced into a ring buffer or not.
fn run_cell(cell: Cell, traced: bool) -> (Run, Vec<TraceRecord>) {
    let seed = if cell == Cell::Admission { 31 } else { 29 };
    let phase_locked = matches!(cell, Cell::PhaseLockedK1 | Cell::PhaseLockedK2);
    let latency_source = if phase_locked || cell == Cell::Query {
        LatencySource::Tiered(TieredConfig::default())
    } else {
        LatencySource::Exact
    };
    let pool = ResourcePool::build(
        &PoolConfig {
            net: NetworkConfig {
                num_hosts: 300,
                ..NetworkConfig::default()
            },
            coord_rounds: 4,
            latency_source,
            ..PoolConfig::default()
        },
        seed,
    );
    let mut faults = simcore::FaultPlan::none();
    for h in (0..300u64).step_by(if phase_locked { 13 } else { 7 }) {
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
    match cell {
        Cell::K1 => {}
        Cell::K2 => cfg.plan.k_trees = 2,
        Cell::Pareto => cfg.allocation = AllocationMode::Pareto,
        Cell::Admission => {
            // Starvation-level thresholds: the queue, the degraded class
            // and the rejection path all engage.
            cfg.sessions = 24;
            cfg.member_size = 4;
            cfg.allocation = AllocationMode::Admission;
            cfg.admission = AdmissionConfig {
                scarce_free_frac: 0.995,
                degrade_free_frac: 0.9,
                backoff: SimTime::from_secs(20),
                max_attempts: 4,
                ..AdmissionConfig::default()
            };
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
            if cell == Cell::PhaseLockedK2 {
                cfg.plan.k_trees = 2;
            }
        }
        Cell::Query => {
            cfg.view_refresh = Some(SimTime::from_secs(120));
            cfg.discovery = DiscoveryMode::Query;
        }
    }
    let mut sim = MarketSim::new(pool, cfg, seed);
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

/// Both runs of `cell`, made once per test binary.
fn market(cell: Cell) -> &'static CellRuns {
    static RUNS: [OnceLock<CellRuns>; 7] = [const { OnceLock::new() }; 7];
    RUNS[cell as usize].get_or_init(|| {
        // The two runs are independent: make them side by side.
        let ((plain, untraced), (traced, records)) = std::thread::scope(|s| {
            let traced = s.spawn(|| run_cell(cell, true));
            let plain = run_cell(cell, false);
            (plain, traced.join().expect("the traced run panicked"))
        });
        assert!(untraced.is_empty(), "an untraced run emitted records");
        CellRuns {
            plain,
            traced,
            trace: to_json_lines(&records),
            records: records.len() as u64,
        }
    })
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
    tables: &'a [Vec<pool::degree_table::Allocation>],
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

/// [`MarketTrace`] plus the exact planner-work counters and the oracle's
/// own per-tier hits: the projection pinned for the tiered cells.
fn tiered_projection(run: &Run) -> impl std::fmt::Debug + '_ {
    (
        MarketTrace::of(run),
        run.out.planner_relaxations,
        run.out.planner_latency_calls,
        &run.out.oracle_tiers,
    )
}

#[test]
fn faulted_market_trajectory_is_bit_identical_across_runs() {
    let runs = market(Cell::K1);
    let a = MarketTrace::of(&runs.plain);
    assert_pinned("faulted market", &a, PIN_MARKET_K1);
    runs.assert_tracing_neutral("faulted market");
    // And the plan actually produced fault activity worth pinning.
    let activity: u64 = a.per_class.iter().map(|c| c.0 + c.1 + c.2).sum();
    assert!(activity > 0, "fault plan never touched a session");
}

#[test]
fn faulted_multipath_market_trajectory_is_bit_identical_across_runs() {
    // Same crash plan, but every session also plans a degree-disjoint
    // standby tree: failovers, lazy rebuilds, delivery sampling and the
    // final books must all replay bit-for-bit.
    let runs = market(Cell::K2);
    let a = MarketTrace::of(&runs.plain);
    assert_pinned("faulted multipath market", &a, PIN_MARKET_K2);
    runs.assert_tracing_neutral("faulted multipath market");
    assert!(a.multipath.2 > 0, "delivery ratio was never sampled");
    assert_eq!(a.leaked, 0, "multipath run leaked degrees");
}

#[test]
fn faulted_pareto_market_trajectory_is_bit_identical_across_runs() {
    // Same crash plan, Pareto allocation: water-filled shares, one fair
    // rank, and the over-share trim (`reclaim_overshare`) that reads the
    // active set and every slot's pending-replan flag.
    let runs = market(Cell::Pareto);
    let a = MarketTrace::of(&runs.plain);
    assert_pinned("faulted pareto market", &a, PIN_PARETO);
    runs.assert_tracing_neutral("faulted pareto market");
    let activity: u64 = a.per_class.iter().map(|c| c.0 + c.1 + c.2).sum();
    assert!(activity > 0, "fault plan never touched a session");
    assert_eq!(a.leaked, 0, "pareto run leaked degrees");
}

#[test]
fn phase_locked_market_trajectory_matches_its_pin() {
    // The outcome, the exact planner-work counters, the oracle's per-tier
    // hits and the final books of every host, on the one market input
    // where every start and replan wave shares an instant.
    let runs = market(Cell::PhaseLockedK1);
    assert_pinned(
        "phase-locked tiered snapshot-view market",
        &tiered_projection(&runs.plain),
        PIN_PHASE_LOCKED_K1,
    );
    runs.assert_tracing_neutral("phase-locked tiered snapshot-view market");
    assert!(
        runs.plain.out.planner_relaxations > 0,
        "run did no planner work at all"
    );
}

#[test]
fn phase_locked_multipath_market_trajectory_matches_its_pin() {
    // k = 2: standby rounds scan live candidates behind every primary.
    let runs = market(Cell::PhaseLockedK2);
    assert_pinned(
        "phase-locked tiered snapshot-view multipath market",
        &tiered_projection(&runs.plain),
        PIN_PHASE_LOCKED_K2,
    );
    runs.assert_tracing_neutral("phase-locked tiered snapshot-view multipath market");
    let a = MarketTrace::of(&runs.plain);
    assert!(a.multipath.2 > 0, "delivery ratio was never sampled");
    assert_eq!(a.leaked, 0, "multipath run leaked degrees");
}

#[test]
fn faulted_admission_trajectory_is_bit_identical_across_runs() {
    // The full admission ledger, every class's counters (the degraded
    // class included) and the final books.
    let runs = market(Cell::Admission);
    let out = &runs.plain.out;
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
    assert_pinned(
        "faulted admission market",
        &(
            out.plans,
            ledger,
            &per_class,
            out.leaked_degrees,
            &runs.plain.tables,
        ),
        PIN_ADMISSION,
    );
    runs.assert_tracing_neutral("faulted admission market");
    // The controller actually engaged: sessions were degraded AND turned
    // away, nothing was preempted, and the books balance.
    assert!(ledger.2 > 0, "no session was degraded");
    assert!(ledger.3 > 0, "no session was rejected");
    assert_eq!(
        ledger.0,
        ledger.1 + ledger.2 + ledger.3 + ledger.5,
        "admission ledger does not balance"
    );
    let preempted: u64 = per_class.iter().map(|c| c.4).sum();
    assert_eq!(preempted, 0, "admission mode preempted");
    assert_eq!(out.leaked_degrees, 0, "admission run leaked degrees");
}

/// The traced run of a cell against `(record count, FNV-1a-64 of the JSON
/// lines)`: simulated time and typed payloads only, no wall-clock, no
/// addresses, no iteration-order leaks, so the bytes are a function of the
/// seed.
fn assert_trace_pinned(what: &str, runs: &CellRuns, pin: (u64, u64)) {
    assert_eq!(
        (runs.records, fnv1a64(&runs.trace)),
        pin,
        "{what} trace moved off its pinned (records, digest)"
    );
}

/// The traced run holds every one of `needles`: the event families the
/// cell exists to exercise fired.
fn assert_trace_has(runs: &CellRuns, needles: &[&str]) {
    for needle in needles {
        assert!(runs.trace.contains(needle), "no {needle} in the trace");
    }
}

/// `(record count, FNV-1a-64)` of each traced market cell, recorded at
/// commit 21d0a1b unless noted.
mod trace_pins {
    pub const PIN_MARKET_K1: (u64, u64) = (601, 12810628481288405967);
    pub const PIN_MARKET_K2: (u64, u64) = (758, 44761309776641770);
    pub const PIN_ADMISSION: (u64, u64) = (950, 5193438548936708349);
    /// The faulted Pareto market, recorded at commit 6c05027, before the
    /// market's slot state became one `Phase`.
    pub const PIN_PARETO: (u64, u64) = (583, 2974428711364132437);
    pub const PIN_QUERY_TIERED: (u64, u64) = (777, 11118931471538173744);
    /// The phase-locked tiered snapshot-view market (k = 1 and k = 2),
    /// recorded at commit 0482ff2.
    pub const PIN_PHASE_LOCKED_K1: (u64, u64) = (1242, 9421592194088227880);
    pub const PIN_PHASE_LOCKED_K2: (u64, u64) = (1584, 750378349310401424);
}

#[test]
fn faulted_market_traces_are_bit_identical_across_runs() {
    let runs = market(Cell::K1);
    assert_trace_pinned("faulted market", runs, trace_pins::PIN_MARKET_K1);
    // The fault machinery actually showed up in the trace.
    assert_trace_has(
        runs,
        &["MarketReserve", "MarketHostFault", "MarketCrashDetect"],
    );
}

#[test]
fn faulted_multipath_market_traces_are_bit_identical_across_runs() {
    // The standby-tree machinery (failover promotion, lazy rebuild)
    // surfaces in the trace.
    let runs = market(Cell::K2);
    assert_trace_pinned("faulted multipath market", runs, trace_pins::PIN_MARKET_K2);
    assert_trace_has(runs, &["MarketTreeFailover", "MarketTreeRebuilt"]);
}

#[test]
fn faulted_pareto_market_traces_are_bit_identical_across_runs() {
    // The over-share trims land in the trace as preempt replans.
    let runs = market(Cell::Pareto);
    assert_trace_pinned("faulted pareto market", runs, trace_pins::PIN_PARETO);
    assert_trace_has(
        runs,
        &["MarketReserve", "MarketCrashDetect", "\"preempt\":true"],
    );
}

#[test]
fn phase_locked_market_trace_matches_its_pin() {
    // Every trace byte — per-plan relaxation and latency-call counts
    // included — of the one traced input with same-instant waves.
    let runs = market(Cell::PhaseLockedK1);
    assert_trace_pinned(
        "phase-locked tiered market",
        runs,
        trace_pins::PIN_PHASE_LOCKED_K1,
    );
    assert_trace_has(runs, &["OracleTiers"]);
}

#[test]
fn phase_locked_multipath_market_trace_matches_its_pin() {
    // k = 2: standby rounds scan the live pool behind every primary.
    let runs = market(Cell::PhaseLockedK2);
    assert_trace_pinned(
        "phase-locked tiered multipath market",
        runs,
        trace_pins::PIN_PHASE_LOCKED_K2,
    );
}

#[test]
fn faulted_admission_market_traces_are_bit_identical_across_runs() {
    // Every stage of the controller surfaced.
    let runs = market(Cell::Admission);
    assert_trace_pinned("faulted admission market", runs, trace_pins::PIN_ADMISSION);
    assert_trace_has(
        runs,
        &[
            "MarketAdmissionQueued",
            "MarketAdmissionDegraded",
            "MarketAdmissionRejected",
        ],
    );
}

#[test]
fn faulted_query_market_traces_are_bit_identical_across_runs() {
    // The remaining planning surfaces: top-k query discovery over a
    // periodically refreshed index, planned through the tiered oracle.
    let runs = market(Cell::Query);
    assert_pinned(
        "faulted query market",
        &tiered_projection(&runs.plain),
        PIN_QUERY_MARKET,
    );
    runs.assert_tracing_neutral("faulted query market");
    assert_trace_pinned("faulted query market", runs, trace_pins::PIN_QUERY_TIERED);
    assert_trace_has(runs, &["MarketCrashDetect", "OracleTiers"]);
}

#[test]
fn untraced_market_outcome_is_unaffected_by_the_instrumentation() {
    // The zero-cost contract, end to end, on every pinned cell: a run with
    // no tracer attached produces exactly the outcome — per-class stats,
    // the admission ledger, delivery, the audit, the oracle tiers, the
    // planner's work — and the books of a traced run.
    for cell in CELLS {
        let runs = market(cell);
        assert!(runs.records > 0, "a traced market emitted no records");
        runs.assert_tracing_neutral("a pinned market");
        assert!(
            runs.plain.out.planner_relaxations > 0,
            "the run did no planner work"
        );
    }
}

/// One faulted query trajectory: kill hosts mid-stream, refresh the
/// aggregate index, and interleave scoped queries. Captures the complete
/// answers — hosts, summaries, freshness, traffic stats — plus both
/// ledgers; every byte must be reproducible.
fn faulted_query_trajectory(seed: u64) -> (Vec<QueryAnswer>, u64, u64) {
    let mut pool = build(seed);
    let t0 = SimTime::from_secs(10);
    let mut index = pool.build_query_index(SimTime::from_secs(60), t0);
    let mut answers = Vec::new();
    answers.push(index.top_k(12, 3, 2, &[], Scope::Global));
    answers.push(index.top_k(6, 1, 1, &[HostId(5)], Scope::Nearest { member: 17 }));
    // A crash wave: every 13th host dies, then the next gather round
    // notices (dead hosts stop publishing samples).
    for h in (0..200u32).step_by(13) {
        pool.kill_host(HostId(h));
    }
    let t1 = SimTime::from_secs(70);
    pool.refresh_query_index(&mut index, t1);
    answers.push(index.top_k(12, 3, 2, &[], Scope::Global));
    answers.push(index.range([0.0, 0.0], 120.0, 2, 1));
    answers.push(index.point(HostId(13))); // a dead host: empty answer
                                           // Partial recovery, another gather, more queries.
    pool.revive_host(HostId(13));
    pool.revive_host(HostId(26));
    let t2 = SimTime::from_secs(130);
    pool.refresh_query_index(&mut index, t2);
    answers.push(index.top_k(20, 2, 1, &[], Scope::Nearest { member: 3 }));
    answers.push(index.point(HostId(13)));
    let q = index.query_traffic();
    let m = index.maintenance_traffic();
    (answers, q.bytes, m.bytes)
}

#[test]
fn faulted_query_trajectory_is_bit_identical_across_runs() {
    let a = faulted_query_trajectory(51);
    let b = faulted_query_trajectory(51);
    assert_eq!(a, b);
    assert_pinned("faulted query", &a, PIN_QUERY);
    // The crash wave actually changed the answers: the post-kill global
    // top-k must not contain any dead host.
    let post_kill = &a.0[2];
    assert!(
        !post_kill.hosts.is_empty(),
        "post-kill answer came up empty"
    );
    for s in &post_kill.hosts {
        assert!(
            s.host.0 % 13 != 0,
            "dead host {:?} survived in a refreshed answer",
            s.host
        );
    }
    assert!(a.1 > 0, "queries charged no traffic");
    assert!(a.2 > 0, "gathers charged no traffic");
}

#[test]
fn somo_tree_is_a_pure_function_of_the_ring() {
    let a = build(11);
    let t1 = SomoTree::build(&a.ring, 8);
    let t2 = SomoTree::build(&a.ring, 8);
    assert_eq!(t1.len(), t2.len());
    for (x, y) in t1.nodes().iter().zip(t2.nodes()) {
        assert_eq!(x.region(), y.region());
        assert_eq!(x.host(), y.host());
        assert_eq!(x.parent(), y.parent());
    }
}
