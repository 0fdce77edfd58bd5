//! Whole-stack determinism: every layer must be bit-reproducible from the
//! master seed — the property that makes the figure binaries regenerable
//! and failures debuggable.
//!
//! The eight market cells of `bench::cells` pinned here run twice each per
//! test binary, once untraced and once traced: the untraced run's
//! projection and the traced run's JSON lines are pinned, and the two
//! runs' outcomes and books must be equal (tracing observes, it never
//! perturbs). The cells share their pools with each other and with the
//! `cells` binary's table.

use std::sync::OnceLock;

use bench::cells::{Cell, Run};
use p2p_resource_pool::prelude::*;
use p2p_resource_pool::simcore::trace::to_json_lines;
use testkit::fnv1a64;

/// The run-vs-run checks below cannot see a change that moves both runs
/// together; this compares one trajectory's `Debug` rendering — for a
/// market, stats, counters and the final degree table of every host —
/// against `(length, FNV-1a-64)` recorded at commit 21d0a1b.
/// `crates/testkit/src/lib.rs` says how to re-pin after an intended
/// behaviour change.
fn assert_pinned(what: &str, rendered: &str, pin: (usize, u64)) {
    assert_eq!(
        (rendered.len(), fnv1a64(rendered)),
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
/// remap statistics, census and delivery fractions, ALM report, message,
/// drop and false-expulsion counts, audit — of the two pipelines below,
/// re-pinned when gossip began adopting only peers that enter the
/// receiver's leafset, and again when it began naming only the peers its
/// sender heard from within a half-timeout and the death certificates and
/// their two invariants went (first recorded at 291cf64, before the
/// pipeline's phases and the simulators under them were rebuilt).
const PIN_RECOVERY_CLEAN: (usize, u64) = (670, 14541627034593886311);
const PIN_RECOVERY_LOSSY: (usize, u64) = (652, 801411249440940579);

#[test]
fn recovery_pipeline_outcomes_match_their_pins() {
    use p2p_resource_pool::pool::recovery::{run_pipeline, RecoveryConfig};
    let clean = run_pipeline(&RecoveryConfig {
        n: 512,
        crashes: 4,
        ..RecoveryConfig::default()
    });
    assert_pinned(
        "fault-free recovery",
        &format!("{clean:?}"),
        PIN_RECOVERY_CLEAN,
    );
    let lossy = run_pipeline(&RecoveryConfig {
        n: 512,
        crashes: 8,
        plan: simcore::FaultPlan::with_loss(17, 0.05).jitter(SimTime::from_millis(20)),
        ..RecoveryConfig::default()
    });
    assert!(lossy.dht_dropped > 0 && lossy.gather_dropped > 0);
    assert_pinned(
        "5 % loss recovery",
        &format!("{lossy:?}"),
        PIN_RECOVERY_LOSSY,
    );
}

/// The cells of [`Cell::ALL`] this file pins; `tests/liveops_pins.rs`
/// pins the live-operations cells.
const CELLS: [Cell; 8] = [
    Cell::K1,
    Cell::K2,
    Cell::Pareto,
    Cell::Admission,
    Cell::PhaseLockedK1,
    Cell::PhaseLockedK2,
    Cell::Query,
    Cell::HotTier16,
];

/// A cell run once untraced and once traced.
struct CellRuns {
    cell: Cell,
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

    /// The untraced run's pinned projection against `pin`.
    fn assert_projection_pinned(&self, what: &str, pin: (usize, u64)) {
        let rendered = self.cell.projection(&self.plain);
        assert_pinned(what, &rendered.expect("a pinned projection"), pin);
    }
}

/// Both runs of `cell`, made once per test binary.
fn market(cell: Cell) -> &'static CellRuns {
    static RUNS: [OnceLock<CellRuns>; Cell::ALL.len()] =
        [const { OnceLock::new() }; Cell::ALL.len()];
    RUNS[cell as usize].get_or_init(|| {
        // The two runs are independent: make them side by side.
        let ((plain, untraced), (traced, records)) = std::thread::scope(|s| {
            let traced = s.spawn(|| cell.run(true));
            let plain = cell.run(false);
            (plain, traced.join().expect("the traced run panicked"))
        });
        assert!(untraced.is_empty(), "an untraced run emitted records");
        CellRuns {
            cell,
            plain,
            traced,
            trace: to_json_lines(&records),
            records: records.len() as u64,
        }
    })
}

/// Helper crashes, failovers and lost sessions over every class.
fn fault_activity(out: &pool::MarketOutcome) -> u64 {
    (1..=3)
        .map(|p| {
            let c = out.class(p);
            c.helper_crashes + c.failovers + c.sessions_lost
        })
        .sum()
}

#[test]
fn faulted_market_trajectory_is_bit_identical_across_runs() {
    let runs = market(Cell::K1);
    runs.assert_projection_pinned("faulted market", PIN_MARKET_K1);
    runs.assert_tracing_neutral("faulted market");
    // And the plan actually produced fault activity worth pinning.
    assert!(
        fault_activity(&runs.plain.out) > 0,
        "fault plan never touched a session"
    );
}

#[test]
fn faulted_multipath_market_trajectory_is_bit_identical_across_runs() {
    // Same crash plan, but every session also plans a degree-disjoint
    // standby tree: failovers, lazy rebuilds, delivery sampling and the
    // final books must all replay bit-for-bit.
    let runs = market(Cell::K2);
    runs.assert_projection_pinned("faulted multipath market", PIN_MARKET_K2);
    runs.assert_tracing_neutral("faulted multipath market");
    let out = &runs.plain.out;
    assert!(out.delivery.count() > 0, "delivery ratio was never sampled");
    assert_eq!(out.leaked_degrees, 0, "multipath run leaked degrees");
}

#[test]
fn faulted_pareto_market_trajectory_is_bit_identical_across_runs() {
    // Same crash plan, Pareto allocation: water-filled shares, one fair
    // rank, and the over-share trim (`reclaim_overshare`) that reads the
    // active set and every slot's pending-replan flag.
    let runs = market(Cell::Pareto);
    runs.assert_projection_pinned("faulted pareto market", PIN_PARETO);
    runs.assert_tracing_neutral("faulted pareto market");
    let out = &runs.plain.out;
    assert!(
        fault_activity(out) > 0,
        "fault plan never touched a session"
    );
    assert_eq!(out.leaked_degrees, 0, "pareto run leaked degrees");
}

#[test]
fn phase_locked_market_trajectory_matches_its_pin() {
    // The outcome, the exact planner-work counters, the oracle's per-tier
    // hits and the final books of every host, on the one market input
    // where every start and replan wave shares an instant.
    let runs = market(Cell::PhaseLockedK1);
    runs.assert_projection_pinned(
        "phase-locked tiered snapshot-view market",
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
    runs.assert_projection_pinned(
        "phase-locked tiered snapshot-view multipath market",
        PIN_PHASE_LOCKED_K2,
    );
    runs.assert_tracing_neutral("phase-locked tiered snapshot-view multipath market");
    let out = &runs.plain.out;
    assert!(out.delivery.count() > 0, "delivery ratio was never sampled");
    assert_eq!(out.leaked_degrees, 0, "multipath run leaked degrees");
}

#[test]
fn faulted_admission_trajectory_is_bit_identical_across_runs() {
    // The full admission ledger, every class's counters (the degraded
    // class included) and the final books.
    let runs = market(Cell::Admission);
    runs.assert_projection_pinned("faulted admission market", PIN_ADMISSION);
    runs.assert_tracing_neutral("faulted admission market");
    // The controller actually engaged: sessions were degraded AND turned
    // away, nothing was preempted, and the books balance.
    let out = &runs.plain.out;
    let a = &out.admission;
    assert!(a.degraded > 0, "no session was degraded");
    assert!(a.rejected > 0, "no session was rejected");
    assert_eq!(
        a.arrivals,
        a.admitted + a.degraded + a.rejected + a.queued_final,
        "admission ledger does not balance"
    );
    let preempted: u64 = out.per_class.iter().map(|(_, c)| c.preemptions).sum();
    assert_eq!(preempted, 0, "admission mode preempted");
    assert_eq!(out.leaked_degrees, 0, "admission run leaked degrees");
}

/// The hot tier copies promoted rows out of the pool's kernel instead of
/// re-running Dijkstra. Same rows, so the whole trajectory — which pairs
/// answer from which tier, every promotion, every eviction — must be the
/// one the Dijkstra-on-demand hot tier produced. A 16-row hot tier makes
/// the market churn it. The numbers were first recorded at 88a5e60 and
/// re-recorded when plans began promoting their members last, in one batch
/// per plan: (plans, repairs) went from (123, 7) to (124, 8) and
/// hot / sketch / base / promotions / evictions from
/// 7565 / 14162 / 33351 / 7641 / 7625 to 62223 / 56 / 44 / 1253 / 1237.
#[test]
fn faulted_tiered_market_tier_counters_match_dijkstra_on_demand_pin() {
    let runs = market(Cell::HotTier16);
    runs.assert_tracing_neutral("16-row hot tier market");
    let out = &runs.plain.out;
    assert_eq!((out.plans, out.crash_repairs), (124, 8));
    assert_eq!(
        out.oracle_tiers,
        Some(TierStats {
            hot: 62223,
            sketch: 56,
            base: 44,
            promotions: 1253,
            evictions: 1237,
        })
    );
    // Coordinates are packed (300 hosts × 5 × 8 B), not the 72 B per host
    // they took at 88a5e60: 9600 B below that commit's 112 816. The batched
    // promotion's per-router stamp adds 4 B for each of the 600 routers.
    // The factored sketch then replaced 16 × 300 × 4 B of landmark columns
    // and the oracle's own 300 × 12 B host tables with a fixed
    // 600 × 16 × 8 B landmark table and the sketch's shared host tables:
    // +57 600 B from 105 616 at this N, break-even at N = 1 200, and
    // 64 B per host less above it. At 163 216 B the oracle also held a copy
    // of the router graph it no longer reads: built over the pool's network,
    // it copies promoted rows out of the network's kernel, so its bytes drop
    // by exactly the graph's adjacency lists, 600 × 24 B of list headers and
    // 2 × 790 × 8 B of edges.
    let graph = &Cell::K1.pool().net.routers.graph;
    assert_eq!((graph.len(), graph.num_edges()), (600, 790));
    let resident_bytes = out.oracle_resident_bytes;
    assert_eq!(resident_bytes, 163_216 - (600 * 24 + 2 * 790 * 8));
    assert_eq!(resident_bytes, 136_176);
}

#[test]
fn exact_market_emits_no_oracle_trace_events() {
    // An Exact-source market has no tiers to report, so its trace stays
    // byte-identical to one from before the tiered oracle existed.
    for cell in [Cell::K1, Cell::K2, Cell::Pareto, Cell::Admission] {
        let runs = market(cell);
        assert!(runs.plain.out.oracle_tiers.is_none(), "{cell:?}");
        assert!(
            !runs.trace.contains("OracleTiers"),
            "{cell:?}: an Exact-source run emitted an OracleTiers event"
        );
    }
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
    runs.assert_projection_pinned("faulted query market", PIN_QUERY_MARKET);
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
    assert_pinned("faulted query", &format!("{a:?}"), PIN_QUERY);
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
