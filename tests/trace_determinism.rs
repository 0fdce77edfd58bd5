//! Trace determinism: the observability layer's core contract. Two
//! same-seed runs of a faulted simulation must emit bit-identical
//! JSON-lines traces — simulated time and typed payloads only, no
//! wall-clock, no addresses, no iteration-order leaks.

use p2p_resource_pool::prelude::*;
use p2p_resource_pool::simcore::trace::to_json_lines;
use testkit::fnv1a64;

/// The run-vs-run checks below cannot see a change that moves both runs
/// together; this compares one run against `(record count, FNV-1a-64 of
/// the JSON lines)` recorded at commit 21d0a1b. `crates/testkit/src/lib.rs`
/// says how to re-pin after an intended behaviour change.
fn assert_pinned(what: &str, (trace, records): &(String, u64), pin: (u64, u64)) {
    assert_eq!(
        (*records, fnv1a64(trace)),
        pin,
        "{what} trace moved off its pinned (records, digest)"
    );
}

/// `(record count, FNV-1a-64)` of each traced market below, recorded at
/// commit 21d0a1b.
const PIN_MARKET_K1: (u64, u64) = (601, 12810628481288405967);
const PIN_MARKET_K2: (u64, u64) = (758, 44761309776641770);
const PIN_ADMISSION: (u64, u64) = (950, 5193438548936708349);
/// The faulted Pareto market, recorded at commit 6c05027, before the
/// market's slot state became one `Phase`.
const PIN_PARETO: (u64, u64) = (583, 2974428711364132437);
const PIN_QUERY_TIERED: (u64, u64) = (777, 11118931471538173744);
/// The phase-locked tiered snapshot-view market (k = 1 and k = 2),
/// recorded at commit 0482ff2.
const PIN_PHASE_LOCKED_K1: (u64, u64) = (1242, 9421592194088227880);
const PIN_PHASE_LOCKED_K2: (u64, u64) = (1584, 750378349310401424);

/// A faulted market run with the tracer attached: helper and root crashes,
/// leases, failover, crash repair — every market event family fires.
fn traced_market(seed: u64) -> (String, u64) {
    traced_market_k(seed, 1)
}

/// [`traced_market`] with `k_trees` degree-disjoint trees per session —
/// at k > 1 the multipath failover/rebuild event families fire too.
fn traced_market_k(seed: u64, k_trees: usize) -> (String, u64) {
    traced_market_with(seed, LatencySource::Exact, |cfg| cfg.plan.k_trees = k_trees)
}

/// The remaining planning surfaces in one faulted market: top-k query
/// discovery over a periodically refreshed aggregate index, planned
/// through the tiered latency oracle.
fn traced_query_market(seed: u64) -> (String, u64) {
    traced_market_with(
        seed,
        LatencySource::Tiered(TieredConfig::default()),
        |cfg| {
            cfg.view_refresh = Some(SimTime::from_secs(120));
            cfg.discovery = DiscoveryMode::Query;
        },
    )
}

/// The faulted 9-session market behind the helpers above, on a pool with
/// the given latency source and with `shape` applied to its config.
fn traced_market_with(
    seed: u64,
    latency_source: LatencySource,
    shape: impl FnOnce(&mut MarketConfig),
) -> (String, u64) {
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
    for h in (0..300u64).step_by(7) {
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
    shape(&mut cfg);
    let mut sim = MarketSim::new(pool, cfg, seed);
    sim.set_tracer(Tracer::ring(1 << 16));
    let (out, _) = sim.run_full();
    (to_json_lines(&out.trace), out.trace.len() as u64)
}

#[test]
fn faulted_market_traces_are_bit_identical_across_runs() {
    let run = traced_market(29);
    assert_pinned("faulted market", &run, PIN_MARKET_K1);
    let (a, n) = run;
    let (b, _) = traced_market(29);
    assert!(n > 0, "a faulted market run must emit trace records");
    assert_eq!(a, b, "same-seed market traces diverged");
    // The fault machinery actually showed up in the trace.
    for needle in ["MarketReserve", "MarketHostFault", "MarketCrashDetect"] {
        assert!(a.contains(needle), "no {needle} event in the trace");
    }
}

#[test]
fn faulted_multipath_market_traces_are_bit_identical_across_runs() {
    // Same workload at k = 2: the standby-tree machinery (failover
    // promotion, lazy rebuild) must replay bit-for-bit and actually
    // surface in the trace.
    let run = traced_market_k(29, 2);
    assert_pinned("faulted multipath market", &run, PIN_MARKET_K2);
    let (a, n) = run;
    let (b, _) = traced_market_k(29, 2);
    assert!(n > 0, "a faulted multipath run must emit trace records");
    assert_eq!(a, b, "same-seed multipath market traces diverged");
    for needle in ["MarketTreeFailover", "MarketTreeRebuilt"] {
        assert!(a.contains(needle), "no {needle} event in the trace");
    }
}

#[test]
fn faulted_pareto_market_traces_are_bit_identical_across_runs() {
    // Same workload under Pareto allocation: the over-share trims land in
    // the trace as preempt replans.
    let pareto = |cfg: &mut MarketConfig| cfg.allocation = AllocationMode::Pareto;
    let run = traced_market_with(29, LatencySource::Exact, pareto);
    assert_pinned("faulted pareto market", &run, PIN_PARETO);
    let (a, n) = run;
    let (b, _) = traced_market_with(29, LatencySource::Exact, pareto);
    assert!(n > 0, "a faulted pareto run must emit trace records");
    assert_eq!(a, b, "same-seed pareto market traces diverged");
    for needle in ["MarketReserve", "MarketCrashDetect", "\"preempt\":true"] {
        assert!(a.contains(needle), "no {needle} in the trace");
    }
}

/// The faulted, traced phase-locked market: microsecond arrival gap (every
/// first start lands at `t = 0` and replans stay phase-locked), plans from
/// the snapshot view, tiered oracle so the per-plan `OracleTiers`
/// snapshots are part of the contract too.
fn traced_phase_locked_market(seed: u64, k_trees: usize) -> (String, u64) {
    traced_market_with(
        seed,
        LatencySource::Tiered(TieredConfig::default()),
        |cfg| {
            let mut faults = simcore::FaultPlan::none();
            for h in (0..300u64).step_by(13) {
                faults = faults.crash_forever(h, SimTime::from_secs(600 + h));
            }
            cfg.faults = faults;
            cfg.sessions = 12;
            cfg.member_size = 10;
            cfg.mean_gap = SimTime::from_micros(1);
            cfg.horizon = SimTime::from_secs(1500);
            cfg.view_refresh = Some(SimTime::from_secs(60));
            cfg.plan.k_trees = k_trees;
        },
    )
}

#[test]
fn phase_locked_market_trace_matches_its_pin() {
    // Every trace byte — per-plan relaxation and latency-call counts
    // included — of the one traced input with same-instant waves.
    let run = traced_phase_locked_market(29, 1);
    assert_pinned("phase-locked tiered market", &run, PIN_PHASE_LOCKED_K1);
    assert!(
        run.0.contains("OracleTiers"),
        "no per-plan tier snapshots in a tiered trace"
    );
}

#[test]
fn phase_locked_multipath_market_trace_matches_its_pin() {
    // k = 2: standby rounds scan the live pool behind every primary.
    let run = traced_phase_locked_market(29, 2);
    assert_pinned(
        "phase-locked tiered multipath market",
        &run,
        PIN_PHASE_LOCKED_K2,
    );
}

/// A faulted Admission-mode market with starvation-level thresholds, so
/// the controller's whole surface — queue, degraded admission, retry,
/// rejection, pressure shifts — lands in the trace.
fn traced_admission_market(seed: u64) -> (String, u64) {
    traced_market_with(seed, LatencySource::Exact, |cfg| {
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
    })
}

#[test]
fn faulted_admission_market_traces_are_bit_identical_across_runs() {
    let run = traced_admission_market(31);
    assert_pinned("faulted admission market", &run, PIN_ADMISSION);
    let (a, n) = run;
    let (b, _) = traced_admission_market(31);
    assert!(n > 0, "a faulted admission run must emit trace records");
    assert_eq!(a, b, "same-seed admission traces diverged");
    // Every stage of the controller actually surfaced.
    for needle in [
        "MarketAdmissionQueued",
        "MarketAdmissionDegraded",
        "MarketAdmissionRejected",
    ] {
        assert!(a.contains(needle), "no {needle} event in the trace");
    }
}

#[test]
fn faulted_query_market_traces_are_bit_identical_across_runs() {
    let run = traced_query_market(29);
    assert_pinned("faulted query market", &run, PIN_QUERY_TIERED);
    let (a, n) = run;
    let (b, _) = traced_query_market(29);
    assert!(
        n > 0,
        "a faulted query-discovery run must emit trace records"
    );
    assert_eq!(a, b, "same-seed query-discovery traces diverged");
    for needle in ["MarketCrashDetect", "OracleTiers"] {
        assert!(a.contains(needle), "no {needle} event in the trace");
    }
}

/// A faulted synchronized gather with a mid-run member kill: rounds open,
/// close (both reasons), and suppress stale timeouts.
fn traced_gather(seed: u64) -> (String, String) {
    use p2p_resource_pool::somo::flow::{FlowMode, FreshnessReport, GatherSim};
    let ring = Ring::with_random_ids((0..96).map(HostId), seed);
    let tree = SomoTree::build(&ring, 8);
    let plan = simcore::FaultPlan::with_loss(seed ^ 0x51, 0.05).jitter(SimTime::from_millis(15));
    let mut sim = GatherSim::with_faults(
        &tree,
        &ring,
        FlowMode::Synchronized,
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
    sim.set_tracer(Tracer::ring(1 << 16));
    sim.run_until(SimTime::from_secs(30));
    sim.kill_member(7);
    sim.run_until(SimTime::from_secs(90));
    let trace = to_json_lines(&sim.take_trace().expect("ring tracer owns its records"));
    let metrics = sim.metrics().to_json_lines();
    (trace, metrics)
}

#[test]
fn faulted_gather_traces_and_metrics_are_bit_identical_across_runs() {
    let a = traced_gather(33);
    let b = traced_gather(33);
    assert!(!a.0.is_empty(), "a faulted gather must emit trace records");
    assert_eq!(a.0, b.0, "same-seed gather traces diverged");
    assert_eq!(a.1, b.1, "same-seed gather metrics diverged");
    for needle in ["GatherOpen", "GatherClose", "GatherRootView"] {
        assert!(a.0.contains(needle), "no {needle} event in the trace");
    }
    assert!(
        a.1.contains("gather.rounds_completed"),
        "metrics export missing round counters: {}",
        a.1
    );
}

#[test]
fn recovery_pipeline_phase_trace_is_bit_identical_across_runs() {
    use p2p_resource_pool::pool::recovery::{run_pipeline_traced, RecoveryConfig};
    let run = || {
        let plan = simcore::FaultPlan::with_loss(17, 0.03).jitter(SimTime::from_millis(10));
        let mut tracer = Tracer::ring(64);
        let out = run_pipeline_traced(
            &RecoveryConfig {
                n: 48,
                crashes: 3,
                plan,
                session_size: 16,
                ..RecoveryConfig::default()
            },
            &mut tracer,
        );
        (
            to_json_lines(&tracer.take_records().expect("ring tracer owns its records")),
            out,
        )
    };
    let (a, out) = run();
    let (b, _) = run();
    assert_eq!(a, b);
    // A fully recovered pipeline emits all four phases, in order.
    assert!(out.timeline.reattached_at.is_some());
    assert_eq!(a.matches("RecoveryPhase").count(), 4);
}

#[test]
fn dht_heartbeat_trace_is_bit_identical_across_runs() {
    use p2p_resource_pool::dht::proto::{DhtSim, ProtoConfig};
    let run = || {
        let ring = Ring::with_random_ids((0..48).map(HostId), 21);
        let plan = simcore::FaultPlan::with_loss(0xFA17, 0.04).jitter(SimTime::from_millis(25));
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
        sim.set_tracer(Tracer::ring(1 << 15));
        sim.run_until(SimTime::from_secs(30));
        sim.kill(7);
        sim.run_until(SimTime::from_secs(120));
        to_json_lines(&sim.take_trace().expect("ring tracer owns its records"))
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same-seed DHT traces diverged");
    assert!(a.contains("DhtHeartbeat"));
    assert!(
        a.contains("DhtExpel"),
        "killing a node must surface an expulsion event"
    );
}

#[test]
fn untraced_market_outcome_is_unaffected_by_the_instrumentation() {
    // The zero-cost contract, end to end: a run with no tracer attached
    // must produce exactly the stats of a traced run (the trace records
    // are observation, never perturbation).
    let run = |traced: bool| {
        let pool = ResourcePool::build(
            &PoolConfig {
                net: NetworkConfig {
                    num_hosts: 300,
                    ..NetworkConfig::default()
                },
                coord_rounds: 4,
                ..PoolConfig::default()
            },
            31,
        );
        let mut faults = simcore::FaultPlan::none();
        for h in (0..300u64).step_by(11) {
            faults = faults.crash_forever(h, SimTime::from_secs(700 + h));
        }
        let cfg = MarketConfig {
            sessions: 6,
            member_size: 12,
            horizon: SimTime::from_secs(1800),
            warmup: SimTime::from_secs(300),
            faults,
            ..MarketConfig::default()
        };
        let mut sim = MarketSim::new(pool, cfg, 31);
        if traced {
            sim.set_tracer(Tracer::ring(1 << 16));
        }
        sim.run_full().0
    };
    let plain = run(false);
    let traced = run(true);
    assert!(plain.trace.is_empty());
    assert!(!traced.trace.is_empty());
    assert_eq!(plain.plans, traced.plans);
    assert_eq!(plain.crash_repairs, traced.crash_repairs);
    assert_eq!(plain.lapsed_lease_degrees, traced.lapsed_lease_degrees);
    assert_eq!(plain.leaked_degrees, traced.leaked_degrees);
    for p in 1..=3u8 {
        assert_eq!(
            plain.class(p).improvement.mean(),
            traced.class(p).improvement.mean()
        );
        assert_eq!(plain.class(p).preemptions, traced.class(p).preemptions);
    }
    // And the metrics adapter sees the same numbers either way.
    let mut ma = MetricsRegistry::new();
    let mut mb = MetricsRegistry::new();
    plain.publish_metrics(&mut ma);
    traced.publish_metrics(&mut mb);
    let exported = ma.to_json_lines();
    assert_eq!(exported, mb.to_json_lines());
    // The two exact planner-work counters are part of the export.
    for (name, want) in [
        ("market.planner_relaxations", plain.planner_relaxations),
        ("market.planner_latency_calls", plain.planner_latency_calls),
    ] {
        assert!(exported.contains(name), "{name} missing from the export");
        assert_eq!(ma.counter(name), want, "{name} is not the outcome's field");
    }
    assert!(plain.planner_relaxations > 0, "the run did no planner work");
}
