//! Trace determinism: the observability layer's core contract. Two
//! same-seed runs of a faulted simulation must emit bit-identical
//! JSON-lines traces — simulated time and typed payloads only, no
//! wall-clock, no addresses, no iteration-order leaks. The market's traces
//! are pinned with its outcomes, one traced run per cell, in
//! `tests/determinism.rs`.

use p2p_resource_pool::prelude::*;
use p2p_resource_pool::simcore::trace::to_json_lines;
/// A faulted synchronized gather with a mid-run member kill: rounds open,
/// close (both reasons), and suppress stale timeouts.
fn traced_gather(seed: u64) -> (String, p2p_resource_pool::somo::flow::GatherStats) {
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
    (trace, sim.stats())
}

#[test]
fn faulted_gather_traces_and_metrics_are_bit_identical_across_runs() {
    let a = traced_gather(33);
    let b = traced_gather(33);
    assert!(!a.0.is_empty(), "a faulted gather must emit trace records");
    assert_eq!(a.0, b.0, "same-seed gather traces diverged");
    assert_eq!(a.1, b.1, "same-seed gather stats diverged");
    for needle in ["GatherOpen", "GatherClose", "GatherRootView"] {
        assert!(a.0.contains(needle), "no {needle} event in the trace");
    }
    assert!(a.1.rounds_completed > 0, "no round completed: {:?}", a.1);
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
