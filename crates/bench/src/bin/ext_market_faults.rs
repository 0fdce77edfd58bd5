//! Extension: the Figure 10 market under host crashes.
//!
//! The paper's market model (§5.3) assumes every task manager and helper
//! outlives its session. This experiment drops that assumption: a fraction
//! of the 1200 hosts crash permanently at staggered times mid-run, and the
//! crash-tolerance machinery — helper leases, missed-renewal detection,
//! subtree reattachment, task-manager failover — has to keep the market's
//! books balanced.
//!
//! Two properties are asserted at every crash rate, not just measured:
//!
//! * **Zero-fault anchor** — at crash rate 0 the fault path must be a true
//!   no-op: the sessions=20 row reproduces `fig10_multi_session.json`
//!   bit-identically (same seed, same trajectory, same floats).
//! * **No leaks** — every crashed session either failed over or had its
//!   leases lapse by the horizon: the final audit reports zero
//!   degree-conservation violations and the leak census finds zero helper
//!   degrees still booked to inactive sessions.
//!
//! Every crash repair must also resolve one of the two ways the market has:
//! an incremental holdings re-sync, or its full-replan fallback.
//!
//! With `--trace-out`, the rate-0.10 run carries a ring tracer
//! and its structured event trace lands in
//! `results/ext_market_faults_trace.jsonl` (observation only — all the
//! asserted gates above are unchanged).
//!
//! Run with: `cargo run --release -p bench --bin ext_market_faults`

use bench::{anchor_against_fig10, dump_json, dump_jsonl, trace_out_requested};
use pool::{MarketConfig, MarketSim, PlanConfig, PoolConfig, ResourcePool};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::json;
use simcore::{FaultPlan, SimTime};

const SESSIONS: usize = 20;
const MEMBER_SIZE: usize = 20;
const CRASH_RATES: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

fn main() {
    let seed = 2010;
    println!("building the 1200-host resource pool (coordinates + bandwidth)...");
    let pristine = ResourcePool::build(&PoolConfig::default(), seed);
    let num_hosts = pristine.net.num_hosts();

    let mut rows = Vec::new();
    println!(
        "\nmarket under host crashes — {SESSIONS} sessions, crash rate swept:\n{:>6} | {:>8} {:>8} {:>8} | {:>7} {:>9} {:>9} {:>5} | {:>7} {:>7}",
        "rate", "imp p1", "imp p2", "imp p3", "crashes", "failovers", "lost", "lapse", "leaked", "incsync"
    );
    for (k, &rate) in CRASH_RATES.iter().enumerate() {
        let cfg = MarketConfig {
            sessions: SESSIONS,
            member_size: MEMBER_SIZE,
            horizon: SimTime::from_secs(3600),
            warmup: SimTime::from_secs(600),
            plan: PlanConfig::default(),
            faults: crash_plan(rate, num_hosts, seed + k as u64),
            ..MarketConfig::default()
        };
        // Same sim seed as the fig10 sessions=20 sweep point, so the
        // rate-0 trajectory is the committed one.
        let traced = trace_out_requested() && rate == 0.10;
        let mut sim = MarketSim::new(pristine.clone(), cfg, seed + SESSIONS as u64);
        if traced {
            sim.set_tracer(simcore::Tracer::ring(1 << 16));
        }
        let out = sim.run();
        if traced {
            dump_jsonl(
                "ext_market_faults_trace",
                &simcore::trace::to_json_lines(&out.trace),
            );
        }

        let imp: Vec<f64> = (1..=3).map(|p| out.class(p).improvement.mean()).collect();
        let help: Vec<f64> = (1..=3).map(|p| out.class(p).helpers.mean()).collect();
        let crashes: Vec<u64> = (1..=3).map(|p| out.class(p).helper_crashes).collect();
        let conservation = out.audit.count_of("degree-conservation");
        println!(
            "{:>5.0}% | {:>7.1}% {:>7.1}% {:>7.1}% | {:>7} {:>9} {:>9} {:>5} | {:>7} {:>7}",
            rate * 100.0,
            imp[0] * 100.0,
            imp[1] * 100.0,
            imp[2] * 100.0,
            crashes.iter().sum::<u64>(),
            out.failovers(),
            out.sessions_lost(),
            out.lapsed_lease_degrees,
            out.leaked_degrees,
            out.incremental_replans,
        );

        // The hard acceptance gates, at every rate.
        assert_eq!(
            out.leaked_degrees, 0,
            "rate {rate}: helper degrees leaked past the horizon"
        );
        assert_eq!(
            conservation, 0,
            "rate {rate}: degree conservation violated: {:?}",
            out.audit.violations
        );
        assert!(
            out.audit.is_clean(),
            "rate {rate}: audit violations: {:?}",
            out.audit.violations
        );
        assert_eq!(
            out.incremental_replans + out.resync_fallbacks,
            out.crash_repairs,
            "rate {rate}: a repair neither re-synced nor fell back"
        );
        if rate == 0.0 {
            anchor_against_fig10("rate 0", SESSIONS, &out);
            assert_eq!(out.crash_repairs, 0, "phantom repairs at zero faults");
            assert_eq!(out.lapsed_lease_degrees, 0, "phantom lapses at zero faults");
        }

        rows.push(json!({
            "crash_rate": rate,
            "improvement": {"p1": imp[0], "p2": imp[1], "p3": imp[2]},
            "helpers": {"p1": help[0], "p2": help[1], "p3": help[2]},
            "helper_crashes": {"p1": crashes[0], "p2": crashes[1], "p3": crashes[2]},
            "preemptions": {
                "p1": out.class(1).preemptions,
                "p2": out.class(2).preemptions,
                "p3": out.class(3).preemptions,
            },
            "failovers": out.failovers(),
            "sessions_lost": out.sessions_lost(),
            "crash_repairs": out.crash_repairs,
            "crash_repair_retries": out.crash_repair_retries,
            "crash_repair_gave_up": out.crash_repair_gave_up,
            "incremental_replans": out.incremental_replans,
            "resync_fallbacks": out.resync_fallbacks,
            "lapsed_lease_degrees": out.lapsed_lease_degrees,
            "leaked_degrees": out.leaked_degrees,
            "plans": out.plans,
            "audit": {
                "samples": out.audit.samples,
                "checks": out.audit.checks,
                "violations": out.audit.violations.len(),
            },
        }));
    }

    dump_json(
        "ext_market_faults",
        &json!({
            "extension": "market_faults",
            "sessions": SESSIONS,
            "member_size": MEMBER_SIZE,
            "crash_rates": CRASH_RATES,
            "anchor": "fig10_multi_session sessions=20 row, bit-identical at rate 0",
            "rows": rows,
        }),
    );
}

/// Crash `rate` of the pool's hosts permanently, at deterministic times
/// staggered across the middle of the run (after warm-up, before the last
/// quarter — crashes too close to the horizon exercise nothing).
fn crash_plan(rate: f64, num_hosts: usize, seed: u64) -> FaultPlan {
    let n = (num_hosts as f64 * rate).round() as usize;
    if n == 0 {
        return FaultPlan::none();
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut hosts: Vec<usize> = (0..num_hosts).collect();
    hosts.shuffle(&mut rng);
    let mut plan = FaultPlan::none();
    for &h in hosts.iter().take(n) {
        let at = rng.random_range(600..2700u64);
        plan = plan.crash_forever(h as u64, SimTime::from_secs(at));
    }
    plan
}
