//! Extension: flash-crowd survival — the admission-controlled,
//! fairness-aware market.
//!
//! The paper's market resolves contention by strict priority: class 3
//! evicts class 2 evicts class 1. Under a flash crowd (a burst of
//! sessions beyond fig10's largest sweep point, cycling into hundreds of
//! arrivals) that turns scarcity into preemption churn and starves the
//! low classes. This binary sweeps burst size × allocation mode and
//! measures the two graceful-degradation alternatives:
//!
//! * **Priority** — the paper's strict-priority market, the baseline (its
//!   fault-free default config is Figure 10's, anchored by
//!   `fig10_multi_session` itself and `ext_multipath`'s k=1 / rate-0 cell);
//! * **Pareto** — weighted max-min water-filling: every session plans
//!   against its fair share of the pool's free degrees, booked at one
//!   shared rank (equal ranks never preempt each other);
//! * **Admission** — an admission controller in front of the planner:
//!   under scarcity arrivals are queued (bounded per-class FIFO, capped
//!   exponential retry backoff, round-based timeout) or admitted degraded
//!   (trimmed helper budget and fan-out) instead of preempting anyone.
//!
//! Reported per cell: Jain's weighted fairness index over per-session
//! mean helper shares (normalized by priority weight — 1.0 means every
//! session got exactly its weighted fair share), admission latency
//! distribution, preemption churn, delivery ratio under a concurrent 5%
//! crash plan, and the admission ledger.
//!
//! Asserted, not just measured:
//!
//! * **Zero preemption, zero leaks** — Admission mode preempts nobody at
//!   any burst size, and no cell leaks a degree past the horizon;
//! * **Fairness pays** — Jain(Pareto) > Jain(Priority) at the largest
//!   burst;
//! * **Clean audits** — every cell, including the two admission
//!   invariants (queue conservation, zero preemption).
//!
//! Run with: `cargo run --release -p bench --bin ext_flash_crowd`

use bench::{crash_plan, dump_json, parallel_runs};
use pool::{
    AdmissionConfig, AllocationMode, MarketConfig, MarketOutcome, MarketSim, PlanConfig,
    PoolConfig, ResourcePool, DEGRADED_CLASS,
};
use serde_json::json;
use simcore::SimTime;

/// Burst sizes at fig10's member size (20): members are partitioned
/// disjointly, so demand scales with helper appetite — the top burst
/// exceeds fig10's largest sweep point (50 sessions) and pushes the
/// pool's free fraction below the scarcity thresholds.
const BURSTS: [usize; 3] = [15, 35, 55];
const MODES: [AllocationMode; 3] = [
    AllocationMode::Priority,
    AllocationMode::Pareto,
    AllocationMode::Admission,
];
const MEMBER_SIZE: usize = 20;
const CRASH_RATE: f64 = 0.05;

fn main() {
    let seed = 2010;
    println!("building the 1200-host resource pool (coordinates + bandwidth)...");
    let pristine = ResourcePool::build(&PoolConfig::default(), seed);
    let num_hosts = pristine.net.num_hosts();

    let mut rows = Vec::new();
    let cells: Vec<(usize, usize)> = (0..BURSTS.len())
        .flat_map(|b| (0..MODES.len()).map(move |m| (b, m)))
        .collect();
    println!(
        "\nflash crowd — burst × mode, 5% crashes, member size {MEMBER_SIZE}:\n{:>6} {:>9} | {:>6} {:>7} | {:>8} {:>9} | {:>26} | {:>8}",
        "burst", "mode", "jain", "preempt", "delivery", "arrivals", "adm/deg/rej/queued", "wait(s)"
    );
    let outs: Vec<MarketOutcome> = parallel_runs(cells.len(), |i| {
        let (b, m) = cells[i];
        run_cell(&pristine, BURSTS[b], MODES[m], num_hosts, seed)
    });
    let mut jain = [[f64::NAN; 3]; 3]; // [burst][mode]
    for (&(b, m), out) in cells.iter().zip(&outs) {
        let (burst, mode) = (BURSTS[b], MODES[m]);
        jain[b][m] = out.jain_fairness();
        print_cell(burst, mode, out);
        assert_cell(burst, mode, out);
        rows.push(cell_json(burst, mode, out));
    }
    // The fairness payoff, asserted at the largest burst: water-filled
    // shares beat priority eviction on the Jain index.
    let last = BURSTS.len() - 1;
    assert!(
        jain[last][1] > jain[last][0],
        "Pareto Jain ({}) not above Priority ({}) at burst {}",
        jain[last][1],
        jain[last][0],
        BURSTS[last]
    );
    // The admission controller must actually have engaged under the
    // largest burst — otherwise the cell measured nothing.
    let adm = &outs[last * MODES.len() + 2].admission;
    assert!(
        adm.degraded + adm.rejected + adm.queued_final + adm.max_queue_depth > 0,
        "largest burst never pressured the admission controller"
    );

    println!(
        "\n(jain is the weighted fairness index over per-session mean helper shares,\n normalized by priority weight — 1.0 means every session got exactly its\n weighted fair share; adm/deg/rej/queued is the admission ledger; wait is the\n mean queue delay of admitted sessions; Admission mode is asserted to preempt\n nobody at any burst)"
    );
    dump_json(
        "ext_flash_crowd",
        &json!({
            "extension": "flash_crowd",
            "member_size": MEMBER_SIZE,
            "bursts": BURSTS,
            "modes": ["priority", "pareto", "admission"],
            "crash_rate": CRASH_RATE,
            "rows": rows,
        }),
    );
}

fn run_cell(
    pristine: &ResourcePool,
    burst: usize,
    mode: AllocationMode,
    num_hosts: usize,
    seed: u64,
) -> MarketOutcome {
    let cfg = MarketConfig {
        sessions: burst,
        member_size: MEMBER_SIZE,
        horizon: SimTime::from_secs(3600),
        warmup: SimTime::from_secs(600),
        plan: PlanConfig::default(),
        allocation: mode,
        // Thresholds sized to the burst sweep: the pool sits near ~35%
        // free at the largest burst, so scarcity engages there while the
        // small burst mostly admits at full service.
        admission: AdmissionConfig {
            scarce_free_frac: 0.55,
            degrade_free_frac: 0.35,
            ..AdmissionConfig::default()
        },
        // Seeded per burst: every mode at a burst shares one plan.
        faults: crash_plan(CRASH_RATE, num_hosts, seed + burst as u64),
        ..MarketConfig::default()
    };
    MarketSim::new(pristine.clone(), cfg, seed + burst as u64).run()
}

fn mode_name(mode: AllocationMode) -> &'static str {
    match mode {
        AllocationMode::Priority => "priority",
        AllocationMode::Pareto => "pareto",
        AllocationMode::Admission => "admission",
    }
}

fn total_preemptions(out: &MarketOutcome) -> u64 {
    out.per_class.iter().map(|(_, p)| p.preemptions).sum()
}

fn print_cell(burst: usize, mode: AllocationMode, out: &MarketOutcome) {
    let a = &out.admission;
    println!(
        "{:>6} {:>9} | {:>6.3} {:>7} | {:>7.2}% {:>9} | {:>5}/{:>5}/{:>5}/{:>6} | {:>8.2}",
        burst,
        mode_name(mode),
        out.jain_fairness(),
        total_preemptions(out),
        out.delivery.mean() * 100.0,
        a.arrivals,
        a.admitted,
        a.degraded,
        a.rejected,
        a.queued_final,
        a.wait.mean(),
    );
}

/// The hard acceptance gates, at every cell.
fn assert_cell(burst: usize, mode: AllocationMode, out: &MarketOutcome) {
    let tag = format!("burst {burst} mode {}", mode_name(mode));
    assert_eq!(out.leaked_degrees, 0, "{tag}: degrees leaked past horizon");
    assert!(
        out.audit.is_clean(),
        "{tag}: audit violations: {:?}",
        out.audit.violations
    );
    if mode == AllocationMode::Admission {
        assert_eq!(
            total_preemptions(out),
            0,
            "{tag}: admission mode preempted someone"
        );
        assert_eq!(
            out.admission.arrivals,
            out.admission.admitted
                + out.admission.degraded
                + out.admission.rejected
                + out.admission.queued_final,
            "{tag}: admission ledger does not balance"
        );
    }
}

fn cell_json(burst: usize, mode: AllocationMode, out: &MarketOutcome) -> serde_json::Value {
    let a = &out.admission;
    let class_stats: Vec<serde_json::Value> = out
        .per_class
        .iter()
        .map(|(c, p)| {
            json!({
                "class": if c == DEGRADED_CLASS { "degraded".to_string() } else { format!("p{c}") },
                "improvement_mean": p.improvement.mean(),
                "helpers_mean": p.helpers.mean(),
                "plans": p.improvement.count(),
                "preemptions": p.preemptions,
                "helper_failures": p.helper_failures,
            })
        })
        .collect();
    json!({
        "burst": burst,
        "mode": mode_name(mode),
        "jain": out.jain_fairness(),
        "preemptions": total_preemptions(out),
        "delivery": {"mean": out.delivery.mean(), "samples": out.delivery.count()},
        "utilization_mean": out.utilization.mean(),
        "plans": out.plans,
        "sessions_lost": out.sessions_lost(),
        "leaked_degrees": out.leaked_degrees,
        "admission": {
            "arrivals": a.arrivals,
            "admitted": a.admitted,
            "degraded": a.degraded,
            "rejected": a.rejected,
            "timeouts": a.timeouts,
            "queued_final": a.queued_final,
            "max_queue_depth": a.max_queue_depth,
            "wait": {"mean": a.wait.mean(), "samples": a.wait.count()},
        },
        "classes": class_stats,
        "audit": {
            "samples": out.audit.samples,
            "checks": out.audit.checks,
            "violations": out.audit.violations.len(),
        },
    })
}
