//! Extension: the Figure 10 market under host crashes, with k
//! degree-disjoint trees per session.
//!
//! The paper's market model (§5.3) assumes every task manager and helper
//! outlives its session. This sweep drops that assumption: a fraction of
//! the 1200 hosts crash permanently at staggered times mid-run, and the
//! crash-tolerance machinery — helper leases, missed-renewal detection,
//! subtree reattachment, task-manager failover — has to keep the market's
//! books balanced. k=1 is that single-tree baseline.
//!
//! The pool's robustness payoff for cheap capacity is redundancy: at k > 1
//! each session plans k degree-disjoint delivery trees (a standby tree may
//! not consume the same reserved degree units as the primary on any shared
//! host, and per-host fan-out across trees is capped by the `bwest`
//! estimate). When a crash breaks the primary, the market promotes the
//! best surviving standby within one detection round and lazily re-plans
//! the lost tree in the background.
//!
//! This binary sweeps crash rate × k and reports the three costs/benefits
//! of that redundancy next to the crash-repair ledger:
//!
//! * **delivery ratio** — per-round fraction of live members whose root
//!   path is intact in at least one tree;
//! * **failover latency** — rounds-to-restore: detection rounds from a
//!   primary break until a tree is serving again (standby promotion closes
//!   the window in ~1 round, a full re-plan takes longer);
//! * **degree cost** — pool utilization and helpers recruited, which grow
//!   with k.
//!
//! Three properties are asserted, not just measured:
//!
//! * **No leaks, no double-counting** — at every cell the audit is clean
//!   (including the `degree-conservation` and `tree-disjointness`
//!   invariants) and the leak census finds zero degrees still booked past
//!   the horizon;
//! * **Every repair resolves** — each crash repair is an incremental
//!   holdings re-sync or its full-replan fallback, and a crash-free cell
//!   repairs nothing and lapses no lease;
//! * **Redundancy pays** — at crash rate 10%, k=2 delivers strictly more
//!   than k=1.
//!
//! A fourth is a claim of `tests/paper_claims.rs` on the committed files:
//! the k=1 / rate-0 cell reproduces `fig10_multi_session.json`'s
//! sessions=20 row bit-identically (no lease lapses without a crash, and
//! at k=1 the multipath machinery is a strict no-op). The binary reads no
//! other binary's output, so the anchors run in any order.
//!
//! With `--trace-out`, the rate-0.10 / k=2 run carries a ring tracer and
//! its structured event trace (failovers, rebuilds included) lands in
//! `results/ext_multipath_trace.jsonl` (observation only).
//!
//! Run with: `cargo run --release -p bench --bin ext_multipath`

use bench::{crash_plan, dump_json, dump_jsonl, parallel_runs, trace_out_requested};
use pool::market::PriorityStats;
use pool::{MarketConfig, MarketOutcome, MarketSim, PlanConfig, PoolConfig, ResourcePool};
use serde_json::json;
use simcore::{FaultPlan, SimTime};

const SESSIONS: usize = 20;
const MEMBER_SIZE: usize = 20;
const CRASH_RATES: [f64; 4] = [0.0, 0.05, 0.10, 0.20];
const KS: [usize; 3] = [1, 2, 3];

fn main() {
    let seed = 2010;
    println!("building the 1200-host resource pool (coordinates + bandwidth)...");
    let pristine = ResourcePool::build(&PoolConfig::default(), seed);
    let num_hosts = pristine.net.num_hosts();

    // Every k at a given rate shares one crash plan (seeded per rate) so
    // the k columns are comparable.
    let cells: Vec<(usize, usize)> = (0..CRASH_RATES.len())
        .flat_map(|r| (0..KS.len()).map(move |k| (r, k)))
        .collect();

    println!(
        "\nmultipath market — {SESSIONS} sessions, crash rate × k swept:\n{:>6} {:>3} | {:>9} {:>9} | {:>9} {:>8} {:>8} | {:>6} {:>8}",
        "rate", "k", "delivery", "restore", "failover", "rebuilt", "lost", "util", "helpers"
    );
    let outs: Vec<MarketOutcome> = parallel_runs(cells.len(), |i| {
        let (r, ki) = cells[i];
        let (rate, k) = (CRASH_RATES[r], KS[ki]);
        let faults = crash_plan(rate, num_hosts, seed + r as u64);
        let cfg = MarketConfig {
            sessions: SESSIONS,
            member_size: MEMBER_SIZE,
            horizon: SimTime::from_secs(3600),
            warmup: SimTime::from_secs(600),
            plan: PlanConfig {
                k_trees: k,
                ..PlanConfig::default()
            },
            faults,
            ..MarketConfig::default()
        };
        // Same sim seed as the fig10 sessions=20 sweep point: paper_claims
        // holds the k=1 / rate-0 cell equal to that committed row.
        let mut sim = MarketSim::new(pristine.clone(), cfg, seed + SESSIONS as u64);
        if trace_out_requested() && rate == 0.10 && k == 2 {
            sim.set_tracer(simcore::Tracer::ring(1 << 16));
        }
        sim.run()
    });

    let mut rows = Vec::new();
    let mut delivery_10 = [f64::NAN; 3]; // delivery mean at rate 0.10, per k.
    for (&(r, ki), out) in cells.iter().zip(&outs) {
        let (rate, k) = (CRASH_RATES[r], KS[ki]);
        if !out.trace.is_empty() {
            dump_jsonl(
                "ext_multipath_trace",
                &simcore::trace::to_json_lines(&out.trace),
            );
        }
        let helpers_mean = (1..=3).map(|p| out.class(p).helpers.mean()).sum::<f64>() / 3.0;
        println!(
            "{:>5.0}% {:>3} | {:>8.2}% {:>9.2} | {:>9} {:>8} {:>8} | {:>5.1}% {:>8.2}",
            rate * 100.0,
            k,
            out.delivery.mean() * 100.0,
            out.restore_rounds.mean(),
            out.tree_failovers,
            out.trees_rebuilt,
            out.sessions_lost(),
            out.utilization.mean() * 100.0,
            helpers_mean,
        );
        assert_cell_clean(out, rate, k);
        if rate == 0.0 && k == 1 {
            assert_eq!(out.tree_failovers + out.trees_rebuilt, 0);
        }
        if rate == 0.10 {
            delivery_10[ki] = out.delivery.mean();
        }
        rows.push(cell_json(rate, k, out));
    }

    // The redundancy payoff, asserted: at 10% crashes a second
    // degree-disjoint tree must strictly raise the delivery ratio.
    assert!(
        delivery_10[1] > delivery_10[0],
        "k=2 delivery ({}) not above k=1 ({}) at 10% crashes",
        delivery_10[1],
        delivery_10[0]
    );

    // Message-loss cells: no crashes at all, 5% per-edge loss per
    // delivery round. Redundancy must pay here too — a member
    // survives a dropped edge in one tree if another still reaches
    // it — and with zero crashes the trajectory itself is the
    // fault-oblivious one (delivery sampling is pure observation).
    let loss = 0.05;
    let loss_outs: Vec<MarketOutcome> = parallel_runs(2, |ki| {
        let cfg = MarketConfig {
            sessions: SESSIONS,
            member_size: MEMBER_SIZE,
            horizon: SimTime::from_secs(3600),
            warmup: SimTime::from_secs(600),
            plan: PlanConfig {
                k_trees: KS[ki],
                ..PlanConfig::default()
            },
            faults: FaultPlan::with_loss(seed + 7, loss),
            ..MarketConfig::default()
        };
        MarketSim::new(pristine.clone(), cfg, seed + SESSIONS as u64).run()
    });
    println!("\n5% per-edge message loss (no crashes):");
    for (k, out) in KS.iter().take(2).zip(&loss_outs) {
        println!(
            "{:>5}% {:>3} | {:>8.2}% ({} samples)",
            loss * 100.0,
            k,
            out.delivery.mean() * 100.0,
            out.delivery.count()
        );
        assert_cell_clean(out, 0.0, *k);
        let mut row = cell_json(0.0, *k, out);
        if let serde_json::Value::Object(m) = &mut row {
            m.push(("loss".to_string(), json!(loss)));
        }
        rows.push(row);
    }
    assert!(
        loss_outs[1].delivery.mean() > loss_outs[0].delivery.mean(),
        "k=2 delivery ({}) not above k=1 ({}) under {loss} loss",
        loss_outs[1].delivery.mean(),
        loss_outs[0].delivery.mean()
    );
    assert!(
        loss_outs[0].delivery.mean() < 1.0,
        "5% loss never cost a delivery at k=1"
    );

    println!(
        "\n(delivery is the per-round fraction of live members with an intact root path\n in ≥1 tree; restore is detection rounds from a primary break to a serving\n tree — standby promotion closes it in about one round, a re-plan takes more;\n utilization and helpers are the degree cost of the redundancy)"
    );
    dump_json(
        "ext_multipath",
        &json!({
            "extension": "multipath",
            "sessions": SESSIONS,
            "member_size": MEMBER_SIZE,
            "crash_rates": CRASH_RATES,
            "ks": KS,
            "anchor": "fig10_multi_session sessions=20 row, bit-identical at k=1 / rate 0",
            "rows": rows,
        }),
    );
}

/// The hard acceptance gates, at every cell. `rate` is the cell's crash
/// rate (0 for the message-loss cells).
fn assert_cell_clean(out: &MarketOutcome, rate: f64, k: usize) {
    assert_eq!(
        out.leaked_degrees, 0,
        "rate {rate} k={k}: degrees leaked past the horizon"
    );
    for invariant in ["degree-conservation", "tree-disjointness"] {
        assert_eq!(
            out.audit.count_of(invariant),
            0,
            "rate {rate} k={k}: {invariant} violated: {:?}",
            out.audit.violations
        );
    }
    assert!(
        out.audit.is_clean(),
        "rate {rate} k={k}: audit violations: {:?}",
        out.audit.violations
    );
    assert_eq!(
        out.incremental_replans + out.resync_fallbacks,
        out.crash_repairs,
        "rate {rate} k={k}: a repair neither re-synced nor fell back"
    );
    if rate == 0.0 {
        assert_eq!(
            out.crash_repairs, 0,
            "k={k}: phantom repairs at zero crashes"
        );
        assert_eq!(
            out.lapsed_lease_degrees, 0,
            "k={k}: phantom lapses at zero crashes"
        );
    }
}

/// `{p1, p2, p3}` of one per-class statistic.
fn per_class<T: serde::Serialize>(
    out: &MarketOutcome,
    stat: impl Fn(&PriorityStats) -> T,
) -> serde_json::Value {
    json!({"p1": stat(out.class(1)), "p2": stat(out.class(2)), "p3": stat(out.class(3))})
}

fn cell_json(rate: f64, k: usize, out: &MarketOutcome) -> serde_json::Value {
    json!({
        "crash_rate": rate,
        "k": k,
        "delivery": {"mean": out.delivery.mean(), "samples": out.delivery.count()},
        "restore_rounds": {"mean": out.restore_rounds.mean(), "samples": out.restore_rounds.count()},
        "tree_failovers": out.tree_failovers,
        "trees_rebuilt": out.trees_rebuilt,
        "failovers": out.failovers(),
        "sessions_lost": out.sessions_lost(),
        "crash_repairs": out.crash_repairs,
        "crash_repair_retries": out.crash_repair_retries,
        "crash_repair_gave_up": out.crash_repair_gave_up,
        "incremental_replans": out.incremental_replans,
        "resync_fallbacks": out.resync_fallbacks,
        "lapsed_lease_degrees": out.lapsed_lease_degrees,
        "utilization_mean": out.utilization.mean(),
        "improvement": per_class(out, |c| c.improvement.mean()),
        "helpers": per_class(out, |c| c.helpers.mean()),
        "helper_crashes": per_class(out, |c| c.helper_crashes),
        "preemptions": per_class(out, |c| c.preemptions),
        "plans": out.plans,
        "leaked_degrees": out.leaked_degrees,
        "audit": {
            "samples": out.audit.samples,
            "checks": out.audit.checks,
            "violations": out.audit.violations.len(),
        },
    })
}
