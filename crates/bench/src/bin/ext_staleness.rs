//! Extension experiment: how much does SOMO view staleness cost?
//!
//! The paper's whole argument rests on SOMO delivering "global, on-time and
//! trusted knowledge" (§5.3) with a bounded lag (§3.2). This experiment
//! quantifies the other side of that coin: a task manager planning from a
//! view that is *behind reality* will be refused by helpers the view
//! promised, must drop them and replan — losing improvement.
//!
//! Method: snapshot the pool's resource report, let `k` competing sessions
//! reserve helpers (making the snapshot progressively stale), then plan
//! probe sessions from the old snapshot and compare with probes planned
//! from a fresh one. Staleness here is measured in *competing reservations
//! missed*, the quantity a lag of `log_k N · T` translates into under any
//! given session arrival rate.
//!
//! Run with: `cargo run --release -p bench --bin ext_staleness`

use bench::{dump_json, mean};
use netsim::NetworkConfig;
use pool::task_manager::{plan_and_reserve, plan_and_reserve_with, Candidates, PlanShape};
use pool::{PlanConfig, PlanModel, PoolConfig, ResourcePool, SessionId, SessionSpec};
use serde_json::json;

const PROBES: usize = 8;

fn main() {
    let seed = 2014;
    println!("building a 1200-host pool...");
    let pristine = ResourcePool::build(
        &PoolConfig {
            net: NetworkConfig::default(),
            coord_rounds: 10,
            ..PoolConfig::default()
        },
        seed,
    );
    let cfg = PlanConfig {
        model: PlanModel::Oracle,
        ..PlanConfig::default()
    };

    println!(
        "\n{:>22} {:>12} {:>14} {:>10}",
        "missed reservations", "improvement", "helper fails", "helpers"
    );
    let mut rows = Vec::new();
    for &competitors in &[0usize, 5, 10, 20, 40] {
        let mut pool = pristine.clone();
        // The probe's view of the world, taken *before* the competitors
        // make their reservations.
        let stale_view = pool.snapshot_report(usize::MAX);
        let sets = pool.partition_members(competitors + PROBES, 20, seed + competitors as u64);
        for (i, members) in sets[..competitors].iter().enumerate() {
            let s = SessionSpec {
                id: SessionId(1000 + i as u32),
                priority: 1,
                root: members[0],
                members: members.clone(),
            };
            plan_and_reserve(&mut pool, &s, &cfg);
        }
        // Probe sessions plan from the stale snapshot.
        let mut improvements = Vec::new();
        let mut failures = Vec::new();
        let mut helpers = Vec::new();
        for (i, members) in sets[competitors..].iter().enumerate() {
            let s = SessionSpec {
                id: SessionId(2000 + i as u32),
                priority: 2,
                root: members[0],
                members: members.clone(),
            };
            let shape = PlanShape::priority(s.priority, cfg.k_trees);
            let source = Candidates::View(&stale_view);
            let out = plan_and_reserve_with(&mut pool, &s, &cfg, source, shape, None);
            improvements.push(out.improvement);
            failures.push(out.helper_failures as f64);
            helpers.push(out.helpers.len() as f64);
            pool.release_session(s.id);
        }
        let row = (
            competitors,
            mean(&improvements),
            mean(&failures),
            mean(&helpers),
        );
        println!(
            "{:>22} {:>11.1}% {:>14.2} {:>10.2}",
            row.0,
            row.1 * 100.0,
            row.2,
            row.3
        );
        rows.push(json!({
            "competing_reservations_missed": row.0,
            "mean_improvement": row.1,
            "mean_helper_failures": row.2,
            "mean_helpers": row.3,
        }));
    }
    println!(
        "\n(expect: improvement degrades gracefully and failures rise as the view ages —\n the cost of staleness is retries, not broken sessions)"
    );
    dump_json("ext_staleness", &json!({ "probes": PROBES, "rows": rows }));
}
