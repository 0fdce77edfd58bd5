//! §3.2's SOMO latency claims, measured.
//!
//! The paper derives two gather-staleness bounds — `log_k N · T` for the
//! unsynchronized flow and `T + t_hop · log_k N` for the synchronized one —
//! and quotes the headline number: *"For 2M nodes and with k=8 and a
//! typical latency of 200 ms per DHT hop, the SOMO root will have a global
//! view with a lag of 1.6 s."*
//!
//! This binary measures the actual root-view lag over simulated rings of
//! increasing size and fanout (200 ms per inter-host hop, T = 5 s), and
//! prints the analytic 2M-node row for comparison.
//!
//! Run with: `cargo run --release -p bench --bin somo_latency`

use bench::dump_json;
use dht::Ring;
use netsim::HostId;
use serde_json::json;
use simcore::SimTime;
use somo::flow::{
    sync_staleness_bound, unsync_staleness_bound, FlowMode, FreshnessReport, GatherSim,
};
use somo::SomoTree;

const HOP: SimTime = SimTime::from_millis(200);
const PERIOD: SimTime = SimTime::from_secs(5);

fn main() {
    let sizes = [256usize, 1024, 4096];
    let fanouts = [2usize, 4, 8, 16];

    println!("SOMO gather staleness (T = 5 s, t_hop = 200 ms):");
    println!(
        "{:>6} {:>4} {:>6} {:>12} {:>12} {:>13} {:>14} {:>13}",
        "N", "k", "depth", "sync lag", "sync bound", "unsync lag", "unsync bound*", "depth bound"
    );
    let mut rows = Vec::new();
    for &n in &sizes {
        for &k in &fanouts {
            let ring = Ring::with_random_ids((0..n as u32).map(HostId), 42);
            let tree = SomoTree::build(&ring, k);
            let sync = measure(
                &ring,
                &tree,
                FlowMode::Synchronized,
                SimTime::from_secs(120),
            );
            let unsync = measure(
                &ring,
                &tree,
                FlowMode::Unsynchronized,
                SimTime::from_secs(600),
            );
            let sb = sync_staleness_bound(n, k, HOP, PERIOD);
            let ub = unsync_staleness_bound(n, k, PERIOD);
            // The paper's bound uses the idealized log_k N depth; the real
            // tree is ~2·log_k N deep (random zone sizes), so the exact
            // bound is levels·T plus per-hop propagation.
            let levels = tree.depth() as u64 + 1;
            let db = SimTime::from_micros(PERIOD.as_micros() * levels)
                + SimTime::from_micros(HOP.as_micros() * (levels + 2));
            println!(
                "{:>6} {:>4} {:>6} {:>12} {:>12} {:>13} {:>14} {:>13}",
                n,
                k,
                tree.depth(),
                fmt(sync),
                fmt(sb),
                fmt(unsync),
                fmt(ub),
                fmt(db)
            );
            assert!(unsync <= db, "unsync lag above the depth-exact bound");
            assert!(sync <= sb, "sync lag above the paper bound");
            rows.push(json!({
                "n": n, "fanout": k, "depth": tree.depth(),
                "sync_lag_s": sync.as_secs_f64(),
                "sync_bound_s": sb.as_secs_f64(),
                "unsync_lag_s": unsync.as_secs_f64(),
                "unsync_paper_bound_s": ub.as_secs_f64(),
                "unsync_depth_bound_s": db.as_secs_f64(),
            }));
        }
    }
    println!("\n(* the paper's idealized bound assumes depth = log_k N; actual trees are ~2·log_k N deep,");
    println!("   and the measured lag always respects the depth-exact bound in the last column)");

    // The 2M-node analytic row.
    let levels = somo::flow::levels(2_000_000, 8);
    let one_way = SimTime::from_micros(HOP.as_micros() * levels);
    println!(
        "\nanalytic: 2M nodes, k=8, 200 ms/hop → {} levels, one-way propagation {} (paper: \"a lag of 1.6 s\")",
        levels,
        fmt(one_way)
    );

    dump_json(
        "somo_latency",
        &json!({
            "claim": "§3.2 gather staleness",
            "period_s": PERIOD.as_secs_f64(),
            "hop_ms": HOP.as_millis_f64(),
            "rows": rows,
            "analytic_2m": { "levels": levels, "one_way_s": one_way.as_secs_f64() },
        }),
    );
}

/// Worst root-view lag observed after warm-up.
fn measure(ring: &Ring, tree: &SomoTree, mode: FlowMode, horizon: SimTime) -> SimTime {
    let mut sim = GatherSim::new(
        tree,
        ring,
        mode,
        PERIOD,
        |_m, now| FreshnessReport::of_member(now),
        |a, b| if a == b { SimTime::ZERO } else { HOP },
    );
    // A synchronized round is a request descending and partials ascending
    // `depth` levels, plus the leaf's fetch: a k = 2 tree is deep enough
    // (16-26 levels) for that round trip to outlast the default child
    // timeout of one period, and the root would then close every round on
    // its timeout with a partial census.
    let round_trip = SimTime::from_micros(2 * (u64::from(tree.depth()) + 1) * HOP.as_micros());
    sim.set_child_timeout(PERIOD.max(round_trip));
    sim.run_until(horizon);
    assert_eq!(
        sim.stats().rounds_timeout,
        0,
        "a fault-free gather closed a round on its child timeout (N = {}, k = {}, depth {})",
        ring.len(),
        tree.fanout(),
        tree.depth()
    );
    sim.views()
        .iter()
        .filter(|v| v.view.members == ring.len() as u64) // warm-up done
        .map(|v| v.at.saturating_sub(v.view.oldest))
        .max()
        .expect("no complete view within horizon")
}

fn fmt(t: SimTime) -> String {
    format!("{:.2}s", t.as_secs_f64())
}
