//! Extension: the live operations surface — the queryable run store,
//! audited for correctness on a faulted fig10-style market.
//!
//! The market is [`Cell::Operator`]: a 300-host pool, nine 12-member
//! sessions over 1800 s, every seventh host crashing from 600 s on. It
//! runs twice through [`bench::cells::gate`], once ring-traced and once
//! with a [`pool::LiveOps`] surface attached (trace streamed into the run
//! store, every pool op / slot / queue change in the delta log, a
//! snapshot a minute, one standing query). The gate holds the store's
//! trace byte-identical to the ring's, the final degree tables equal host
//! for host, **replay from every snapshot** byte-identical to the final
//! state, and nothing evicted.
//!
//! The operator queries ride the same store: "which hosts are over 90%
//! degree utilization", "which hosts crossed up in the last N rounds" —
//! answers carry the [`query`] crate's `Freshness` contract (an empty
//! window reports the a-priori bound, not false freshness).
//!
//! Pass `--store-out` to dump the live and store traces plus the
//! delta/snapshot logs as JSON lines for the byte-comparison step in CI.
//!
//! Run with: `cargo run --release -p bench --bin ext_liveops`

use bench::cells::{gate, surface, Cell, QUERY_BOUND};
use bench::{dump_json, dump_jsonl, store_out_requested};
use pool::liveops::{hosts_crossed_up, hosts_over_threshold};
use serde_json::json;
use simcore::trace::to_json_lines;
use simcore::SimTime;

const UTIL_THRESHOLD: f64 = 0.9;

fn main() {
    let cell = Cell::Operator;
    let cfg = cell.config();
    println!(
        "faulted fig10-style market, {} sessions: ring run, then store run...",
        cfg.sessions
    );
    // A standing operator query: alarm when fewer than 5 hosts near the
    // origin still offer free rank-3 degrees.
    let gated = gate(cell, surface(UTIL_THRESHOLD, 0.15, &[(0, 3, 1, 5)]));
    let (ring_out, _) = &gated.ring;
    let run = &gated.run;
    let store = run.store.lock().expect("store lock");
    let stats = store.stats();
    let replays = store.snapshots().len();
    let tables_checked = run.pool.num_hosts();

    let over = hosts_over_threshold(&store, UTIL_THRESHOLD, QUERY_BOUND).expect("nothing evicted");
    let crossed = hosts_crossed_up(&store, SimTime::ZERO, QUERY_BOUND).expect("nothing evicted");

    println!(
        "\nall gates passed: trace byte-identity (ring == store), \
         {replays} snapshot replays byte-identical to the final state, \
         {tables_checked} final tables matched"
    );

    if store_out_requested() {
        dump_jsonl("ext_liveops_trace_live", &to_json_lines(&ring_out.trace));
        let store_trace = store.trace_json_lines().expect("nothing evicted");
        dump_jsonl("ext_liveops_trace_store", &store_trace);
        dump_jsonl("ext_liveops_deltas", &store.deltas_json_lines());
        dump_jsonl("ext_liveops_snapshots", &store.snapshots_json_lines());
    }

    dump_json(
        "ext_liveops",
        &json!({
            "extension": "liveops",
            "workload": {
                "hosts": tables_checked,
                "sessions": cfg.sessions,
                "member_size": cfg.member_size,
                "horizon_s": cfg.horizon.as_secs_f64(),
                "crash_step": cell.crash_step(),
            },
            "trace": {
                "emitted": ring_out.trace.len(),
                "ring_equals_store": true,
            },
            "store": {
                "trace_appended": stats.trace_appended,
                "trace_evicted": stats.trace_evicted,
                "delta_appended": stats.delta_appended,
                "delta_evicted": stats.delta_evicted,
                "snapshots": stats.snapshots,
                "replays_byte_identical": replays,
                "final_tables_checked": tables_checked,
            },
            "queries": {
                "util_threshold": UTIL_THRESHOLD,
                "hosts_over_threshold_final": over.hosts.len(),
                "hosts_crossed_up_total": crossed.hosts.len(),
                "freshness_bound_s": QUERY_BOUND.as_secs_f64(),
                "empty_window_reports_bound": true,
            },
        }),
    );
}
