//! Figure 5: average relative error of bottleneck-bandwidth estimation vs
//! leafset size.
//!
//! Paper setup: hosts draw access bandwidths from the Gnutella trace (we
//! substitute the documented synthetic mixture); every node estimates its
//! up/downstream bottleneck as the leafset-max of packet-pair probes.
//! Findings to reproduce: (1) error decreases with leafset size, (2) uplink
//! is predicted more accurately than downlink, (3) at L=32 the uplink error
//! is almost 0 and the uplink ranking is essentially perfect.
//!
//! Run with: `cargo run --release -p bench --bin fig5_bandwidth`

use bench::dump_json;
use bwest::estimator::{estimate, BwEstConfig};
use bwest::eval::evaluate;
use dht::Ring;
use netsim::{HostId, Network, NetworkConfig};
use serde_json::json;

fn main() {
    let seed = 2005;
    println!("generating 1200-host network with Gnutella-like access bandwidths...");
    let net = Network::generate(&NetworkConfig::default(), seed);
    let ring = Ring::with_random_ids((0..net.num_hosts() as u32).map(HostId), seed + 1);

    let sizes = [2usize, 4, 8, 16, 32, 64];
    println!(
        "\nFigure 5 — average relative error vs leafset size:\n{:>8} {:>12} {:>12} {:>14}",
        "L", "uplink err", "downlink err", "uplink ranking"
    );
    let mut rows = Vec::new();
    for &l in &sizes {
        let est = estimate(
            &net.hosts,
            &ring,
            &BwEstConfig { leafset_size: l },
            seed + 10 + l as u64,
        );
        let acc = evaluate(&net.hosts, &ring, &est);
        println!(
            "{:>8} {:>12.4} {:>12.4} {:>13.1}%",
            l,
            acc.up_avg_rel_err,
            acc.down_avg_rel_err,
            acc.up_ranking_accuracy * 100.0
        );
        rows.push((l, acc));
    }

    // The paper's qualitative claims, checked right here.
    let first = &rows[0].1;
    let last = &rows[rows.len() - 1].1;
    assert!(
        last.up_avg_rel_err < first.up_avg_rel_err,
        "uplink error should fall with leafset size"
    );
    let l32 = &rows.iter().find(|(l, _)| *l == 32).unwrap().1;
    println!("\nchecks: L=32 uplink err {:.4} (paper: almost 0), ranking {:.1}% (paper: 100%), uplink better than downlink: {}",
        l32.up_avg_rel_err,
        l32.up_ranking_accuracy * 100.0,
        l32.up_avg_rel_err < l32.down_avg_rel_err,
    );

    let json = json!({
        "figure": "5",
        "rows": rows.iter().map(|(l, a)| json!({
            "leafset_size": l,
            "up_avg_rel_err": a.up_avg_rel_err,
            "down_avg_rel_err": a.down_avg_rel_err,
            "up_ranking_accuracy": a.up_ranking_accuracy,
        })).collect::<Vec<_>>(),
    });
    dump_json("fig5_bandwidth", &json);
}
