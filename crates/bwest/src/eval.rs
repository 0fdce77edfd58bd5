//! Accuracy metrics for Figure 5: average relative error vs leafset size,
//! plus ranking correctness (the property helper selection actually needs).

use dht::Ring;
use netsim::hosts::HostSet;
use serde::{Deserialize, Serialize};

use crate::estimator::BwEstimates;

/// Accuracy summary of one estimation run.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BwAccuracy {
    /// Mean of `|est − true| / true` over all ring members, upstream.
    pub up_avg_rel_err: f64,
    /// Mean relative error, downstream.
    pub down_avg_rel_err: f64,
    /// Fraction of member pairs whose *uplink ordering* the estimates get
    /// right (1.0 = perfect ranking, the §4.2 claim at L=32).
    pub up_ranking_accuracy: f64,
}

/// Compare estimates against the true access capacities of ring members.
pub fn evaluate(hosts: &HostSet, ring: &Ring, est: &BwEstimates) -> BwAccuracy {
    let members: Vec<_> = ring.members().iter().map(|m| m.host).collect();
    assert!(!members.is_empty());

    let mut up_err = 0.0;
    let mut down_err = 0.0;
    for &h in &members {
        let bw = hosts.bandwidth(h);
        up_err += (est.up(h) - bw.up_kbps).abs() / bw.up_kbps;
        down_err += (est.down(h) - bw.down_kbps).abs() / bw.down_kbps;
    }

    // Ranking: over all ordered member pairs with distinct true uplinks,
    // does the estimate order them the same way?
    let mut correct = 0u64;
    let mut total = 0u64;
    for (i, &a) in members.iter().enumerate() {
        for &b in &members[i + 1..] {
            let ta = hosts.bandwidth(a).up_kbps;
            let tb = hosts.bandwidth(b).up_kbps;
            if (ta - tb).abs() / ta.max(tb) < 1e-9 {
                continue;
            }
            total += 1;
            if (ta > tb) == (est.up(a) > est.up(b)) {
                correct += 1;
            }
        }
    }

    BwAccuracy {
        up_avg_rel_err: up_err / members.len() as f64,
        down_avg_rel_err: down_err / members.len() as f64,
        up_ranking_accuracy: if total == 0 {
            1.0
        } else {
            correct as f64 / total as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{estimate, BwEstConfig};
    use netsim::{HostId, Network, NetworkConfig, TransitStubConfig};

    fn net() -> Network {
        Network::generate(
            &NetworkConfig {
                topology: TransitStubConfig {
                    transit_domains: 2,
                    transit_per_domain: 3,
                    stub_domains_per_transit: 2,
                    routers_per_stub: 3,
                    ..TransitStubConfig::default()
                },
                num_hosts: 300,
                ..NetworkConfig::default()
            },
            66,
        )
    }

    #[test]
    fn error_decreases_with_leafset_size() {
        // The Figure 5 shape: average relative error shrinks as L grows.
        let net = net();
        let ring = Ring::with_random_ids((0..300u32).map(HostId), 3);
        let err_at = |l: usize| {
            let est = estimate(&net.hosts, &ring, &BwEstConfig { leafset_size: l }, 7);
            evaluate(&net.hosts, &ring, &est).up_avg_rel_err
        };
        let e4 = err_at(4);
        let e32 = err_at(32);
        assert!(e32 < e4, "L=32 ({e32}) must beat L=4 ({e4})");
    }

    #[test]
    fn uplink_beats_downlink_accuracy() {
        // §4.2: uplink is predicted more accurately than downlink because
        // most downlinks exceed most uplinks in the population.
        let net = net();
        let ring = Ring::with_random_ids((0..300u32).map(HostId), 3);
        let est = estimate(&net.hosts, &ring, &BwEstConfig { leafset_size: 32 }, 7);
        let acc = evaluate(&net.hosts, &ring, &est);
        assert!(
            acc.up_avg_rel_err < acc.down_avg_rel_err,
            "uplink err {} should be below downlink err {}",
            acc.up_avg_rel_err,
            acc.down_avg_rel_err
        );
    }

    #[test]
    fn ranking_is_strong_at_l32() {
        let net = net();
        let ring = Ring::with_random_ids((0..300u32).map(HostId), 3);
        let est = estimate(&net.hosts, &ring, &BwEstConfig { leafset_size: 32 }, 7);
        let acc = evaluate(&net.hosts, &ring, &est);
        assert!(
            acc.up_ranking_accuracy > 0.9,
            "ranking accuracy {}",
            acc.up_ranking_accuracy
        );
    }
}
