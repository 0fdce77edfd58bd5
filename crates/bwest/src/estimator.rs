//! The leafset-max bottleneck estimator.

use dht::Ring;
use netsim::hosts::HostSet;
use netsim::{HostId, PacketPair};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Packet-pair probes sent to each neighbor; the estimator keeps the
/// maximum measurement per neighbor (dispersion noise from cross traffic
/// only ever under-estimates, so the largest probe is the most truthful
/// one).
const PROBES_PER_NEIGHBOR: usize = 3;

/// Configuration of an estimation run. The probe model is
/// [`PacketPair::default()`] (1.5 KB packets, 10 % dispersion noise).
#[derive(Clone, Debug)]
pub struct BwEstConfig {
    /// Total leafset size L (L/2 neighbors per side).
    pub leafset_size: usize,
}

impl Default for BwEstConfig {
    fn default() -> Self {
        BwEstConfig { leafset_size: 32 }
    }
}

/// Per-host up/downstream bottleneck estimates, kbps. Hosts that are not
/// ring members (or have no neighbors) hold `0.0`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BwEstimates {
    /// Estimated upstream bottleneck per host.
    pub up_kbps: Vec<f64>,
    /// Estimated downstream bottleneck per host.
    pub down_kbps: Vec<f64>,
}

impl BwEstimates {
    /// Upstream estimate for one host.
    pub fn up(&self, h: HostId) -> f64 {
        self.up_kbps[h.idx()]
    }

    /// Downstream estimate for one host.
    pub fn down(&self, h: HostId) -> f64 {
        self.down_kbps[h.idx()]
    }
}

/// Run the estimation protocol over all members of `ring`: every node
/// packet-pair probes each leafset member in both directions and takes the
/// maximum per direction.
pub fn estimate(hosts: &HostSet, ring: &Ring, cfg: &BwEstConfig, seed: u64) -> BwEstimates {
    let n = hosts.len();
    let mut up = vec![0.0f64; n];
    let mut down = vec![0.0f64; n];
    let mut rng = StdRng::seed_from_u64(seed);
    let r_side = (cfg.leafset_size / 2).max(1);
    let pp = PacketPair::default();

    for i in 0..ring.len() {
        let me = ring.member(i).host;
        let my_bw = &hosts.bandwidth(me);
        for j in ring.leafset(i, r_side) {
            let nb = ring.member(j).host;
            let nb_bw = &hosts.bandwidth(nb);
            // me → nb probes: nb measures, reports back; bounded by
            // min(up(me), down(nb)).
            let m_out = max_probe(&pp, my_bw, nb_bw, &mut rng);
            up[me.idx()] = up[me.idx()].max(m_out);
            // nb → me probes: me measures directly.
            let m_in = max_probe(&pp, nb_bw, my_bw, &mut rng);
            down[me.idx()] = down[me.idx()].max(m_in);
        }
    }
    BwEstimates {
        up_kbps: up,
        down_kbps: down,
    }
}

/// Maximum of [`PROBES_PER_NEIGHBOR`] packet-pair measurements on one
/// directed path (noise is one-sided, so the largest probe is closest to
/// the truth).
fn max_probe(
    pp: &PacketPair,
    src: &netsim::AccessBandwidth,
    dst: &netsim::AccessBandwidth,
    rng: &mut StdRng,
) -> f64 {
    (0..PROBES_PER_NEIGHBOR)
        .map(|_| pp.measure_kbps(src, dst, rng))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Network, NetworkConfig, TransitStubConfig};

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
                num_hosts: 200,
                ..NetworkConfig::default()
            },
            55,
        )
    }

    #[test]
    fn estimates_never_exceed_capacity() {
        let net = net();
        let ring = Ring::with_random_ids((0..200u32).map(HostId), 1);
        let est = estimate(&net.hosts, &ring, &BwEstConfig::default(), 2);
        for (h, host) in net.hosts.iter() {
            // A measurement min(up(x), down(y)) ≤ up(x), and dispersion
            // noise only lowers it further.
            assert!(
                est.up(h) <= host.bandwidth.up_kbps * (1.0 + 1e-9),
                "up estimate above capacity"
            );
            assert!(
                est.down(h) <= host.bandwidth.down_kbps * (1.0 + 1e-9),
                "down estimate above capacity"
            );
        }
    }

    #[test]
    fn uplink_estimation_is_nearly_exact_with_l32() {
        // §4.2: "with leafset of size 32, the average relative error of
        // upstream bandwidth estimation is almost 0".
        let net = net();
        let ring = Ring::with_random_ids((0..200u32).map(HostId), 1);
        let cfg = BwEstConfig { leafset_size: 32 };
        let est = estimate(&net.hosts, &ring, &cfg, 2);
        let mut total_err = 0.0;
        let mut count = 0;
        for (h, host) in net.hosts.iter() {
            let truth = host.bandwidth.up_kbps;
            total_err += (est.up(h) - truth).abs() / truth;
            count += 1;
        }
        let avg = total_err / count as f64;
        assert!(avg < 0.15, "avg uplink relative error {avg}");
    }

    #[test]
    fn estimates_deterministic() {
        let net = net();
        let ring = Ring::with_random_ids((0..200u32).map(HostId), 1);
        let a = estimate(&net.hosts, &ring, &BwEstConfig::default(), 9);
        let b = estimate(&net.hosts, &ring, &BwEstConfig::default(), 9);
        assert_eq!(a.up_kbps, b.up_kbps);
        assert_eq!(a.down_kbps, b.down_kbps);
    }

    #[test]
    fn non_members_hold_zero() {
        let net = net();
        let ring = Ring::with_random_ids((0..50u32).map(HostId), 1);
        let est = estimate(&net.hosts, &ring, &BwEstConfig::default(), 3);
        assert_eq!(est.up(HostId(150)), 0.0);
        assert_eq!(est.down(HostId(150)), 0.0);
    }
}
