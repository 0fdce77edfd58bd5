//! Access-link bandwidth model and packet-pair dispersion (§4.2).
//!
//! The paper measures bottleneck-bandwidth estimation accuracy against the
//! Saroiu/Gummadi/Gribble Gnutella trace, which we cannot redistribute.
//! Instead we sample host access links from a mixture of connection classes
//! whose shape follows the published measurement study:
//!
//! * a large cable/DSL population with **asymmetric** links (downlink well
//!   above uplink),
//! * a modem tail, and
//! * a minority of symmetric high-capacity (T1/T3) hosts.
//!
//! The two properties the paper's Figure 5 relies on are preserved: (1)
//! strong heterogeneity, so leafset-max estimation benefits from larger
//! leafsets, and (2) "most hosts' downlinks exceed most hosts' uplinks", so
//! uplink estimates are more accurate than downlink estimates.
//!
//! Packet pair: two back-to-back packets of size S arrive with dispersion
//! T = S / bottleneck; the receiver estimates bottleneck = S / T. On the path
//! x → y the bottleneck under the last-hop assumption is
//! `min(up(x), down(y))`. Measurement noise is one-sided: cross-traffic
//! queuing can only *stretch* the dispersion, so a probe under-estimates the
//! bottleneck by a bounded factor and never over-estimates it — which is why
//! packet-pair tools (and the paper's estimator) keep the **maximum** over
//! repeated probes.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Connection class of a host's access link; one byte, as
/// [`crate::hosts::HostSet`] stores it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum BandwidthClass {
    /// Dial-up modem, symmetric ~50 kbps.
    Modem,
    /// ADSL: downlink ≫ uplink.
    Dsl,
    /// Cable: downlink ≫ uplink.
    Cable,
    /// T1: symmetric 1.5 Mbps.
    T1,
    /// T3: symmetric 45 Mbps.
    T3,
}

impl BandwidthClass {
    /// Mixture weights (fractions of the population), Gnutella-like:
    /// mostly cable/DSL, a modem tail, a minority of T1/T3.
    pub const MIX: [(BandwidthClass, f64); 5] = [
        (BandwidthClass::Modem, 0.08),
        (BandwidthClass::Dsl, 0.30),
        (BandwidthClass::Cable, 0.50),
        (BandwidthClass::T1, 0.10),
        (BandwidthClass::T3, 0.02),
    ];

    /// Nominal (uplink, downlink) capacity in kbps for the class.
    pub fn nominal_kbps(self) -> (f64, f64) {
        match self {
            BandwidthClass::Modem => (50.0, 50.0),
            BandwidthClass::Dsl => (256.0, 1500.0),
            BandwidthClass::Cable => (400.0, 3000.0),
            BandwidthClass::T1 => (1544.0, 1544.0),
            BandwidthClass::T3 => (44736.0, 44736.0),
        }
    }
}

/// A host's true access-link capacities.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AccessBandwidth {
    /// Connection class.
    pub class: BandwidthClass,
    /// True uplink capacity, kbps.
    pub up_kbps: f64,
    /// True downlink capacity, kbps.
    pub down_kbps: f64,
}

impl AccessBandwidth {
    /// Sample a host's access bandwidth: pick a class from the mixture, then
    /// jitter both directions by ±20% so no two hosts are exactly equal.
    pub fn sample(rng: &mut impl Rng) -> AccessBandwidth {
        let u: f64 = rng.random();
        let mut acc = 0.0;
        let mut class = BandwidthClass::T3;
        for (c, w) in BandwidthClass::MIX {
            acc += w;
            if u < acc {
                class = c;
                break;
            }
        }
        let (up, down) = class.nominal_kbps();
        let jitter = |rng: &mut dyn rand::RngCore, x: f64| x * (0.8 + 0.4 * rng.random::<f64>());
        AccessBandwidth {
            class,
            up_kbps: jitter(rng, up),
            down_kbps: jitter(rng, down),
        }
    }
}

/// The packet-pair measurement model.
#[derive(Clone, Copy, Debug)]
pub struct PacketPair {
    /// Probe packet size in bytes (the paper pads heartbeats to ~1.5 KB).
    pub packet_bytes: f64,
    /// Bound on the dispersion stretch from cross traffic (e.g. `0.1` → the
    /// observed dispersion is 1.0–1.1× the true one, so the measured
    /// bandwidth is 91–100% of the truth).
    pub noise: f64,
}

impl Default for PacketPair {
    fn default() -> Self {
        PacketPair {
            packet_bytes: 1500.0,
            noise: 0.1,
        }
    }
}

impl PacketPair {
    /// True bottleneck on the path `x → y` under the last-hop assumption:
    /// limited by x's uplink and y's downlink.
    pub fn true_bottleneck_kbps(src: &AccessBandwidth, dst: &AccessBandwidth) -> f64 {
        src.up_kbps.min(dst.down_kbps)
    }

    /// Simulate one packet-pair probe from `src` to `dst`, returning the
    /// receiver's bandwidth estimate in kbps.
    pub fn measure_kbps(
        &self,
        src: &AccessBandwidth,
        dst: &AccessBandwidth,
        rng: &mut impl Rng,
    ) -> f64 {
        let truth = Self::true_bottleneck_kbps(src, dst);
        // Dispersion T = S / B; cross traffic stretches it by up to `noise`.
        let dispersion_ms = self.packet_bytes * 8.0 / truth; // kbps → ms for S in bytes*8 bits / kbps
        let measured_dispersion = dispersion_ms * (1.0 + self.noise * rng.random::<f64>());
        self.packet_bytes * 8.0 / measured_dispersion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mixture_weights_sum_to_one() {
        let total: f64 = BandwidthClass::MIX.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_mixture_roughly() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mut cable = 0;
        for _ in 0..n {
            if AccessBandwidth::sample(&mut rng).class == BandwidthClass::Cable {
                cable += 1;
            }
        }
        let frac = cable as f64 / n as f64;
        assert!((frac - 0.50).abs() < 0.01, "cable fraction {frac}");
    }

    #[test]
    fn downlinks_dominate_uplinks_in_population() {
        // The Gnutella-shape property Figure 5 relies on: most hosts'
        // downlink exceeds most (other) hosts' uplink.
        let mut rng = StdRng::seed_from_u64(2);
        let hosts: Vec<AccessBandwidth> = (0..500)
            .map(|_| AccessBandwidth::sample(&mut rng))
            .collect();
        let mut dominate = 0u64;
        let mut total = 0u64;
        for a in &hosts {
            for b in &hosts {
                total += 1;
                if a.down_kbps >= b.up_kbps {
                    dominate += 1;
                }
            }
        }
        let frac = dominate as f64 / total as f64;
        assert!(frac > 0.7, "downlink-dominance fraction too low: {frac}");
    }

    #[test]
    fn packet_pair_noise_is_bounded() {
        let mut rng = StdRng::seed_from_u64(3);
        let pp = PacketPair::default();
        let a = AccessBandwidth::sample(&mut rng);
        let b = AccessBandwidth::sample(&mut rng);
        let truth = PacketPair::true_bottleneck_kbps(&a, &b);
        for _ in 0..100 {
            let m = pp.measure_kbps(&a, &b, &mut rng);
            // One-sided: never above the truth, at worst 1/1.1 of it.
            assert!(m <= truth * (1.0 + 1e-12), "overestimate {m} > {truth}");
            assert!(m >= truth / 1.1 - 1e-9, "underestimate too deep: {m}");
        }
    }

    #[test]
    fn noiseless_packet_pair_is_exact() {
        let mut rng = StdRng::seed_from_u64(4);
        let pp = PacketPair {
            noise: 0.0,
            ..Default::default()
        };
        let a = AccessBandwidth::sample(&mut rng);
        let b = AccessBandwidth::sample(&mut rng);
        let truth = PacketPair::true_bottleneck_kbps(&a, &b);
        let m = pp.measure_kbps(&a, &b, &mut rng);
        assert!((m - truth).abs() / truth < 1e-12);
    }
}
