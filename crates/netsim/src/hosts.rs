//! End hosts: attachment to stub routers, last-hop latencies, degree bounds
//! and access bandwidths.
//!
//! The paper appends 1200 end systems to stub routers uniformly at random,
//! with a last-hop latency drawn from 3–8 ms. Each host also carries:
//!
//! * a **degree bound** — the number of simultaneous overlay connections the
//!   host can serve, distributed P(degree = i+1) = 2⁻ⁱ for i = 1..7 and
//!   P(degree = 9) = 2⁻⁷ (§5.2: half the hosts can only hold 2 connections,
//!   higher capacities decay exponentially);
//! * an **access bandwidth** (up/down), sampled from the synthetic
//!   Gnutella-like mixture in [`crate::bandwidth`].
//!
//! [`HostSet`] stores these as one immutable column per attribute, not as
//! [`Host`] rows: 30 B a host instead of 40 B. The router (`u32`) and
//! last-hop (`f64`) columns are `Arc`-shared, so the landmark sketch and
//! the tiered oracle read them in place instead of keeping the 12 B a host
//! a copy took. At 2²⁰ hosts that is 30 MiB, where the rows and the
//! sketch's copy took 52 MiB. [`Host`] remains the by-value view that
//! [`HostSet::get`] assembles.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::bandwidth::{AccessBandwidth, BandwidthClass};
use crate::topology::{RouterId, RouterNet};

/// Identifier of an end host.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct HostId(pub u32);

impl From<u32> for HostId {
    fn from(v: u32) -> Self {
        HostId(v)
    }
}

impl HostId {
    /// The id as a usize index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// The paper's degree-bound distribution: P(degree = i+1) = 2⁻ⁱ for
/// i = 1..=7, and the leftover mass 2⁻⁷ on degree 9. Degrees span 2..=9 and
/// half of all hosts get degree 2.
#[derive(Clone, Copy, Debug, Default)]
pub struct DegreeDistribution;

impl DegreeDistribution {
    /// Sample one degree bound.
    pub fn sample(&self, rng: &mut impl Rng) -> u32 {
        let u: f64 = rng.random();
        // CDF over i=1..=7 with mass 2^-i at degree i+1; remainder -> 9.
        let mut acc = 0.0;
        for i in 1..=7u32 {
            acc += 0.5f64.powi(i as i32);
            if u < acc {
                return i + 1;
            }
        }
        9
    }
}

/// One end host's static attributes, by value: what [`HostSet::get`]
/// assembles from the set's columns.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Host {
    /// The stub router this host hangs off.
    pub router: RouterId,
    /// Last-hop latency host <-> router, ms.
    pub last_hop_ms: f64,
    /// Degree bound: maximum simultaneous overlay connections.
    pub degree_bound: u32,
    /// Access-link bandwidth.
    pub bandwidth: AccessBandwidth,
}

/// All end hosts of a generated network, one immutable column per
/// attribute, indexed by `HostId`: 30 B a host (router 4, last hop 8,
/// degree bound 1, bandwidth class 1, uplink 8, downlink 8) where a
/// [`Host`] row takes 40 B. The router and last-hop columns are shared
/// (`Arc`) with whatever reads them in place — the landmark sketch and the
/// tiered oracle over it hold no copy — so a clone of the set copies only
/// the degree and bandwidth columns.
#[derive(Clone)]
pub struct HostSet {
    router: Arc<[u32]>,
    last_hop_ms: Arc<[f64]>,
    degree_bound: Box<[u8]>,
    bw_class: Box<[BandwidthClass]>,
    up_kbps: Box<[f64]>,
    down_kbps: Box<[f64]>,
}

impl HostSet {
    /// Attach `n` hosts to random stub routers of `net`. Each host draws
    /// its router, last hop, degree bound and bandwidth in that order, one
    /// host after another.
    pub fn attach(net: &RouterNet, n: usize, last_hop_ms: (f64, f64), seed: u64) -> HostSet {
        assert!(last_hop_ms.0 <= last_hop_ms.1);
        let mut rng = StdRng::seed_from_u64(seed);
        let stubs: Vec<RouterId> = net.stub_routers().collect();
        assert!(!stubs.is_empty(), "no stub routers to attach hosts to");
        let dd = DegreeDistribution;
        // The shared columns are filled where they stay, like the kernel's
        // rows; the others are pushed into exactly sized vectors.
        let mut router: Arc<[u32]> = std::iter::repeat_n(0, n).collect();
        let mut last_hop: Arc<[f64]> = std::iter::repeat_n(0.0, n).collect();
        let router_col = Arc::get_mut(&mut router).expect("no other handle exists yet");
        let last_hop_col = Arc::get_mut(&mut last_hop).expect("no other handle exists yet");
        let mut degree_bound = Vec::with_capacity(n);
        let mut bw_class = Vec::with_capacity(n);
        let mut up_kbps = Vec::with_capacity(n);
        let mut down_kbps = Vec::with_capacity(n);
        for (r, lh) in router_col.iter_mut().zip(last_hop_col.iter_mut()) {
            *r = stubs[rng.random_range(0..stubs.len())].0;
            *lh = if last_hop_ms.0 == last_hop_ms.1 {
                last_hop_ms.0
            } else {
                rng.random_range(last_hop_ms.0..last_hop_ms.1)
            };
            let d = dd.sample(&mut rng);
            degree_bound.push(u8::try_from(d).expect("degree bounds are 2..=9"));
            let bw = AccessBandwidth::sample(&mut rng);
            bw_class.push(bw.class);
            up_kbps.push(bw.up_kbps);
            down_kbps.push(bw.down_kbps);
        }
        HostSet {
            router,
            last_hop_ms: last_hop,
            degree_bound: degree_bound.into_boxed_slice(),
            bw_class: bw_class.into_boxed_slice(),
            up_kbps: up_kbps.into_boxed_slice(),
            down_kbps: down_kbps.into_boxed_slice(),
        }
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.router.len()
    }

    /// Whether there are no hosts.
    pub fn is_empty(&self) -> bool {
        self.router.is_empty()
    }

    /// A host by id, assembled from the columns.
    pub fn get(&self, id: HostId) -> Host {
        let i = id.idx();
        Host {
            router: RouterId(self.router[i]),
            last_hop_ms: self.last_hop_ms[i],
            degree_bound: self.degree_bound(id),
            bandwidth: self.bandwidth(id),
        }
    }

    /// All hosts, indexed by `HostId`.
    pub fn iter(&self) -> impl Iterator<Item = (HostId, Host)> + '_ {
        self.ids().map(|id| (id, self.get(id)))
    }

    /// All host ids.
    pub fn ids(&self) -> impl Iterator<Item = HostId> {
        (0..self.len() as u32).map(HostId)
    }

    /// Degree bound of a host.
    pub fn degree_bound(&self, id: HostId) -> u32 {
        u32::from(self.degree_bound[id.idx()])
    }

    /// Access-link bandwidth of a host.
    pub fn bandwidth(&self, id: HostId) -> AccessBandwidth {
        let i = id.idx();
        AccessBandwidth {
            class: self.bw_class[i],
            up_kbps: self.up_kbps[i],
            down_kbps: self.down_kbps[i],
        }
    }

    /// Every host's router id, indexed by host id: the shared column.
    pub fn routers(&self) -> &Arc<[u32]> {
        &self.router
    }

    /// Every host's last-hop latency in ms, indexed by host id: the shared
    /// column.
    pub fn last_hops(&self) -> &Arc<[f64]> {
        &self.last_hop_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TransitStubConfig;

    fn net() -> RouterNet {
        RouterNet::generate(&TransitStubConfig::default(), 11)
    }

    #[test]
    fn hosts_attach_to_stub_routers_only() {
        let net = net();
        let hs = HostSet::attach(&net, 300, (3.0, 8.0), 5);
        for (_, h) in hs.iter() {
            assert!(
                (h.router.0 as usize) >= net.num_transit,
                "host attached to transit router"
            );
        }
    }

    #[test]
    fn last_hop_in_range() {
        let net = net();
        let hs = HostSet::attach(&net, 500, (3.0, 8.0), 5);
        for (_, h) in hs.iter() {
            assert!((3.0..8.0).contains(&h.last_hop_ms));
        }
    }

    #[test]
    fn degree_distribution_shape() {
        // Half the hosts must have degree 2, and the mean of the paper
        // distribution is sum_{i=1..7} 2^-i (i+1) + 2^-7 * 9 = 3.0234...
        let mut rng = StdRng::seed_from_u64(4);
        let dd = DegreeDistribution;
        let n = 200_000;
        let mut counts = [0u32; 10];
        for _ in 0..n {
            let d = dd.sample(&mut rng);
            assert!((2..=9).contains(&d));
            counts[d as usize] += 1;
        }
        let frac2 = counts[2] as f64 / n as f64;
        assert!((frac2 - 0.5).abs() < 0.01, "P(degree=2) = {frac2}");
        let frac3 = counts[3] as f64 / n as f64;
        assert!((frac3 - 0.25).abs() < 0.01, "P(degree=3) = {frac3}");
        // Degree 8 and 9 both carry 2^-7 mass.
        let frac9 = counts[9] as f64 / n as f64;
        assert!((frac9 - 1.0 / 128.0).abs() < 0.005, "P(degree=9) = {frac9}");
    }

    #[test]
    fn fixed_last_hop_range_allowed() {
        let net = net();
        let hs = HostSet::attach(&net, 10, (5.0, 5.0), 1);
        for (_, h) in hs.iter() {
            assert_eq!(h.last_hop_ms, 5.0);
        }
    }

    #[test]
    fn attach_is_deterministic() {
        let net = net();
        let a = HostSet::attach(&net, 100, (3.0, 8.0), 77);
        let b = HostSet::attach(&net, 100, (3.0, 8.0), 77);
        for ((_, ha), (_, hb)) in a.iter().zip(b.iter()) {
            assert_eq!(ha.router, hb.router);
            assert_eq!(ha.degree_bound, hb.degree_bound);
            assert_eq!(ha.last_hop_ms, hb.last_hop_ms);
        }
    }

    /// `attach` as it was when the set stored one [`Host`] row per host:
    /// the reference the column layout must match bit for bit.
    fn reference_attach(
        net: &RouterNet,
        n: usize,
        last_hop_ms: (f64, f64),
        seed: u64,
    ) -> Vec<Host> {
        assert!(last_hop_ms.0 <= last_hop_ms.1);
        let mut rng = StdRng::seed_from_u64(seed);
        let stubs: Vec<RouterId> = net.stub_routers().collect();
        assert!(!stubs.is_empty(), "no stub routers to attach hosts to");
        let dd = DegreeDistribution;
        (0..n)
            .map(|_| {
                let router = stubs[rng.random_range(0..stubs.len())];
                let last_hop = if last_hop_ms.0 == last_hop_ms.1 {
                    last_hop_ms.0
                } else {
                    rng.random_range(last_hop_ms.0..last_hop_ms.1)
                };
                Host {
                    router,
                    last_hop_ms: last_hop,
                    degree_bound: dd.sample(&mut rng),
                    bandwidth: AccessBandwidth::sample(&mut rng),
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        // Columns ≡ rows, host by host and bit for bit, over topologies of
        // one to many stub routers, with a last-hop range that is a single
        // value in half the cases (no last-hop draw at all).
        #[test]
        fn prop_column_attach_equals_the_row_wise_reference(
            seed in 0u64..10_000,
            n in 0usize..400,
            shape in (1usize..3, 1usize..4, 1usize..3, 1usize..4),
            lo in 0.0f64..10.0,
            width in (0u8..2, 0.0f64..6.0),
        ) {
            let cfg = TransitStubConfig {
                transit_domains: shape.0,
                transit_per_domain: shape.1,
                stub_domains_per_transit: shape.2,
                routers_per_stub: shape.3,
                ..TransitStubConfig::default()
            };
            let net = RouterNet::generate(&cfg, seed);
            let range = (lo, if width.0 == 0 { lo } else { lo + width.1 });
            let hs = HostSet::attach(&net, n, range, seed ^ 0x5eed);
            let reference = reference_attach(&net, n, range, seed ^ 0x5eed);
            proptest::prop_assert_eq!(hs.len(), reference.len());
            for ((id, h), r) in hs.iter().zip(&reference) {
                proptest::prop_assert_eq!(h.router, r.router);
                proptest::prop_assert_eq!(h.last_hop_ms.to_bits(), r.last_hop_ms.to_bits());
                proptest::prop_assert_eq!(hs.degree_bound(id), r.degree_bound);
                proptest::prop_assert_eq!(h.degree_bound, r.degree_bound);
                let (b, rb) = (hs.bandwidth(id), r.bandwidth);
                proptest::prop_assert_eq!(b.class, rb.class);
                proptest::prop_assert_eq!(b.up_kbps.to_bits(), rb.up_kbps.to_bits());
                proptest::prop_assert_eq!(b.down_kbps.to_bits(), rb.down_kbps.to_bits());
                proptest::prop_assert_eq!(hs.routers()[id.idx()], r.router.0);
                proptest::prop_assert_eq!(hs.last_hops()[id.idx()].to_bits(), r.last_hop_ms.to_bits());
            }
        }
    }
}
