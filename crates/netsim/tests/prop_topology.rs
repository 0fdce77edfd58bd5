//! Property tests over the topology generator: any sane parameterization
//! must produce a connected transit–stub network with exact dimensions and
//! a metric-like host latency oracle.

use netsim::{HostId, Network, NetworkConfig, TransitStubConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_generated_networks_are_well_formed(
        td in 1usize..4,
        tpd in 1usize..5,
        sdt in 1usize..4,
        rps in 1usize..5,
        hosts in 2usize..60,
        seed: u64,
    ) {
        let cfg = NetworkConfig {
            topology: TransitStubConfig {
                transit_domains: td,
                transit_per_domain: tpd,
                stub_domains_per_transit: sdt,
                routers_per_stub: rps,
                ..TransitStubConfig::default()
            },
            num_hosts: hosts,
            ..NetworkConfig::default()
        };
        let net = Network::generate(&cfg, seed);
        // Dimensions.
        prop_assert_eq!(net.routers.len(), cfg.topology.num_routers());
        prop_assert_eq!(net.routers.num_transit, td * tpd);
        prop_assert_eq!(net.num_hosts(), hosts);
        // Connectivity.
        prop_assert!(net.routers.graph.is_connected());
        // The latency oracle is a symmetric premetric with zero diagonal.
        for a in (0..hosts as u32).step_by(7) {
            let a = HostId(a);
            prop_assert_eq!(net.latency_ms(a, a), 0.0);
            for b in (0..hosts as u32).step_by(5) {
                let b = HostId(b);
                let ab = net.latency_ms(a, b);
                prop_assert_eq!(ab, net.latency_ms(b, a));
                if a != b {
                    // Two last hops at ≥3 ms each.
                    prop_assert!(ab >= 6.0, "implausibly low latency {}", ab);
                }
            }
        }
        // Degree bounds in the paper's range; bandwidths positive and
        // within the class nominal ±20% jitter.
        for (_, h) in net.hosts.iter() {
            prop_assert!((2..=9).contains(&h.degree_bound));
            let (nom_up, nom_down) = h.bandwidth.class.nominal_kbps();
            prop_assert!((nom_up * 0.8..=nom_up * 1.2).contains(&h.bandwidth.up_kbps));
            prop_assert!((nom_down * 0.8..=nom_down * 1.2).contains(&h.bandwidth.down_kbps));
        }
    }

    #[test]
    fn prop_triangle_inequality_over_random_triples(
        hosts in 10usize..40,
        seed: u64,
        triples in proptest::collection::vec((0u32..40, 0u32..40, 0u32..40), 1..20),
    ) {
        let cfg = NetworkConfig {
            topology: TransitStubConfig {
                transit_domains: 2,
                transit_per_domain: 2,
                stub_domains_per_transit: 2,
                routers_per_stub: 2,
                ..TransitStubConfig::default()
            },
            num_hosts: hosts,
            ..NetworkConfig::default()
        };
        let net = Network::generate(&cfg, seed);
        let n = hosts as u32;
        for (a, b, c) in triples {
            let (a, b, c) = (HostId(a % n), HostId(b % n), HostId(c % n));
            let lhs = net.latency_ms(a, c);
            let rhs = net.latency_ms(a, b) + net.latency_ms(b, c);
            prop_assert!(lhs <= rhs + 1e-3, "triangle violated: {} > {}", lhs, rhs);
        }
    }
}
