#![warn(missing_docs)]

//! # netsim — the simulated wide-area underlay
//!
//! The paper evaluates on a GT-ITM two-layer *transit–stub* topology: 24
//! transit routers, 576 stub routers, link latencies of 100 ms
//! (transit–transit), 25 ms (stub–transit) and 10 ms (intra-stub), with 1200
//! end systems attached to stub routers by a 3–8 ms last hop (§5.2). GT-ITM
//! itself is 1990s C that we cannot ship, so this crate implements a
//! transit–stub generator with exactly those structural parameters — the only
//! properties the paper's experiments rely on.
//!
//! The crate provides:
//!
//! * [`topology`] — the router-level transit–stub generator;
//! * [`graph`] — a small weighted-graph type with Dijkstra;
//! * [`hosts`] — end-host attachment, last-hop latencies, and the paper's
//!   degree-bound distribution (P(degree = i+1) = 2⁻ⁱ);
//! * [`latency`] — the all-pairs host latency oracle and the [`LatencyModel`]
//!   trait shared by every ALM algorithm (oracle vs. coordinate-estimated);
//! * [`bandwidth`] — the synthetic access-bandwidth mixture standing in for
//!   the Gnutella trace, plus the packet-pair dispersion model.
//!
//! ## Example
//!
//! ```
//! use netsim::{Network, NetworkConfig, TransitStubConfig};
//!
//! // A scaled-down network for tests: 2×3 transit, 2 stubs × 3 routers each.
//! let cfg = NetworkConfig {
//!     topology: TransitStubConfig {
//!         transit_domains: 2,
//!         transit_per_domain: 3,
//!         stub_domains_per_transit: 2,
//!         routers_per_stub: 3,
//!         ..TransitStubConfig::default()
//!     },
//!     num_hosts: 60,
//!     ..NetworkConfig::default()
//! };
//! let net = Network::generate(&cfg, 42);
//! assert_eq!(net.num_hosts(), 60);
//! let d = net.latency_ms(0.into(), 1.into());
//! assert!(d > 0.0);
//! ```

pub mod bandwidth;
pub mod graph;
pub mod hosts;
pub mod latency;
pub mod topology;

pub use bandwidth::{AccessBandwidth, BandwidthClass, PacketPair};
pub use hosts::{DegreeDistribution, HostId};
pub use latency::{DisconnectedUnderlay, LatencyMatrix, LatencyModel};
pub use topology::{RouterId, RouterNet, TransitStubConfig};

use serde::{Deserialize, Serialize};

/// Full configuration for a generated network: router topology + end hosts.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// The router-level transit–stub topology.
    pub topology: TransitStubConfig,
    /// Last-hop latency range for end hosts, ms (inclusive low, exclusive high).
    pub last_hop_ms: (f64, f64),
    /// Number of end hosts attached to random stub routers.
    pub num_hosts: usize,
}

impl Default for NetworkConfig {
    /// The paper's §5.2 configuration: the default topology (600 routers),
    /// 1200 end systems and a 3–8 ms last hop.
    fn default() -> Self {
        NetworkConfig {
            topology: TransitStubConfig::default(),
            last_hop_ms: (3.0, 8.0),
            num_hosts: 1200,
        }
    }
}

/// A fully generated network: router topology, all-pairs router distances,
/// end hosts with last-hop latencies, degree bounds and access bandwidths.
///
/// This is the "physical world" every experiment runs against. Generation is
/// deterministic from `(config, seed)`.
#[derive(Clone)]
pub struct Network {
    /// Router-level topology.
    pub routers: RouterNet,
    /// End-host attachment and attributes.
    pub hosts: hosts::HostSet,
    /// All-pairs host latency oracle.
    pub latency: LatencyMatrix,
}

impl Network {
    /// Generate a network from a configuration and a master seed.
    pub fn generate(cfg: &NetworkConfig, seed: u64) -> Network {
        let routers = RouterNet::generate(&cfg.topology, simcore::rng::derive_seed(seed, 1));
        let hosts = hosts::HostSet::attach(
            &routers,
            cfg.num_hosts,
            cfg.last_hop_ms,
            simcore::rng::derive_seed(seed, 2),
        );
        let latency = LatencyMatrix::build(&routers, &hosts);
        Network {
            routers,
            hosts,
            latency,
        }
    }

    /// Number of end hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Oracle latency between two hosts, ms.
    pub fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        self.latency.latency_ms(a, b)
    }
}
