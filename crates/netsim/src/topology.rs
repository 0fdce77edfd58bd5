//! Transit–stub topology generation (GT-ITM style, §5.2 of the paper).
//!
//! Structure:
//!
//! * `transit_domains` top-level domains, connected to each other in a ring
//!   plus random chords (so the transit backbone survives any single domain
//!   link loss and has realistic path diversity);
//! * within each transit domain, `transit_per_domain` routers connected in a
//!   ring plus random chords;
//! * each transit router sponsors `stub_domains_per_transit` stub domains of
//!   `routers_per_stub` routers; stub-domain routers form a ring plus random
//!   chords, and the stub's gateway router connects up to its transit router.
//!
//! All inter-router links carry one of the three paper latencies:
//! transit–transit 100 ms, stub–transit 25 ms, intra-stub 10 ms (defaults;
//! configurable). Router indices are assigned transit-first, so
//! `RouterId(0..T)` are transit routers and the rest are stub routers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::graph::Graph;

/// Identifier of a router in the underlay.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RouterId(pub u32);

impl From<u32> for RouterId {
    fn from(v: u32) -> Self {
        RouterId(v)
    }
}

/// Configuration of the transit–stub generator.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TransitStubConfig {
    /// Number of transit domains.
    pub transit_domains: usize,
    /// Transit routers per domain.
    pub transit_per_domain: usize,
    /// Stub domains per transit router.
    pub stub_domains_per_transit: usize,
    /// Routers per stub domain.
    pub routers_per_stub: usize,
    /// Transit–transit link latency, ms.
    pub intra_transit_ms: f64,
    /// Stub–transit link latency, ms.
    pub stub_transit_ms: f64,
    /// Intra-stub link latency, ms.
    pub intra_stub_ms: f64,
}

impl Default for TransitStubConfig {
    /// The paper's §5.2 topology: 24 transit routers (4 domains × 6) and
    /// 576 stub routers (24 × 4 stubs × 6 routers), 600 routers in all,
    /// with 100/25/10 ms links.
    fn default() -> Self {
        TransitStubConfig {
            transit_domains: 4,
            transit_per_domain: 6,
            stub_domains_per_transit: 4,
            routers_per_stub: 6,
            intra_transit_ms: 100.0,
            stub_transit_ms: 25.0,
            intra_stub_ms: 10.0,
        }
    }
}

impl TransitStubConfig {
    /// Total number of routers this configuration produces.
    pub fn num_routers(&self) -> usize {
        let transit = self.transit_domains * self.transit_per_domain;
        transit + transit * self.stub_domains_per_transit * self.routers_per_stub
    }
}

/// Which tier a router belongs to, and which domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterKind {
    /// Backbone router: `domain` is the transit-domain index.
    Transit {
        /// Transit domain index.
        domain: u32,
    },
    /// Stub router: `stub` is a global stub-domain index, `gateway` the
    /// transit router the stub hangs off.
    Stub {
        /// Global stub-domain index.
        stub: u32,
        /// The transit router this stub domain attaches to.
        gateway: RouterId,
    },
}

/// The generated router-level network.
#[derive(Clone)]
pub struct RouterNet {
    /// Link graph; edge weights are latencies in ms.
    pub graph: Graph,
    /// Per-router tier/domain info, indexed by `RouterId`.
    pub kinds: Vec<RouterKind>,
    /// Number of transit routers (they occupy ids `0..num_transit`).
    pub num_transit: usize,
}

impl RouterNet {
    /// Generate a transit–stub network. Deterministic in `(cfg, seed)`.
    ///
    /// # Panics
    /// If any dimension is zero.
    pub fn generate(cfg: &TransitStubConfig, seed: u64) -> RouterNet {
        assert!(
            cfg.transit_domains > 0
                && cfg.transit_per_domain > 0
                && cfg.stub_domains_per_transit > 0
                && cfg.routers_per_stub > 0,
            "all topology dimensions must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let t_total = cfg.transit_domains * cfg.transit_per_domain;
        let s_total = t_total * cfg.stub_domains_per_transit * cfg.routers_per_stub;
        let n = t_total + s_total;
        let mut graph = Graph::with_nodes(n);
        let mut kinds = Vec::with_capacity(n);

        // Transit routers: ids [0, t_total), domain-major.
        for d in 0..cfg.transit_domains {
            for _ in 0..cfg.transit_per_domain {
                kinds.push(RouterKind::Transit { domain: d as u32 });
            }
            let base = (d * cfg.transit_per_domain) as u32;
            ring_plus_chords(
                &mut graph,
                base,
                cfg.transit_per_domain,
                cfg.intra_transit_ms as f32,
                &mut rng,
            );
        }

        // Inter-domain backbone: domain ring + chords; each inter-domain link
        // connects a random router of each side.
        if cfg.transit_domains > 1 {
            for d in 0..cfg.transit_domains {
                let e = (d + 1) % cfg.transit_domains;
                connect_domains(&mut graph, cfg, d, e, &mut rng);
            }
            // One random chord per domain for diversity (skipped when it
            // would duplicate a ring edge).
            for d in 0..cfg.transit_domains {
                let e = rng.random_range(0..cfg.transit_domains);
                if e != d
                    && e != (d + 1) % cfg.transit_domains
                    && d != (e + 1) % cfg.transit_domains
                {
                    connect_domains(&mut graph, cfg, d, e, &mut rng);
                }
            }
        }

        // Stub domains: ids [t_total, n), grouped per transit router.
        let mut next = t_total as u32;
        let mut stub_idx = 0u32;
        for t in 0..t_total {
            for _ in 0..cfg.stub_domains_per_transit {
                let base = next;
                for _ in 0..cfg.routers_per_stub {
                    kinds.push(RouterKind::Stub {
                        stub: stub_idx,
                        gateway: RouterId(t as u32),
                    });
                    next += 1;
                }
                ring_plus_chords(
                    &mut graph,
                    base,
                    cfg.routers_per_stub,
                    cfg.intra_stub_ms as f32,
                    &mut rng,
                );
                // Gateway link: a random router in the stub uplinks to the
                // sponsoring transit router.
                let gw = base + rng.random_range(0..cfg.routers_per_stub) as u32;
                graph.add_edge(gw, t as u32, cfg.stub_transit_ms as f32);
                stub_idx += 1;
            }
        }

        debug_assert_eq!(kinds.len(), n);
        let net = RouterNet {
            graph,
            kinds,
            num_transit: t_total,
        };
        debug_assert!(net.graph.is_connected(), "generated topology disconnected");
        net
    }

    /// Total number of routers.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether the network is empty (never true for a generated net).
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Ids of all stub routers (the ones end hosts attach to).
    pub fn stub_routers(&self) -> impl Iterator<Item = RouterId> + '_ {
        (self.num_transit as u32..self.len() as u32).map(RouterId)
    }
}

/// Connect nodes `base..base+n` in a ring, then add ~n/3 random chords.
fn ring_plus_chords(graph: &mut Graph, base: u32, n: usize, w: f32, rng: &mut StdRng) {
    if n == 1 {
        return;
    }
    if n == 2 {
        graph.add_edge(base, base + 1, w);
        return;
    }
    for i in 0..n as u32 {
        graph.add_edge(base + i, base + (i + 1) % n as u32, w);
    }
    let chords = n / 3;
    for _ in 0..chords {
        let a = base + rng.random_range(0..n) as u32;
        let b = base + rng.random_range(0..n) as u32;
        if a != b {
            graph.add_edge(a, b, w);
        }
    }
}

/// Add a transit link between random routers of two transit domains.
fn connect_domains(
    graph: &mut Graph,
    cfg: &TransitStubConfig,
    d: usize,
    e: usize,
    rng: &mut StdRng,
) {
    let a = (d * cfg.transit_per_domain + rng.random_range(0..cfg.transit_per_domain)) as u32;
    let b = (e * cfg.transit_per_domain + rng.random_range(0..cfg.transit_per_domain)) as u32;
    graph.add_edge(a, b, cfg.intra_transit_ms as f32);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_dimensions() {
        let cfg = TransitStubConfig::default();
        let net = RouterNet::generate(&cfg, 7);
        assert_eq!(net.num_transit, 24);
        assert_eq!(net.len(), 600);
        assert_eq!(net.stub_routers().count(), 576);
    }

    #[test]
    fn generated_topology_is_connected() {
        for seed in 0..5 {
            let net = RouterNet::generate(&TransitStubConfig::default(), seed);
            assert!(net.graph.is_connected(), "seed {seed} disconnected");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = TransitStubConfig::default();
        let a = RouterNet::generate(&cfg, 99);
        let b = RouterNet::generate(&cfg, 99);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        for v in 0..a.len() as u32 {
            assert_eq!(a.graph.neighbors(v), b.graph.neighbors(v));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = TransitStubConfig::default();
        let a = RouterNet::generate(&cfg, 1);
        let b = RouterNet::generate(&cfg, 2);
        let same = (0..a.len() as u32).all(|v| a.graph.neighbors(v) == b.graph.neighbors(v));
        assert!(!same);
    }

    #[test]
    fn stub_routers_have_correct_kind_and_gateway() {
        let net = RouterNet::generate(&TransitStubConfig::default(), 3);
        for r in net.stub_routers() {
            match net.kinds[r.0 as usize] {
                RouterKind::Stub { gateway, .. } => {
                    assert!((gateway.0 as usize) < net.num_transit);
                }
                RouterKind::Transit { .. } => panic!("stub range contains transit router"),
            }
        }
    }

    #[test]
    fn intra_stub_links_use_stub_latency() {
        let cfg = TransitStubConfig::default();
        let net = RouterNet::generate(&cfg, 3);
        // Every edge between two stub routers of the same stub domain must be
        // the intra-stub latency.
        for v in net.num_transit as u32..net.len() as u32 {
            let RouterKind::Stub { stub: sv, .. } = net.kinds[v as usize] else {
                unreachable!()
            };
            for &(u, w) in net.graph.neighbors(v) {
                if let RouterKind::Stub { stub: su, .. } = net.kinds[u as usize] {
                    if su == sv {
                        assert_eq!(w, cfg.intra_stub_ms as f32);
                    }
                }
            }
        }
    }

    #[test]
    fn minimal_topology_works() {
        let cfg = TransitStubConfig {
            transit_domains: 1,
            transit_per_domain: 1,
            stub_domains_per_transit: 1,
            routers_per_stub: 1,
            ..Default::default()
        };
        let net = RouterNet::generate(&cfg, 0);
        assert_eq!(net.len(), 2);
        assert!(net.graph.is_connected());
    }
}
