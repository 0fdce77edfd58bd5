//! The hot tier has two row sources — Dijkstra on a copy of the router
//! graph (`TieredOracle::new`, the matrix-free path) and rows gathered
//! from the network kernel's triangle (`TieredOracle::over_network`, the
//! path `ResourcePool::build` takes) — and on the default
//! integral-millisecond underlay they must be indistinguishable from
//! outside: one random promote/lookup sequence driven through both yields
//! the same residents after every promote, the same counters, and the
//! same answer bits on every pair. Only what they hold differs: the router
//! graph.

use coords::{GnpConfig, GnpSolver};
use netsim::hosts::HostSet;
use netsim::topology::TransitStubConfig;
use netsim::{HostId, LatencyMatrix, LatencyModel, Network, RouterNet};
use oracle::{LandmarkSketch, TieredConfig, TieredOracle};
use proptest::prelude::*;

/// (Dijkstra-on-demand oracle, network-fed oracle) over one world, and the
/// bytes of its router graph's adjacency lists.
fn twins(n: usize, seed: u64, cfg: &TieredConfig) -> (TieredOracle, TieredOracle, usize) {
    let routers = RouterNet::generate(&TransitStubConfig::default(), seed);
    let hosts = HostSet::attach(&routers, n, (3.0, 8.0), seed.wrapping_add(1));
    let lms = LandmarkSketch::default_landmarks(hosts.len(), cfg.landmarks, seed);
    let sketch = LandmarkSketch::build(&routers, &hosts, &lms);
    let coords = GnpSolver::new(GnpConfig::default()).solve_with_landmarks(
        &sketch.probes(),
        &lms,
        seed.wrapping_add(9),
    );
    let on_demand = TieredOracle::new(&routers, &hosts, coords.clone(), sketch.clone(), cfg);
    let graph = &routers.graph;
    let graph_bytes = graph.len() * 24 + 2 * graph.num_edges() * 8;
    let latency = LatencyMatrix::build(&routers, &hosts);
    let net = Network {
        routers,
        hosts,
        latency,
    };
    let fed = TieredOracle::over_network(&net, coords, sketch, cfg);
    (on_demand, fed, graph_bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_row_sources_cannot_diverge(
        seed in 0u64..1000,
        hot_rows in 0usize..12,
        // Each step promotes a batch of hosts, then looks a batch of pairs up.
        steps in proptest::collection::vec(
            (
                proptest::collection::vec(0u32..150, 0..10),
                proptest::collection::vec((0u32..150, 0u32..150), 0..30),
            ),
            1..25,
        ),
    ) {
        const N: u32 = 150;
        let cfg = TieredConfig { hot_rows, landmarks: 8, tightness: 1.25 };
        let (on_demand, fed, graph_bytes) = twins(N as usize, seed, &cfg);
        for (promote, lookups) in &steps {
            let batch: Vec<HostId> = promote.iter().copied().map(HostId).collect();
            on_demand.promote(&batch);
            fed.promote(&batch);
            prop_assert_eq!(on_demand.resident_routers(), fed.resident_routers());
            for &(a, b) in lookups {
                prop_assert_eq!(
                    on_demand.latency_ms(HostId(a), HostId(b)).to_bits(),
                    fed.latency_ms(HostId(a), HostId(b)).to_bits()
                );
            }
            prop_assert_eq!(on_demand.stats(), fed.stats());
        }
        // Whatever the sequence left resident, every pair agrees.
        for a in 0..N {
            for b in 0..N {
                prop_assert_eq!(
                    on_demand.latency_ms(HostId(a), HostId(b)).to_bits(),
                    fed.latency_ms(HostId(a), HostId(b)).to_bits(),
                    "row sources diverge at ({}, {})", a, b
                );
            }
        }
        prop_assert_eq!(on_demand.stats(), fed.stats());
        // The network-fed oracle reads the network's kernel instead of
        // holding a router graph: exactly the graph's bytes less.
        prop_assert_eq!(fed.resident_bytes(), on_demand.resident_bytes() - graph_bytes);
    }
}
