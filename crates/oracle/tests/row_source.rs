//! The hot tier has two row sources — Dijkstra on the router graph (the
//! matrix-free path) and the exact kernel's resident rows (the path
//! `ResourcePool::build` wires) — and they must be indistinguishable from
//! outside: one random promote/lookup sequence driven through both yields
//! the same residents after every promote, the same counters, and the
//! same answer bits on every pair.

use coords::{GnpConfig, GnpSolver};
use netsim::hosts::HostSet;
use netsim::topology::TransitStubConfig;
use netsim::{HostId, LatencyMatrix, LatencyModel, RouterNet};
use oracle::{LandmarkSketch, TieredConfig, TieredOracle};
use proptest::prelude::*;

/// (Dijkstra-on-demand oracle, kernel-fed oracle) over one world.
fn twins(n: usize, seed: u64, cfg: &TieredConfig) -> (TieredOracle, TieredOracle) {
    let net = RouterNet::generate(&TransitStubConfig::default(), seed);
    let hosts = HostSet::attach(&net, n, (3.0, 8.0), seed.wrapping_add(1));
    let lms = LandmarkSketch::default_landmarks(hosts.len(), cfg.landmarks, seed);
    let sketch = LandmarkSketch::build(&net, &hosts, &lms);
    let coords = GnpSolver::new(GnpConfig::default()).solve_with_landmarks(
        &sketch.probes(),
        &lms,
        seed.wrapping_add(9),
    );
    let on_demand = TieredOracle::new(&net, &hosts, coords.clone(), sketch.clone(), cfg);
    let kernel = LatencyMatrix::build(&net, &hosts);
    let fed = TieredOracle::new(&net, &hosts, coords, sketch, cfg).with_row_source(&kernel);
    (on_demand, fed)
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
        let (on_demand, fed) = twins(N as usize, seed, &cfg);
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
        prop_assert_eq!(on_demand.resident_bytes(), fed.resident_bytes());
    }
}
