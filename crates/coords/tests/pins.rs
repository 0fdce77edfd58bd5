//! Every fitted coordinate, pinned bit for bit.
//!
//! The fitting path (Nelder–Mead, the Σ|·| objective, the GNP host phase,
//! the coordinate store) is a kernel other layers are anchored on: a
//! single flipped mantissa bit moves every plan and `model_cost` above
//! it. Each entry point is therefore compared against a `(hosts,
//! FNV-1a-64 over every coordinate's f64 bits)` constant recorded at
//! a311c28, before the kernel was rebuilt.
//!
//! **Re-pinning** follows `crates/testkit/src/lib.rs`: a change that moves
//! coordinates *on purpose* runs the failing test, pastes the printed
//! left-hand pair over the constant and says so in CHANGES.md. A refactor
//! or an optimisation never re-pins.

use coords::leafset::LeafsetConfig;
use coords::{CoordStore, GnpConfig, GnpSolver, LeafsetCoords};
use dht::Ring;
use netsim::hosts::HostSet;
use netsim::topology::TransitStubConfig;
use netsim::{HostId, LatencyModel, Network, NetworkConfig, RouterNet};
use oracle::LandmarkSketch;
use pool::{PoolConfig, ResourcePool};
use testkit::Pin;

/// `(hosts, FNV-1a-64)` over the little-endian bytes of every coordinate
/// component, hosts ascending, dimensions ascending.
fn digest(store: &CoordStore) -> (usize, u64) {
    let n = store.num_hosts();
    let mut pin = Pin::new();
    for host in (0..n as u32).map(HostId) {
        for x in store.get(host).as_slice() {
            pin.bytes(&x.to_bits().to_le_bytes());
        }
    }
    (n, pin.hash)
}

fn small_net(seed: u64) -> Network {
    Network::generate(
        &NetworkConfig {
            topology: TransitStubConfig {
                transit_domains: 2,
                transit_per_domain: 3,
                stub_domains_per_transit: 2,
                routers_per_stub: 3,
                ..TransitStubConfig::default()
            },
            num_hosts: 120,
            ..NetworkConfig::default()
        },
        seed,
    )
}

#[test]
fn gnp_solve_on_120_hosts() {
    let net = small_net(21);
    let store = GnpSolver::new(GnpConfig {
        landmarks: 16,
        sweeps: 5,
        ..Default::default()
    })
    .solve(&net.latency, 3);
    assert_eq!(digest(&store), (120, 0x7535ca5375f3c71a));
}

#[test]
fn gnp_solve_with_landmarks_on_a_matrix_free_4096_host_sketch() {
    let routers = RouterNet::generate(&TransitStubConfig::default(), 7);
    let hosts = HostSet::attach(&routers, 4096, (3.0, 8.0), 8);
    let landmarks = LandmarkSketch::default_landmarks(hosts.len(), 16, 9);
    let sketch = LandmarkSketch::build(&routers, &hosts, &landmarks);
    let store =
        GnpSolver::new(GnpConfig::default()).solve_with_landmarks(&sketch.probes(), &landmarks, 10);
    assert_eq!(digest(&store), (4096, 0xaca5733f8f175ee8));
}

#[test]
fn leafset_run_on_120_hosts() {
    let net = small_net(33);
    let ring = Ring::with_random_ids((0..net.num_hosts() as u32).map(HostId), 8);
    let run = |noise: f64, seed: u64| {
        LeafsetCoords::new(LeafsetConfig {
            leafset_size: 32,
            rounds: 12,
            noise,
            ..Default::default()
        })
        .run(&net.latency, &ring, seed)
    };
    assert_eq!(digest(&run(0.0, 4)), (120, 0xb44d897bb01a303e));
    // Noisy heartbeats draw from the rng before the rounds start.
    assert_eq!(digest(&run(0.1, 7)), (120, 0x13625dfd5cd01259));
}

#[test]
fn leafset_run_on_a_ring_smaller_than_its_leafset() {
    // 20 members, L = 32: every leafset is truncated to the 19 others,
    // and each heartbeat delay carries noise.
    let net = small_net(33);
    let ring = Ring::with_random_ids((0..20u32).map(HostId), 8);
    let store = LeafsetCoords::new(LeafsetConfig {
        leafset_size: 32,
        rounds: 12,
        noise: 0.1,
        ..Default::default()
    })
    .run(&net.latency, &ring, 11);
    assert_eq!(digest(&store), (120, 0x5574bc20dbb55e1c));
}

#[test]
fn pool_build_coordinates() {
    // The default 1200-host pool, and the 600-host pool the market
    // figures and their anchors run on.
    let pool = ResourcePool::build(&PoolConfig::default(), 2024);
    assert_eq!(digest(&pool.coords), (1200, 0xa824aaad4cedfcd4));
    let mut cfg = PoolConfig::default();
    cfg.net.num_hosts = 600;
    let pool = ResourcePool::build(&cfg, 2024);
    assert_eq!(digest(&pool.coords), (600, 0x8038b95bd401267f));
}
