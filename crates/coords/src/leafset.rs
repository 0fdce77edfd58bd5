//! The leafset-based decentralized coordinate scheme (§4.1).
//!
//! No landmarks: each DHT node already heartbeats with its leafset, so it
//! measures delays `d_m` to leafset members for free and receives their
//! current coordinates in return (`d_p`). Periodically the node re-optimizes
//! *only its own* coordinate with downhill simplex, minimizing
//! `E(x) = Σ_i |d_p(i) − d_m(i)|`, and publishes the result in later
//! heartbeats.
//!
//! The simulation runs this as Gauss–Seidel rounds over the membership: one
//! round = every node updates once using its neighbors' *latest* published
//! coordinates, matching the continuous asynchronous refinement of the real
//! protocol. Because the leafset is a random sample of the whole population
//! (IDs are hashes), leafset neighbors are latency-diverse — exactly why the
//! scheme works.

use dht::Ring;
use netsim::LatencyModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gnp::random_coord;
use crate::simplex::{minimize, SimplexOptions};
use crate::space::{abs_error, CoordStore, DEFAULT_DIM};

/// Configuration of the leafset coordinate protocol.
#[derive(Clone, Debug)]
pub struct LeafsetConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Total leafset size L (L/2 members per side; L=32 is Pastry's
    /// default and the paper's sweet spot).
    pub leafset_size: usize,
    /// Update rounds (each round every node refines once).
    pub rounds: usize,
    /// Bounded multiplicative measurement noise on heartbeat RTTs.
    pub noise: f64,
    /// Simplex budget per node-update.
    pub simplex: SimplexOptions,
}

impl Default for LeafsetConfig {
    fn default() -> Self {
        LeafsetConfig {
            dim: DEFAULT_DIM,
            leafset_size: 32,
            rounds: 20,
            noise: 0.0,
            simplex: SimplexOptions {
                initial_step: 30.0,
                tolerance: 0.1,
                max_evals: 400,
            },
        }
    }
}

/// The leafset coordinate protocol, simulated in rounds.
pub struct LeafsetCoords {
    cfg: LeafsetConfig,
}

impl LeafsetCoords {
    /// A protocol instance with the given configuration.
    pub fn new(cfg: LeafsetConfig) -> LeafsetCoords {
        LeafsetCoords { cfg }
    }

    /// Run the protocol over the members of `ring`, measuring real delays
    /// through `oracle`. Returns coordinates for **all hosts of the
    /// oracle** (hosts not in the ring keep the origin; the pool always
    /// rings every host).
    pub fn run(&self, oracle: &impl LatencyModel, ring: &Ring, seed: u64) -> CoordStore {
        let n_hosts = oracle.num_hosts();
        let dim = self.cfg.dim;
        let mut rng = StdRng::seed_from_u64(seed);
        let r_side = (self.cfg.leafset_size / 2).max(1);
        let n = ring.len();

        // Heartbeat noise: one draw per member and leafset entry, members
        // in ring order. A node's measured delays d_m stay what it heard,
        // so every round replays the same draws from this clone, and the
        // initial coordinates come after them (every leafset has the same
        // length).
        let noise_rng = rng.clone();
        if self.cfg.noise != 0.0 {
            for _ in 0..n * ring.leafset(0, r_side).len() {
                rng.random::<f64>();
            }
        }

        // Random small initial coordinates (every node starts ignorant).
        let mut store = CoordStore::zeros(n_hosts, dim);
        for i in 0..n {
            let c = random_coord(dim, 10.0, &mut rng);
            store.set(ring.member(i).host, c);
        }

        // Gauss–Seidel refinement rounds: every update reads the coordinates
        // its ring predecessors wrote earlier in the same round (and, across
        // the wrap, in the previous one), so they run strictly in order.
        // One node's update reads its leafset's coordinates (dimension-major,
        // as `abs_error` takes them) and delays into two reused buffers.
        let mut nb_cols = Vec::with_capacity(2 * r_side * dim);
        let mut measured = Vec::with_capacity(2 * r_side);
        for round in 0..self.cfg.rounds {
            // Later rounds take smaller simplex steps: coordinates are
            // nearly settled and large probes just inject noise.
            let step = if round < 2 {
                self.cfg.simplex.initial_step
            } else {
                (self.cfg.simplex.initial_step / (round as f64)).max(2.0)
            };
            let opts = SimplexOptions {
                initial_step: step,
                ..self.cfg.simplex
            };
            let mut noise = noise_rng.clone();
            for i in 0..n {
                let me = ring.member(i).host;
                let leafset = ring.leafset(i, r_side);
                let k = leafset.len();
                nb_cols.clear();
                nb_cols.resize(k * dim, 0.0);
                measured.clear();
                for (j, &m) in leafset.iter().enumerate() {
                    let nb = ring.member(m).host;
                    for (d, &x) in store.point(nb).iter().enumerate() {
                        nb_cols[d * k + j] = x;
                    }
                    // One heartbeat RTT: the true delay under bounded
                    // multiplicative noise.
                    let truth = oracle.latency_ms(me, nb);
                    measured.push(if self.cfg.noise == 0.0 {
                        truth
                    } else {
                        truth * (1.0 + self.cfg.noise * (2.0 * noise.random::<f64>() - 1.0))
                    });
                }
                let res = minimize(|p| abs_error(p, &nb_cols, &measured), store.point(me), opts);
                store.point_mut(me).copy_from_slice(res.point());
            }
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{random_pairs, relative_error_cdf};
    use crate::space::Coord;
    use netsim::{HostId, Network, NetworkConfig, TransitStubConfig};

    fn small_net() -> Network {
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
            33,
        )
    }

    #[test]
    fn leafset_coords_embed_reasonably() {
        let net = small_net();
        let ring = Ring::with_random_ids((0..net.num_hosts() as u32).map(HostId), 8);
        let store = LeafsetCoords::new(LeafsetConfig {
            leafset_size: 32,
            rounds: 12,
            ..Default::default()
        })
        .run(&net.latency, &ring, 4);
        let pairs = random_pairs(net.num_hosts(), 800, 10);
        let cdf = relative_error_cdf(&net.latency, &store, &pairs);
        let median = cdf.quantile(0.5).unwrap();
        assert!(median < 0.4, "median relative error {median}");
    }

    #[test]
    fn larger_leafset_helps() {
        // The paper's Figure 4 finding: the leafset variant is sensitive to
        // L; L=32 clearly beats a tiny leafset.
        let net = small_net();
        let ring = Ring::with_random_ids((0..net.num_hosts() as u32).map(HostId), 8);
        let pairs = random_pairs(net.num_hosts(), 800, 11);
        let med = |l: usize| {
            let store = LeafsetCoords::new(LeafsetConfig {
                leafset_size: l,
                rounds: 12,
                ..Default::default()
            })
            .run(&net.latency, &ring, 5);
            relative_error_cdf(&net.latency, &store, &pairs)
                .quantile(0.5)
                .unwrap()
        };
        let m4 = med(4);
        let m32 = med(32);
        assert!(m32 < m4, "L=32 (err {m32}) should beat L=4 (err {m4})");
    }

    #[test]
    fn deterministic_given_seed() {
        let net = small_net();
        let ring = Ring::with_random_ids((0..60u32).map(HostId), 2);
        let cfg = LeafsetConfig {
            rounds: 3,
            ..Default::default()
        };
        let a = LeafsetCoords::new(cfg.clone()).run(&net.latency, &ring, 6);
        let b = LeafsetCoords::new(cfg).run(&net.latency, &ring, 6);
        for h in (0..60u32).map(HostId) {
            assert_eq!(a.get(h), b.get(h));
        }
    }

    #[test]
    fn measurement_noise_degrades_gracefully() {
        // Heartbeat RTTs jitter in practice; a bounded 10% measurement
        // noise must not wreck the embedding (the protocol averages it out
        // across 32 neighbors and repeated refinement).
        let net = small_net();
        let ring = Ring::with_random_ids((0..net.num_hosts() as u32).map(HostId), 8);
        let pairs = random_pairs(net.num_hosts(), 600, 12);
        let med = |noise: f64| {
            let store = LeafsetCoords::new(LeafsetConfig {
                leafset_size: 32,
                rounds: 10,
                noise,
                ..Default::default()
            })
            .run(&net.latency, &ring, 7);
            relative_error_cdf(&net.latency, &store, &pairs)
                .quantile(0.5)
                .unwrap()
        };
        let clean = med(0.0);
        let noisy = med(0.1);
        assert!(
            noisy < clean + 0.15,
            "10% RTT noise blew up the embedding: {clean} → {noisy}"
        );
    }

    #[test]
    fn hosts_outside_ring_stay_at_origin() {
        let net = small_net();
        // Only half the hosts join the ring.
        let ring = Ring::with_random_ids((0..60u32).map(HostId), 2);
        let store = LeafsetCoords::new(LeafsetConfig {
            rounds: 2,
            ..Default::default()
        })
        .run(&net.latency, &ring, 6);
        assert_eq!(store.get(HostId(100)), Coord::zero(DEFAULT_DIM));
    }
}
