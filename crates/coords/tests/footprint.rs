//! What the leafset fit allocates beyond the store it returns: each update
//! streams its node's leafset delays and coordinates through two reused
//! buffers of length L, so no N × L table is ever built (paper §4.1: a node
//! refines only its own coordinate, from its own heartbeats). And what the
//! GNP fit allocates beyond its store: each worker of the host phase walks
//! its hosts lazily and holds one probe buffer of its lanes, so nothing is
//! sized by the membership.
//!
//! `testkit`'s counting allocator keeps its tallies per thread, so the
//! tests of this binary can run side by side.

use coords::leafset::LeafsetConfig;
use coords::simplex::SimplexOptions;
use coords::{GnpConfig, GnpSolver, LeafsetCoords};
use dht::Ring;
use netsim::{HostId, LatencyModel};
use testkit::measured;

#[global_allocator]
static ALLOC: testkit::Counting = testkit::Counting;

/// Hosts spread around a circle of 200 ms circumference: a latency model
/// that costs nothing to build at any size.
struct Circle(usize);

impl LatencyModel for Circle {
    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        let d = a.idx().abs_diff(b.idx());
        200.0 * d.min(self.0 - d) as f64 / self.0 as f64
    }

    fn num_hosts(&self) -> usize {
        self.0
    }
}

#[test]
fn the_leafset_fit_holds_no_table_beyond_its_store() {
    let mut excess = Vec::new();
    for n in [512usize, 4096] {
        let model = Circle(n);
        let ring = Ring::with_random_ids((0..n as u32).map(HostId), 3);
        let fit = LeafsetCoords::new(LeafsetConfig {
            leafset_size: 32,
            rounds: 2,
            noise: 0.1,
            ..LeafsetConfig::default()
        });
        let (store, cost) = measured(|| fit.run(&model, &ring, 5));
        let beyond = cost.peak - store.resident_bytes();
        assert!(
            beyond < 4 * 1024,
            "{n} hosts: the fit peaked {beyond} B above the store it returned"
        );
        excess.push(beyond);
    }
    assert_eq!(
        excess[0], excess[1],
        "the fit's working set must not grow with the membership"
    );
}

#[test]
fn the_gnp_host_phase_holds_no_table_beyond_its_store() {
    // The calling thread fits the first chunk of hosts itself, so a
    // buffer sized by a chunk shows in its tally. A short simplex budget:
    // the fits' length does not change what they hold.
    let fit = GnpSolver::new(GnpConfig {
        sweeps: 1,
        simplex: SimplexOptions {
            max_evals: 24,
            ..GnpConfig::default().simplex
        },
        ..GnpConfig::default()
    });
    let mut excess = Vec::new();
    for n in [4096usize, 32_768] {
        let model = Circle(n);
        let landmarks: Vec<HostId> = (0..16).map(|i| HostId((i * n / 16 + 5) as u32)).collect();
        let (store, cost) = measured(|| fit.solve_with_landmarks(&model, &landmarks, 5));
        let beyond = cost.peak - store.resident_bytes();
        // ≈ 2.4 KiB with one spawned worker, and ≈ 150 B more for each
        // further worker: the calling thread pays for their start-up.
        assert!(
            beyond < 16 * 1024,
            "{n} hosts: the fit peaked {beyond} B above the store it returned"
        );
        excess.push(beyond);
    }
    assert_eq!(
        excess[0], excess[1],
        "the host phase's working set must not grow with the membership"
    );
}
