//! What the leafset fit allocates beyond the store it returns: each update
//! streams its node's leafset delays and coordinates through two reused
//! buffers of length L, so no N × L table is ever built (paper §4.1: a node
//! refines only its own coordinate, from its own heartbeats).
//!
//! `testkit`'s counting allocator keeps its tallies per thread, so the
//! tests of this binary can run side by side.

use coords::leafset::LeafsetConfig;
use coords::LeafsetCoords;
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
