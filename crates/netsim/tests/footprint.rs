//! The latency kernel's build, as a number a test holds: the Dijkstra rows
//! are written where they stay, so building the kernel peaks at the kernel
//! plus one row in flight.
//!
//! The build runs on the calling thread, which is where `testkit`'s
//! counting allocator tallies it.

use netsim::hosts::HostSet;
use netsim::{LatencyMatrix, RouterNet, TransitStubConfig};
use testkit::measured;

#[global_allocator]
static ALLOC: testkit::Counting = testkit::Counting;

/// The paper's 600-router underlay with 4 096 hosts: 1 447 936 B of kernel,
/// built under a peak of 1 455 064 B. At 557b295 the rows were collected
/// in a vector and copied into their shared slice: a peak of 2 849 152 B.
#[test]
fn building_the_kernel_peaks_at_the_kernel_plus_a_row() {
    let net = RouterNet::generate(&TransitStubConfig::default(), 5);
    let hosts = HostSet::attach(&net, 4096, (3.0, 8.0), 6);
    let (kernel, cost) =
        measured(|| LatencyMatrix::try_build(&net, &hosts).expect("a connected underlay"));
    let (peak, held) = (cost.peak, cost.held);
    // The two shared slices and their reference counts.
    assert!(held <= kernel.resident_bytes() + 64, "holds {held} B");
    // One Dijkstra row and its heap, the source list, the offset table.
    let slack = 64 * net.len();
    assert!(
        peak <= kernel.resident_bytes() + slack,
        "peak {peak} B for a kernel of {} B",
        kernel.resident_bytes()
    );
}
