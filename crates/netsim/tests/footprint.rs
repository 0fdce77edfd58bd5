//! The latency kernel's size and build, as numbers a test holds: each
//! router distance is stored once, and the triangle is written where it
//! stays, so building the kernel peaks at the kernel plus one row in
//! flight. And what a host costs: the host set's columns, 30 B a host.
//!
//! The builds run on the calling thread, which is where `testkit`'s
//! counting allocator tallies them.

use netsim::hosts::HostSet;
use netsim::{LatencyMatrix, RouterNet, TransitStubConfig};
use testkit::measured;

#[global_allocator]
static ALLOC: testkit::Counting = testkit::Counting;

/// The paper's 600-router underlay with 4 096 hosts.
fn default_kernel() -> (RouterNet, HostSet) {
    let net = RouterNet::generate(&TransitStubConfig::default(), 5);
    let hosts = HostSet::attach(&net, 4096, (3.0, 8.0), 6);
    (net, hosts)
}

/// At 557b295 the rows were collected in a vector and copied into their
/// shared slice: a peak of 2 849 152 B for 1 447 936 B of full rows.
#[test]
fn building_the_kernel_peaks_at_the_kernel_plus_a_row() {
    let (net, hosts) = default_kernel();
    let (kernel, cost) =
        measured(|| LatencyMatrix::try_build(&net, &hosts).expect("a connected underlay"));
    let (peak, held) = (cost.peak, cost.held);
    // The three shared slices and their reference counts.
    assert!(held <= kernel.resident_bytes() + 64, "holds {held} B");
    // One Dijkstra row and its heap, the slot table.
    let slack = 64 * net.len();
    assert!(
        peak <= kernel.resident_bytes() + slack,
        "peak {peak} B for a kernel of {} B",
        kernel.resident_bytes()
    );
}

/// Each router distance is stored once: the 576 host-attached routers'
/// upper triangle, 576·577/2·4 = 664 704 B, plus 4 096·16 B of host
/// entries and 576·4 B of slot table, 732 544 B in all. One full row per
/// attached router, each distance stored twice, was 1 447 936 B.
#[test]
fn the_4096_host_kernel_stores_each_router_distance_once() {
    let (net, hosts) = default_kernel();
    let kernel = LatencyMatrix::build(&net, &hosts);
    let bytes = kernel.resident_bytes();
    assert!(bytes <= 740_000, "kernel of {bytes} B");
}

/// A host set is one column per attribute: router 4 B, last hop 8 B,
/// degree bound 1 B, bandwidth class 1 B, uplink and downlink 8 B each,
/// 30 B a host, plus the two shared columns' reference counts. A `Host`
/// row per host held 40 B (1 310 720 B at 32 768 hosts).
#[test]
fn a_32768_host_set_holds_at_most_31_bytes_a_host() {
    const N: usize = 32_768;
    let net = RouterNet::generate(&TransitStubConfig::default(), 5);
    let (hosts, cost) = measured(|| HostSet::attach(&net, N, (3.0, 8.0), 6));
    assert_eq!(hosts.len(), N);
    assert!(
        cost.held <= 31 * N,
        "holds {} B, {:.2} B a host",
        cost.held,
        cost.held as f64 / N as f64
    );
    // The stub-router list is all attach adds in flight: no column is
    // built twice.
    assert!(
        cost.peak <= cost.held + 4 * net.len(),
        "peak {} B",
        cost.peak
    );
}
