//! The latency kernel's build, as a number a test holds: the Dijkstra rows
//! are written where they stay, so building the kernel peaks at the kernel
//! plus one row in flight.
//!
//! One test, alone in its binary: the counting allocator below sees every
//! allocation of the process, so nothing else may run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use netsim::hosts::HostSet;
use netsim::{LatencyMatrix, RouterNet, TransitStubConfig};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System` (`realloc` through
// the trait's default, i.e. through `alloc` and `dealloc` below); the
// counters are statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The paper's 600-router underlay with 4 096 hosts: 1 447 936 B of kernel,
/// built under a peak of 1 455 064 B. At 557b295 the rows were collected
/// in a vector and copied into their shared slice: a peak of 2 849 152 B.
#[test]
fn building_the_kernel_peaks_at_the_kernel_plus_a_row() {
    let net = RouterNet::generate(&TransitStubConfig::default(), 5);
    let hosts = HostSet::attach(&net, 4096, (3.0, 8.0), 6);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let kernel = LatencyMatrix::try_build(&net, &hosts).expect("a connected underlay");
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let held = LIVE.load(Ordering::Relaxed) - before;
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
