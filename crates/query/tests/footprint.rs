//! The index's footprint, as a number a test holds.
//!
//! One test, alone in its binary: the counting allocator below sees every
//! allocation of the process, so nothing else may run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dht::Ring;
use netsim::HostId;
use query::{HostSample, QueryIndex, RegionBounds};
use simcore::SimTime;

static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System` (`realloc` through
// the trait's default, i.e. through `alloc` and `dealloc` below); the
// counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
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

/// The layout this one replaced cost 1 923 B per host at this size (an
/// aggregate for every logical node, a retained `SomoTree`, a hash map from
/// leaf to member); see DESIGN.md §10.2.
#[test]
fn resident_bytes_per_host_is_bounded() {
    const N: usize = 2048;
    let ring = Ring::with_random_ids((0..N as u32).map(HostId), 2020);
    let before = LIVE.load(Ordering::Relaxed);
    let idx = QueryIndex::build(
        &ring,
        8,
        SimTime::from_secs(60),
        RegionBounds::default(),
        |m| {
            Some(HostSample {
                host: ring.member(m).host,
                free: [9, 7, 5, (m % 11) as u32],
                pos: [(m % 700) as f64 - 350.0, (m % 300) as f64 - 150.0],
                bw_class: (m % 5) as u8,
                sampled_at: SimTime::from_secs(10),
                capacity: 12,
                queued: 0,
                preempted: 0,
            })
        },
    );
    let held = LIVE.load(Ordering::Relaxed) - before;
    let claimed = idx.resident_bytes();
    assert_eq!(idx.root_aggregate().hosts, N as u64);
    assert!(
        claimed <= 512 * N,
        "{claimed} B resident = {} B per host",
        claimed / N
    );
    assert!(
        claimed.abs_diff(held) * 10 <= held,
        "resident_bytes() says {claimed} B, the allocator holds {held} B"
    );
}
